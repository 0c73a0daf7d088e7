"""System dimensions shared by every module.

A single frozen dataclass pins down the multicarrier grid, and only it:
the number of subcarriers M and the channel length L_h (which also fixes
the cyclic prefix nu = L_h - 1).  A pulse carries its overlapping factor
K, and each preamble constructor takes its training energy E.  Everything
downstream takes one of these instead of loose integers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _check_int(name: str, value) -> None:
    """Reject anything but an integer; numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Reject anything but a real number; numpy floats pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_energy(name: str, value) -> None:
    """Reject anything but a positive, finite real number: an energy
    budget or its scale."""
    _check_real(name, value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_noise_variance(name: str, value) -> None:
    """Reject anything but a finite real number >= 0: a noise variance."""
    _check_real(name, value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Multicarrier grid.

    M    -- subcarrier count, power of two
    L_h  -- channel impulse response length in samples, power of two,
            with 2 <= L_h <= M/2 so that M/L_h is an integer >= 2
    """

    M: int
    L_h: int

    def __post_init__(self) -> None:
        for name in ("M", "L_h"):
            _check_int(name, getattr(self, name))
        if not _is_pow2(self.M):
            raise ValueError(f"M must be a power of two, got {self.M}")
        if not _is_pow2(self.L_h):
            raise ValueError(f"L_h must be a power of two, got {self.L_h}")
        if not (2 <= self.L_h <= self.M // 2):
            raise ValueError(
                f"L_h must satisfy 2 <= L_h <= M/2, got L_h={self.L_h} M={self.M}"
            )

    @property
    def nu(self) -> int:
        """Cyclic prefix length, always L_h - 1."""
        return self.L_h - 1
