"""System dimensions shared by every module.

A single frozen dataclass pins down the multicarrier geometry: the number
of subcarriers M, the channel length L_h (which also fixes the cyclic
prefix nu = L_h - 1), the prototype overlapping factor K, and the training
energy budget E.  Everything downstream (synthesis, estimation, energy
accounting) takes one of these instead of loose integers.
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


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Multicarrier dimensions and training budget.

    M    -- subcarrier count, power of two
    L_h  -- channel impulse response length in samples, power of two,
            with 2 <= L_h <= M/2 so that M/L_h is an integer >= 2
    K    -- prototype overlapping factor, integer 1..5 (OQAM only)
    E    -- training energy budget used by the preamble constructors,
            positive and finite
    """

    M: int
    L_h: int
    K: int = 4
    E: float = 1.0

    def __post_init__(self) -> None:
        for name in ("M", "L_h", "K"):
            _check_int(name, getattr(self, name))
        if not _is_pow2(self.M):
            raise ValueError(f"M must be a power of two, got {self.M}")
        if not _is_pow2(self.L_h):
            raise ValueError(f"L_h must be a power of two, got {self.L_h}")
        if not (2 <= self.L_h <= self.M // 2):
            raise ValueError(
                f"L_h must satisfy 2 <= L_h <= M/2, got L_h={self.L_h} M={self.M}"
            )
        if self.M % self.L_h != 0:
            raise ValueError("M must be an integer multiple of L_h")
        if not (1 <= self.K <= 5):
            raise ValueError(f"K must be an integer in 1..5, got {self.K}")
        _check_real("E", self.E)
        if not (math.isfinite(self.E) and self.E > 0):
            raise ValueError(f"E must be positive and finite, got {self.E}")

    @property
    def nu(self) -> int:
        """Cyclic prefix length, always L_h - 1."""
        return self.L_h - 1
