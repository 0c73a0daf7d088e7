"""CP-OFDM modulator, demodulator, and cyclic-prefix energy.

One training symbol: the frequency vector x (length M) is carried to time
by the scaled inverse DFT u = F^H x / sqrt(M), and the last nu samples
are copied in front as the cyclic prefix.  With the package DFT
convention this makes the demodulator y = F r[nu:nu+M] / sqrt(M) return

    y = diag(H) x + eta,      eta white with the channel noise variance,

whenever the channel is no longer than nu + 1 samples.  The transmitted
energy splits as

    ||s||^2 = ||x||^2 + x^H G x / M,   G = cp_gram(M, nu),

so the prefix cost of a preamble is exactly its Gram quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class CpOfdmFrame:
    """Frequency-domain training vector and its time-domain frame."""

    x: np.ndarray   # (M,) frequency symbols
    s: np.ndarray   # (M + nu,) time samples including the prefix
    nu: int

    @property
    def useful(self) -> np.ndarray:
        """Time samples after the prefix."""
        return self.s[self.nu:]

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.s) ** 2))


def modulate(x, config: SystemConfig) -> CpOfdmFrame:
    """IDFT plus cyclic prefix.  u = sqrt(M) * ifft(x) equals F^H x / sqrt(M)."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    M, nu = config.M, config.nu
    if len(x) != M:
        raise ValueError(f"x must have length M={M}, got {len(x)}")
    u = np.sqrt(M) * np.fft.ifft(x)
    s = np.concatenate([u[M - nu:], u])
    return CpOfdmFrame(x=x, s=s, nu=nu)


def demodulate(r, config: SystemConfig) -> np.ndarray:
    """Drop the prefix and apply the scaled DFT: y = F r[nu:nu+M] / sqrt(M)."""
    r = np.asarray(r, dtype=complex).reshape(-1)
    M, nu = config.M, config.nu
    if len(r) < nu + M:
        raise ValueError(f"need at least nu+M={nu + M} samples, got {len(r)}")
    return np.fft.fft(r[nu:nu + M]) / np.sqrt(M)


def cp_energy(x, config: SystemConfig) -> float:
    """Prefix energy x^H G x / M without forming G = cp_gram(M, nu).

    The prefix copies u[M-nu:] with u = sqrt(M) * ifft(x), so the value
    is M * sum of |ifft(x)|^2 over the last nu samples.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    M, nu = config.M, config.nu
    if len(x) != M:
        raise ValueError(f"x must have length M={M}")
    u = np.fft.ifft(x)
    return float(M * np.sum(np.abs(u[M - nu:]) ** 2))
