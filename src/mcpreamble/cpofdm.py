"""CP-OFDM modulator, demodulator, and cyclic-prefix energy.

One training symbol: the frequency vector x (length M) is carried to time
by the scaled inverse DFT u = F^H x / sqrt(M), and the last nu samples
are copied in front as the cyclic prefix.  A frame is its M + nu time
samples s; the useful part is s[..., nu:].  With the package DFT
convention the demodulator y = F r[nu:nu+M] / sqrt(M) returns

    y = diag(H) x + eta,      eta white with the channel noise variance,

whenever the channel is no longer than nu + 1 samples.  The transmitted
energy splits as

    ||s||^2 = ||x||^2 + x^H G x / M,   G = cp_gram(M, nu),

so the prefix cost of a preamble is exactly its Gram quadratic form,
which cp_energy evaluates.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig


def _check_length(x, M: int) -> None:
    if x.shape[-1:] != (M,):
        raise ValueError(f"x must have length M={M}, "
                         f"got {x.shape[-1] if x.ndim else 1}")


def modulate(x, config: SystemConfig) -> np.ndarray:
    """IDFT plus cyclic prefix: the (..., M + nu) samples of the frame.

    u = sqrt(M) * ifft(x) equals F^H x / sqrt(M), and the frame is the
    last nu samples of u followed by u.  x is (..., M) with the symbols
    along the last axis; a stack of symbol vectors gives a stack of
    frames, each row exactly the row's own frame.
    """
    x = np.asarray(x, dtype=complex)
    M, nu = config.M, config.nu
    _check_length(x, M)
    u = np.sqrt(M) * np.fft.ifft(x, axis=-1)
    return np.concatenate([u[..., M - nu:], u], axis=-1)


def demodulate(r, config: SystemConfig) -> np.ndarray:
    """Drop the prefix and apply the scaled DFT: y = F r[nu:nu+M] / sqrt(M).

    r is (..., L) with the samples along the last axis; the result is
    (..., M), one symbol per row.
    """
    r = np.asarray(r, dtype=complex)
    M, nu = config.M, config.nu
    if r.shape[-1] < nu + M:
        raise ValueError(f"need at least nu+M={nu + M} samples, "
                         f"got {r.shape[-1]}")
    return np.fft.fft(r[..., nu:nu + M], axis=-1) / np.sqrt(M)


def cp_energy(x, config: SystemConfig) -> float | np.ndarray:
    """Prefix energy x^H G x / M without forming G = cp_gram(M, nu).

    The prefix copies u[M-nu:] with u = sqrt(M) * ifft(x), so the value
    is M * sum of |ifft(x)|^2 over the last nu samples.  x is (..., M);
    the result has one value per row, a float for a single vector.
    """
    x = np.asarray(x, dtype=complex)
    M, nu = config.M, config.nu
    _check_length(x, M)
    u = np.fft.ifft(x, axis=-1)
    e = M * np.sum(np.abs(u[..., M - nu:]) ** 2, axis=-1)
    return float(e) if x.ndim == 1 else e
