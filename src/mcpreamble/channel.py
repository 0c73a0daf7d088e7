"""Multipath channel model: tapped delay line with Rayleigh-faded taps.

The one profile is the six-path Vehicular A power delay profile
(delays 0..2510 ns, powers 0..-20 dB).  It is resampled onto the system
sample grid by rounding each path delay to the nearest sample and adding
powers that land on the same tap.  The sample period is chosen so the
last path falls on the last usable tap for the configured L_h, which
keeps the delay spread proportionally identical across scales; with
L_h = 32 this puts the six paths on samples [0, 3, 8, 12, 19, 28].

Tap powers are normalized to sum to one, so E||h||^2 = 1 and the CFR
satisfies E||H||^2 = M.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import (SystemConfig, _check_int, _check_noise_variance,
                     _check_real)

VEH_A_DELAYS_NS = np.array([0.0, 310.0, 710.0, 1090.0, 1730.0, 2510.0])
VEH_A_POWERS_DB = np.array([0.0, -1.0, -9.0, -10.0, -15.0, -20.0])

# Reference discretization: with L_h = 32 the last Vehicular A path sits
# on sample 28.  Other channel lengths scale that anchor proportionally.
_REF_LAST_TAP = 28
_REF_L_H = 32


class TapProfile(NamedTuple):
    """Discrete power delay profile on the system sample grid, as
    sample_profile builds it, in read-only arrays."""

    taps: np.ndarray     # int64 sample positions, strictly increasing from 0
    powers: np.ndarray   # linear mean power per tap, sums to one


def sample_profile(L_h: int) -> TapProfile:
    """The Vehicular A power delay profile resampled for a channel length.

    The sample period is set so the largest delay rounds to the tap
    round(_REF_LAST_TAP * L_h / _REF_L_H), capped at L_h - 1 so very
    short responses stay in range; paths rounding to the same sample
    have their linear powers added.  L_h is an integer >= 2 (else
    ValueError); each length's profile is one record, built once.
    """
    _check_int("L_h", L_h, 2)
    return _veh_a_profile(int(L_h))


@lru_cache(maxsize=None)
def _veh_a_profile(L_h: int) -> TapProfile:
    """sample_profile of a checked L_h, built once per length."""
    last = min(round(_REF_LAST_TAP * L_h / _REF_L_H), L_h - 1)
    ts = VEH_A_DELAYS_NS.max() / last
    pos = np.round(VEH_A_DELAYS_NS / ts).astype(np.int64)
    lin = 10.0 ** (VEH_A_POWERS_DB / 10.0)
    taps = np.array(sorted(set(pos.tolist())), dtype=np.int64)
    powers = np.array([lin[pos == t].sum() for t in taps])
    powers /= powers.sum()
    for a in (taps, powers):
        a.flags.writeable = False
    return TapProfile(taps=taps, powers=powers)


def gen_veh_a(seed, config: SystemConfig) -> np.ndarray:
    """Impulse response h of one Rayleigh draw of the Vehicular A channel.

    Each occupied tap is an independent circular complex Gaussian with
    variance equal to its profile power; h is zero padded to length L_h.
    seed is anything accepted by numpy.random.default_rng.
    """
    profile = sample_profile(config.L_h)
    rng = np.random.default_rng(seed)
    n = len(profile.taps)
    gains = np.sqrt(profile.powers / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    h = np.zeros(config.L_h, dtype=complex)
    h[profile.taps] = gains
    return h


def cfr_from_cir(h, M: int) -> np.ndarray:
    """Channel frequency response F_{M x L_h} h (zero-padded FFT).

    h is (..., L_h), one impulse response per row along the last axis
    (a scalar is one tap), and the CFR (..., M): a stack gives one CFR per
    row.  L_h > M raises ValueError.
    """
    h = np.atleast_1d(np.asarray(h, dtype=complex))
    if h.shape[-1] > M:
        raise ValueError("impulse response longer than the DFT size")
    return np.fft.fft(h, n=M, axis=-1)


def awgn(n, seed) -> np.ndarray:
    """Circular complex white Gaussian noise of unit variance, shape n.

    n is a length or a shape.  The result is filled in place, row after
    row and (real, imaginary) per sample, so it is the only buffer, and
    the first n samples of a stream do not depend on n: equal seeds give
    common noise across windows of different lengths.  seed is anything
    numpy.random.default_rng accepts; a Generator continues its stream,
    so awgn((T, n), g) equals T successive awgn(n, g) rows.
    """
    w = np.empty(n, dtype=complex)
    np.random.default_rng(seed).standard_normal(out=w.view(float))
    w *= np.sqrt(0.5)
    return w


def propagate(s, h, sigma2: float, seed) -> np.ndarray:
    """Linear convolution with h plus circular complex AWGN.

    Returns the full convolution, length len(s) + len(h) - 1.  sigma2 is
    the total noise variance per complex sample (sigma2/2 per component);
    the noise is sqrt(sigma2) * awgn(r.shape, seed).  s may be a stack
    (..., L) of signals: each row is convolved on its own (np.convolve)
    and takes the next row of the seed's noise stream, so the noise of
    row k is the k-th of successive 1-D draws from one generator.  A
    sigma2 that is not a finite real number >= 0 raises ValueError.
    """
    s = np.asarray(s, dtype=complex)
    h = np.asarray(h, dtype=complex).reshape(-1)
    _check_noise_variance("sigma2", sigma2)
    r = np.empty(s.shape[:-1] + (s.shape[-1] + len(h) - 1,), dtype=complex)
    for row, out in zip(s.reshape(-1, s.shape[-1]), r.reshape(-1, r.shape[-1])):
        out[:] = np.convolve(row, h)
    if sigma2 > 0:
        r += np.sqrt(sigma2) * awgn(r.shape, seed)
    return r


def ebn0_to_sigma2(ebn0_db: float, e_sym: float) -> float:
    """Noise variance per complex sample for a given Eb/N0 in dB.

    e_sym is the per-subcarrier symbol energy; symbols are counted as
    QPSK (two bits), so E_b = e_sym / 2 and sigma^2 = E_b / 10^(g/10).
    A point that is not a real number, or whose sigma^2 is not positive
    and finite, raises ValueError.
    """
    _check_real("Eb/N0", ebn0_db)
    try:
        sigma2 = e_sym / (2.0 * 10.0 ** (ebn0_db / 10.0))
    except ArithmeticError:  # 10^(g/10) overflows, or underflows to 0
        sigma2 = np.nan
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"Eb/N0 of {ebn0_db:g} dB gives no positive, finite "
                         "noise variance")
    return sigma2
