"""Least-squares channel estimation from preamble measurements.

The receiver observes one value per pilot tone (a demodulated CP-OFDM
tone or an analysis filter bank output).  Per-tone division by the
preamble's divisor gives raw frequency samples.  The estimator has two
modes: "raw" keeps those samples (full-grid preambles only), and
"projected" fits the channel's short impulse response through them by
least squares and returns its zero-padded DFT.  The fit is one operator
for every equispaced pilot comb, the full grid (N = M) included.
estimate_from_pilots checks its inputs on every call; pilot_fit checks a
preamble once and returns its fit for any number of measurement sets.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .fourier import cfr_samples_to_cir, cir_fit
from .preambles import Preamble


def _check_mode(mode: str, preamble: Preamble, config: SystemConfig) -> None:
    """Accept a preamble for config's M, with no zero divisor, estimated
    "projected" from at least L_h pilots or "raw" from every tone."""
    if mode not in ("raw", "projected"):
        raise ValueError(f"mode must be 'raw' or 'projected', got {mode!r}")
    M, N = config.M, preamble.n_pilots
    if len(preamble.symbols) != M:
        raise ValueError(f"preamble built for M={len(preamble.symbols)} "
                         f"on a system of M={M}")
    if mode == "raw" and N != M:
        raise ValueError("raw mode needs a measurement on every tone")
    if mode == "projected" and N < config.L_h:
        raise ValueError(f"projected mode needs at least L_h={config.L_h} "
                         f"pilots, got {N}")
    if np.any(preamble.divisors == 0):
        raise ValueError("preamble has a zero divisor")


def estimate_from_pilots(
    y, preamble: Preamble, config: SystemConfig, mode: str = "projected"
) -> np.ndarray:
    """LS estimate of the CFR on all M tones from the pilot measurements y.

    mode "raw" keeps the per-tone ratios; "projected" fits an L_h-tap
    response through them (cfr_samples_to_cir) and returns its DFT.
    y is (..., N), one measurement per pilot along the last axis, and the
    estimate (..., M): a stack of measurement sets gives one estimate per
    row, each exactly the row's own.
    """
    y = np.asarray(y, dtype=complex)
    _check_mode(mode, preamble, config)
    if y.shape[-1:] != (preamble.n_pilots,):
        raise ValueError(f"expected {preamble.n_pilots} pilot measurements, "
                         f"got {y.shape[-1] if y.ndim else 1}")
    ratios = y / preamble.divisors
    if mode == "raw":
        return ratios
    h_hat = cfr_samples_to_cir(ratios, config.M, preamble.pilot_idx,
                               config.L_h)
    return np.fft.fft(h_hat, n=config.M, axis=-1)


def pilot_fit(preamble: Preamble, config: SystemConfig,
              mode: str = "projected"):
    """The LS fit of estimate_from_pilots on one preamble, checked once.

    Returns a function, which checks nothing, from (..., N) pilot
    measurements to the estimate in the estimator's own coordinates: the
    (..., M) per-tone ratios for "raw", the (..., L_h) fitted taps for
    "projected", whose DFT is the M-tone estimate and, by Parseval, has M
    times their squared distances.  A mode or preamble estimate_from_pilots
    rejects raises ValueError here.
    """
    _check_mode(mode, preamble, config)
    divisors = preamble.divisors
    if mode == "raw":
        return lambda y: y / divisors
    taps = cir_fit(config.M, preamble.pilot_idx, config.L_h)
    return lambda y: taps(y / divisors)
