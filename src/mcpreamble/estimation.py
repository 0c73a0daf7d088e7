"""Least-squares channel estimation from preamble measurements.

The receiver observes one value per pilot tone (a demodulated CP-OFDM
tone or an analysis filter bank output).  Per-tone division by the
preamble's divisor gives raw frequency samples.  The estimator has two
modes: "raw" keeps those samples (full-grid preambles only), and
"projected" fits the channel's short impulse response through them by
least squares and returns its zero-padded DFT.  The fit is one operator
for every equispaced pilot comb, the full grid (N = M) included.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .fourier import cfr_samples_to_cir
from .preambles import Preamble


def _check_mode(mode: str, n_pilots: int, M: int) -> None:
    """Accept "projected" on any comb and "raw" on the full grid only."""
    if mode not in ("raw", "projected"):
        raise ValueError(f"mode must be 'raw' or 'projected', got {mode!r}")
    if mode == "raw" and n_pilots != M:
        raise ValueError("raw mode needs a measurement on every tone")


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
    N = preamble.n_pilots
    _check_mode(mode, N, config.M)
    if y.shape[-1:] != (N,):
        raise ValueError(f"expected {N} pilot measurements, "
                         f"got {y.shape[-1] if y.ndim else 1}")
    if np.any(preamble.divisors == 0):
        raise ValueError("preamble has a zero divisor")
    ratios = y / preamble.divisors
    if mode == "raw":
        return ratios
    # cfr_samples_to_cir takes one sample set per column
    h_hat = cfr_samples_to_cir(ratios.T, config.M, preamble.pilot_idx,
                               config.L_h)
    return np.fft.fft(h_hat.T, n=config.M, axis=-1)
