"""Partial DFT matrices and the cyclic-prefix Gram matrix.

Convention used everywhere in this package: the forward DFT matrix entry is

    F[m, l] = exp(-2j*pi*m*l / M)

with no normalization, and the inverse carries the 1/M.  The submatrix
F_{R x C} keeps the rows in R and the columns in C of the full M x M
matrix.  Two identities follow directly from geometric sums and are relied
on throughout:

  * rows equispaced with step M/N:  F_{N x C} F_{N x C}^H has a closed
    form, and in particular F_{L_h x L_h} F^H = L_h * I when the column
    set is 0..L_h-1;
  * full column sum:  F_{M x C}^H F_{M x C} = M * I for any column set C.

The Gram matrix G = F_{M x nu} F_{M x nu}^H (rows 0..M-1, columns the
last nu indices) measures the energy a frequency-domain vector spills
into a cyclic prefix of length nu; its trace is M*nu and its entries sum
to zero.
"""

from __future__ import annotations

import numpy as np

from .config import _check_int


def dft_submatrix(M: int, rows, cols) -> np.ndarray:
    """Submatrix of the M x M DFT matrix with entries exp(-2j*pi*m*l/M).

    rows and cols are index arrays into 0..M-1 (values outside that range
    are accepted and interpreted modulo M, which never changes an entry).
    """
    r = np.asarray(rows, dtype=np.int64).reshape(-1)
    c = np.asarray(cols, dtype=np.int64).reshape(-1)
    if M < 1:
        raise ValueError("M must be positive")
    return np.exp(-2j * np.pi * np.outer(r, c) / M)


def equispaced_set(M: int, N: int, i_0: int = 0) -> np.ndarray:
    """Indices i_0 + k*M/N for k = 0..N-1.

    Requires an integer N dividing M and 0 <= i_0 < M/N: it never wraps.
    """
    _check_int("N", N)
    _check_int("i_0", i_0)
    if N < 1 or M % N != 0:
        raise ValueError(f"N must divide M, got M={M} N={N}")
    step = M // N
    if not (0 <= i_0 < step):
        raise ValueError(f"i_0 must lie in 0..{step - 1}, got {i_0}")
    return i_0 + step * np.arange(N, dtype=np.int64)


def cp_gram(M: int, nu: int) -> np.ndarray:
    """G = F_{M x nu} F_{M x nu}^H, the cyclic-prefix energy Gram matrix.

    The prefix copies the last nu time samples, so F_{M x nu} keeps the
    last nu columns (indices M-nu..M-1) and x^H G x / M is exactly the
    prefix energy of the symbol synthesized from x.  G is Hermitian with
    diagonal nu, trace M*nu, and all entries summing to zero for nu >= 1.
    """
    if not (0 <= nu < M):
        raise ValueError(f"nu must lie in 0..M-1, got {nu}")
    cols = np.arange(M - nu, M)
    F = dft_submatrix(M, np.arange(M), cols)
    return F @ F.conj().T


def cir_fit(M: int, indices, L_h: int):
    """The fit of cfr_samples_to_cir on one index set, checked once.

    Returns a function from (..., N) CFR samples on the indices to their
    (..., L_h) least-squares CIR, which checks nothing.  Fewer than L_h
    indices, or a set that is not i_0 + k*M/N, raises ValueError here.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    N = len(idx)
    if N < L_h:
        raise ValueError(f"need at least L_h={L_h} samples, got {N}")
    step = M // N
    if N * step != M or np.any(np.diff(idx) != step):
        raise ValueError("index set is not equispaced over 0..M-1")
    rot = np.exp(2j * np.pi * idx[0] * np.arange(L_h) / M) if idx[0] else None

    def fit(H_sub) -> np.ndarray:
        h = np.fft.ifft(H_sub, axis=-1)[..., :L_h]
        if rot is not None:
            h *= rot
        return h

    return fit


def cfr_samples_to_cir(H_sub, M: int, indices, L_h: int) -> np.ndarray:
    """Least-squares CIR from CFR samples on an equispaced index set.

    Solves min_h || H_sub - F_{N x L_h} h || where the rows are the given
    indices i_0 + k*M/N.  For N >= L_h the normal matrix is N * I, so the
    solution h = F_{N x L_h}^H H_sub / N is the first L_h outputs of an
    N-point inverse FFT, rotated by exp(2j*pi*i_0*l/M) when i_0 != 0.
    H_sub is (..., N), one sample set per row along the last axis, and
    the CIR (..., L_h): a stack gives one fit per row.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    H_sub = np.asarray(H_sub, dtype=complex)
    if H_sub.shape[-1:] != (len(idx),):
        raise ValueError("index set and sample vector lengths differ")
    return cir_fit(M, idx, L_h)(H_sub)
