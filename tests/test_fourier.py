import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    cfr_samples_to_cir,
    cp_energy,
    cp_gram,
    dft_submatrix,
    equispaced_set,
)

REL = 1e-9
ABS = 1e-12


def dense_dft(M):
    m, l = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    return np.exp(-2j * np.pi * m * l / M)


def test_dft_submatrix_matches_dense():
    M = 48
    F = dense_dft(M)
    rows = np.array([0, 5, 17, 47])
    cols = np.array([1, 2, 30])
    got = dft_submatrix(M, rows, cols)
    assert np.allclose(got, F[np.ix_(rows, cols)], rtol=REL, atol=ABS)


def test_gram_trace_and_total_sum():
    # trace is M*nu; the all-ones bilinear form vanishes because every
    # tail column of the DFT sums to zero.
    for M, nu in ((16, 3), (64, 15), (128, 7)):
        G = cp_gram(M, nu)
        assert abs(np.trace(G) - M * nu) < REL * M * nu
        assert abs(G.sum()) < 1e-9 * M * nu


def test_gram_is_dense_product():
    M, nu = 32, 7
    F = dense_dft(M)
    tail = F[:, M - nu:]
    assert np.allclose(cp_gram(M, nu), tail @ tail.conj().T, rtol=REL, atol=1e-9)


def test_gram_quadratic_form_is_prefix_energy():
    # x^H G x / M equals the energy the cyclic prefix copies.
    rng = np.random.default_rng(11)
    for M, L_h in ((16, 4), (64, 8), (128, 16)):
        cfg = SystemConfig(M=M, L_h=L_h)
        G = cp_gram(M, cfg.nu)
        for _ in range(20):
            x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            quad = (x.conj() @ G @ x).real / M
            phys = cp_energy(x, cfg)
            assert abs(quad - phys) < REL * max(phys, 1.0)


def test_equispaced_gram_submatrix():
    # at N = L_h the equispaced submatrix of the prefix Gram matrix is
    # (L_h - 1) on the diagonal and -1 elsewhere, for every comb offset.
    M, L_h = 64, 8
    nu = L_h - 1
    G = cp_gram(M, nu)
    for i_0 in range(M // L_h):
        idx = equispaced_set(M, L_h, i_0)
        sub = G[np.ix_(idx, idx)]
        want = -np.ones((L_h, L_h)) + L_h * np.eye(L_h)
        assert np.max(np.abs(sub - want)) < 1e-9


def test_equispaced_set_validation():
    assert list(equispaced_set(16, 4, 1)) == [1, 5, 9, 13]
    with pytest.raises(ValueError):
        equispaced_set(16, 5)
    with pytest.raises(ValueError):
        equispaced_set(16, 4, 4)
    # 4.0 gave float indices, True the set {0}
    for bad in (4.0, True, np.float64(4.0)):
        with pytest.raises(ValueError, match="N must be an integer"):
            equispaced_set(16, bad)
    # 0.5 gave float indices, True the offset 1
    for bad in (0.5, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="i_0 must be an integer"):
            equispaced_set(16, 4, bad)


def test_cfr_samples_roundtrip():
    # sampling the CFR on any N >= L_h comb determines the response.
    rng = np.random.default_rng(3)
    M, L_h = 64, 8
    for N in (8, 16, 32, 64):
        step = M // N
        for i_0 in (0, step - 1):
            h = rng.standard_normal(L_h) + 1j * rng.standard_normal(L_h)
            H = np.fft.fft(h, M)
            idx = equispaced_set(M, N, i_0)
            got = cfr_samples_to_cir(H[idx], M, idx, L_h)
            assert np.max(np.abs(got - h)) < 1e-9
            # a stack of sample sets is fitted row by row
            rows = (rng.standard_normal((2, 3, N))
                    + 1j * rng.standard_normal((2, 3, N)))
            batch = cfr_samples_to_cir(rows, M, idx, L_h)
            assert batch.shape == (2, 3, L_h)
            for j in np.ndindex(2, 3):
                one = cfr_samples_to_cir(rows[j], M, idx, L_h)
                assert np.max(np.abs(batch[j] - one)) < 1e-12
    # on the full set the fit is the truncated inverse FFT
    H = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    got = cfr_samples_to_cir(H, M, np.arange(M), L_h)
    assert np.max(np.abs(got - np.fft.ifft(H)[:L_h])) < 1e-15


def test_cfr_samples_rejects_non_equispaced():
    with pytest.raises(ValueError):
        cfr_samples_to_cir(np.ones(4), 16, np.array([0, 4, 8, 13]), 4)
