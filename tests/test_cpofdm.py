import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    cfr_from_cir,
    cp_energy,
    demodulate,
    gen_veh_a,
    modulate,
)


def test_frame_layout_and_roundtrip():
    cfg = SystemConfig(M=64, L_h=8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
    s = modulate(x, cfg)
    assert len(s) == cfg.M + cfg.nu
    assert np.array_equal(s[: cfg.nu], s[cfg.M:])
    assert np.max(np.abs(demodulate(s, cfg) - x)) < 1e-12 * np.max(np.abs(x))


def test_demodulate_takes_a_stack_of_windows():
    cfg = SystemConfig(M=64, L_h=8)
    rng = np.random.default_rng(6)
    n = cfg.M + cfg.nu + cfg.L_h - 1
    r = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    y = demodulate(r, cfg)
    assert y.shape == (4, cfg.M)
    for t in range(4):
        assert np.array_equal(y[t], demodulate(r[t], cfg))
    with pytest.raises(ValueError, match=r"need at least nu\+M"):
        demodulate(r[:, : cfg.M + cfg.nu - 1], cfg)


def test_modulate_takes_a_stack_of_symbols():
    cfg = SystemConfig(M=64, L_h=8)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2, cfg.M)) + 1j * rng.standard_normal((3, 2, cfg.M))
    s = modulate(x, cfg)
    assert s.shape == (3, 2, cfg.M + cfg.nu)
    for t in np.ndindex(3, 2):
        assert np.array_equal(s[t], modulate(x[t], cfg))
    with pytest.raises(ValueError, match="length M=64"):
        modulate(x[..., 1:], cfg)


def test_unitary_scaling():
    # the useful part carries exactly the subcarrier energy, and the
    # prefix of each row of a stack carries that row's cp_energy
    cfg = SystemConfig(M=32, L_h=4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, cfg.M)) + 1j * rng.standard_normal((10, cfg.M))
    s = modulate(x, cfg)
    e_cp = cp_energy(x, cfg)
    assert e_cp.shape == (10,)
    for t in range(10):
        e_frame = np.sum(np.abs(s[t]) ** 2)
        e_useful = np.sum(np.abs(s[t, cfg.nu:]) ** 2)
        assert abs(e_useful - np.sum(np.abs(x[t]) ** 2)) < 1e-9 * e_useful
        assert e_cp[t] == cp_energy(x[t], cfg)
        assert abs(e_frame - e_useful - e_cp[t]) < 1e-9 * e_frame


def test_channel_diagonalization_is_exact():
    # with L_h <= nu + 1 the demodulated frame is H_m x_m, no residual
    rng = np.random.default_rng(2)
    for M, L_h in ((64, 8), (128, 16), (256, 4)):
        cfg = SystemConfig(M=M, L_h=L_h)
        x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        h = gen_veh_a(rng.integers(1 << 30), cfg)
        r = np.convolve(modulate(x, cfg), h)
        y = demodulate(r, cfg)
        H = cfr_from_cir(h, M)
        assert np.max(np.abs(y - H * x)) < 1e-10 * np.max(np.abs(H * x))


def test_cp_energy_of_combs_is_zero():
    # equispaced equal-value combs put nothing in the prefix as long as
    # the comb spacing clears the copied tail
    for M, L_h in ((64, 8), (128, 8), (128, 32)):
        cfg = SystemConfig(M=M, L_h=L_h)
        for N in (L_h, 2 * L_h):
            if N > M:
                continue
            for i_0 in (0, 1, M // N - 1):
                x = np.zeros(M, dtype=complex)
                x[i_0 :: M // N] = 1.0 + 0.5j
                assert cp_energy(x, cfg) < 1e-12 * M


def test_cp_energy_generic_positive():
    cfg = SystemConfig(M=64, L_h=8)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
    assert cp_energy(x, cfg) > 0.1
