import numpy as np

from mcpreamble import (
    SystemConfig,
    cp_energy,
    demodulate,
    gen_veh_a,
    modulate,
)


def test_frame_layout_and_roundtrip():
    cfg = SystemConfig(M=64, L_h=8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
    frame = modulate(x, cfg)
    assert len(frame.s) == cfg.M + cfg.nu
    assert np.array_equal(frame.s[: cfg.nu], frame.s[cfg.M:])
    assert np.max(np.abs(demodulate(frame.s, cfg) - x)) < 1e-12 * np.max(np.abs(x))


def test_unitary_scaling():
    # the useful part carries exactly the subcarrier energy
    cfg = SystemConfig(M=32, L_h=4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M)
        frame = modulate(x, cfg)
        e_useful = np.sum(np.abs(frame.useful) ** 2)
        assert abs(e_useful - np.sum(np.abs(x) ** 2)) < 1e-9 * e_useful
        assert abs(frame.energy - e_useful - cp_energy(x, cfg)) < 1e-9 * frame.energy


def test_channel_diagonalization_is_exact():
    # with L_h <= nu + 1 the demodulated frame is H_m x_m, no residual
    rng = np.random.default_rng(2)
    for M, L_h in ((64, 8), (128, 16), (256, 4)):
        cfg = SystemConfig(M=M, L_h=L_h)
        x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        ch = gen_veh_a(rng.integers(1 << 30), cfg)
        r = np.convolve(modulate(x, cfg).s, ch.h)
        y = demodulate(r, cfg)
        H = ch.cfr(M)
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
