import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    TapProfile,
    awgn,
    cfr_from_cir,
    ebn0_to_sigma2,
    gen_veh_a,
    propagate,
    sample_profile,
)


def test_profile_reference_grid():
    p = sample_profile(32)
    assert list(p.taps) == [0, 3, 8, 12, 19, 28]
    assert abs(p.powers.sum() - 1.0) < 1e-12


def test_profile_desk_grid_merges_paths():
    p = sample_profile(8)
    assert list(p.taps) == [0, 1, 2, 3, 5, 7]
    assert abs(p.powers.sum() - 1.0) < 1e-12


def test_profile_short_responses_stay_in_range():
    for L_h in (2, 3, 4):
        p = sample_profile(L_h)
        assert p.taps[-1] <= L_h - 1


@pytest.mark.parametrize("L_h", [1, True, 1.5, 0, -4, "8"])
def test_profile_takes_an_integer_length_of_two_or_more(L_h):
    # 1 and True divided by zero, 1.5 gave one tap and 0 a TapProfile error
    with pytest.raises(ValueError, match="L_h must be"):
        sample_profile(L_h)


def test_profile_scales_with_length():
    p16 = sample_profile(16)
    assert p16.taps[-1] == 14  # round(28 * 16 / 32)


def test_tap_profile_validation():
    with pytest.raises(ValueError):
        TapProfile(taps=np.array([0, 0, 3]), powers=np.ones(3))
    with pytest.raises(ValueError):
        TapProfile(taps=np.array([0, 2]), powers=np.array([1.0, -0.5]))


def test_gen_veh_a_moments():
    cfg = SystemConfig(M=128, L_h=8)
    prof = sample_profile(cfg.L_h)
    acc = np.zeros(cfg.L_h)
    trials = 4000
    for t in range(trials):
        h = gen_veh_a(t, cfg)
        acc += np.abs(h) ** 2
    acc /= trials
    # occupied taps match the profile powers, vacant taps are silent
    assert abs(acc.sum() - 1.0) < 0.05
    want = np.zeros(cfg.L_h)
    want[prof.taps] = prof.powers
    occupied = want > 0
    assert np.max(np.abs(acc[occupied] - want[occupied]) / want[occupied]) < 0.12
    assert np.all(acc[~occupied] == 0.0)


def test_gen_veh_a_deterministic():
    cfg = SystemConfig(M=64, L_h=8)
    a = gen_veh_a(7, cfg)
    b = gen_veh_a(7, cfg)
    c = gen_veh_a(8, cfg)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cfr_from_cir_is_padded_fft():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    H = cfr_from_cir(h, 32)
    l = np.arange(6)
    for m in (0, 1, 17, 31):
        direct = np.sum(h * np.exp(-2j * np.pi * m * l / 32))
        assert abs(H[m] - direct) < 1e-9


def test_cfr_from_cir_takes_a_stack_of_responses():
    # rows along the last axis, each its own CFR; it flattened a stack
    # into one response of the concatenated rows
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    H = cfr_from_cir(h, 16)
    assert H.shape == (2, 3, 16)
    for t in np.ndindex(2, 3):
        assert np.array_equal(H[t], cfr_from_cir(h[t], 16))
    assert cfr_from_cir(np.ones((2, 4)), 16).shape == (2, 16)
    with pytest.raises(ValueError, match="longer than the DFT size"):
        cfr_from_cir(np.ones((2, 17)), 16)


def test_propagate_noiseless_is_convolution():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(propagate(s, h, 0.0, seed=1), np.convolve(s, h))


@pytest.mark.parametrize("sigma2", [0.0, 0.3], ids=["noiseless", "noisy"])
def test_propagate_takes_a_stack_of_signals(sigma2):
    # each row is convolved on its own and takes the next row of the
    # seed's noise stream: row k is the k-th of successive 1-D calls on
    # one generator, so the rows' noises are independent
    rng = np.random.default_rng(8)
    s = rng.standard_normal((2, 3, 40)) + 1j * rng.standard_normal((2, 3, 40))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    r = propagate(s, h, sigma2, seed=(4, 2))
    assert r.shape == (2, 3, 43)
    stream = np.random.default_rng((4, 2))
    for t in np.ndindex(2, 3):
        assert np.array_equal(r[t], propagate(s[t], h, sigma2, seed=stream))
    # a single signal is the convolution plus the seed's first noise row
    want = np.convolve(s[0, 0], h) + np.sqrt(sigma2) * awgn(43, (4, 2))
    assert np.array_equal(propagate(s[0, 0], h, sigma2, seed=(4, 2)), want)
    if sigma2:
        w = propagate(np.zeros((2, 40)), [1], sigma2, seed=1)
        assert not np.array_equal(w[0], w[1])


@pytest.mark.parametrize("sigma2", [-1.0, float("nan"), np.inf],
                         ids=["negative", "nan", "inf"])
def test_propagate_rejects_bad_noise_variance(sigma2):
    # inf gave an all-infinite signal
    with pytest.raises(ValueError):
        propagate(np.ones(8, dtype=complex), np.ones(2), sigma2, seed=1)


def test_propagate_noise_variance_and_prefix_stability():
    rng = np.random.default_rng(2)
    s = np.zeros(64, dtype=complex)
    h = np.array([1.0 + 0j])
    sigma2 = 0.25
    acc = 0.0
    trials = 2000
    for t in range(trials):
        r = propagate(s, h, sigma2, seed=(9, t))
        acc += np.mean(np.abs(r) ** 2)
    assert abs(acc / trials - sigma2) < 0.02 * sigma2
    # same seed, longer signal: the common prefix of the noise agrees,
    # so windows of different length see the same realization
    r1 = propagate(np.zeros(16, dtype=complex), h, sigma2, seed=(3, 4))
    r2 = propagate(np.zeros(64, dtype=complex), h, sigma2, seed=(3, 4))
    assert np.array_equal(r1, r2[: len(r1)])


def test_propagate_noise_is_scaled_awgn():
    # noise has one definition: propagate adds sqrt(sigma2) * awgn
    rng = np.random.default_rng(3)
    s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sigma2 = 0.3
    seed = np.random.SeedSequence([7, 301, 2, 5])
    noise = propagate(s, h, sigma2, seed) - propagate(s, h, 0.0, None)
    expect = np.sqrt(sigma2) * awgn(len(s) + len(h) - 1, seed)
    assert np.allclose(noise, expect, rtol=0, atol=1e-13)
    w = awgn(20000, 11)
    assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 0.03
    assert abs(np.mean(w.real ** 2) - np.mean(w.imag ** 2)) < 0.03
    assert np.array_equal(awgn(16, 11), w[:16])


@pytest.mark.parametrize("n", [1, 7, 519, 5632])
def test_awgn_is_the_interleaved_normals_of_its_seed(n):
    # filled in place, the draw keeps the bits of the (n, 2) formulation
    seed = np.random.SeedSequence([7, 301, 2])
    z = np.random.default_rng(seed).standard_normal((n, 2))
    want = np.sqrt(0.5) * z.view(complex)[:, 0]
    assert awgn(n, seed).tobytes() == want.tobytes()


def test_awgn_block_continues_a_generator_row_by_row():
    # a block of rows from a generator is its successive 1-D draws
    block = awgn((5, 37), np.random.default_rng(4))
    rng = np.random.default_rng(4)
    rows = np.stack([awgn(37, rng) for _ in range(5)])
    assert block.shape == (5, 37)
    assert block.tobytes() == rows.tobytes()


@pytest.mark.parametrize("g", [True, "5", None], ids=["bool", "str", "None"])
def test_ebn0_conversion_takes_a_real_number_only(g):
    with pytest.raises(ValueError, match="must be a real number"):
        ebn0_to_sigma2(g, 1.0)
    assert ebn0_to_sigma2(np.float64(10.0), 2.0) == ebn0_to_sigma2(10.0, 2.0)


def test_ebn0_conversion():
    # at 0 dB, sigma^2 is half the per-symbol energy
    assert abs(ebn0_to_sigma2(0.0, 1.0) - 0.5) < 1e-12
    assert abs(ebn0_to_sigma2(10.0, 2.0) - 0.1) < 1e-12
