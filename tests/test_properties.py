"""Property tests over the SystemConfig space (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcpreamble import (
    SystemConfig,
    antenna_energy,
    cfr_from_cir,
    cp_energy,
    cp_gram,
    design_prototype,
    estimate_from_pilots,
    make_equal_comb,
    make_sparse_data,
    truncate_prototype,
)
from mcpreamble.estimation import pilot_fit


@st.composite
def oqam_systems(draw):
    """(config, pulse, truncated): M = 2^4..2^10, every valid L_h, K = 1..5;
    the preambles of a system are built at E = M."""
    M = 2 ** draw(st.integers(4, 10))
    L_h = 2 ** draw(st.integers(1, int(np.log2(M)) - 1))
    K = draw(st.integers(1, 5))
    truncated = draw(st.booleans())
    # a K = 1 pulse is M samples long, shorter than the M + L_h - 1 window
    assume(not truncated or K > 1)
    cfg = SystemConfig(M=M, L_h=L_h)
    proto = design_prototype(M, K)
    if truncated:
        proto = truncate_prototype(proto, M + L_h - 1)
    return cfg, proto, truncated


@settings(max_examples=40, deadline=None)
@given(oqam_systems(), st.data())
def test_sparse_preamble_keeps_its_pulse(system, data):
    cfg, proto, truncated = system
    # unit energy: the zero-offset inner product of the pulse with itself
    assert proto.kernel(0)[cfg.M - 1] == pytest.approx(1.0, abs=1e-12)
    # every comb N = L_h..M/2 of isolated pilots
    N = 2 ** data.draw(st.integers(int(np.log2(cfg.L_h)),
                                   int(np.log2(cfg.M)) - 1))
    p = make_equal_comb(N, 0, float(cfg.M), cfg, proto=proto)
    assert p.proto is proto
    assert p.window == proto.L_g
    if not truncated:
        # isolated pilots of a frequency-sampling pulse add their energies
        assert antenna_energy(p, cfg) == pytest.approx(float(cfg.M), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(oqam_systems())
def test_full_equal_column_emits_its_budget(system):
    cfg, proto, truncated = system
    assume(not truncated)
    # a^2 * (M*(1+2*beta) - 4*beta) is exact when the in-column products
    # beyond first order vanish, as they do for frequency-sampling pulses
    p = make_equal_comb(cfg.M, 0, float(cfg.M), cfg, proto=proto)
    assert p.proto is proto
    assert p.window == proto.L_g
    assert antenna_energy(p, cfg) == pytest.approx(float(cfg.M), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(oqam_systems(), st.data())
def test_equispaced_comb_leaves_the_prefix_empty(system, data):
    cfg = system[0]
    # every comb of N >= L_h tones dividing M, at every offset
    N = 2 ** data.draw(st.integers(int(np.log2(cfg.L_h)), int(np.log2(cfg.M))))
    i_0 = data.draw(st.integers(0, cfg.M // N - 1))
    p = make_equal_comb(N, i_0, float(cfg.M), cfg)
    assert cp_energy(p.symbols, cfg) <= 1e-12 * float(cfg.M)


@settings(max_examples=40, deadline=None)
@given(oqam_systems(), st.data(), st.integers(0, 2 ** 32 - 1))
def test_a_projected_fit_is_scored_in_its_taps(system, data, seed):
    # F_{M x L_h}^H F_{M x L_h} = M I (Parseval), so the squared error of
    # a projected estimate over the M tones is M times that of its L_h
    # taps, and so is the cross term of two: the engine scores in taps.
    # Every comb of N >= L_h tones dividing M, at every offset
    cfg = system[0]
    M = cfg.M
    N = 2 ** data.draw(st.integers(int(np.log2(cfg.L_h)), int(np.log2(M))))
    i_0 = data.draw(st.integers(0, M // N - 1))
    p = make_equal_comb(N, i_0, float(M), cfg)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
    h = rng.standard_normal(cfg.L_h) + 1j * rng.standard_normal(cfg.L_h)
    tones = estimate_from_pilots(y, p, cfg) - cfr_from_cir(h, M)
    taps = pilot_fit(p, cfg)(y) - h
    norm2 = np.sum(np.abs(taps) ** 2, axis=-1)
    assert np.sum(np.abs(tones) ** 2, axis=-1) == pytest.approx(M * norm2,
                                                               rel=1e-12)
    cross = np.vdot(tones[0], tones[1]).real
    assert abs(cross - M * np.vdot(taps[0], taps[1]).real) <= (
        1e-12 * M * np.sqrt(norm2[0] * norm2[1]))


@settings(max_examples=30, deadline=None)
@given(oqam_systems(), st.integers(0, 2 ** 32 - 1))
def test_prefix_gram_identities(system, seed):
    cfg = system[0]
    M, nu = cfg.M, cfg.nu
    G = cp_gram(M, nu)
    # trace is M*nu; the all-ones bilinear form vanishes because every
    # tail column of the DFT sums to zero
    assert abs(np.trace(G) - M * nu) < 1e-9 * M * nu
    assert abs(G.sum()) < 1e-9 * M * nu
    # x^H G x / M equals the energy the cyclic prefix copies
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        phys = cp_energy(x, cfg)
        assert abs((x.conj() @ G @ x).real / M - phys) < 1e-9 * max(phys, 1.0)


@settings(max_examples=30, deadline=None)
@given(oqam_systems(), st.floats(0.1, 10.0))
def test_scaling_scales_the_antenna_energy(system, amp):
    cfg, proto, _ = system
    # phased data and pilots in both systems
    for p in (make_sparse_data("qam-sd", float(cfg.M), 1, cfg),
              make_sparse_data("oqam-1a", float(cfg.M), 1, cfg, proto=proto)):
        assert antenna_energy(p.scaled(amp), cfg) == pytest.approx(
            amp ** 2 * antenna_energy(p, cfg), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(oqam_systems(), st.sampled_from(["oqam-1a", "oqam-1b", "oqam-2", "oqam-3"]),
       st.integers(0, 2 ** 32 - 1))
def test_sparse_data_is_a_function_of_its_seed(system, scenario, seed):
    cfg, proto, truncated = system
    # M + L_h - 1 is odd, so a truncated pulse sits half a sample off
    # centre and the pilot interference leaves the helper axis: the help
    # pilot solve rejects such a pulse
    assume(not truncated or scenario in ("oqam-1a", "oqam-1b"))
    p = make_sparse_data(scenario, float(cfg.M), seed, cfg, proto=proto)
    q = make_sparse_data(scenario, float(cfg.M), seed, cfg, proto=proto)
    assert np.array_equal(p.symbols, q.symbols)
    assert np.array_equal(p.data_positions, q.data_positions)
