import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpreamble import analysis
from mcpreamble import (
    SystemConfig,
    afb,
    afb_noise_cov,
    antenna_energy,
    cfr_from_cir,
    cfr_samples_to_cir,
    closed_form_mse,
    data_phase,
    demodulate,
    design_prototype,
    dft_submatrix,
    draw_sparse_data,
    error_floor,
    estimate_from_pilots,
    expected_error_floor,
    first_order_neighbours,
    floor_map,
    gen_veh_a,
    genie_mse,
    make_equal_comb,
    make_full_equipower_qam,
    make_sparse_data,
    modulate,
    papr,
    propagate,
    sfb,
    truncate_prototype,
    verify_optimality,
)
from mcpreamble.preambles import sparse_data_layout

E = 1.0  # the training energy of the desk preambles


def test_papr_reference_points():
    assert abs(papr(np.ones(64)) - 1.0) < 1e-12
    s = np.zeros(64)
    s[0] = 1.0
    assert abs(papr(s) - 64.0) < 1e-12
    for s in ([], np.zeros(4)):
        with pytest.raises(ValueError, match="empty or all-zero signal"):
            papr(s)


def test_genie_mse_domains(desk):
    v = genie_mse(0.01, E, desk)
    assert abs(v - desk.L_h * 0.01 / E) < 1e-15
    # the CFR-domain bound is M times larger: F_{M x L_h}^H F_{M x L_h} = M*I
    F = dft_submatrix(desk.M, np.arange(desk.M), np.arange(desk.L_h))
    assert np.max(np.abs(F.conj().T @ F - desk.M * np.eye(desk.L_h))) < 1e-9


@pytest.mark.parametrize("sigma2", [-1.0, np.nan, np.inf, True, "1"])
def test_closed_form_takes_a_finite_nonnegative_noise_variance(desk, sigma2):
    # -1 gave a negative MSE and NaN a NaN; 0 is the noiseless case
    p = make_equal_comb(desk.L_h, 0, E, desk)
    with pytest.raises(ValueError, match="sigma2 must be"):
        closed_form_mse(p, sigma2, desk)
    assert closed_form_mse(p, 0.0, desk) == 0.0


@pytest.mark.parametrize("sigma2, E", [
    (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (True, 1.0), ("1", 1.0),
    (1.0, 0.0), (1.0, -1.0), (1.0, np.inf),
], ids=["sigma2=-1", "sigma2=nan", "sigma2=inf", "sigma2=True", "sigma2=str",
        "E=0", "E=-1", "E=inf"])
def test_genie_takes_a_finite_nonnegative_noise_variance(desk, sigma2, E):
    # sigma2 = -1 gave -8.0, NaN a NaN, and E = 0 a bare ZeroDivisionError
    with pytest.raises(ValueError, match="sigma2 must be|E must be"):
        genie_mse(sigma2, E, desk)
    assert genie_mse(0.0, 1.0, desk) == 0.0


def test_equispaced_equal_comb_attains_genie(desk):
    # the closed form for the projected equal comb reduces to the bound
    for N in (desk.L_h, 2 * desk.L_h):
        p = make_equal_comb(N, 0, E, desk)
        pred = closed_form_mse(p, 0.01, desk)
        assert abs(pred - desk.M * genie_mse(0.01, E, desk)) < 1e-9


def test_equipower_two_impulse_attains_genie(desk):
    p = make_full_equipower_qam(0, np.sqrt(0.5), 0.3, E, desk)
    pred = closed_form_mse(p, 0.01, desk, mode="projected")
    assert abs(pred - desk.M * genie_mse(0.01, E, desk)) < 1e-9


def test_closed_form_takes_a_stack_of_divisor_rows(desk, proto):
    # raw and white-pilot noise give one value per row of divisors, that
    # of the preamble holding the row alone; one row gives a float
    rng = np.random.default_rng(2)
    full = make_equal_comb(desk.M, 0, E, desk)
    cases = [(make_equal_comb(2 * desk.L_h, 1, E, desk), "projected"),
             (full, "projected"), (full, "raw"),
             (make_equal_comb(2 * desk.L_h, 0, E, desk, proto),
              "projected"),
             (make_equal_comb(desk.M, 0, E, desk, proto), "raw")]
    for p, mode in cases:
        rows = p.divisors * (0.5 + rng.random((3, 2, p.n_pilots)))
        got = closed_form_mse(replace(p, divisors=rows), 0.01, desk, mode=mode)
        assert got.shape == (3, 2)
        for k in np.ndindex(3, 2):
            one = closed_form_mse(replace(p, divisors=rows[k]), 0.01, desk,
                                  mode=mode)
            assert isinstance(one, float)
            assert abs(got[k] / one - 1.0) < 1e-14


def test_qam_closed_forms_against_simulation(desk):
    sigma2 = 0.01
    cases = [
        (make_equal_comb(2 * desk.L_h, 0, E, desk), "projected"),
        (make_equal_comb(desk.M, 0, E, desk), "raw"),
        (make_equal_comb(desk.M, 0, E, desk), "projected"),
    ]
    for p, mode in cases:
        pred = closed_form_mse(p, sigma2, desk, mode=mode)
        acc = 0.0
        trials = 600
        for t in range(trials):
            h = gen_veh_a((1, t), desk)
            r = propagate(modulate(p.symbols, desk), h, sigma2, seed=(2, t))
            y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
            H_hat = estimate_from_pilots(y, p, desk, mode=mode)
            acc += np.sum(np.abs(H_hat - cfr_from_cir(h, desk.M)) ** 2)
        assert abs(acc / trials - pred) < 0.04 * pred


def test_oqam_closed_forms_against_simulation(desk, proto):
    sigma2 = 0.01
    # sparse comb estimates through the flat-per-subcarrier front end
    p = make_equal_comb(2 * desk.L_h, 0, E, desk, proto)
    pred = closed_form_mse(p, sigma2, desk)
    acc = 0.0
    trials = 500
    for t in range(trials):
        h = gen_veh_a((3, t), desk)
        r = propagate(sfb(p.symbols, proto), h, sigma2, seed=(4, t))
        y = afb(r[: p.window], proto, p.pilot_idx)
        H_hat = estimate_from_pilots(y, p, desk)
        acc += np.sum(np.abs(H_hat - cfr_from_cir(h, desk.M)) ** 2)
    assert abs(acc / trials - pred) < 0.05 * pred


def test_oqam_full_projected_uses_noise_correlation(desk, proto):
    # the exact projected form differs from the white-noise shortcut by
    # the analysis-bank correlation; simulation arbitrates
    sigma2 = 0.01
    p = make_equal_comb(desk.M, 0, E, desk, proto)
    pred = closed_form_mse(p, sigma2, desk, mode="projected")
    white = sigma2 * desk.L_h / desk.M * np.sum(1.0 / np.abs(p.divisors) ** 2)
    assert abs(pred / white - 1.0) > 0.1
    acc = 0.0
    trials = 800
    for t in range(trials):
        h = gen_veh_a((5, t), desk)
        r = propagate(sfb(p.symbols, proto), h, sigma2, seed=(6, t))
        y = afb(r[: p.window], proto, p.pilot_idx)
        H_hat = estimate_from_pilots(y, p, desk, mode="projected")
        acc += np.sum(np.abs(H_hat - cfr_from_cir(h, desk.M)) ** 2)
    assert abs(acc / trials - pred) < 0.05 * pred


def test_afb_noise_cov_matches_monte_carlo(small, small_proto):
    B = afb_noise_cov(small_proto)
    assert np.max(np.abs(np.diag(B) - 1.0)) < 1e-9
    assert np.max(np.abs(B - B.conj().T)) < 1e-12
    rng = np.random.default_rng(1)
    acc = np.zeros_like(B)
    trials = 6000
    tones = np.arange(small.M)
    for _ in range(trials):
        z = (rng.standard_normal(small_proto.L_g)
             + 1j * rng.standard_normal(small_proto.L_g)) / np.sqrt(2)
        y = afb(z, small_proto, tones)
        acc += np.outer(y, y.conj())
    acc /= trials
    assert np.max(np.abs(acc - B)) < 0.04


def test_afb_noise_cov_stacks_table_rows(desk, proto):
    B = afb_noise_cov(proto)
    rows = np.vstack([proto.row(p, 0) for p in range(desk.M)])
    assert np.max(np.abs(B - rows)) <= 1e-12 * np.max(np.abs(rows))


def test_afb_noise_cov_is_sized_by_its_pulse():
    proto = design_prototype(64, 4)
    B = afb_noise_cov(proto)
    assert B.shape == (64, 64)
    assert abs(B[0, 1] - proto.beta) < 1e-12
    assert abs(B[0, 63] + proto.beta) < 1e-12


def _dense_full_projected_mse(p, sigma2, cfg):
    """(sigma^2/M) tr(D^H G0 D B^T) with the M x M matrices formed."""
    M = cfg.M
    B = np.vstack([p.proto.row(q, 0) for q in range(M)])
    F = dft_submatrix(M, np.arange(M), np.arange(cfg.L_h))
    d = 1.0 / p.divisors
    G0 = F @ F.conj().T
    return float(np.real(np.sum(np.conj(d)[:, None] * G0 * d[None, :] * B.T))
                 * sigma2 / M)


@pytest.mark.parametrize("K,truncate", [(2, None), (3, None), (4, None),
                                        (5, None), (4, 128 + 8 - 1)])
def test_full_oqam_projected_mse_matches_dense_trace(desk, K, truncate):
    proto = design_prototype(desk.M, K)
    if truncate is not None:
        proto = truncate_prototype(proto, truncate)
    p = make_equal_comb(desk.M, 0, E, desk, proto)
    got = closed_form_mse(p, 0.01, desk)
    want = _dense_full_projected_mse(p, 0.01, desk)
    assert abs(got - want) <= 1e-12 * abs(want)


def _loop_expected_floor(p, h, cfg):
    """expected_error_floor written pilot by pilot, data symbol by symbol."""
    M, idx, grid = cfg.M, p.pilot_idx, p.symbols
    H = cfr_from_cir(h, M)
    a = np.abs(p.divisors)
    # a two-column grid has a help pilot above every pilot
    helped = idx if grid.shape[1] == 2 else ()
    T = np.zeros((len(p.data_positions), len(idx)), dtype=complex)
    for j, (m, n) in enumerate(p.data_positions):
        for i, q in enumerate(idx):
            # own pulse of the data symbol onto pilot (q, 0)
            acc = H[m] * p.proto.row(q, n)[m]
            # help pilot of a pilot P = m -/+ 1, solved channel-blind
            for P in helped:
                if m in ((P + 1) % M, (P - 1) % M):
                    acc -= (p.proto.row(P, n)[m] / p.proto.rho * H[P]
                            * p.proto.row(q, 1)[P])
            T[j, i] = np.exp(1j * data_phase(m, n)) * acc / a[i]
    A = cfr_samples_to_cir(T, M, idx, cfg.L_h)
    e_d = np.mean(np.abs(grid[idx, 0]) ** 2) / 2.0
    return float(e_d * M * np.sum(np.abs(A) ** 2))


@pytest.mark.parametrize("scenario", ["oqam-1a", "oqam-1b", "oqam-2", "oqam-3"])
def test_expected_error_floor_matches_loop_definition(desk, proto, scenario):
    h = gen_veh_a(8, desk)
    p = make_sparse_data(scenario, E, 2, desk, proto)
    want = _loop_expected_floor(p, h, desk)
    got = expected_error_floor(p, h, desk)
    if scenario == "oqam-1b":
        # guarded pilots: exactly zero up to roundoff of the O(1) terms
        assert got < 1e-20 * desk.M and want < 1e-20 * desk.M
    else:
        assert abs(got - want) <= 1e-12 * want


@st.composite
def data_layouts(draw, scenarios=("oqam-1a", "oqam-1b", "oqam-2", "oqam-3")):
    """(config, pulse, scenario): M = 2^4..2^7, every valid L_h, K = 1..5.

    The one-column layouts also take the pulse cut to M + L_h - 1, which
    the helped ones reject.
    """
    M = 2 ** draw(st.integers(4, 7))
    L_h = 2 ** draw(st.integers(1, int(np.log2(M)) - 1))
    K = draw(st.integers(1, 5))
    scenario = draw(st.sampled_from(scenarios))
    cfg = SystemConfig(M=M, L_h=L_h)
    proto = design_prototype(M, K)
    if K > 1 and scenario in ("oqam-1a", "oqam-1b") and draw(st.booleans()):
        proto = truncate_prototype(proto, M + L_h - 1)
    return cfg, proto, scenario


# At M/L_h = 2 every data symbol of a helped layout borders two pilots:
# the only grid where a symbol takes the second help-pilot slot of B.
_TWO_PILOT = (SystemConfig(M=16, L_h=8), design_prototype(16, 4))


@settings(max_examples=40, deadline=None)
@given(data_layouts(), st.integers(0, 2 ** 32 - 1))
@example((*_TWO_PILOT, "oqam-2"), 0)
@example((*_TWO_PILOT, "oqam-3"), 1)
def test_floor_map_matches_loop_definition(layout, seed):
    cfg, proto, scenario = layout
    p = make_sparse_data(scenario, float(cfg.M), seed, cfg, proto)
    h = gen_veh_a(seed, cfg)
    got = floor_map(p, cfg)(cfr_from_cir(h, cfg.M))
    want = _loop_expected_floor(p, h, cfg)
    if scenario == "oqam-1b" and proto.K is not None:
        # guarded pilots of a designed pulse: zero up to roundoff
        assert got < 1e-20 * cfg.M and want < 1e-20 * cfg.M
    else:
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=30, deadline=None)
@given(data_layouts(("oqam-2", "oqam-3")), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
@example((*_TWO_PILOT, "oqam-2"), 1, 0)
@example((*_TWO_PILOT, "oqam-3"), 4, 1)
@example((SystemConfig(M=16, L_h=2), design_prototype(16, 2),
          "oqam-2"), 1, 0)
def test_help_pilots_match_the_complex_cancellation_rule(layout, T, seed):
    # every help pilot of a draw is the real amplitude that cancels its
    # pilot's first-order data interference, written here as the complex
    # rule Re(-sum_k d_k w_k / (rho e^{j phi(P, 1)})) e^{j phi(P, 1)} with
    # d_k read from the draw (guards read 0), not the layout's real map.
    # The tolerance is 1e-12 of the largest sum of |d_k w_k / rho|, which
    # bounds every help pilot: where a draw's data cancel (the last
    # example), every help pilot is roundoff of a zero
    cfg, proto, scenario = layout
    p = sparse_data_layout(scenario, float(cfg.M), cfg, proto)
    x = draw_sparse_data(p, seed, T)
    m, n, w = first_order_neighbours(p.pilot_idx, 2, proto)
    helper = np.exp(1j * data_phase(p.pilot_idx, 1))
    dw = x[:, m[:, :-1], n[:, :-1]] * w[:, :-1]
    want = (-np.sum(dw, axis=-1) / (w[:, -1] * helper)).real * helper
    got = x[:, p.pilot_idx, 1]
    scale = np.max(np.sum(np.abs(dw), axis=-1) / np.abs(w[:, -1]))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(data_layouts(("oqam-2", "oqam-3")))
@example((*_TWO_PILOT, "oqam-2"))
@example((*_TWO_PILOT, "oqam-3"))
def test_help_pilot_energy_is_the_first_order_sum(layout):
    # a data symbol's real amplitude carries E_x/2, so the help pilots
    # cost E_x/2 * sum |w/rho|^2 over every pilot's data neighbours
    cfg, proto, scenario = layout
    p = sparse_data_layout(scenario, float(cfg.M), cfg, proto)
    e_x = cfg.M / cfg.L_h
    m, n, w = first_order_neighbours(p.pilot_idx, 2, proto)
    data = np.zeros((cfg.M, 2), dtype=bool)
    data[p.data_positions[:, 0], p.data_positions[:, 1]] = True
    want = e_x / 2.0 * np.sum(data[m, n] * np.abs(w / w[:, -1:]) ** 2)
    assert p.E_train - cfg.L_h * e_x == pytest.approx(want, rel=1e-12)


def test_floor_map_of_the_paper_help_layout_stays_small():
    # the unhelped symbols' floor is a per-tone map, with no (pilots x
    # symbols) stack: paper fig6's sparse-data-3 layout, its pulse tables
    # built inside the trace, peaks at about 0.5 MiB (2.1 MiB for the
    # stack, numpy 2.4)
    cfg = SystemConfig(M=1024, L_h=32)
    proto = design_prototype(cfg.M, 4)
    p = sparse_data_layout("oqam-3", 1024.0, cfg, proto)
    tracemalloc.start()
    try:
        floor_map(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_floor_map_rejects_a_data_comb_of_other_than_L_h_pilots(desk, proto):
    # its per-tone form needs the LS fit to keep every pilot's tap
    for scenario in ("oqam-1a", "oqam-3"):
        p = make_sparse_data(scenario, E, 0, desk, proto)
        for L_h in (desk.L_h // 2, 2 * desk.L_h):
            with pytest.raises(ValueError, match="pilots"):
                floor_map(p, replace(desk, L_h=L_h))


def test_verify_optimality_rejects_bad_trial_count(desk, monkeypatch):
    # rejected before any work: the pulse is never designed
    def no_work(*args):
        raise AssertionError("verify_optimality started work")
    monkeypatch.setattr(analysis, "design_prototype", no_work)
    for kw in (dict(trials=0), dict(trials=2.5), dict(trials=True),
               dict(trials="10"), dict(seed=1.5), dict(seed=-1)):
        with pytest.raises(ValueError, match=next(iter(kw))):
            verify_optimality(desk, **kw)


def test_error_floor_expectation(desk, proto):
    h = gen_veh_a(3, desk)
    for scenario, rel_tol in (("oqam-1a", 0.1), ("oqam-2", 0.15), ("oqam-3", 0.15)):
        p0 = make_sparse_data(scenario, E, 0, desk, proto)
        want = expected_error_floor(p0, h, desk)
        sims = []
        for seed in range(120):
            p = make_sparse_data(scenario, E, seed, desk, proto)
            sims.append(error_floor(p, h, desk))
        assert abs(np.mean(sims) - want) < rel_tol * want


def test_error_floor_orderings(desk, proto):
    h = gen_veh_a(4, desk)
    f = {}
    for scenario in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
        p = make_sparse_data(scenario, E, 0, desk, proto)
        f[scenario] = expected_error_floor(p, h, desk)
    assert f["oqam-1b"] < 1e-9 * f["oqam-1a"]
    assert f["oqam-2"] <= f["oqam-3"] * (1 + 1e-9)
    assert f["oqam-3"] < 0.2 * f["oqam-1a"]


def test_qam_scenarios_have_no_floor(desk, proto):
    h = gen_veh_a(5, desk)
    # the demodulated model is exact inside the prefix
    assert error_floor(make_equal_comb(desk.L_h, 0, E, desk), h, desk) == 0.0
    p = make_sparse_data("qam-sd", E, 3, desk)
    r = np.convolve(modulate(p.symbols, desk), h)
    y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
    H_hat = estimate_from_pilots(y, p, desk)
    err = np.sum(np.abs(H_hat - cfr_from_cir(h, desk.M)) ** 2)
    assert err < 1e-18 * desk.M


def test_antenna_energy_dispatch(desk, proto):
    q = make_equal_comb(desk.L_h, 0, E, desk)
    o = make_equal_comb(desk.L_h, 0, E, desk, proto)
    assert abs(antenna_energy(q, desk) - E) < 1e-9
    assert abs(antenna_energy(o, desk) - E) < 1e-9


def test_verify_optimality_report(desk):
    rep = verify_optimality(desk, trials=400, seed=3)
    text = rep.to_text()
    assert rep.passed
    assert len(rep.checks) == 9
    assert text.count("[PASS]") == 9
    assert "overall: PASS" in text


def test_verify_optimality_other_geometry():
    # (1024, 32) is the paper geometry: check (b) reads a 1024 x 1024 B
    for M, L_h in ((64, 4), (1024, 32)):
        cfg = SystemConfig(M=M, L_h=L_h)
        rep = verify_optimality(cfg, trials=300, seed=5)
        assert rep.passed, rep.to_text()
