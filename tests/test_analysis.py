import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    afb,
    afb_noise_cov,
    antenna_energy,
    closed_form_mse,
    demodulate,
    error_floor,
    estimate_from_pilots,
    expected_error_floor,
    gen_veh_a,
    genie_mse,
    make_full_equal,
    make_full_equipower_qam,
    make_sparse_data,
    make_sparse_equal,
    modulate,
    papr,
    propagate,
    sfb,
    verify_optimality,
)


def test_papr_reference_points():
    assert abs(papr(np.ones(64)) - 1.0) < 1e-12
    s = np.zeros(64)
    s[0] = 1.0
    assert abs(papr(s) - 64.0) < 1e-12


def test_genie_mse_domains(desk):
    v = genie_mse(0.01, desk.E, desk)
    assert abs(v - desk.L_h * 0.01 / desk.E) < 1e-15
    assert abs(genie_mse(0.01, desk.E, desk, domain="cfr") - desk.M * v) < 1e-12


def test_equispaced_equal_comb_attains_genie(desk):
    # the closed form for the projected equal comb reduces to the bound
    for N in (desk.L_h, 2 * desk.L_h):
        p = make_sparse_equal("cpofdm", N, 0, desk.E, desk)
        pred = closed_form_mse(p, 0.01, desk)
        assert abs(pred - genie_mse(0.01, desk.E, desk, "cfr")) < 1e-9


def test_equipower_two_impulse_attains_genie(desk):
    p = make_full_equipower_qam(0, desk.M // 2, np.sqrt(0.5), 0.3, desk.E, desk)
    pred = closed_form_mse(p, 0.01, desk, mode="projected")
    assert abs(pred - genie_mse(0.01, desk.E, desk, "cfr")) < 1e-9


def test_qam_closed_forms_against_simulation(desk):
    sigma2 = 0.01
    cases = [
        (make_sparse_equal("cpofdm", 2 * desk.L_h, 0, desk.E, desk), "projected"),
        (make_full_equal("cpofdm", desk.E, desk), "raw"),
        (make_full_equal("cpofdm", desk.E, desk), "projected"),
    ]
    for p, mode in cases:
        pred = closed_form_mse(p, sigma2, desk, mode=mode)
        acc = 0.0
        trials = 600
        for t in range(trials):
            ch = gen_veh_a((1, t), desk)
            r = propagate(modulate(p.x, desk).s, ch.h, sigma2, seed=(2, t))
            y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
            res = estimate_from_pilots(y, p, desk, mode=mode)
            acc += np.sum(np.abs(res.H_hat - ch.cfr(desk.M)) ** 2)
        assert abs(acc / trials - pred) < 0.04 * pred


def test_oqam_closed_forms_against_simulation(desk, proto, table):
    sigma2 = 0.01
    # sparse comb estimates through the flat-per-subcarrier front end
    p = make_sparse_equal("oqam", 2 * desk.L_h, 0, desk.E, desk, proto, table)
    pred = closed_form_mse(p, sigma2, desk, proto=proto, table=table)
    acc = 0.0
    trials = 500
    pts = [(m, 0) for m in p.pilot_idx]
    for t in range(trials):
        ch = gen_veh_a((3, t), desk)
        r = propagate(sfb(p.grid, proto), ch.h, sigma2, seed=(4, t))
        y = afb(r[: p.window], proto, desk, pts)
        res = estimate_from_pilots(y, p, desk)
        acc += np.sum(np.abs(res.H_hat - ch.cfr(desk.M)) ** 2)
    assert abs(acc / trials - pred) < 0.05 * pred


def test_oqam_full_projected_uses_noise_correlation(desk, proto, table):
    # the exact projected form differs from the white-noise shortcut by
    # the analysis-bank correlation; simulation arbitrates
    sigma2 = 0.01
    p = make_full_equal("oqam", desk.E, desk, proto, table)
    pred = closed_form_mse(p, sigma2, desk, mode="projected", proto=proto,
                           table=table)
    white = sigma2 * desk.L_h / desk.M * np.sum(1.0 / np.abs(p.divisors) ** 2)
    assert abs(pred / white - 1.0) > 0.1
    acc = 0.0
    trials = 800
    pts = [(m, 0) for m in range(desk.M)]
    for t in range(trials):
        ch = gen_veh_a((5, t), desk)
        r = propagate(sfb(p.grid, proto), ch.h, sigma2, seed=(6, t))
        y = afb(r[: p.window], proto, desk, pts)
        res = estimate_from_pilots(y, p, desk, mode="projected")
        acc += np.sum(np.abs(res.H_hat - ch.cfr(desk.M)) ** 2)
    assert abs(acc / trials - pred) < 0.05 * pred


def test_afb_noise_cov_matches_monte_carlo(small, small_proto, small_table):
    B = afb_noise_cov(small_proto, small, small_table)
    assert np.max(np.abs(np.diag(B) - 1.0)) < 1e-9
    assert np.max(np.abs(B - B.conj().T)) < 1e-12
    rng = np.random.default_rng(1)
    acc = np.zeros_like(B)
    trials = 6000
    pts = [(m, 0) for m in range(small.M)]
    for _ in range(trials):
        z = (rng.standard_normal(small_proto.L_g)
             + 1j * rng.standard_normal(small_proto.L_g)) / np.sqrt(2)
        y = afb(z, small_proto, small, pts)
        acc += np.outer(y, y.conj())
    acc /= trials
    assert np.max(np.abs(acc - B)) < 0.04


def test_error_floor_expectation(desk, proto, table):
    ch = gen_veh_a(3, desk)
    for scenario, rel_tol in (("oqam-1a", 0.1), ("oqam-2", 0.15), ("oqam-3", 0.15)):
        p0 = make_sparse_data("oqam", scenario, desk.E, 0, desk, proto, table)
        want = expected_error_floor(p0, ch, desk, proto, table)
        sims = []
        for seed in range(120):
            p = make_sparse_data("oqam", scenario, desk.E, seed, desk, proto, table)
            sims.append(error_floor(p, ch, desk, proto, table))
        assert abs(np.mean(sims) - want) < rel_tol * want


def test_error_floor_orderings(desk, proto, table):
    ch = gen_veh_a(4, desk)
    f = {}
    for scenario in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
        p = make_sparse_data("oqam", scenario, desk.E, 0, desk, proto, table)
        f[scenario] = expected_error_floor(p, ch, desk, proto, table)
    assert f["oqam-1b"] < 1e-9 * f["oqam-1a"]
    assert f["oqam-2"] <= f["oqam-3"] * (1 + 1e-9)
    assert f["oqam-3"] < 0.2 * f["oqam-1a"]


def test_qam_scenarios_have_no_floor(desk, proto, table):
    ch = gen_veh_a(5, desk)
    p = make_sparse_data("cpofdm", "qam-sd", desk.E, 3, desk, proto, table)
    r = np.convolve(modulate(p.x, desk).s, ch.h)
    y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
    res = estimate_from_pilots(y, p, desk)
    err = np.sum(np.abs(res.H_hat - ch.cfr(desk.M)) ** 2)
    assert err < 1e-18 * desk.M


def test_antenna_energy_dispatch(desk, proto, table):
    q = make_sparse_equal("cpofdm", desk.L_h, 0, desk.E, desk)
    o = make_sparse_equal("oqam", desk.L_h, 0, desk.E, desk, proto, table)
    assert abs(antenna_energy(q, desk) - desk.E) < 1e-9
    assert abs(antenna_energy(o, desk, proto) - desk.E) < 1e-9


def test_verify_optimality_report(desk):
    rep = verify_optimality(desk, trials=400, seed=3)
    text = rep.to_text()
    assert rep.passed
    assert len(rep.checks) == 9
    assert text.count("[PASS]") == 9
    assert "overall: PASS" in text


def test_verify_optimality_other_geometry():
    cfg = SystemConfig(M=64, L_h=4, K=4)
    rep = verify_optimality(cfg, trials=300, seed=5)
    assert rep.passed
