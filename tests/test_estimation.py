import numpy as np
import pytest

from mcpreamble import (
    afb,
    closed_form_mse,
    demodulate,
    estimate_from_pilots,
    gen_veh_a,
    make_full_equal,
    make_sparse_equal,
    modulate,
    sfb,
)


def test_noiseless_sparse_estimate_is_exact(desk):
    p = make_sparse_equal("cpofdm", 2 * desk.L_h, 0, desk.E, desk)
    ch = gen_veh_a(1, desk)
    r = np.convolve(modulate(p.symbols, desk).s, ch.h)
    y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
    res = estimate_from_pilots(y, p, desk)
    assert res.method == "projected"
    assert np.max(np.abs(res.H_hat - ch.cfr(desk.M))) < 1e-9
    assert np.max(np.abs(res.h_hat - ch.h)) < 1e-9


def test_noiseless_oqam_sparse_estimate(desk, proto):
    p = make_sparse_equal("oqam", desk.L_h, 0, desk.E, desk, proto)
    ch = gen_veh_a(2, desk)
    r = np.convolve(sfb(p.symbols, proto), ch.h)
    y = afb(r[: p.window], proto, [(m, 0) for m in p.pilot_idx])
    res = estimate_from_pilots(y, p, desk)
    # limited by the flat-per-subcarrier front end, not by noise
    assert np.max(np.abs(res.H_hat - ch.cfr(desk.M))) < 0.05 * np.max(np.abs(ch.cfr(desk.M)))


def test_estimator_has_two_explicit_modes(desk):
    full = make_full_equal("cpofdm", desk.E, desk)
    sparse = make_sparse_equal("cpofdm", desk.L_h, 0, desk.E, desk)
    y_full = np.ones(desk.M, dtype=complex)
    y_sp = np.ones(desk.L_h, dtype=complex)
    # projected is the default on every layout, the full grid included
    assert estimate_from_pilots(y_full, full, desk).method == "projected"
    assert estimate_from_pilots(y_sp, sparse, desk).method == "projected"
    assert estimate_from_pilots(y_full, full, desk, mode="raw").method == "raw"
    with pytest.raises(ValueError):
        estimate_from_pilots(y_sp, sparse, desk, mode="raw")
    with pytest.raises(ValueError):
        closed_form_mse(sparse, 1.0, desk, mode="raw")
    for p, y in ((full, y_full), (sparse, y_sp)):
        with pytest.raises(ValueError):
            estimate_from_pilots(y, p, desk, mode="auto")
        with pytest.raises(ValueError):
            closed_form_mse(p, 1.0, desk, mode="auto")


def test_raw_estimate_is_plain_division(desk):
    full = make_full_equal("cpofdm", desk.E, desk)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M)
    res = estimate_from_pilots(y, full, desk, mode="raw")
    assert np.max(np.abs(res.H_hat - y / full.divisors)) < 1e-12
    assert res.h_hat is None


def _projected_from_raw(H_raw, full, desk):
    """Projected estimate from measurements whose raw estimate is H_raw."""
    return estimate_from_pilots(H_raw * full.divisors, full, desk)


def test_full_grid_projection_reduces_to_support(desk):
    full = make_full_equal("cpofdm", desk.E, desk)
    rng = np.random.default_rng(4)
    h = np.zeros(desk.M, dtype=complex)
    h[: desk.L_h] = rng.standard_normal(desk.L_h) + 1j * rng.standard_normal(desk.L_h)
    H = np.fft.fft(h)
    noisy = H + 0.1 * (rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M))
    proj = _projected_from_raw(noisy, full, desk)
    # exact on in-model responses
    clean = _projected_from_raw(H, full, desk)
    assert np.max(np.abs(clean.H_hat - H)) < 1e-9
    assert np.max(np.abs(clean.h_hat - h[: desk.L_h])) < 1e-9
    # projection never increases the error of an in-model response
    assert (np.sum(np.abs(proj.H_hat - H) ** 2)
            <= np.sum(np.abs(noisy - H) ** 2) + 1e-9)


def test_projection_is_idempotent(desk):
    full = make_full_equal("cpofdm", desk.E, desk)
    rng = np.random.default_rng(5)
    noisy = rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M)
    once = _projected_from_raw(noisy, full, desk)
    twice = _projected_from_raw(once.H_hat, full, desk)
    assert np.max(np.abs(twice.H_hat - once.H_hat)) < 1e-10
