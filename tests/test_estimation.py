import dataclasses
from functools import partial

import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    afb,
    cfr_from_cir,
    cfr_samples_to_cir,
    closed_form_mse,
    demodulate,
    design_prototype,
    error_floor,
    estimate_from_pilots,
    floor_map,
    gen_veh_a,
    make_equal_comb,
    make_sparse_data,
    modulate,
    sfb,
    sparse_data_layout,
)
from mcpreamble.estimation import pilot_fit

E = 1.0  # the training energy of the desk preambles


def test_noiseless_sparse_estimate_is_exact(desk):
    p = make_equal_comb(2 * desk.L_h, 0, E, desk)
    h = gen_veh_a(1, desk)
    r = np.convolve(modulate(p.symbols, desk), h)
    y = demodulate(r[: desk.M + desk.nu], desk)[p.pilot_idx]
    H_hat = estimate_from_pilots(y, p, desk)
    assert np.max(np.abs(H_hat - cfr_from_cir(h, desk.M))) < 1e-9
    h_hat = cfr_samples_to_cir(y / p.divisors, desk.M, p.pilot_idx, desk.L_h)
    assert np.max(np.abs(h_hat - h)) < 1e-9


def test_noiseless_oqam_sparse_estimate(desk, proto):
    p = make_equal_comb(desk.L_h, 0, E, desk, proto)
    h = gen_veh_a(2, desk)
    r = np.convolve(sfb(p.symbols, proto), h)
    y = afb(r[: p.window], proto, p.pilot_idx)
    H = cfr_from_cir(h, desk.M)
    # limited by the flat-per-subcarrier front end, not by noise
    H_hat = estimate_from_pilots(y, p, desk)
    assert np.max(np.abs(H_hat - H)) < 0.05 * np.max(np.abs(H))


def test_estimator_has_two_explicit_modes(desk):
    full = make_equal_comb(desk.M, 0, E, desk)
    sparse = make_equal_comb(desk.L_h, 0, E, desk)
    rng = np.random.default_rng(2)
    y_full = rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M)
    y_sp = np.ones(desk.L_h, dtype=complex)
    # projected, which fits a CIR, is the default on every layout, the
    # full grid included
    raw = estimate_from_pilots(y_full, full, desk, mode="raw")
    fit = np.fft.fft(cfr_samples_to_cir(raw, desk.M, full.pilot_idx, desk.L_h),
                     n=desk.M)
    assert np.array_equal(estimate_from_pilots(y_full, full, desk), fit)
    assert not np.allclose(fit, raw)
    assert estimate_from_pilots(y_sp, sparse, desk).shape == (desk.M,)
    with pytest.raises(ValueError):
        estimate_from_pilots(y_sp, sparse, desk, mode="raw")
    with pytest.raises(ValueError):
        closed_form_mse(sparse, 1.0, desk, mode="raw")
    for p, y in ((full, y_full), (sparse, y_sp)):
        with pytest.raises(ValueError):
            estimate_from_pilots(y, p, desk, mode="auto")
        with pytest.raises(ValueError):
            closed_form_mse(p, 1.0, desk, mode="auto")


_COMB = SystemConfig(M=128, L_h=8)


@pytest.mark.parametrize("full, config, why", [
    (False, SystemConfig(M=128, L_h=16), "at least L_h=16 pilots, got 8"),
    (False, SystemConfig(M=64, L_h=8), "built for M=128"),
    (True, SystemConfig(M=64, L_h=8), "built for M=128"),
])
def test_a_preamble_must_fit_its_config(full, config, why):
    # the 8-pilot comb and the full OQAM column of M = 128, fitted on
    # another L_h or M: closed_form_mse gave 2048, 512 and 350.9 and the
    # estimator failed on "not equispaced"
    pulse = design_prototype(_COMB.M, 4)
    p = make_equal_comb(_COMB.M if full else 8, 0, 1.0, _COMB,
                        pulse if full else None)
    y = np.ones(p.n_pilots, dtype=complex)
    with pytest.raises(ValueError, match=why):
        closed_form_mse(p, 1.0, config)
    with pytest.raises(ValueError, match=why):
        estimate_from_pilots(y, p, config)
    if full:
        with pytest.raises(ValueError, match=why):
            closed_form_mse(p, 1.0, config, mode="raw")
        with pytest.raises(ValueError, match=why):
            estimate_from_pilots(y, p, config, mode="raw")


@pytest.mark.parametrize("scenario", ["oqam-1a", "oqam-3"])
def test_a_layout_floor_must_fit_its_config(scenario):
    # on another M both floors failed with a numpy broadcast error
    pulse = design_prototype(_COMB.M, 4)
    p = make_sparse_data(scenario, 1.0, 0, _COMB, pulse)
    other = SystemConfig(M=64, L_h=8)
    with pytest.raises(ValueError, match="built for M=128"):
        floor_map(p, other)
    with pytest.raises(ValueError, match="built for M=128"):
        error_floor(p, np.ones(other.L_h), other)


@pytest.mark.parametrize("mode", ["raw", "projected"])
def test_estimate_takes_a_stack_of_measurements(desk, mode):
    full = make_equal_comb(desk.M, 0, E, desk)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((6, desk.M)) + 1j * rng.standard_normal((6, desk.M))
    H_hat = estimate_from_pilots(y, full, desk, mode=mode)
    assert H_hat.shape == (6, desk.M)
    for t in range(6):
        assert np.array_equal(H_hat[t], estimate_from_pilots(y[t], full, desk,
                                                             mode=mode))
    with pytest.raises(ValueError, match=f"expected {desk.M} pilot "
                                         f"measurements, got {desk.M - 1}"):
        estimate_from_pilots(y[:, 1:], full, desk, mode=mode)


def test_raw_estimate_is_plain_division(desk):
    full = make_equal_comb(desk.M, 0, E, desk)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M)
    H_hat = estimate_from_pilots(y, full, desk, mode="raw")
    assert np.max(np.abs(H_hat - y / full.divisors)) < 1e-12


def _zero_divisor(p, row=()):
    """p with its divisor 1 (of that row of a stack) set to zero."""
    divisors = np.array(p.divisors)
    divisors[row + (1,)] = 0.0
    return dataclasses.replace(p, divisors=divisors)


def test_zero_divisor_is_rejected(desk, proto):
    # every LS consumer checks it through one fit check; closed_form_mse
    # and error_floor returned inf, and floor_map NaN
    full = make_equal_comb(desk.M, 0, E, desk)
    bad = _zero_divisor(full)
    stack = _zero_divisor(dataclasses.replace(
        full, divisors=np.stack([full.divisors] * 3)), (2,))
    helped = _zero_divisor(sparse_data_layout("oqam-2", E, desk, proto))
    h = gen_veh_a(1, desk)
    y = np.ones(desk.M, dtype=complex)
    calls = [partial(error_floor, helped, h, desk),
             partial(floor_map, helped, desk)]
    for mode in ("raw", "projected"):
        calls += [partial(estimate_from_pilots, y, bad, desk, mode=mode),
                  partial(pilot_fit, bad, desk, mode=mode),
                  partial(closed_form_mse, bad, 1.0, desk, mode=mode),
                  partial(closed_form_mse, stack, 1.0, desk, mode=mode)]
    for call in calls:
        with pytest.raises(ValueError, match="zero divisor"):
            call()


def _projected_from_raw(H_raw, full, desk):
    """Projected estimate from measurements whose raw estimate is H_raw."""
    return estimate_from_pilots(H_raw * full.divisors, full, desk)


def test_full_grid_projection_reduces_to_support(desk):
    full = make_equal_comb(desk.M, 0, E, desk)
    rng = np.random.default_rng(4)
    h = np.zeros(desk.M, dtype=complex)
    h[: desk.L_h] = rng.standard_normal(desk.L_h) + 1j * rng.standard_normal(desk.L_h)
    H = np.fft.fft(h)
    noisy = H + 0.1 * (rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M))
    proj = _projected_from_raw(noisy, full, desk)
    # exact on in-model responses
    clean = _projected_from_raw(H, full, desk)
    assert np.max(np.abs(clean - H)) < 1e-9
    h_hat = cfr_samples_to_cir(clean, desk.M, full.pilot_idx, desk.L_h)
    assert np.max(np.abs(h_hat - h[: desk.L_h])) < 1e-9
    # projection never increases the error of an in-model response
    assert (np.sum(np.abs(proj - H) ** 2)
            <= np.sum(np.abs(noisy - H) ** 2) + 1e-9)


def test_projection_is_idempotent(desk):
    full = make_equal_comb(desk.M, 0, E, desk)
    rng = np.random.default_rng(5)
    noisy = rng.standard_normal(desk.M) + 1j * rng.standard_normal(desk.M)
    once = _projected_from_raw(noisy, full, desk)
    twice = _projected_from_raw(once, full, desk)
    assert np.max(np.abs(twice - once)) < 1e-10
