import dataclasses
import hashlib

import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    antenna_energy,
    cp_energy,
    data_phase,
    design_prototype,
    draw_sparse_data,
    first_order_neighbours,
    load_preamble_values,
    make_equal_comb,
    make_full_equipower_qam,
    make_sparse_data,
    pseudo_pilot,
    save_preamble,
    sfb,
    sparse_data_layout,
    tpr,
    truncate_prototype,
)
from mcpreamble import analysis, oqam, preambles
from mcpreamble.preambles import SCENARIOS

E_REL = 1e-6
E = 1.0  # the training energy of the desk preambles


def test_sparse_equal_declared_energy_is_emitted(desk, proto):
    for pulse in (None, proto):
        for N in (desk.L_h, 2 * desk.L_h, 4 * desk.L_h):
            p = make_equal_comb(N, 0, E, desk, pulse)
            meas = antenna_energy(p, desk)
            assert abs(meas - p.E_train) < E_REL * p.E_train
            assert p.n_pilots == N
            # equispaced equal combs leave the prefix empty
            assert abs(p.E_train - E) < E_REL * E


def test_sparse_equal_comb_offset(desk):
    p = make_equal_comb(desk.L_h, 3, E, desk)
    step = desk.M // desk.L_h
    assert list(p.pilot_idx) == list(range(3, desk.M, step))
    assert cp_energy(p.symbols, desk) < 1e-12 * E


def test_sparse_equal_rejects_bad_counts(desk, proto):
    with pytest.raises(ValueError):
        make_equal_comb(desk.L_h // 2, 0, E, desk)
    # N = M is no bad count: the OQAM comb is then the full column, whose
    # divisors are the pseudo pilots of its neighbour interference
    full = make_equal_comb(desk.M, 0, E, desk, proto)
    assert list(full.pilot_idx) == list(range(desk.M))
    assert full.symbols.shape == (desk.M, 1)
    assert np.array_equal(full.divisors,
                          pseudo_pilot(full.symbols, proto, np.arange(desk.M)))
    assert not np.array_equal(full.divisors, full.symbols[:, 0])


def test_oqam_constructors_reject_a_pulse_for_another_m(desk):
    other = design_prototype(desk.M // 2, 4)
    both = rf"M={desk.M // 2} .*M={desk.M}\b"
    with pytest.raises(ValueError, match=both):
        make_equal_comb(desk.L_h, 0, E, desk, proto=other)
    with pytest.raises(ValueError, match=both):
        make_equal_comb(desk.M, 0, E, desk, proto=other)
    for scenario in ("oqam-1a", "oqam-2"):
        with pytest.raises(ValueError, match=both):
            make_sparse_data(scenario, E, 1, desk, proto=other)


def test_oqam_scenarios_need_their_pulse(desk):
    for scenario in ("oqam-1a", "oqam-2"):
        with pytest.raises(ValueError, match=scenario):
            make_sparse_data(scenario, E, 1, desk)


@pytest.mark.parametrize("make", [
    lambda cfg, pulse: make_sparse_data("qam-sd", E, 5, cfg, pulse),
    lambda cfg, pulse: sparse_data_layout("qam-sd", E, cfg, proto=pulse),
], ids=["qam-sd", "qam-sd-layout"])
def test_cpofdm_constructors_reject_a_pulse(desk, proto, make):
    # a pulse selects OQAM everywhere else; the qam-sd scenario names
    # CP-OFDM, so it refuses one, and says so
    with pytest.raises(ValueError, match="qam-sd is CP-OFDM"):
        make(desk, proto)


@pytest.mark.parametrize("E", [-1.0, 0.0, np.inf, np.nan, True],
                         ids=["-1", "0", "inf", "nan", "True"])
@pytest.mark.parametrize("make", [
    lambda cfg, E, pulse: make_equal_comb(8, 0, E, cfg),
    lambda cfg, E, pulse: make_equal_comb(8, 0, E, cfg, proto=pulse),
    lambda cfg, E, pulse: make_full_equipower_qam(0, 0.5, 0.0, E, cfg),
    lambda cfg, E, pulse: make_sparse_data("qam-sd", E, 1, cfg),
    lambda cfg, E, pulse: sparse_data_layout("oqam-3", E, cfg, proto=pulse),
], ids=["comb", "oqam-comb", "two-impulse", "qam-sd", "oqam-3-layout"])
def test_constructors_take_a_positive_finite_energy_only(desk, proto, make, E):
    # each constructor checks the E it takes (positive, finite, real):
    # each ran before, to a bare RuntimeWarning
    # from sqrt, zero divisors that failed only in the estimator, a
    # non-finite preamble, or E = 1
    with pytest.raises(ValueError, match="E must be"):
        make(desk, E, proto)


def test_truncated_pulse_sets_window_and_energy(desk, proto):
    # the pulse passed in alone fixes the window and the synthesized energy
    short = truncate_prototype(proto, desk.M + desk.L_h - 1)
    p = make_equal_comb(desk.L_h, 0, E, desk, proto=short)
    assert p.proto is short and p.scaled(0.5).proto is short
    assert p.window == short.L_g == 135
    want = float(np.sum(np.abs(sfb(p.symbols, short)) ** 2))
    assert antenna_energy(p, desk) == want
    assert abs(want - E) > 1e-3 * E


def test_full_equal_energy_modes(desk, proto):
    q = make_equal_comb(desk.M, 0, E, desk)
    assert abs(antenna_energy(q, desk) - E) < E_REL * E
    o_ant = make_equal_comb(desk.M, 0, E, desk, proto)
    assert abs(antenna_energy(o_ant, desk) - E) < E_REL * E


def test_full_equal_divisor_styles(desk, proto):
    pseudo = make_equal_comb(desk.M, 0, E, desk, proto)
    a = pseudo.symbols[0, 0].real
    assert abs(pseudo.divisors[5] / a - (1 + 2 * proto.beta)) < 1e-9


def test_equipower_two_impulse_family(desk):
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(0, desk.M))
        gamma = float(rng.uniform(0, 1))
        theta = float(rng.uniform(0, 2 * np.pi))
        p = make_full_equipower_qam(k, gamma, theta, E, desk)
        mods = np.abs(p.symbols) ** 2
        assert np.max(mods) - np.min(mods) < 1e-12 * E / desk.M
        assert abs(p.E_train - E) < 1e-9 * E
    # the second impulse is at (k + M/2) mod M: time samples k and m
    u = np.fft.ifft(make_full_equipower_qam(100, 0.6, 0.0, E,
                                            desk).symbols)
    assert set(np.flatnonzero(np.abs(u) > 1e-9)) == {36, 100}
    for k in (-1, desk.M, np.int64(desk.M + 64)):
        with pytest.raises(ValueError, match="k must lie in 0..M-1"):
            make_full_equipower_qam(k, 0.5, 0.0, E, desk)
    # half-sample positions made no two-impulse preamble (3.5 % of E in
    # the prefix), and True stood for 1
    for k in (0.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="k must be an integer"):
            make_full_equipower_qam(k, 0.7, 0.0, E, desk)


@pytest.mark.parametrize("gamma, theta", [
    (0.5, np.inf), (0.5, np.nan), (0.5, "0"), ("0.5", 0.0), (np.nan, 0.0),
    (np.inf, 0.0), (True, 0.0),
], ids=["theta=inf", "theta=nan", "theta=str", "gamma=str", "gamma=nan",
        "gamma=inf", "gamma=True"])
def test_two_impulse_takes_a_real_gamma_and_a_finite_theta(desk, gamma, theta):
    # an infinite theta built NaN symbols behind a bare RuntimeWarning,
    # and a string gamma raised TypeError
    with pytest.raises(ValueError, match="gamma must|theta must"):
        make_full_equipower_qam(0, gamma, theta, E, desk)


def test_sparse_data_energy_declarations(desk, proto):
    sd = make_sparse_data("qam-sd", E, 5, desk)
    e_x = E / desk.L_h
    want = desk.L_h * e_x + (desk.M - desk.L_h) * e_x * desk.nu / desk.M
    assert abs(sd.E_train - want) < 1e-9 * want
    assert sd.data_positions.shape == (desk.M - desk.L_h, 2)
    assert not sd.data_positions[:, 1].any()
    assert np.array_equal(sd.data_positions[:, 0],
                          np.setdiff1d(np.arange(desk.M), sd.pilot_idx))
    # measured prefix energy of the data-filled symbol matches the
    # declared nu/M share on average
    got = []
    for seed in range(200):
        p = make_sparse_data("qam-sd", E, seed, desk)
        got.append(cp_energy(p.symbols, desk))
    assert abs(np.mean(got) - (want - E)) < 0.05 * (want - E)


def test_sparse_data_scenarios_layout(desk, proto):
    for scenario, guards, helpers, cols in (
        ("oqam-1a", 0, 0, 1),
        ("oqam-1b", 2 * desk.L_h, 0, 1),
        ("oqam-2", 2 * desk.L_h, desk.L_h, 2),
        ("oqam-3", 0, desk.L_h, 2),
    ):
        p = make_sparse_data(scenario, E, 9, desk, proto)
        assert p.symbols.shape == (desk.M, cols)
        occupied = np.count_nonzero(p.symbols)
        # a helper amplitude may solve to exactly zero for lucky data
        assert desk.M * cols - guards - helpers <= occupied <= desk.M * cols - guards
        # one (m, n) row per data symbol, none on a pilot
        pos = p.data_positions
        assert pos.dtype == np.int64
        assert pos.shape == (desk.M * cols - guards - helpers - desk.L_h, 2)
        assert len(np.unique(pos[:, 0] + desk.M * pos[:, 1])) == len(pos)
        assert not np.isin(pos[pos[:, 1] == 0, 0], p.pilot_idx).any()
        # help pilots sit at (p, 1) above every pilot p, never on data
        assert not np.isin(pos[pos[:, 1] == 1, 0], p.pilot_idx).any()
        if scenario in ("oqam-1b", "oqam-2"):
            for i in p.pilot_idx:
                assert p.symbols[(i + 1) % desk.M, 0] == 0.0
                assert p.symbols[(i - 1) % desk.M, 0] == 0.0


@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("M", [32, 128])
def test_a_layout_draw_is_a_stack_of_single_draws(M, scenario, T):
    # row t of T draws from a stream is the t-th of successive
    # make_sparse_data draws from an equally seeded stream, bit for bit,
    # scaled or not: a row never depends on its stack
    cfg, E = SystemConfig(M=M, L_h=M // 16), float(M)
    pulse = None if scenario == "qam-sd" else design_prototype(M, 4)
    layout = sparse_data_layout(scenario, E, cfg, pulse)
    seed = np.random.SeedSequence([5, 201, 3, 1])
    stack = draw_sparse_data(layout, np.random.default_rng(seed), T)
    assert stack.shape == (T,) + layout.symbols.shape
    stream = np.random.default_rng(seed)
    singles = [make_sparse_data(scenario, E, stream, cfg, pulse)
               for _ in range(T)]
    # a seed that is not a generator starts its stream: draw 0
    first = make_sparse_data(scenario, E, seed, cfg, pulse)
    assert first.symbols.tobytes() == singles[0].symbols.tobytes()
    for amp in (1.0, 0.7):
        base = layout.scaled(amp)
        for t in range(T):
            p = singles[t].scaled(amp)
            assert (stack[t] * amp).tobytes() == p.symbols.tobytes()
            assert base.divisors.tobytes() == p.divisors.tobytes()
            assert base.E_train == p.E_train
            assert np.array_equal(base.pilot_idx, p.pilot_idx)
            assert np.array_equal(base.data_positions, p.data_positions)
    # the layout's own symbols are the pilots alone
    x = layout.symbols.reshape(M, -1)
    assert np.count_nonzero(x) == cfg.L_h
    assert np.all(x[layout.pilot_idx, 0] != 0)


def test_make_sparse_data_keeps_its_symbols_for_an_integer_seed():
    # an integer seed gives the symbols it gave when each draw took one
    # integers call per data column: the QPSK symbols by their bytes (all
    # exact in binary) and the signs of an OQAM draw's real data
    cfg, E = SystemConfig(M=16, L_h=2), 16.0
    p = make_sparse_data("qam-sd", E, 11, cfg)
    assert hashlib.sha256(p.symbols.tobytes()).hexdigest() == (
        "1be75a841f400ba18379d077c7e7d3ce52c33fda7d0af7af990145f9f6337873")
    q = make_sparse_data("oqam-3", E, 11, cfg, design_prototype(16, 4))
    m, n = q.data_positions.T
    d = (q.symbols[m, n] * np.exp(-1j * data_phase(m, n))).real
    assert "".join("+" if v > 0 else "-" for v in d) == (
        "++-+---++++--+-+-----++-+--+")


@pytest.mark.parametrize("scenario", ["oqam-2", "oqam-3"])
def test_floor_map_reads_the_layout_help_map(monkeypatch, scenario):
    # the layout's help_j and help_c are the first-order cancellation
    # weights, and its floor map reads them, not the first-order table
    cfg, E = SystemConfig(M=64, L_h=4), 64.0
    proto = design_prototype(64, 4)
    layout = sparse_data_layout(scenario, E, cfg, proto)
    nm, nn, w = first_order_neighbours(layout.pilot_idx, 2, proto)
    grid = np.full((cfg.M, 2), -1)  # data index of each grid position
    pos = layout.data_positions
    grid[pos[:, 0], pos[:, 1]] = np.arange(len(pos))
    jk = grid[nm, nn]
    # the help pilot's own position (last) holds no data
    assert not np.any(jk[:, -1] >= 0)
    has = jk[:, :-1] >= 0
    assert np.array_equal(layout.help_j, np.where(has, jk[:, :-1], 0))
    # help_c: the help pilot per unit real amplitude of each neighbour
    m, n = nm[:, :-1], nn[:, :-1]
    helper = np.exp(1j * data_phase(layout.pilot_idx, 1))[:, None]
    c = -np.exp(1j * data_phase(m, n)) * w[:, :-1] / (w[:, -1:] * helper)
    np.testing.assert_allclose(layout.help_c,
                               np.where(has, c.real, 0) * helper,
                               rtol=1e-14, atol=0)

    def no_table(*args):
        raise AssertionError("floor_map read the first-order table")

    monkeypatch.setattr(oqam, "first_order_neighbours", no_table)
    monkeypatch.setattr(preambles, "first_order_neighbours", no_table)
    assert analysis.floor_map(layout, cfg)(np.ones(cfg.M)) > 0


def _helper_ratio(scenario, E, cfg, proto):
    """zeta = E[helper^2] / E_x, read from E_train = N*E_x*(1 + zeta)."""
    p = make_sparse_data(scenario, E, 0, cfg, proto)
    return p.E_train / E - 1.0


def test_sparse_data_helper_energy_ratio(desk, proto):
    for scenario in ("oqam-2", "oqam-3"):
        zeta = _helper_ratio(scenario, E, desk, proto)
        assert zeta > 0
        ratios = []
        for seed in range(300):
            p = make_sparse_data(scenario, E, seed, desk, proto)
            e_h = np.sum(np.abs(p.symbols[p.pilot_idx, 1]) ** 2)
            e_p = np.sum(np.abs(p.symbols[p.pilot_idx, 0]) ** 2)
            ratios.append(e_h / e_p)
        assert abs(np.mean(ratios) - zeta) < 0.1 * zeta
    assert (_helper_ratio("oqam-3", E, desk, proto)
            > _helper_ratio("oqam-2", E, desk, proto))


def test_help_pilots_match_the_first_order_sum_pilot_by_pilot(desk, proto):
    # the reference, one pilot and one neighbour at a time: the help pilot
    # (P, 1) carries -v/rho, v the first-order sum of P's other neighbours
    # at their literal offsets (the band edges wrap with their sign)
    M = desk.M
    for scenario in ("oqam-2", "oqam-3"):
        for seed in range(3):
            p = make_sparse_data(scenario, E, seed, desk, proto)
            x = p.symbols
            for P in p.pilot_idx:
                v = 0.0
                for dm, dn in ((-1, 0), (1, 0), (-1, 1), (1, 1)):
                    m = (P + dm) % M
                    v += x[m, dn] * proto.weight(int(m - P), dn)
                assert x[P, 1] == pytest.approx(-v / proto.rho, rel=1e-12,
                                                abs=1e-12 * abs(x[P, 0]))


@pytest.mark.parametrize("M", [32, 128, 1024])
def test_helper_energy_ratio_has_its_closed_form(M):
    # a help pilot cancels w~ from each data tone beside it in column 1
    # and, in oqam-3, beta from each one beside it in column 0; each
    # carries E_x/2, and the help pilot reaches its pilot with rho
    for K in (2, 3, 4, 5):
        cfg = SystemConfig(M=M, L_h=8)
        proto = design_prototype(M, K)
        wtilde = abs(proto.weight(1, 1))
        want = {"oqam-2": wtilde ** 2 / proto.rho ** 2,
                "oqam-3": (proto.beta ** 2 + wtilde ** 2) / proto.rho ** 2}
        for scenario, zeta in want.items():
            zeta_got = _helper_ratio(scenario, float(M), cfg, proto)
            assert zeta_got == pytest.approx(zeta, rel=1e-12)


def test_sparse_data_flat_channel_pilots(desk, proto):
    # noise-free flat channel: guards or helpers keep the pilot ratios
    # at 1 up to the higher-order leakage, while the unprotected layout
    # exposes the neighbour interference that causes its error floor
    from mcpreamble import afb

    devs = {}
    for scenario in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
        p = make_sparse_data(scenario, E, 4, desk, proto)
        s = sfb(p.symbols, proto)
        y = afb(s, proto, p.pilot_idx)
        devs[scenario] = np.max(np.abs(y / p.divisors - 1.0))
    assert devs["oqam-1b"] < 1e-12
    assert devs["oqam-2"] < 2e-4
    assert devs["oqam-3"] < 2e-4
    assert devs["oqam-1a"] > 1e-2


def test_tpr_windows_and_values(desk, proto):
    q_sp = make_equal_comb(desk.L_h, 0, E, desk)
    o_sp = make_equal_comb(desk.L_h, 0, E, desk, proto)
    r = tpr(q_sp, o_sp)
    assert abs(r - proto.K * desk.M / (desk.M + desk.nu)) < 1e-9
    sd = make_sparse_data("qam-sd", E, 5, desk)
    r2 = tpr(sd, q_sp)
    want = 1 + (desk.M - desk.L_h) * (desk.L_h - 1) / (desk.M * desk.L_h)
    assert abs(r2 - want) < 1e-9
    # two-column scenarios stretch the training window by half a symbol
    p2 = make_sparse_data("oqam-2", E, 5, desk, proto)
    assert p2.window == proto.L_g + desk.M // 2
    assert q_sp.window == desk.M + desk.nu
    assert o_sp.window == proto.L_g


def test_scaled_preamble(desk, proto):
    p = make_equal_comb(desk.L_h, 0, E, desk, proto)
    q = p.scaled(0.5)
    assert abs(q.E_train - 0.25 * p.E_train) < 1e-12
    assert np.max(np.abs(q.divisors - 0.5 * p.divisors)) < 1e-12
    assert np.max(np.abs(q.symbols - 0.5 * p.symbols)) < 1e-12
    assert p.symbols[p.pilot_idx[0], 0] != q.symbols[p.pilot_idx[0], 0]


@pytest.mark.parametrize("amp", [np.nan, np.inf, 0.0, -1.0, True, "1"])
def test_scaled_takes_a_positive_finite_amplitude(amp):
    # NaN gave a NaN preamble, 0 one of E = 0 that closed_form_mse
    # divided by
    p = make_equal_comb(8, 0, 1.0, SystemConfig(128, 8))
    with pytest.raises(ValueError, match="amp must be"):
        p.scaled(amp)


def test_preamble_serialization_roundtrip(tmp_path, desk, proto):
    q = make_equal_comb(desk.L_h, 0, E, desk)
    path = tmp_path / "qam.csv"
    save_preamble(q, path)
    idx, vals = load_preamble_values(path)
    assert np.array_equal(idx, q.pilot_idx)
    assert np.max(np.abs(vals - q.symbols[q.pilot_idx])) == 0.0

    # only CP-OFDM frequency vectors have a plain-text form
    o = make_sparse_data("oqam-2", E, 5, desk, proto)
    with pytest.raises(ValueError):
        save_preamble(o, tmp_path / "oqam.csv")


def test_preamble_rejects_a_grid_without_its_pulse(desk, proto):
    oqam = make_equal_comb(desk.L_h, 0, E, desk, proto)
    with pytest.raises(ValueError):
        dataclasses.replace(oqam, proto=None)
    qam = make_equal_comb(desk.L_h, 0, E, desk)
    with pytest.raises(ValueError):
        dataclasses.replace(qam, proto=design_prototype(desk.M, 4))


def test_preamble_rejects_a_pulse_for_another_m(desk, proto):
    # a pulse swapped in after construction is checked like one passed in
    oqam = make_equal_comb(desk.L_h, 0, E, desk, proto)
    with pytest.raises(ValueError, match=rf"M=64 .*M={desk.M}\b"):
        dataclasses.replace(oqam, proto=design_prototype(64, 4))
