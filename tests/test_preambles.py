import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    antenna_energy,
    cp_energy,
    expected_helper_ratio,
    load_preamble_values,
    make_full_equal,
    make_full_equipower_qam,
    make_sparse_data,
    make_sparse_equal,
    save_preamble,
    sfb,
    tpr,
)

E_REL = 1e-6


def test_sparse_equal_declared_energy_is_emitted(desk, proto, table):
    for system in ("cpofdm", "oqam"):
        for N in (desk.L_h, 2 * desk.L_h, 4 * desk.L_h):
            p = make_sparse_equal(system, N, 0, desk.E, desk,
                                  proto if system == "oqam" else None,
                                  table if system == "oqam" else None)
            meas = antenna_energy(p, desk, proto if system == "oqam" else None)
            assert abs(meas - p.E_train) < E_REL * p.E_train
            assert p.n_pilots == N
            # equispaced equal combs leave the prefix empty
            assert abs(p.E_train - desk.E) < E_REL * desk.E


def test_sparse_equal_comb_offset(desk):
    p = make_sparse_equal("cpofdm", desk.L_h, 3, desk.E, desk)
    step = desk.M // desk.L_h
    assert list(p.pilot_idx) == list(range(3, desk.M, step))
    assert cp_energy(p.x, desk) < 1e-12 * desk.E


def test_sparse_equal_rejects_bad_counts(desk, proto, table):
    with pytest.raises(ValueError):
        make_sparse_equal("cpofdm", desk.L_h // 2, 0, desk.E, desk)
    with pytest.raises(ValueError):
        # OQAM pilots need an empty tone between occupied tones
        make_sparse_equal("oqam", desk.M, 0, desk.E, desk, proto, table)


def test_full_equal_energy_modes(desk, proto, table):
    q = make_full_equal("cpofdm", desk.E, desk)
    assert abs(antenna_energy(q, desk) - desk.E) < E_REL * desk.E
    o_ant = make_full_equal("oqam", desk.E, desk, proto, table)
    assert abs(antenna_energy(o_ant, desk, proto) - desk.E) < E_REL * desk.E


def test_full_equal_divisor_styles(desk, proto, table):
    pseudo = make_full_equal("oqam", desk.E, desk, proto, table)
    a = pseudo.grid.a[0, 0]
    assert abs(pseudo.divisors[5] / a - (1 + 2 * table.beta)) < 1e-9


def test_equipower_two_impulse_family(desk):
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(0, desk.M))
        m = (k + desk.M // 2) % desk.M
        gamma = float(rng.uniform(0, 1))
        theta = float(rng.uniform(0, 2 * np.pi))
        p = make_full_equipower_qam(k, m, gamma, theta, desk.E, desk)
        mods = np.abs(p.x) ** 2
        assert np.max(mods) - np.min(mods) < 1e-12 * desk.E / desk.M
        assert abs(p.E_train - desk.E) < 1e-9 * desk.E
    with pytest.raises(ValueError):
        make_full_equipower_qam(0, 3, 0.5, 0.0, desk.E, desk)


def test_sparse_data_energy_declarations(desk, proto, table):
    sd = make_sparse_data("cpofdm", "qam-sd", desk.E, 5, desk, proto, table)
    e_x = desk.E / desk.L_h
    want = desk.L_h * e_x + (desk.M - desk.L_h) * e_x * desk.nu / desk.M
    assert abs(sd.E_train - want) < 1e-9 * want
    # measured prefix energy of the data-filled symbol matches the
    # declared nu/M share on average
    got = []
    for seed in range(200):
        p = make_sparse_data("cpofdm", "qam-sd", desk.E, seed, desk, proto, table)
        got.append(cp_energy(p.x, desk))
    assert abs(np.mean(got) - (want - desk.E)) < 0.05 * (want - desk.E)


def test_sparse_data_scenarios_layout(desk, proto, table):
    for scenario, guards, helpers, cols in (
        ("oqam-1a", 0, 0, 1),
        ("oqam-1b", 2 * desk.L_h, 0, 1),
        ("oqam-2", 2 * desk.L_h, desk.L_h, 2),
        ("oqam-3", 0, desk.L_h, 2),
    ):
        p = make_sparse_data("oqam", scenario, desk.E, 9, desk, proto, table)
        assert p.grid.n_cols == cols
        assert len(p.helper_map or {}) == helpers
        occupied = np.count_nonzero(p.grid.a)
        # a helper amplitude may solve to exactly zero for lucky data
        assert desk.M * cols - guards - helpers <= occupied <= desk.M * cols - guards
        if scenario in ("oqam-1b", "oqam-2"):
            for i in p.pilot_idx:
                assert p.grid.a[(i + 1) % desk.M, 0] == 0.0
                assert p.grid.a[(i - 1) % desk.M, 0] == 0.0


def test_sparse_data_helper_energy_ratio(desk, proto, table):
    for scenario in ("oqam-2", "oqam-3"):
        zeta = expected_helper_ratio(scenario, table)
        assert zeta > 0
        ratios = []
        for seed in range(300):
            p = make_sparse_data("oqam", scenario, desk.E, seed, desk, proto, table)
            e_h = sum(p.grid.a[pos] ** 2 for pos in p.helper_map.values())
            e_p = sum(p.grid.a[i, 0] ** 2 for i in p.pilot_idx)
            ratios.append(e_h / e_p)
        assert abs(np.mean(ratios) - zeta) < 0.1 * zeta
    assert (expected_helper_ratio("oqam-3", table)
            > expected_helper_ratio("oqam-2", table))


def test_sparse_data_flat_channel_pilots(desk, proto, table):
    # noise-free flat channel: guards or helpers keep the pilot ratios
    # at 1 up to the higher-order leakage, while the unprotected layout
    # exposes the neighbour interference that causes its error floor
    from mcpreamble import afb

    devs = {}
    for scenario in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
        p = make_sparse_data("oqam", scenario, desk.E, 4, desk, proto, table)
        s = sfb(p.grid, proto)
        y = afb(s, proto, desk, [(m, 0) for m in p.pilot_idx])
        devs[scenario] = np.max(np.abs(y / p.divisors - 1.0))
    assert devs["oqam-1b"] < 1e-12
    assert devs["oqam-2"] < 2e-4
    assert devs["oqam-3"] < 2e-4
    assert devs["oqam-1a"] > 1e-2


def test_tpr_windows_and_values(desk, proto, table):
    q_sp = make_sparse_equal("cpofdm", desk.L_h, 0, desk.E, desk)
    o_sp = make_sparse_equal("oqam", desk.L_h, 0, desk.E, desk, proto, table)
    r = tpr(q_sp, o_sp, desk)
    assert abs(r.value - desk.K * desk.M / (desk.M + desk.nu)) < 1e-9
    assert abs(r.db - 10 * np.log10(r.value)) < 1e-12
    sd = make_sparse_data("cpofdm", "qam-sd", desk.E, 5, desk, proto, table)
    r2 = tpr(sd, q_sp, desk)
    want = 1 + (desk.M - desk.L_h) * (desk.L_h - 1) / (desk.M * desk.L_h)
    assert abs(r2.value - want) < 1e-9
    # two-column scenarios stretch the training window by half a symbol
    p2 = make_sparse_data("oqam", "oqam-2", desk.E, 5, desk, proto, table)
    assert p2.window == proto.L_g + desk.M // 2
    assert q_sp.window == desk.M + desk.nu
    assert o_sp.window == proto.L_g


def test_scaled_preamble(desk, proto, table):
    p = make_sparse_equal("oqam", desk.L_h, 0, desk.E, desk, proto, table)
    q = p.scaled(0.5)
    assert abs(q.E_train - 0.25 * p.E_train) < 1e-12
    assert np.max(np.abs(q.divisors - 0.5 * p.divisors)) < 1e-12
    assert np.max(np.abs(q.grid.a - 0.5 * p.grid.a)) < 1e-12
    assert p.grid.a[p.pilot_idx[0], 0] != q.grid.a[p.pilot_idx[0], 0]


def test_preamble_serialization_roundtrip(tmp_path, desk, proto, table):
    q = make_sparse_equal("cpofdm", desk.L_h, 0, desk.E, desk)
    path = tmp_path / "qam.csv"
    save_preamble(q, path)
    idx, vals = load_preamble_values(path)
    assert np.array_equal(idx, q.pilot_idx)
    assert np.max(np.abs(vals - q.x[q.pilot_idx])) == 0.0

    o = make_sparse_data("oqam", "oqam-2", desk.E, 5, desk, proto, table)
    path2 = tmp_path / "oqam.csv"
    save_preamble(o, path2)
    idx2, vals2 = load_preamble_values(path2)
    flat = (o.grid.x.T).reshape(-1)
    assert np.max(np.abs(vals2 - flat[idx2])) == 0.0
