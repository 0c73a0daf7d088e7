import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    afb,
    afb_column,
    data_phase,
    design_prototype,
    first_order_neighbours,
    make_equal_comb,
    make_sparse_data,
    pseudo_pilot,
    sfb,
    sparse_data_layout,
    truncate_prototype,
)
from mcpreamble.oqam import _fold_column

# frequency-sampling designs, frozen from the closed-form coefficients
BETA = {1: 0.0, 2: 0.25, 3: 0.25000000098, 4: 0.23927669486587827,
        5: 0.22402342206752035}
RHO4 = 0.5644478310164335
WTILDE4 = 0.2057996220521831
PR_RESIDUAL = {1: 1e-15, 2: 1e-15, 3: 2.2537696983e-03, 4: 2.0349029918e-04,
               5: 5.9994751428e-04}


def test_prototype_compares_by_identity():
    p = design_prototype(64, 4)
    assert p == p
    assert p != design_prototype(64, 4)
    assert {p: 1}[p] == 1


def direct_pulse(proto, m, n):
    """Tone-m pulse of column n on the absolute time axis."""
    M, L_g, c = proto.M, proto.L_g, proto.center
    labs = n * (M // 2) + np.arange(L_g)
    return proto.g * np.exp(2j * np.pi * m * (labs - c) / M)


def test_prototype_shape_and_energy():
    for K in (1, 2, 3, 4, 5):
        p = design_prototype(64, K)
        assert p.L_g == K * 64
        assert abs(p.energy - 1.0) < 1e-12
        assert np.max(np.abs(p.g - p.g[::-1])) == 0.0
        assert p.g[np.argmax(p.g)] > 0


def test_prototype_rejects_unknown_overlap():
    with pytest.raises(ValueError):
        design_prototype(64, 6)


def test_interference_weights_frozen():
    cfg = SystemConfig(M=128, L_h=8)
    for K, beta in BETA.items():
        t = design_prototype(cfg.M, K)
        assert abs(t.beta - beta) < 1e-9
        assert abs(t.pr_residual()) <= 1.05 * PR_RESIDUAL[K]
    t4 = design_prototype(cfg.M, 4)
    assert abs(t4.rho - RHO4) < 1e-9
    assert abs(abs(t4.weight(1, 1)) - WTILDE4) < 1e-9


def test_beta_independent_of_m():
    b = [design_prototype(M, 4).beta for M in (32, 64, 256)]
    assert np.max(np.abs(np.diff(b))) < 1e-12


def test_far_in_column_weights_vanish():
    # the frequency-sampling construction nulls every |dm| >= 2, dn = 0
    t = design_prototype(64, 4)
    for dm in range(2, 64 - 1):
        assert abs(t.weight(dm, 0)) < 1e-12


def test_ambiguity_symmetries():
    cfg = SystemConfig(M=64, L_h=8)
    t = design_prototype(cfg.M, 4)
    for dm, dn in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (1, 3)):
        a = t.weight(dm, dn)
        # reflection in frequency conjugates
        assert abs(t.weight(-dm, dn) - np.conj(a)) < 1e-12
        # time reversal flips by the staggering phase
        assert abs(t.weight(dm, -dn) - (-1) ** (dm * dn) * a) < 1e-12
        # shifting dm by M flips the sign (half-sample center offset); the
        # offsets lie in -(M-1)..M-1, so dm = 0 has no shifted partner
        if dm:
            assert abs(t.weight(dm - cfg.M, dn) + a) < 1e-12


@pytest.mark.parametrize("M, K, cut", [
    (128, 4, None), (64, 2, None), (64, 5, None), (128, 4, 135),
    (128, 4, 136), (64, 3, 71),
], ids=["128-K4", "64-K2", "64-K5", "128-K4-odd-cut", "128-K4-even-cut",
        "64-K3-odd-cut"])
def test_one_table_of_inner_products(M, K, cut):
    proto = design_prototype(M, K)
    if cut is not None:
        proto = truncate_prototype(proto, cut)
    # every scalar weight is an entry of the kernel, bit for bit
    for dn in (-1, 0, 1, 2):
        table = proto.kernel(dn)
        assert table is proto.kernel(dn)
        for dm in range(1 - M, M):
            assert proto.weight(dm, dn) == table[dm + M - 1]
    assert proto.beta == proto.kernel(0)[M].real
    assert proto.rho == proto.kernel(1)[M - 1].real
    # the first-order weights are one gather from the same tables
    tones = np.array([0, 1, M // 2, M - 1])
    m, n, w = first_order_neighbours(tones, 2, proto)
    lit = m - tones[:, None]
    assert np.array_equal(w, np.stack([proto.kernel(int(b)) for b in n[0]])
                          [np.arange(w.shape[1]), lit + M - 1])
    # no grid has two tones M or more apart
    for dm in (M, -M, 200):
        with pytest.raises(ValueError):
            proto.weight(dm, 0)


def test_cached_tables_are_read_only(small, small_proto):
    rng = np.random.default_rng(3)
    x = phased(rng.standard_normal((small.M, 2)))
    s = sfb(x, small_proto)
    y = afb_column(s, small_proto, 0)
    w = small_proto.weight(1, 0)
    with pytest.raises(ValueError):
        small_proto.kernel(0)[small.M] = 0.0
    with pytest.raises(ValueError):
        small_proto.kernel(1)[:] *= 2.0
    with pytest.raises(ValueError):
        small_proto._ramp[0] = 1.0
    # nothing a caller reaches moved
    assert small_proto.weight(1, 0) == w
    assert np.array_equal(sfb(x, small_proto), s)
    assert np.array_equal(afb_column(s, small_proto, 0), y)


def test_row_of_tone_array_stacks_single_rows(small, small_proto):
    tones = np.array([0, 3, small.M - 1])
    for dn in (0, 1):
        rows = small_proto.row(tones, dn)
        want = np.vstack([small_proto.row(int(t), dn) for t in tones])
        assert np.array_equal(rows, want)
        # entry [i, m] is the literal-offset weight onto tone i
        assert rows[1, 5] == pytest.approx(small_proto.weight(5 - 3, dn),
                                           abs=1e-15)


def test_ambiguity_against_direct_sum():
    proto = design_prototype(32, 3)
    M, L_g, c = 32, proto.L_g, proto.center
    l = np.arange(L_g)
    rng = np.random.default_rng(0)
    for _ in range(20):
        dm = int(rng.integers(-4, 5))
        dn = int(rng.integers(-2, 3))
        shifted = np.zeros(L_g)
        lo = dn * M // 2
        src = l - lo
        ok = (src >= 0) & (src < L_g)
        shifted[ok] = proto.g[src[ok]]
        direct = np.sum(shifted * proto.g * np.exp(2j * np.pi * dm * (l - c) / M))
        assert abs(proto.weight(dm, dn) - direct) < 1e-9


def phased(a):
    """Grid of real amplitudes a under the staggered phase rule."""
    m, n = np.indices(a.shape)
    return a * np.exp(1j * data_phase(m, n))


def test_sfb_matches_direct_form(small, small_proto):
    rng = np.random.default_rng(7)
    x = phased(rng.standard_normal((small.M, 4)))
    s = sfb(x, small_proto)
    direct = np.zeros_like(s)
    half = small.M // 2
    for n in range(4):
        seg = slice(n * half, n * half + small_proto.L_g)
        for m in range(small.M):
            direct[seg] += x[m, n] * direct_pulse(small_proto, m, n)
    assert np.max(np.abs(s - direct)) < 1e-10 * np.max(np.abs(direct))


def test_afb_matches_direct_form(small, small_proto):
    rng = np.random.default_rng(8)
    n_cols = 3
    span = (n_cols - 1) * small.M // 2 + small_proto.L_g
    r = rng.standard_normal(span) + 1j * rng.standard_normal(span)
    half = small.M // 2
    for n in range(n_cols):
        y = afb_column(r, small_proto, n)
        seg = r[n * half : n * half + small_proto.L_g]
        for m in range(small.M):
            direct = np.vdot(direct_pulse(small_proto, m, n), seg)
            assert abs(y[m] - direct) < 1e-9
    col = afb_column(r, small_proto, 0)
    assert np.array_equal(afb(r, small_proto, np.arange(small.M)), col)


def test_afb_gathers_column_0_tones_in_order(small, small_proto):
    # any order, repeats allowed; column 1's samples are present but unread
    rng = np.random.default_rng(12)
    span = small.M // 2 + small_proto.L_g
    r = rng.standard_normal(span) + 1j * rng.standard_normal(span)
    tones = [5, 0, 31, 5, 17, 2, 5]
    col = afb_column(r, small_proto, 0)
    expect = np.array([col[m] for m in tones])
    assert np.array_equal(afb(r, small_proto, tones), expect)
    assert np.array_equal(afb(r, small_proto, np.array(tones)), expect)


@pytest.mark.parametrize("tone", [-1, "M", 0.5])
def test_afb_rejects_tones_off_the_grid(small, small_proto, tone):
    # numpy would read -1 as tone M - 1 and fail on M with an IndexError
    r = np.ones(small_proto.L_g, dtype=complex)
    tones = [3, small.M if tone == "M" else tone]
    with pytest.raises(ValueError, match=f"integers in 0..{small.M - 1}"):
        afb(r, small_proto, tones)


@pytest.mark.parametrize("cut", ["designed", "odd"])
def test_fold_equals_add_at_reference(desk, proto, cut):
    # the odd M + L_h - 1 cut is not a multiple of M long, so its fold
    # runs through the zero padding
    g = proto if cut == "designed" else truncate_prototype(
        proto, desk.M + desk.L_h - 1)
    rng = np.random.default_rng(13)
    span = desk.M // 2 + g.L_g
    r = rng.standard_normal(span) + 1j * rng.standard_normal(span)
    for n in (0, 1):
        start = n * desk.M // 2
        want = np.zeros(desk.M, dtype=complex)
        np.add.at(want, (start + np.arange(g.L_g)) % desk.M,
                  r[start:start + g.L_g] * g.g)
        assert np.array_equal(_fold_column(r, g, n), want)


def test_filter_bank_takes_a_stack_of_windows(small, small_proto):
    rng = np.random.default_rng(14)
    span = small.M // 2 + small_proto.L_g
    r = rng.standard_normal((5, span)) + 1j * rng.standard_normal((5, span))
    tones = [5, 0, 31, 5, 17, 2]
    y = afb(r, small_proto, tones)
    assert y.shape == (5, len(tones))
    for n in (0, 1):
        col = afb_column(r, small_proto, n)
        assert col.shape == (5, small.M)
        for t in range(5):
            assert np.array_equal(col[t], afb_column(r[t], small_proto, n))
    for t in range(5):
        assert np.array_equal(y[t], afb(r[t], small_proto, tones))
    with pytest.raises(ValueError, match="column 1 needs samples"):
        afb_column(r[:, :-1], small_proto, 1)
    with pytest.raises(ValueError, match="column 0 needs samples"):
        afb(r[:, :small_proto.L_g - 1], small_proto, tones)


@pytest.mark.parametrize("cut", [None, 32 + 4 - 1, 32 + 4],
                         ids=["designed", "odd-cut", "even-cut"])
def test_sfb_takes_a_stack_of_grids(small, small_proto, cut):
    # a cut pulse ends in a partial M-block; row 1 leaves column 0 empty
    pulse = small_proto if cut is None else truncate_prototype(small_proto,
                                                               cut)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, small.M, 2)) + 1j * rng.standard_normal(
        (4, small.M, 2))
    x[1, :, 0] = 0
    s = sfb(x, pulse)
    assert s.shape == (4, small.M // 2 + pulse.L_g)
    for t in range(4):
        assert np.array_equal(s[t], sfb(x[t], pulse))


def test_transmultiplexer_identity(small, small_proto):
    # a lone unit pilot at (p, q) lands on (p+dm, q+dn) with weight
    # (-1)^{dm q} conj(A(dm, dn))
    for (p, q) in ((5, 1), (0, 2), (31, 0)):
        grid = np.zeros((small.M, 4), dtype=complex)
        x = grid[p, q] = np.exp(1j * data_phase(p, q))
        s = sfb(grid, small_proto)
        for dn in (-1, 0, 1):
            if not 0 <= q + dn < 4:
                continue
            y = afb_column(s, small_proto, q + dn)
            for m in range(small.M):
                dm = m - p
                want = (-1) ** (dm * q) * np.conj(small_proto.weight(dm, dn)) * x
                assert abs(y[m] - want) < 1e-10


def test_real_orthogonality_of_phased_grid(small, small_proto):
    # after the quarter-turn phase map, taking real parts recovers the
    # amplitudes up to the reconstruction residual of the prototype
    rng = np.random.default_rng(9)
    a = rng.standard_normal((small.M, 5))
    s = sfb(phased(a), small_proto)
    y = afb_column(s, small_proto, 2)
    derot = np.array([np.exp(-1j * data_phase(m, 2)) for m in range(small.M)])
    rec = np.real(y * derot)
    assert np.max(np.abs(rec - a[:, 2])) < 5e-3 * np.max(np.abs(a))


def test_pseudo_pilot_predicts_flat_channel_output(small, small_proto):
    rng = np.random.default_rng(10)
    grid = phased(rng.standard_normal((small.M, 2)))
    s = sfb(grid, small_proto)
    y = afb(s, small_proto, np.arange(small.M))
    c = pseudo_pilot(grid, small_proto, np.arange(small.M))
    # the pseudo pilot keeps first-order neighbours; the rest is the
    # prototype's (tiny) higher-order leakage
    assert np.max(np.abs(y - c)) < 5e-3 * np.max(np.abs(y))


def test_full_preamble_pseudo_pilots_exact(desk, proto):
    # one occupied column: in-column weights beyond first order vanish,
    # so the pseudo pilots equal the flat-channel outputs to precision
    p = make_equal_comb(desk.M, 0, desk.E, desk, proto)
    s = sfb(p.symbols, proto)
    y = afb(s, proto, np.arange(desk.M))
    assert np.max(np.abs(y - p.divisors)) < 1e-12
    a = p.symbols[0, 0].real
    assert abs(p.divisors[0] - a) < 1e-12
    assert abs(p.divisors[desk.M - 1] - a) < 1e-12
    mid = p.divisors[3]
    assert abs(mid - a * (1 + 2 * proto.beta)) < 1e-12


def test_first_order_neighbourhood_wraps_tones_and_keeps_literal_offsets(
        small, small_proto):
    tones = np.array([0, 8, small.M - 1])
    m, n, w = first_order_neighbours(tones, 2, small_proto)
    assert m.shape == n.shape == w.shape == (3, 5)
    for i, p in enumerate(tones):
        got = {(int(a), int(b)) for a, b in zip(m[i], n[i])}
        assert got == {((p + dm) % small.M, dn) for dm in (-1, 0, 1)
                       for dn in (0, 1)} - {(p, 0)}
        for k in range(5):
            lit = int(m[i, k]) - p
            assert w[i, k] == small_proto.weight(lit, int(n[i, k]))
    # the help pilot (p, 1) comes last; a one-column grid has only (p +/- 1, 0)
    assert np.array_equal(m[:, -1], tones) and np.all(n[:, -1] == 1)
    m1, n1, w1 = first_order_neighbours(tones, 1, small_proto)
    assert np.array_equal(m1, m[:, :2]) and not n1.any()
    assert np.array_equal(w1, w[:, :2])


def test_help_pilot_cancels_imaginary_part():
    # every pilot of a helped grid: the help pilot takes the imaginary
    # part of its sfb -> afb output down to the higher-order leakage level
    for M, L_h in ((32, 4), (128, 8)):
        cfg = SystemConfig(M=M, L_h=L_h, K=4)
        proto = design_prototype(M, 4)
        for scenario in ("oqam-2", "oqam-3"):
            bare_worst = 0.0
            for seed in range(3):
                p = make_sparse_data(scenario, cfg.E, seed, cfg, proto)
                derot = np.exp(-1j * data_phase(p.pilot_idx, 0))
                y = afb(sfb(p.symbols, proto), proto, p.pilot_idx) * derot
                assert np.all(np.abs(y.imag) < 5e-3 * np.abs(y.real))
                bare = p.symbols.copy()
                bare[p.pilot_idx, 1] = 0.0
                y0 = afb(sfb(bare, proto), proto, p.pilot_idx) * derot
                bare_worst = max(bare_worst, np.max(np.abs(y0.imag / y0.real)))
            # without their help pilots the same grids miss that bound
            assert bare_worst > 5e-3


def test_help_pilot_needs_aligned_axis(desk, proto):
    # an odd cut sits half a sample off centre: the interference at a
    # pilot leaves the helper's real axis, so the helped layouts reject it,
    # when the layout is built and before any data is drawn
    odd = truncate_prototype(proto, desk.M + desk.L_h - 1)
    even = truncate_prototype(proto, desk.M + desk.L_h)
    for scenario in ("oqam-2", "oqam-3"):
        with pytest.raises(ValueError, match="helper axis"):
            sparse_data_layout(scenario, desk.E, desk, odd)
        with pytest.raises(ValueError, match="helper axis"):
            make_sparse_data(scenario, desk.E, 1, desk, odd)
        assert sparse_data_layout(scenario, desk.E, desk, even).proto is even
        assert make_sparse_data(scenario, desk.E, 1, desk, even).proto is even


def test_truncate_prototype_recenters_and_renormalizes():
    cfg = SystemConfig(M=64, L_h=8)
    p = design_prototype(cfg.M, 4)
    t = truncate_prototype(p, cfg.M + cfg.L_h - 1)
    assert t.L_g == cfg.M + cfg.L_h - 1
    assert abs(t.energy - 1.0) < 1e-12
    # the retained window is the center of the original pulse
    start = (p.L_g - t.L_g) // 2
    seg = p.g[start : start + t.L_g]
    assert np.max(np.abs(t.g - seg / np.linalg.norm(seg))) < 1e-12
    # a length is an integer within the pulse: 71.5 was a TypeError and
    # True a one-sample pulse
    for bad, why in ((71.5, "must be an integer"), (True, "must be an integer"),
                     (0, "1..256, the length of the K=4 pulse"),
                     (257, "1..256, the length of the K=4 pulse")):
        with pytest.raises(ValueError, match=why):
            truncate_prototype(p, bad)


def test_only_an_even_cut_stays_symmetric(desk, proto):
    # a designed pulse has even length and g == g[::-1]; an odd cut
    # cannot be centred on that axis, so only its g[1:] is a palindrome
    # and the in-column weight leaves the real axis
    assert np.array_equal(proto.g, proto.g[::-1])
    even = truncate_prototype(proto, desk.M + desk.L_h)
    odd = truncate_prototype(proto, desk.M + desk.L_h - 1)
    assert np.array_equal(even.g, even.g[::-1])
    assert np.array_equal(odd.g[1:], odd.g[:0:-1])
    assert not np.array_equal(odd.g, odd.g[::-1])
    assert abs(odd.weight(1, 0).imag) > 1e-4
    assert abs(even.weight(1, 0).imag) < 1e-12


def test_truncated_energy_capture():
    # fraction of pulse energy inside the central M + L_h - 1 samples;
    # all overlap factors hold roughly 95 percent
    cfg = SystemConfig(M=128, L_h=8)
    for K in (3, 4, 5):
        p = design_prototype(cfg.M, K)
        n = cfg.M + cfg.L_h - 1
        start = (p.L_g - n) // 2
        cap = np.sum(p.g[start : start + n] ** 2)
        assert 0.94 < cap < 0.97
