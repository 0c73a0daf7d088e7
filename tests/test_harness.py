import concurrent.futures
import dataclasses
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpreamble import (
    CurveSpec,
    ExperimentConfig,
    SystemConfig,
    afb,
    awgn,
    cfr_from_cir,
    demodulate,
    design_prototype,
    draw_sparse_data,
    ebn0_to_sigma2,
    estimate_from_pilots,
    floor_map,
    gen_veh_a,
    harness,
    make_sparse_data,
    modulate,
    preset,
    preset_names,
    propagate,
    run_experiment,
    sfb,
    write_csv,
)
from mcpreamble.channel import _veh_a_profile

SMALL = dict(n_channels=6, n_noise=8)
_default_rng = np.random.default_rng


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _no_channel_runs(args):
    raise AssertionError("a channel ran")


def test_preset_names_complete():
    names = preset_names()
    assert "fig1a" in names and "fig8b" in names
    assert len(names) == 13


def test_preset_scales():
    desk = preset("fig1a", scale="desk")
    paper = preset("fig1a", scale="paper")
    assert (desk.M, desk.L_h) == (128, 8)
    assert (paper.M, paper.L_h) == (1024, 32)
    assert paper.n_channels > desk.n_channels
    with pytest.raises(ValueError):
        preset("fig99")


def test_preset_overrides():
    cfg = preset("fig5", scale="desk", M=64, L_h=4, seed=9, n_channels=3,
                 n_noise=4, ebn0_db=(5.0, 15.0))
    assert cfg.M == 64 and cfg.L_h == 4 and cfg.seed == 9
    assert cfg.ebn0_db == (5.0, 15.0)
    assert cfg.E == 64.0


# the family of each preset's curves, at both scales
_FAMILIES = {
    "fig1a": ("full", "sparse"), "fig1b": ("full", "sparse"),
    "fig2a": ("sparse", "sparse"), "fig2b": ("sparse", "sparse"),
    "fig3": ("sparse", "sparse_data"), "fig4a": ("full", "sparse"),
    "fig4b": ("full", "sparse"), "fig5": ("sparse", "sparse"),
    "fig6": ("sparse", "sparse_data"), "fig7a": ("sparse", "sparse"),
    "fig7b": ("sparse", "sparse"), "fig8a": ("sparse", "sparse"),
    "fig8b": ("sparse", "sparse"),
}


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_a_curve_family_follows_from_its_spec(scale):
    # benchmark output checks branch on it, so every preset keeps its own
    assert {name: tuple(spec.family for spec in preset(name, scale).curves)
            for name in preset_names()} == _FAMILIES


def test_a_curve_spec_takes_a_scenario_or_a_comb_size_not_both():
    # a sparse-plus-data layout fixes its own N = L_h pilots
    kw = dict(label="x", system="oqam", estimator="projected")
    with pytest.raises(ValueError, match="takes no n_pilots"):
        CurveSpec(scenario="oqam-3", n_pilots=8, **kw)
    # the family is read from the spec, never set beside it
    with pytest.raises(TypeError):
        CurveSpec(family="sparse", n_pilots=8, **kw)


@pytest.mark.parametrize("bad, why", [
    (dict(system="ofdm"), "system must be"),
    (dict(e_scale=0.0), "e_scale must be positive"),
    (dict(e_scale=-1.0), "e_scale must be positive"),
    (dict(e_scale=float("nan")), "e_scale must be positive"),
    (dict(n_pilots=0), "need N >= L_h=8 pilots, got 0"),
    (dict(n_pilots=8.0), "n_pilots must be an integer"),
    (dict(system="cpofdm", truncate_to=135), "takes no truncate_to"),
    (dict(truncate_to=135.5), "truncate_to must be an integer"),
    (dict(truncate_to=True), "truncate_to must be an integer"),
    (dict(n_pilots=3), "need N >= L_h=8 pilots, got 3"),
    (dict(truncate_to=2000), "length must lie in 1..512, the length of the "
                             "K=4 pulse, got 2000"),
    (dict(n_pilots=None, scenario="bogus"), "scenario must be one of"),
    (dict(estimator="bogus"), "mode must be 'raw' or 'projected'"),
    (dict(estimator="raw"), "raw mode needs a measurement on every tone"),
    (dict(n_pilots=None, scenario="qam-sd"), "qam-sd is CP-OFDM"),
    (dict(system="cpofdm", n_pilots=None, scenario="oqam-3"),
     "oqam-3 is OQAM and needs its pulse"),
    (dict(n_pilots=None, scenario="oqam-2", truncate_to=135),
     "not on the helper axis"),
], ids=["system=ofdm", "e_scale=0", "e_scale=-1", "e_scale=nan",
        "n_pilots=0", "n_pilots=8.0", "cpofdm-truncate_to",
        "truncate_to=135.5", "truncate_to=True", "n_pilots=3",
        "truncate_to=2000", "scenario=bogus", "estimator=bogus",
        "raw-on-a-comb", "qam-sd-on-oqam", "oqam-3-on-cpofdm",
        "oqam-2-on-an-odd-cut"])
def test_a_curve_is_rejected_before_any_work(monkeypatch, bad, why):
    # each ran before: the OQAM chain labelled "ofdm", an all-NaN CSV, the
    # full comb for 0 pilots, an IndexError, a cut that changed nothing,
    # a TypeError from the cut, a one-sample pulse.  A curve's own checks
    # and those of the constructors that build it name the curve
    monkeypatch.setattr(harness, "_run_channel", _no_channel_runs)
    cfg = preset("fig4b", "desk", n_channels=3, n_noise=2)
    with pytest.raises(ValueError, match=f"curve 'sparse': .*{why}"):
        spec = dataclasses.replace(cfg.curves[1], **bad)
        run_experiment(dataclasses.replace(cfg, curves=(cfg.curves[0], spec)))


def test_runs_are_deterministic(tmp_path):
    cfg = preset("fig1b", scale="desk", **SMALL)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(run_experiment(cfg), a, cfg.name)
    write_csv(run_experiment(cfg), b, cfg.name)
    assert read_bytes(a) == read_bytes(b)


# static preambles, CP-OFDM pilots beside data, OQAM help pilots
@pytest.mark.parametrize("name", ["fig4b", "fig3", "fig6"])
def test_parallel_equals_serial(tmp_path, name):
    serial = preset(name, scale="desk", **SMALL)
    parallel = preset(name, scale="desk", workers=2, **SMALL)
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    write_csv(run_experiment(serial), a, serial.name)
    write_csv(run_experiment(parallel), b, parallel.name)
    assert read_bytes(a) == read_bytes(b)


def _recorded_noise(monkeypatch, cfg):
    """(generator, block) per harness.awgn call of a serial run of cfg."""
    calls = []

    def recorded(n, seed):
        w = awgn(n, seed)
        calls.append((seed, w))
        return w

    monkeypatch.setattr(harness, "awgn", recorded)
    run_experiment(cfg)
    return calls


@pytest.mark.parametrize("name", ["fig4b", "fig6"])
def test_noise_is_drawn_once_per_channel_and_draw(monkeypatch, name):
    # one generator per channel, one awgn call per block of draws; every
    # curve reads its own prefix of a draw's row.  Blocks of two draws,
    # so three draws take two blocks.
    cfg = preset(name, scale="desk", n_channels=2, n_noise=3)
    n_win = max(rt.n_rx for rt in harness._runtimes(cfg))
    monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * n_win)
    calls = _recorded_noise(monkeypatch, cfg)
    gens = [g for g, _ in calls]
    assert all(isinstance(g, np.random.Generator) for g in gens)
    assert [g is gens[0] for g in gens] == [True, True, False, False]
    assert gens[2] is gens[3]
    assert [w.shape for _, w in calls] == [(2, n_win), (1, n_win)] * 2


def test_a_draws_noise_does_not_depend_on_the_draw_count(monkeypatch):
    # the channel's stream is continued in draw order, so draw t is the
    # same row whether the run takes 3 draws or 5
    rows = []
    for n_noise in (3, 5):
        cfg = preset("fig4b", scale="desk", n_channels=2, n_noise=n_noise)
        calls = _recorded_noise(monkeypatch, cfg)
        assert len(calls) == 2
        rows.append([w[:3] for _, w in calls])
    for few, many in zip(*rows):
        assert few.tobytes() == many.tobytes()


def _recorded_data(monkeypatch, cfg):
    """(generator, draws) per harness.draw_sparse_data call of a serial
    run of cfg, and the seed of every data generator the run builds."""
    calls, streams = [], []

    def recorded(layout, rng, T):
        x = draw_sparse_data(layout, rng, T)
        calls.append((rng, x))
        return x

    def built(seed=None):
        if isinstance(seed, list) and seed[1:2] == [201]:
            streams.append(seed)
        return _default_rng(seed)

    monkeypatch.setattr(harness, "draw_sparse_data", recorded)
    monkeypatch.setattr(np.random, "default_rng", built)
    run_experiment(cfg)
    return calls, streams


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_data_is_drawn_once_per_channel_and_curve(monkeypatch, name):
    # one generator per (channel, curve whose receiver sees its data),
    # seeded [seed, 201, c, i] for curve i, and one draw_sparse_data call
    # per block of draws.  Blocks of two draws, so three draws take two
    # blocks.  fig3's CP-OFDM pilots never see its data: it draws none.
    cfg = preset(name, scale="desk", n_channels=2, n_noise=3)
    runtimes = harness._runtimes(cfg)
    n_win = max(rt.n_rx for rt in runtimes)
    monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * n_win)
    calls, streams = _recorded_data(monkeypatch, cfg)
    if name == "fig3":
        assert calls == [] and streams == []
        return
    (i,) = [i for i, rt in enumerate(runtimes) if rt.layout is not None]
    assert streams == [[cfg.seed, 201, c, i] for c in (0, 1)]
    gens = [g for g, _ in calls]
    assert all(isinstance(g, np.random.Generator) for g in gens)
    assert [g is gens[0] for g in gens] == [True, True, False, False]
    assert gens[2] is gens[3]
    assert [g.bit_generator.seed_seq.entropy for g in gens[1:3]] == [
        [cfg.seed, 201, 0, i], [cfg.seed, 201, 1, i]]
    assert [len(x) for _, x in calls] == [2, 1] * 2


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_a_draws_data_does_not_depend_on_the_draw_count(monkeypatch, name):
    # the (channel, curve) stream is continued in draw order, so draw t
    # holds the same data whether the run takes 3 draws or 5; fig3 draws
    # no data at either count
    rows = []
    for n_noise in (3, 5):
        cfg = preset(name, scale="desk", n_channels=2, n_noise=n_noise)
        calls, streams = _recorded_data(monkeypatch, cfg)
        if name == "fig3":
            assert calls == [] and streams == []
            continue
        assert len(calls) == 2
        rows.append([x[:3] for _, x in calls])
    for few, many in zip(*rows):
        assert few.tobytes() == many.tobytes()


def test_curves_on_one_pulse_share_it(monkeypatch):
    # the two OQAM curves of fig4b and fig6 hold one pulse object, built
    # once per process; fig8's cut pulse is another object
    designed = []

    def counted(M, K):
        designed.append((M, K))
        return design_prototype(M, K)

    monkeypatch.setattr(harness, "design_prototype", counted)
    harness._pulse.cache_clear()
    harness._runtimes.cache_clear()
    for name in ("fig4b", "fig6"):
        cfg = preset(name, scale="desk", **SMALL)
        a, b = harness._runtimes(cfg)
        assert a.proto is b.proto is harness._pulse(cfg.M, cfg.K, None)
    assert designed == [(128, 4)]
    cfg = preset("fig8a", scale="desk", **SMALL)
    cut = harness._runtimes(cfg)[1].proto
    assert cut.L_g == cfg.M + cfg.L_h - 1
    assert cut is not harness._pulse(cfg.M, cfg.K, None)
    assert cut is harness._pulse(cfg.M, cfg.K, cfg.M + cfg.L_h - 1)


@pytest.mark.parametrize("name", ["fig4b", "fig3", "fig6"])
def test_chain_calls_do_not_grow_with_the_draws(monkeypatch, name):
    # a curve's draws go through one synthesis, one delay line, one
    # receive and one estimate as a stack, a preamble redrawn per draw too
    counts = []
    for n_noise in (2, 12):
        calls = []
        chain = [(harness, fn) for fn in ("sfb", "modulate", "afb",
                 "afb_column", "demodulate", "estimate_from_pilots")]
        for owner, fn in chain + [(harness._CurveRuntime, "delayed")]:
            def counted(*args, _fn=getattr(owner, fn), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, fn, counted)
        run_experiment(preset(name, scale="desk", n_channels=2,
                              n_noise=n_noise))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# (demodulate, afb_column) calls on a block of unit noise: CP-OFDM curves
# share the demodulator, OQAM curves on one pulse share its column 0, and
# fig7a and fig8a hold one receiver of each (fig8a's pulse is a cut)
@pytest.mark.parametrize("name, want", [
    ("fig3", (1, 0)), ("fig4b", (0, 1)), ("fig6", (0, 1)), ("fig7a", (1, 1)),
    ("fig8a", (1, 1))])
def test_a_block_of_noise_goes_once_through_each_receiver(monkeypatch, name,
                                                          want):
    cfg = preset(name, scale="desk", n_channels=2, n_noise=3)
    runtimes = harness._runtimes(cfg)
    n_win = max(rt.n_rx for rt in runtimes)
    monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * n_win)
    blocks, calls = [], []

    def drawn(n, seed):
        blocks.append(awgn(n, seed))
        return blocks[-1]

    monkeypatch.setattr(harness, "awgn", drawn)
    for fn in ("demodulate", "afb_column", "afb"):
        def counted(r, *args, _fn=fn, _f=getattr(harness, fn), **kwargs):
            calls.append((_fn, r))
            return _f(r, *args, **kwargs)

        monkeypatch.setattr(harness, fn, counted)
    delayed = harness._CurveRuntime.delayed

    def delay_line(rt, s, h):
        calls.append(("delayed", s))
        return delayed(rt, s, h)

    monkeypatch.setattr(harness._CurveRuntime, "delayed", delay_line)
    for c in range(cfg.n_channels):
        harness._run_channel((cfg, c))
    assert len(blocks) == 4
    for w in blocks:
        on_w = [fn for fn, r in calls if np.shares_memory(r, w)]
        assert (on_w.count("demodulate"), on_w.count("afb_column")) == want
        assert len(on_w) == sum(want)
    # a static preamble never goes through the delay line, a redrawn one
    # once per block (test_no_preset_propagates: nothing is propagated);
    # fig3's data is not redrawn, as its CP-OFDM pilots never see it
    redrawn = sum(rt.layout is not None for rt in runtimes)
    assert [fn for fn, _ in calls].count("delayed") == 4 * redrawn
    assert redrawn == (name == "fig6")


@pytest.mark.parametrize("name", preset_names())
def test_no_preset_propagates(monkeypatch, name):
    # the engine sends a redrawn preamble through the channel's delay
    # line; channel.propagate stays the reference the tests compare with.
    # Every name the package binds it to counts its calls.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items()
                if key.split(".")[0] == "mcpreamble"]:
        if getattr(mod, "propagate", None) is propagate:
            monkeypatch.setattr(mod, "propagate", counted)
    run_experiment(preset(name, scale="desk", n_channels=2, n_noise=2))
    assert calls == []


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_delay_line_is_the_noiseless_propagation(scale):
    # a block of fig6 data draws through the channel's occupied delays
    # is their convolution with the whole L_h-tap response
    cfg = preset("fig6", scale=scale)
    rt = harness._CurveRuntime(cfg.curves[1], cfg)
    assert rt.layout is not None
    s = rt.synthesize(draw_sparse_data(rt.layout, np.random.default_rng(8), 5))
    for c in range(3):
        h = gen_veh_a(np.random.SeedSequence([cfg.seed, 101, c]), rt.sc)
        want = propagate(s, h, 0.0, None)
        got = rt.delayed(s, h)
        assert got.shape == want.shape == (5, rt.n_rx)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name", preset_names())
def test_tap_responses_are_the_chain(monkeypatch, name):
    # every channel the model draws lies on the tap delays, and the tap
    # responses weighted by its taps give the chain's noiseless estimate:
    # synthesis, propagation, receive and LS on the pilots.  They are the
    # samples shifted to each delay: building them takes no delay line.
    cfg = preset(name, scale="desk")
    sc = cfg.system
    delays = _veh_a_profile(sc.L_h).taps
    calls = []
    delayed = harness._CurveRuntime.delayed

    def delay_line(rt, s, h):
        calls.append(s)
        return delayed(rt, s, h)

    monkeypatch.setattr(harness._CurveRuntime, "delayed", delay_line)
    harness._runtimes.cache_clear()
    runtimes = harness._runtimes(cfg)
    assert calls == []
    for c in range(3):
        h = gen_veh_a(np.random.SeedSequence([cfg.seed, 101, c]), sc)
        H = cfr_from_cir(h, sc.M)
        assert set(np.flatnonzero(h)) <= set(delays)
        for rt in runtimes:
            if rt.layout is not None:
                assert rt.taps is None
                continue
            p = rt.preamble
            if rt.proto is None:
                r = propagate(modulate(p.symbols, sc), h, 0.0, None)
                y = demodulate(r, sc)[p.pilot_idx]
            else:
                r = propagate(sfb(p.symbols, rt.proto), h, 0.0, None)
                y = afb(r, rt.proto, p.pilot_idx)
            want = estimate_from_pilots(y, p, sc, mode=rt.spec.estimator)
            assert rt.taps.shape == (len(delays), sc.M)
            assert (np.linalg.norm(h[delays] @ rt.taps - want)
                    <= 1e-12 * np.linalg.norm(H))


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_tap_responses_stand_for_data_only_where_the_receiver_is_blind(name):
    # a data-bearing draw through the chain (make_sparse_data, synthesis,
    # propagation, receive, LS) gives the pilot-only estimate on fig3,
    # whose CP-OFDM pilots never see the data tones, so its curve is
    # static; on fig6 the pulse carries the data to the pilots, so a draw
    # misses the pilot-only estimate by far more than roundoff
    cfg = preset(name, scale="desk")
    sc = cfg.system
    delays = _veh_a_profile(sc.L_h).taps
    rt = harness._runtimes(cfg)[1]
    spec = rt.spec
    assert spec.family == "sparse_data"
    assert (rt.layout is None) == (name == "fig3")
    rng = np.random.default_rng(5)
    for c in range(3):
        h = gen_veh_a(np.random.SeedSequence([cfg.seed, 101, c]), sc)
        H = cfr_from_cir(h, sc.M)

        def chain(p):
            if rt.proto is None:
                r = propagate(modulate(p.symbols, sc), h, 0.0, None)
                y = demodulate(r, sc)[p.pilot_idx]
            else:
                r = propagate(sfb(p.symbols, rt.proto), h, 0.0, None)
                y = afb(r, rt.proto, p.pilot_idx)
            return estimate_from_pilots(y, p, sc, mode=spec.estimator)

        pilots_only = (chain(rt.preamble) if rt.taps is None
                       else h[delays] @ rt.taps)
        for _ in range(4):
            p = make_sparse_data(spec.scenario, cfg.E * spec.e_scale, rng,
                                 sc, rt.proto).scaled(rt.scale)
            miss = np.linalg.norm(chain(p) - pilots_only)
            if name == "fig3":
                assert miss <= 1e-12 * np.linalg.norm(H)
            else:
                assert miss > 1e-6 * np.linalg.norm(H)


@pytest.mark.parametrize("name", ["fig3", "fig4b", "fig6", "fig8a"])
def test_output_does_not_depend_on_the_block_size(monkeypatch, tmp_path, name):
    cfg = preset(name, scale="desk", n_channels=3, n_noise=5)
    n_win = max(rt.n_rx for rt in harness._runtimes(cfg))
    paths = []
    # the default (one block), one draw per block, and two per block with
    # a shorter last block
    for k, samples in enumerate((None, 1, 2 * n_win)):
        if samples is not None:
            monkeypatch.setattr(harness, "_BLOCK_SAMPLES", samples)
        paths.append(tmp_path / f"{k}.csv")
        write_csv(run_experiment(cfg), paths[-1], cfg.name)
    assert read_bytes(paths[0]) == read_bytes(paths[1]) == read_bytes(paths[2])


# (M, L_h) off the presets' M/L_h = 16 and 32, from 2 to 32
_OFF_PRESET_SHAPES = [(16, 8), (32, 4), (64, 16), (128, 64), (256, 8)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_OFF_PRESET_SHAPES), st.integers(1, 5),
       st.sampled_from(["fig1a", "fig3", "fig4b", "fig6", "fig8a"]))
@example((16, 8), 1, "fig8a")
@example((128, 64), 5, "fig6")
def test_presets_run_off_their_shape(shape, K, name):
    # every point is finite and the bytes do not depend on the block
    # size; the one combination the engine cannot run, a fig8a pulse cut
    # longer than the K = 1 pulse, fails before any channel runs
    M, L_h = shape
    cfg = preset(name, scale="desk", M=M, L_h=L_h, K=K, n_channels=2,
                 n_noise=2)
    with pytest.MonkeyPatch.context() as mp:
        if name == "fig8a" and K == 1:
            mp.setattr(harness, "_run_channel", _no_channel_runs)
            with pytest.raises(ValueError, match="curve 'oqam-truncated'"):
                run_experiment(cfg)
            return
        curves = run_experiment(cfg)
        assert all(np.all(np.isfinite(cu.nmse_db)) for cu in curves)
        n_win = max(rt.n_rx for rt in harness._runtimes(cfg))
        mp.setattr(harness, "_BLOCK_SAMPLES", n_win)
        assert _csv_text(run_experiment(cfg), cfg) == _csv_text(curves, cfg)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_OFF_PRESET_SHAPES), st.integers(1, 5),
       st.sampled_from(["oqam-1a", "oqam-1b", "oqam-2", "oqam-3"]),
       st.sampled_from(["none", "even", "odd"]))
@example((16, 8), 1, "oqam-1a", "even")
@example((32, 4), 3, "oqam-3", "odd")
@example((256, 8), 5, "oqam-2", "even")
def test_data_layouts_run_off_their_shape(shape, K, scenario, cut):
    # fig6's data curve as each OQAM layout, on the whole pulse or cut to
    # M + L_h or M + L_h - 1 samples: every point is finite and the bytes
    # do not depend on the block size, or the curve fails, naming itself,
    # before any channel runs (a cut longer than the K = 1 pulse; a helped
    # layout on the odd cut, whose interference is off the helper axis)
    M, L_h = shape
    cfg = preset("fig6", scale="desk", M=M, L_h=L_h, K=K, n_channels=2,
                 n_noise=2)
    length = dict(none=None, even=M + L_h, odd=M + L_h - 1)[cut]
    spec = dataclasses.replace(cfg.curves[1], scenario=scenario,
                               truncate_to=length)
    cfg = dataclasses.replace(cfg, curves=(cfg.curves[0], spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_run_channel", _no_channel_runs)
        try:
            run_experiment(cfg)
        except ValueError as exc:
            assert str(exc).startswith("curve 'sparse-data-3': ")
            return
        except AssertionError as exc:  # every curve was built
            assert str(exc) == "a channel ran"
    with pytest.MonkeyPatch.context() as mp:
        curves = run_experiment(cfg)
        assert all(np.all(np.isfinite(cu.nmse_db)) for cu in curves)
        n_win = max(rt.n_rx for rt in harness._runtimes(cfg))
        mp.setattr(harness, "_BLOCK_SAMPLES", n_win)
        assert _csv_text(run_experiment(cfg), cfg) == _csv_text(curves, cfg)


def _csv_text(curves, cfg) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(curves, path, cfg.name)
        return path.read_text()


def test_draws_go_through_in_blocks_of_bounded_memory():
    # paper fig6 at 40 draws: a window of 4,639 samples makes blocks of
    # 14 draws.  All 40 at once peaked at about 10.7 MiB (numpy 2.4),
    # blocked at about 3.8 MiB.
    cfg = preset("fig6", scale="paper", n_channels=2, n_noise=40)
    harness._runtimes(cfg)
    tracemalloc.start()
    try:
        harness._run_channel((cfg, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    # paper fig4b, its pulse and curves built inside the trace, so the
    # tap responses count: about 1.3 MiB for the set-up and 3.8 MiB with
    # a channel (numpy 2.4)
    cfg = preset("fig4b", scale="paper", n_channels=2, n_noise=40)
    harness._pulse.cache_clear()
    harness._runtimes.cache_clear()
    tracemalloc.start()
    try:
        harness._runtimes(cfg)
        harness._run_channel((cfg, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_seed_changes_output(tmp_path):
    c1 = preset("fig1a", scale="desk", **SMALL)
    c2 = preset("fig1a", scale="desk", seed=43, **SMALL)
    r1 = run_experiment(c1)
    r2 = run_experiment(c2)
    assert not np.array_equal(r1[0].nmse, r2[0].nmse)


def test_csv_format(tmp_path):
    cfg = preset("fig6", scale="desk", n_channels=3, n_noise=4,
                 ebn0_db=(10.0, 40.0))
    curves = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_csv(curves, path, cfg.name)
    lines = read_bytes(path).decode().splitlines()
    assert lines[0] == ("preset,scheme,preamble,ebn0_db,nmse_db,nmse_linear,"
                        "predicted_db,floor_db,stderr_db,n_samples")
    assert len(lines) == 1 + len(curves) * len(cfg.ebn0_db)
    first = lines[1].split(",")
    assert first[0] == "fig6" and first[1] == "oqam"
    # the scenario-3 curve reports a finite floor, the clean comb none
    floors = {ln.split(",")[2]: ln.split(",")[7] for ln in lines[1:]}
    assert floors["sparse"] == "-inf"
    assert float(floors["sparse-data-3"]) > -60


def test_mc_tracks_closed_form_mid_snr():
    cfg = preset("fig1b", scale="desk", n_channels=12, n_noise=12,
                 ebn0_db=(15.0,))
    for cu in run_experiment(cfg):
        assert abs(cu.nmse_db[0] - cu.predicted_db[0]) < 0.35


def test_equalized_pair_converges():
    # fig2b equalizes the 2 L_h comb to the L_h comb's training power,
    # so both projected estimates share one curve
    cfg = preset("fig2b", scale="desk", n_channels=12, n_noise=10,
                 ebn0_db=(20.0,))
    a, b = run_experiment(cfg)
    assert abs(a.nmse_db[0] - b.nmse_db[0]) < 0.3


def test_same_gain_pair_separates_by_3db():
    cfg = preset("fig2a", scale="desk", n_channels=12, n_noise=10,
                 ebn0_db=(20.0,))
    a, b = run_experiment(cfg)
    assert abs((a.nmse_db[0] - b.nmse_db[0]) - 3.01) < 0.35


def test_experiment_config_system():
    cfg = ExperimentConfig(
        name="x", scale="desk", M=64, L_h=8, K=4, E=64.0,
        curves=(CurveSpec(label="a", system="cpofdm", estimator="projected",
                          n_pilots=8),),
        ebn0_db=(0.0,), n_channels=2, n_noise=1, seed=1)
    assert cfg.system.M == 64
    assert dataclasses.replace(cfg, M=128).system.M == 128


@pytest.mark.parametrize("bad", [
    dict(M=128.0), dict(L_h=8.0), dict(K=2.5), dict(K=True), dict(M=True),
    dict(L_h=np.float64(8.0)), dict(K=np.bool_(True)),
], ids=["M=128.0", "L_h=8.0", "K=2.5", "K=True", "M=True", "L_h=float64",
        "K=bool_"])
def test_system_config_takes_integer_dimensions_only(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        SystemConfig(**{"M": 128, "L_h": 8, "K": 4, **bad})
    sc = SystemConfig(M=np.int64(128), L_h=np.int32(8), K=np.int64(4))
    assert (sc.M, sc.L_h, sc.K, sc.nu) == (128, 8, 4, 7)


@pytest.mark.parametrize("E", [True, np.bool_(True), "1", None],
                         ids=["True", "bool_", "str", "None"])
def test_system_config_takes_a_real_energy_only(E):
    with pytest.raises(ValueError, match="E must be a real number"):
        SystemConfig(M=128, L_h=8, E=E)
    for ok in (3, np.float32(2.5), np.float64(128.0)):
        assert SystemConfig(M=128, L_h=8, E=ok).E == ok


def test_run_experiment_takes_numpy_floats():
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                 E=np.float64(128.0), ebn0_db=(np.float64(10.0),))
    want = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                  E=128.0, ebn0_db=(10.0,))
    for a, b in zip(run_experiment(cfg), run_experiment(want)):
        assert a.nmse.tobytes() == b.nmse.tobytes()


def test_run_experiment_takes_numpy_integer_counts():
    cfg = preset("fig1a", scale="desk", n_channels=np.int64(2),
                 n_noise=np.int32(1), workers=np.int64(1), seed=np.int64(3),
                 ebn0_db=(10.0,))
    want = preset("fig1a", scale="desk", n_channels=2, n_noise=1, workers=1,
                  seed=3, ebn0_db=(10.0,))
    got = run_experiment(cfg)
    for a, b in zip(got, run_experiment(want)):
        assert a.nmse.tobytes() == b.nmse.tobytes()


@pytest.mark.parametrize("bad", [
    dict(n_channels=1), dict(n_noise=0), dict(ebn0_db=()), dict(workers=0),
    dict(M=100), dict(ebn0_db=(float("nan"),)), dict(ebn0_db=(0.0, np.inf)),
    dict(ebn0_db=(-np.inf, 10.0)), dict(ebn0_db=(0.0, 4000.0)),
    dict(ebn0_db=(-4000.0, 0.0)), dict(seed=-1), dict(seed=1.5),
    dict(seed=True), dict(n_channels=2.5), dict(n_noise=1.5),
    dict(n_noise=True), dict(workers=1.5), dict(workers=True), dict(K=2.5),
    dict(K=True), dict(M=128.0), dict(L_h=8.0), dict(E=True), dict(E="1"),
    dict(ebn0_db=("5",)), dict(ebn0_db=(0.0, True)), dict(ebn0_db=5.0),
], ids=["n_channels=1", "n_noise=0", "empty_ebn0", "workers=0", "M=100",
        "nan_ebn0", "inf_ebn0", "-inf_ebn0", "ebn0=4000", "ebn0=-4000",
        "seed=-1", "seed=1.5", "seed=True", "n_channels=2.5", "n_noise=1.5",
        "n_noise=True", "workers=1.5", "workers=True", "K=2.5", "K=True",
        "M=128.0", "L_h=8.0", "E=True", "E=str", "str_ebn0", "bool_ebn0",
        "scalar_ebn0"])
def test_run_experiment_rejects_bad_inputs_before_any_work(monkeypatch, bad):
    # the config checks its fields when it is built, by preset or by
    # dataclasses.replace, so no bad config reaches run_experiment
    monkeypatch.setattr(harness, "_run_channel", _no_channel_runs)
    with pytest.raises(ValueError):
        preset("fig1a", scale="desk", **{"n_channels": 3, "n_noise": 2, **bad})
    cfg = preset("fig1a", scale="desk", n_channels=3, n_noise=2)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **bad)


def test_a_config_takes_any_sequence_of_curves_and_points(monkeypatch):
    # a list or an array is stored as a tuple, so the config hashes and
    # writes the tuple config's bytes; no curves is a ValueError
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                 ebn0_db=(0.0, 10.0))
    want = _csv_text(run_experiment(cfg), cfg)
    for kw in [dict(curves=list(cfg.curves)), dict(ebn0_db=[0.0, 10.0]),
               dict(ebn0_db=np.array([0.0, 10.0]))]:
        other = dataclasses.replace(cfg, **kw)
        assert other == cfg
        assert _csv_text(run_experiment(other), other) == want

    monkeypatch.setattr(harness, "_run_channel", _no_channel_runs)
    with pytest.raises(ValueError, match="no curves"):
        run_experiment(dataclasses.replace(cfg, curves=()))
    # a scalar is no sequence: a ValueError, not a TypeError
    for kw in [dict(curves=cfg.curves[0]), dict(ebn0_db=5.0),
               dict(ebn0_db=np.float64(5.0))]:
        with pytest.raises(ValueError, match="must be a sequence"):
            dataclasses.replace(cfg, **kw)


def test_the_power_reference_takes_no_equalize():
    # the first curve is the one the others are equalized to, so the flag
    # did nothing there
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1)
    first = dataclasses.replace(cfg.curves[0], equalize=True)
    with pytest.raises(ValueError, match="curve 'full-raw': .*power reference"):
        dataclasses.replace(cfg, curves=(first, cfg.curves[1]))


def test_a_redrawn_curve_is_checked_when_built(monkeypatch):
    # fig6's data curve builds no tap responses, so its estimator was
    # first read by the first channel's estimate
    monkeypatch.setattr(harness, "_run_channel", _no_channel_runs)
    cfg = preset("fig6", scale="desk", n_channels=2, n_noise=1)
    for estimator, why in (("bogus", "mode must be"), ("raw", "raw mode")):
        spec = dataclasses.replace(cfg.curves[1], estimator=estimator)
        with pytest.raises(ValueError, match=f"^curve 'sparse-data-3': {why}"):
            run_experiment(dataclasses.replace(cfg, curves=(cfg.curves[0], spec)))


def test_a_bad_curve_fails_before_the_pool_starts(monkeypatch):
    # the parent builds every curve before it starts any worker
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = preset("fig4b", scale="desk", n_channels=2, n_noise=1, workers=2)
    spec = dataclasses.replace(cfg.curves[1], n_pilots=3)
    with pytest.raises(ValueError, match="^curve 'sparse': need N >= L_h"):
        run_experiment(dataclasses.replace(cfg, curves=(cfg.curves[0], spec)))


@pytest.mark.parametrize("name", ["fig4b", "fig6"])
def test_prediction_is_linear_in_sigma2(name):
    cfg = preset(name, scale="desk", n_channels=3, n_noise=2)
    sigma2 = np.array([ebn0_to_sigma2(g, cfg.E / cfg.M) for g in cfg.ebn0_db])
    for cu in run_experiment(cfg):
        gain = (cu.predicted - cu.floor) / sigma2
        assert np.max(np.abs(gain / gain[0] - 1.0)) < 1e-12


# static OQAM preambles, CP-OFDM data redrawn per draw, OQAM help pilots,
# and the odd pulse cut, whose fold runs through the zero padding
@pytest.mark.parametrize("name", ["fig4b", "fig3", "fig6", "fig8a"])
def test_superposed_trials_match_chain_loop(name):
    # the harness adds the noiseless error and sigma times the unit-noise
    # response over a stack of draws; the loop runs the whole chain at
    # every point and draw instead.  Two draws, so a preamble redrawn per
    # draw needs its own noiseless pass.
    cfg = preset(name, scale="desk", n_channels=2, n_noise=2)
    sc = cfg.system
    n_win = max(rt.n_rx for rt in harness._runtimes(cfg))
    # each point from the channel's raw sums, as run_experiment forms it
    s2 = np.array([ebn0_to_sigma2(g, cfg.E / sc.M) for g in cfg.ebn0_db])
    for c in (0, 1):
        sums, floors, norm_h2 = harness._run_channel((cfg, c))
        h = gen_veh_a(np.random.SeedSequence([cfg.seed, 101, c]), sc)
        H = cfr_from_cir(h, sc.M)
        assert norm_h2 == np.sum(np.abs(H) ** 2)
        inv_h2 = 1.0 / norm_h2
        # draw t's unit noise is row t of the channel's stream
        stream = np.random.default_rng(np.random.SeedSequence([cfg.seed, 301, c]))
        noise = [awgn(n_win, stream) for _ in range(cfg.n_noise)]
        for i, rt in enumerate(harness._runtimes(cfg)):
            spec = rt.spec
            want = np.zeros(len(cfg.ebn0_db))
            # draw t's data is draw t of the (channel, curve) stream
            data = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 201, c, i]))
            for t in range(cfg.n_noise):
                p = rt.preamble
                if spec.family == "sparse_data":
                    p = make_sparse_data(
                        spec.scenario, cfg.E * spec.e_scale, data, sc,
                        rt.proto).scaled(rt.scale)
                s = (modulate(p.symbols, sc) if rt.proto is None
                     else sfb(p.symbols, rt.proto))
                for k, g in enumerate(cfg.ebn0_db):
                    sigma2 = ebn0_to_sigma2(g, cfg.E / sc.M)
                    r = propagate(s, h, 0.0, None)
                    r += np.sqrt(sigma2) * noise[t][:len(r)]
                    if rt.spec.system == "oqam":
                        y = afb(r, rt.proto, p.pilot_idx)
                    else:
                        y = demodulate(r, sc)[p.pilot_idx]
                    H_hat = estimate_from_pilots(y, p, sc,
                                                 mode=rt.spec.estimator)
                    want[k] += np.sum(np.abs(H_hat - H) ** 2) * inv_h2
            want /= cfg.n_noise
            aa, ae, ee = sums[:, i]
            got = ((aa + 2.0 * np.sqrt(s2) * ae + s2 * ee)
                   / (norm_h2 * cfg.n_noise))
            assert np.all(np.abs(got - want) <= 1e-10 * want)


def test_system_string_stays_at_the_harness():
    # a constructor picks the system from its pulse; only the harness
    # turns a curve's system name into a pulse or none
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        if path.name == "harness.py":
            continue
        text = path.read_text()
        for word in ('"cpofdm"', '"oqam"', "'cpofdm'", "'oqam'"):
            assert word not in text, f"{path.name} names the system {word}"


def test_ebn0_grid_does_not_change_a_point():
    grid = preset("fig4b", scale="desk", ebn0_db=(0.0, 10.0, 20.0), **SMALL)
    alone = dataclasses.replace(grid, ebn0_db=(10.0,))
    for a, b in zip(run_experiment(grid), run_experiment(alone)):
        assert a.nmse[1] == b.nmse[0]
        assert a.stderr_db[1] == b.stderr_db[0]
    # a channel's job reads no Eb/N0 value: the grid enters after it
    for c in range(grid.n_channels):
        for x, y in zip(harness._run_channel((grid, c)),
                        harness._run_channel((alone, c))):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_floor_map_is_built_once_per_curve(monkeypatch):
    # the layout's map is built with the curve; each channel only
    # contracts it with its CFR
    built = []

    def counted(preamble, config):
        built.append(preamble)
        return floor_map(preamble, config)

    monkeypatch.setattr(harness, "floor_map", counted)
    harness._runtimes.cache_clear()
    cfg = preset("fig6", scale="desk", n_channels=3, n_noise=2)
    run_experiment(cfg)
    assert len(built) == len(cfg.curves)


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_a_received_window_is_the_preamble_window_and_the_channel(scale):
    # n_rx is read from the preamble; its synthesized samples agree
    for name in preset_names():
        cfg = preset(name, scale=scale)
        for rt in harness._runtimes(cfg):
            tx = rt.synthesize(rt.preamble.symbols)
            assert rt.n_rx == len(tx) + cfg.L_h - 1


def test_only_a_static_curve_synthesizes_at_set_up(monkeypatch):
    # fig6's static comb synthesizes once, for its tap responses; its
    # redrawn curve synthesizes only the draws of a channel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sfb(*args, **kwargs)

    monkeypatch.setattr(harness, "sfb", counted)
    harness._runtimes.cache_clear()
    static, redrawn = harness._runtimes(preset("fig6", scale="desk"))
    assert static.layout is None and redrawn.layout is not None
    assert len(calls) == 1


def test_serial_run_imports_neither_numpy_ma_nor_multiprocessing(tmp_path):
    # numpy.ma (behind np.unique) and multiprocessing (behind the process
    # pool) cost a serial run tens of milliseconds of imports
    script = (
        "import sys\n"
        "from mcpreamble import preset, run_experiment, write_csv\n"
        "for name in ('fig3', 'fig6'):\n"
        "    cfg = preset(name, scale='desk', n_channels=2, n_noise=1)\n"
        f"    write_csv(run_experiment(cfg), {str(tmp_path / 'out.csv')!r}, name)\n"
        "print(sorted(m for m in ('numpy.ma', 'multiprocessing')\n"
        "             if m in sys.modules))\n"
    )
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
