import ast
import concurrent.futures
import csv
import dataclasses
import os
import re
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
    awgn,
    design_prototype,
    draw_sparse_data,
    ebn0_to_sigma2,
    floor_map,
    harness,
    make_equal_comb,
    preset,
    preset_names,
    propagate,
    run_experiment,
    tpr,
    write_csv,
)

import reference

SMALL = dict(n_channels=6, n_noise=8)
_default_rng = np.random.default_rng


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _no_channel_runs(*args):
    # stands for gen_veh_a, the draw every channel starts with
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
    assert cfg.system == SystemConfig(M=64, L_h=4)
    # the first curve is built at E = M
    assert harness._runtimes(cfg)[0].preamble.E == 64.0


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
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    cfg = preset("fig4b", "desk", n_channels=3, n_noise=2)
    with pytest.raises(ValueError, match=f"curve 'sparse': .*{why}"):
        spec = dataclasses.replace(cfg.curves[1], **bad)
        run_experiment(dataclasses.replace(cfg, curves=(cfg.curves[0], spec)))


# write_csv quotes no field: the label "a,b" wrote an 11-field row, which
# csv.DictReader read as preamble 'a' and ebn0_db 'b'
_NOT_ONE_FIELD = ["a,b", 'a"b', "a\nb", "a\rb", 7, None]


@pytest.mark.parametrize("label", _NOT_ONE_FIELD)
def test_a_curve_label_must_be_one_csv_field(label):
    spec = preset("fig4b", "desk").curves[1]
    with pytest.raises(ValueError, match=rf"^curve {re.escape(repr(label))}: "
                                         "label must be a str without"):
        dataclasses.replace(spec, label=label)


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


@pytest.mark.parametrize("cpus", ["real", None, 1, 2, 64],
                         ids=["real", "unknown", "1", "2", "64"])
def test_worker_pool_is_bounded(monkeypatch, tmp_path, cpus):
    # a stand-in pool records its size and maps in this process, so no
    # worker starts: min(workers, n_channels, CPUs), none when that is 1
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    if cpus != "real":
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cap = min(3, os.cpu_count() or 1)
    kw = dict(n_channels=3, n_noise=2)
    many = preset("fig6", scale="desk", workers=10**6, **kw)
    serial = preset("fig6", scale="desk", **kw)
    a = tmp_path / "many.csv"
    b = tmp_path / "serial.csv"
    write_csv(run_experiment(many), a, many.name)
    assert sizes == ([] if cap == 1 else [cap])
    write_csv(run_experiment(serial), b, serial.name)
    assert sizes == ([] if cap == 1 else [cap])
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
    n_win = reference.window(cfg)
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
    monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * reference.window(cfg))
    calls, streams = _recorded_data(monkeypatch, cfg)
    if name == "fig3":
        assert calls == [] and streams == []
        return
    (i,) = [i for i, spec in enumerate(cfg.curves) if spec.scenario]
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
    # receive and one fit as a stack, a preamble redrawn per draw too
    counts = []
    for n_noise in (2, 12):
        calls = []

        def counted(_fn):
            def call(*args, **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            return call

        chain = [(harness, fn) for fn in ("sfb", "modulate", "afb",
                 "afb_column", "demodulate")]
        for owner, fn in chain + [(harness._CurveRuntime, "delayed")]:
            monkeypatch.setattr(owner, fn, counted(getattr(owner, fn)))
        # each curve's fit, built with the curve
        fit = harness.pilot_fit
        monkeypatch.setattr(harness, "pilot_fit",
                            lambda *args: counted(fit(*args)))
        harness._runtimes.cache_clear()
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
    monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * reference.window(cfg))
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
    run_experiment(cfg)
    assert len(blocks) == 4
    for w in blocks:
        on_w = [fn for fn, r in calls if np.shares_memory(r, w)]
        assert (on_w.count("demodulate"), on_w.count("afb_column")) == want
        assert len(on_w) == sum(want)
    # a static preamble never goes through the delay line, a redrawn one
    # once per block (test_no_preset_propagates: nothing is propagated);
    # fig3's data is not redrawn, as its CP-OFDM pilots never see it
    assert [fn for fn, _ in calls].count("delayed") == 4 * (name == "fig6")


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


def _assert_matches_the_reference(curves, cfg):
    # channel by channel, and so in each channel's place: a curve whose
    # channels were shuffled keeps its nmse and stderr_db up to roundoff
    ratios, nmse, stderr_db = reference.chain(cfg)
    for cu, rows, want, se in zip(curves, ratios.transpose(1, 0, 2), nmse,
                                  stderr_db, strict=True):
        assert np.all(np.abs(cu.ratios - rows) <= 1e-10 * rows)
        assert np.all(np.abs(cu.nmse - want) <= 1e-10 * want)
        assert np.all(np.abs(cu.stderr_db - se) <= 1e-10 * se)


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_matches_the_reference_chain(name):
    # the engine adds a noiseless error to sigma times a unit-noise one,
    # weights tap responses by the channel's taps and sends redrawn data
    # through a delay line; the reference runs the whole chain at every
    # channel, draw and point instead.  It redraws fig3's data too, so
    # the match shows that CP-OFDM pilots never see it
    cfg = preset(name, scale="desk", n_channels=2, n_noise=2)
    _assert_matches_the_reference(run_experiment(cfg), cfg)


# static OQAM preambles, CP-OFDM data redrawn per draw, OQAM help pilots,
# and the odd pulse cut, whose fold runs through the zero padding
@pytest.mark.parametrize("name", ["fig4b", "fig3", "fig6", "fig8a"])
def test_superposed_trials_match_chain_loop(name):
    # the engine's noiseless error plus sigma times its unit-noise one
    # holds from noise-bound to floor-bound points, and at an odd draw
    # count, so a preamble redrawn per draw needs its own noiseless pass
    cfg = preset(name, scale="desk", n_channels=2, n_noise=3,
                 ebn0_db=np.arange(-10.0, 61.0, 10.0))
    _assert_matches_the_reference(run_experiment(cfg), cfg)


# Eb/N0 at which sigma^2 is 1e-30 E/M: the chain's error is its floor
_NOISELESS_DB = [300.0]


@pytest.mark.parametrize("name", preset_names())
def test_tap_responses_are_the_chain(name):
    # at the noiseless point a static curve's error is its tap responses
    # weighted by the channel's taps, the reference's that of the chain:
    # synthesis, propagation, receive and LS on the pilots.  A CP-OFDM
    # floor is 0, so both sides may differ by roundoff: 1e-24 is an
    # estimate within 1e-12 ||H|| of the channel
    cfg = preset(name, scale="desk", n_channels=2, n_noise=2,
                 ebn0_db=_NOISELESS_DB)
    _, nmse, _ = reference.chain(cfg)
    for cu, want in zip(run_experiment(cfg), nmse, strict=True):
        assert np.all(np.abs(cu.nmse - want) <= 1e-10 * want + 1e-24)


@pytest.mark.parametrize("name", ["fig3", "fig6"])
def test_tap_responses_stand_for_data_only_where_the_receiver_is_blind(
        monkeypatch, name):
    # a reference that keeps the data curve's preamble as built, with no
    # data drawn, still matches fig3, whose CP-OFDM pilots never see the
    # data tones, so its curve is static; on fig6 the pulse carries the
    # data to the pilots, so it misses by far more than roundoff
    cfg = preset(name, scale="desk", n_channels=2, n_noise=2)
    assert [spec.scenario is not None for spec in cfg.curves] == [False, True]
    monkeypatch.setattr(reference, "draw_sparse_data",
                        lambda p, rng, n: np.repeat(p.symbols[None], n, 0))
    _, nmse, _ = reference.chain(cfg)
    got = run_experiment(cfg)[1].nmse
    miss = np.max(np.abs(got - nmse[1]) / nmse[1])
    if name == "fig3":
        assert miss <= 1e-10
    else:
        assert miss > 1e-6


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_delay_line_is_the_noiseless_propagation(scale):
    # fig6's data curve sends each draw through the channel's occupied
    # delays; at the noiseless point its error is that of channel.propagate
    cfg = preset("fig6", scale=scale, n_channels=3, n_noise=5,
                 ebn0_db=_NOISELESS_DB)
    _, nmse, _ = reference.chain(cfg)
    got = run_experiment(cfg)[1].nmse
    assert np.all(np.abs(got - nmse[1]) <= 1e-10 * nmse[1])


def test_the_reference_shares_no_code_with_the_engine():
    # tests/reference.py imports public mcpreamble names only, never the
    # harness, and reads no private attribute
    names = []
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    assert "mcpreamble.propagate" in names
    for name in names:
        parts = name.split(".")
        assert "harness" not in parts, name
        assert not any(part.startswith("_") for part in parts), name


@pytest.mark.parametrize("name", ["fig3", "fig4b", "fig6", "fig8a"])
def test_output_does_not_depend_on_the_block_size(monkeypatch, tmp_path, name):
    cfg = preset(name, scale="desk", n_channels=3, n_noise=5)
    n_win = reference.window(cfg)
    paths, ratios = [], []
    # the default (one block), one draw per block, and two per block with
    # a shorter last block
    for k, samples in enumerate((None, 1, 2 * n_win)):
        if samples is not None:
            monkeypatch.setattr(harness, "_BLOCK_SAMPLES", samples)
        paths.append(tmp_path / f"{k}.csv")
        curves = run_experiment(cfg)
        ratios.append(np.stack([cu.ratios for cu in curves]))
        write_csv(curves, paths[-1], cfg.name)
    assert read_bytes(paths[0]) == read_bytes(paths[1]) == read_bytes(paths[2])
    # bit for bit, past the CSV's digits: numpy summed the rows of a
    # column-major pilot gather in another order than a lone row's
    assert all(np.array_equal(ratios[0], r) for r in ratios[1:])


# (M, L_h) off the presets' M/L_h = 16 and 32, from 2 to 32
_OFF_PRESET_SHAPES = [(16, 8), (32, 4), (64, 16), (128, 64), (256, 8)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_OFF_PRESET_SHAPES), st.integers(1, 5),
       st.sampled_from(["fig1a", "fig3", "fig4b", "fig6", "fig8a"]))
@example((16, 8), 1, "fig8a")
@example((128, 64), 5, "fig6")
def test_presets_run_off_their_shape(shape, K, name):
    # every point is finite, matches the reference chain and does not
    # depend on the block size; the one combination the engine cannot run, a fig8a pulse cut
    # longer than the K = 1 pulse, fails before any channel runs
    M, L_h = shape
    cfg = preset(name, scale="desk", M=M, L_h=L_h, K=K, n_channels=2,
                 n_noise=2)
    with pytest.MonkeyPatch.context() as mp:
        if name == "fig8a" and K == 1:
            mp.setattr(harness, "gen_veh_a", _no_channel_runs)
            with pytest.raises(ValueError, match="curve 'oqam-truncated'"):
                run_experiment(cfg)
            return
        curves = run_experiment(cfg)
        assert all(np.all(np.isfinite(cu.nmse_db)) for cu in curves)
        _assert_matches_the_reference(curves, cfg)
        mp.setattr(harness, "_BLOCK_SAMPLES", reference.window(cfg))
        again = run_experiment(cfg)
        assert _csv_text(again, cfg) == _csv_text(curves, cfg)
        assert all(np.array_equal(a.ratios, b.ratios)
                   for a, b in zip(again, curves))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_OFF_PRESET_SHAPES), st.integers(1, 5),
       st.sampled_from(["oqam-1a", "oqam-1b", "oqam-2", "oqam-3"]),
       st.sampled_from(["none", "even", "odd"]))
@example((16, 8), 1, "oqam-1a", "even")
@example((32, 4), 3, "oqam-3", "odd")
@example((256, 8), 5, "oqam-2", "even")
def test_data_layouts_run_off_their_shape(shape, K, scenario, cut):
    # fig6's data curve as each OQAM layout, on the whole pulse or cut to
    # M + L_h or M + L_h - 1 samples: every point is finite, matches the
    # reference chain and does not depend on the block size, or the curve fails, naming itself,
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
        mp.setattr(harness, "gen_veh_a", _no_channel_runs)
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
        _assert_matches_the_reference(curves, cfg)
        mp.setattr(harness, "_BLOCK_SAMPLES", reference.window(cfg))
        again = run_experiment(cfg)
        assert _csv_text(again, cfg) == _csv_text(curves, cfg)
        assert all(np.array_equal(a.ratios, b.ratios)
                   for a, b in zip(again, curves))


def _csv_text(curves, cfg) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(curves, path, cfg.name)
        return path.read_text()


def test_draws_go_through_in_blocks_of_bounded_memory():
    # paper fig6 at 40 draws: a window of 4,639 samples makes blocks of
    # 14 draws.  All 40 at once peak at about 12.6 MiB, blocked at about
    # 4.65 MiB (numpy 2.4.6, numpy.random imported as under pytest).  A
    # block's data draw must not outlive its synthesis: bound to a local
    # in _run_channel, it stayed alive through the estimate and raised
    # the peak to about 5.08 MiB.
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
    # tap responses count: about 1.2 MiB for the set-up and 3.0 MiB with
    # a channel (numpy 2.4.6)
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
        name="x", M=64, L_h=8, K=4,
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
    # M and L_h are the config's, K is its pulse's: each is held to the
    # same integer rule where it is taken
    dims = {"M": 128, "L_h": 8, "K": 4, **bad}
    with pytest.raises(ValueError, match="must be an integer"):
        sc = SystemConfig(M=dims["M"], L_h=dims["L_h"])
        design_prototype(sc.M, dims["K"])
    sc = SystemConfig(M=np.int64(128), L_h=np.int32(8))
    proto = design_prototype(sc.M, np.int64(4))
    assert (sc.M, sc.L_h, sc.nu, proto.K) == (128, 8, 7, 4)


def test_run_experiment_takes_numpy_floats():
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                 ebn0_db=(np.float64(10.0),))
    want = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                  ebn0_db=(10.0,))
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


def test_a_numpy_integer_k_builds_its_pulse():
    # K is checked as the config is built, with no pulse built; the
    # curves take the pulse of that K
    cfg = preset("fig4b", scale="desk", n_channels=2, n_noise=1,
                 K=np.int64(3), ebn0_db=(10.0,))
    assert cfg == dataclasses.replace(cfg, K=3)
    run_experiment(cfg)
    assert [rt.proto.K for rt in harness._runtimes(cfg)] == [3, 3]


@pytest.mark.parametrize("bad", [
    dict(n_channels=1), dict(n_noise=0), dict(ebn0_db=()), dict(workers=0),
    dict(M=100), dict(ebn0_db=(float("nan"),)), dict(ebn0_db=(0.0, np.inf)),
    dict(ebn0_db=(-np.inf, 10.0)), dict(ebn0_db=(0.0, 4000.0)),
    dict(ebn0_db=(-4000.0, 0.0)), dict(seed=-1), dict(seed=1.5),
    dict(seed=True), dict(n_channels=2.5), dict(n_noise=1.5),
    dict(n_noise=True), dict(workers=1.5), dict(workers=True), dict(K=2.5),
    dict(K=True), dict(K=np.bool_(True)), dict(K=0), dict(K=6),
    dict(M=128.0), dict(L_h=8.0), dict(ebn0_db=("5",)),
    dict(ebn0_db=(0.0, True)), dict(ebn0_db=5.0),
], ids=["n_channels=1", "n_noise=0", "empty_ebn0", "workers=0", "M=100",
        "nan_ebn0", "inf_ebn0", "-inf_ebn0", "ebn0=4000", "ebn0=-4000",
        "seed=-1", "seed=1.5", "seed=True", "n_channels=2.5", "n_noise=1.5",
        "n_noise=True", "workers=1.5", "workers=True", "K=2.5", "K=True",
        "K=bool_", "K=0", "K=6", "M=128.0", "L_h=8.0", "str_ebn0",
        "bool_ebn0", "scalar_ebn0"])
def test_run_experiment_rejects_bad_inputs_before_any_work(monkeypatch, bad):
    # the config checks its fields when it is built, by preset or by
    # dataclasses.replace, so no bad config reaches run_experiment; fig1a
    # is CP-OFDM only, and still takes no K without a designed pulse
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    with pytest.raises(ValueError):
        preset("fig1a", scale="desk", **{"n_channels": 3, "n_noise": 2, **bad})
    cfg = preset("fig1a", scale="desk", n_channels=3, n_noise=2)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **bad)


@pytest.mark.parametrize("name", _NOT_ONE_FIELD)
def test_an_experiment_name_must_be_one_csv_field(name):
    cfg = preset("fig1a", scale="desk", n_channels=3, n_noise=2)
    with pytest.raises(ValueError, match="^name must be a str without"):
        dataclasses.replace(cfg, name=name)


@pytest.mark.parametrize("name", _NOT_ONE_FIELD)
def test_write_csv_takes_a_preset_name_of_one_field(tmp_path, name):
    # the name "a,b" wrote 11-field rows; now it writes no file
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                 ebn0_db=(10.0,))
    curves = run_experiment(cfg)
    with pytest.raises(ValueError, match="^preset_name must be a str without"):
        write_csv(curves, tmp_path / "out.csv", name)
    assert not (tmp_path / "out.csv").exists()


def test_labels_and_names_read_back_from_the_csv(tmp_path):
    # what the checks let through is one field each
    cfg = preset("fig1a", scale="desk", n_channels=2, n_noise=1,
                 ebn0_db=(10.0,))
    spec = dataclasses.replace(cfg.curves[1], label="sparse (L_h) 'x'")
    cfg = dataclasses.replace(cfg, name="fig 1a;b", curves=(cfg.curves[0], spec))
    write_csv(run_experiment(cfg), tmp_path / "out.csv", cfg.name)
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["preset"], r["preamble"]) for r in rows] == [
        (cfg.name, c.label) for c in cfg.curves]


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

    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    with pytest.raises(ValueError, match="no curves"):
        run_experiment(dataclasses.replace(cfg, curves=()))
    # a scalar is no sequence: a ValueError, not a TypeError
    for kw in [dict(curves=cfg.curves[0]), dict(ebn0_db=5.0),
               dict(ebn0_db=np.float64(5.0))]:
        with pytest.raises(ValueError, match="must be a sequence"):
            dataclasses.replace(cfg, **kw)


@pytest.mark.parametrize("name", preset_names())
def test_equal_power_is_the_default(name):
    # a curve without e_scale carries the first curve's training power per
    # window, and the first is built at E = M; fig2a's same-gain comb
    # fixes its budget at 2E, unequalized
    cfg = preset(name, scale="desk")
    sc = cfg.system
    first, *rest = harness._runtimes(cfg)
    assert first.spec.e_scale is None
    n = sc.M if first.spec.n_pilots is None else first.spec.n_pilots
    at_e = make_equal_comb(n, 0, float(sc.M), sc, proto=first.proto)
    assert first.preamble.E_train == at_e.E_train
    for rt in rest:
        if rt.spec.e_scale is None:
            assert abs(tpr(first.preamble, rt.preamble) - 1.0) <= 1e-12
        else:
            assert (name, rt.spec.e_scale) == ("fig2a", 2.0)
            at_2e = make_equal_comb(rt.spec.n_pilots, 0, 2.0 * sc.M, sc)
            assert rt.preamble.E_train == at_2e.E_train


def test_a_redrawn_curve_is_checked_when_built(monkeypatch):
    # fig6's data curve builds no tap responses, so its estimator was
    # first read by the first channel's estimate
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
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
    sigma2 = np.array([ebn0_to_sigma2(g, 1.0) for g in cfg.ebn0_db])  # E/M
    for cu in run_experiment(cfg):
        gain = (cu.predicted - cu.floor) / sigma2
        assert np.max(np.abs(gain / gain[0] - 1.0)) < 1e-12


@pytest.mark.parametrize("name", preset_names())
def test_receive_gives_a_row_major_stack(name):
    # both systems gather their pilots with take, so a stack's tap
    # responses and estimates are laid out alike
    cfg = preset(name, scale="desk", n_channels=2, n_noise=1)
    for rt in harness._runtimes(cfg):
        r = awgn((3, rt.n_rx), np.random.default_rng(0))
        y = rt.receive(r)
        assert y.shape == (3, len(rt.pilot_idx))
        assert y.flags.c_contiguous, rt.spec.label


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
    # fig6's static comb synthesizes once, for its tap responses, which
    # are its samples shifted to each delay: building them takes no delay
    # line.  Its redrawn curve synthesizes only the draws of a channel
    calls = []
    for owner, fn in ((harness, "sfb"), (harness._CurveRuntime, "delayed")):
        def counted(*args, _fn=fn, _f=getattr(owner, fn), **kwargs):
            calls.append(_fn)
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, fn, counted)
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    harness._runtimes.cache_clear()
    with pytest.raises(AssertionError, match="a channel ran"):
        run_experiment(preset("fig6", scale="desk"))
    assert calls == ["sfb"]


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
