"""Monte Carlo harness: presets, experiment runner, CSV output.

An experiment is a set of curves (scheme + preamble + estimator) swept
over an Eb/N0 grid against a common set of channel realizations.  All
randomness derives from one master seed through named SeedSequence
branches: channel c is seeded [seed, 101, c]; its noise [seed, 301, c]
and the data of curve i on it [seed, 201, c, i] are one stream each, in
draw order, so a draw depends on neither the block size nor the draw
count.  One noise draw serves every Eb/N0 point: the LS estimate is
linear in the received samples, so a trial's error is the noiseless
error plus the unit-noise error scaled to each point.  A curve's draws
on one channel go through receive and estimation as one stack (in blocks
of about 1 MB of noise), and each draw reduces to three sums from which
every point follows.  They are taken in the estimator's coordinates,
with no M-point FFT per fit: a projected curve's L_h taps against the
channel's taps h, with weight M (by Parseval, as F_{M x L_h}^H F_{M x L_h}
= M I), a raw curve's M per-tone ratios against H, with weight 1.  The
chain is linear in the channel taps too: a static preamble's noiseless
estimate is its response to each tap, built once per curve, weighted by
the channel's taps.  A preamble redrawn per draw is a layout built once
per curve; a block of its draws is drawn, synthesized and shifted to
each channel tap as one stack.  Only a pulse
carries data to the pilots: behind a prefix covering the channel, CP-OFDM
pilots never see the data tones, whose only cost is prefix energy, so
such a curve is static and has no data stream.  Channel and noise are
shared between the curves of an experiment, and a block of noise goes once
through each receiver (a pulse, or the CP-OFDM demodulator), whose
curves read their pilot tones from it, so compared curves differ only
through their preambles and estimators.

A channel's job returns the totals of those sums over its draws, its
floors and ||H||^2, and reads no noise level.  The experiment alone
forms every point from them: per channel the mean over noise draws of
||H_hat - H||^2 / ||H||^2 at each Eb/N0, which its curve keeps with its
floors and reduces to the mean over channels and its standard error.
Channels are processed by index through a plain map, serially or in a
process pool, and reduced in index order, so the output bytes do not
depend on the worker count.

Compared preambles carry equal power at the training energy E = M (E
scales the preambles and sigma^2 alike, so no point depends on it):
every curve after the first is scaled to the first curve's training
power ratio (declared training energy per observation window), unless
its e_scale fixes a budget of E * e_scale, where a preset matches
per-pilot gain instead (fig2a).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import closed_form_mse, floor_map, tpr
from .channel import (_veh_a_profile, awgn, cfr_from_cir, ebn0_to_sigma2,
                      gen_veh_a)
from .config import SystemConfig, _check_energy, _check_int
from .cpofdm import demodulate, modulate
from .estimation import pilot_fit
from .oqam import (_check_overlap, afb, afb_column, design_prototype, sfb,
                   truncate_prototype)
from .preambles import draw_sparse_data, make_equal_comb, sparse_data_layout

# seed branch tags
_TAG_CHANNEL = 101
_TAG_NOISE = 301
_TAG_DATA = 201


def _check_csv_field(name: str, value) -> None:
    """Reject anything but a str that write_csv writes as one field: it
    quotes nothing, so a comma, double quote or line break splits a row."""
    if not isinstance(value, str) or any(c in value for c in ',"\r\n'):
        raise ValueError(f"{name} must be a str without a comma, double "
                         f"quote or line break, got {value!r}")


@dataclass(frozen=True)
class CurveSpec:
    """One curve of an experiment: its preamble is an equal comb of
    n_pilots tones (all M when None), or the sparse-plus-data layout of a
    scenario, which fixes its own N = L_h pilots.  `family` names which
    of the three it is.  A label write_csv cannot write as one field (see
    _check_csv_field), a spec that sets both, a system other than
    "cpofdm" or "oqam", an e_scale that is not a positive finite real, an
    n_pilots or truncate_to that is not an integer (the curve cache would
    take 8.0 for 8), or truncate_to on a "cpofdm" curve raises ValueError
    naming its curve; the rest is checked as the curve is built."""

    label: str
    system: str                  # "cpofdm" | "oqam"
    estimator: str               # "raw" | "projected"
    n_pilots: int | None = None  # comb size; None: every tone
    scenario: str | None = None  # sparse-plus-data layout
    e_scale: float | None = None  # fixed budget E * e_scale; None: equal
    truncate_to: int | None = None  # prototype truncation (oqam)

    def __post_init__(self) -> None:
        curve = f"curve {self.label!r}"
        _check_csv_field(f"{curve}: label", self.label)
        if self.system not in ("cpofdm", "oqam"):
            raise ValueError(f"{curve}: system must be 'cpofdm' or 'oqam', "
                             f"got {self.system!r}")
        if self.scenario is not None and self.n_pilots is not None:
            raise ValueError(f"{curve}: its scenario fixes its pilots, so "
                             "it takes no n_pilots")
        if self.e_scale is not None:
            _check_energy(f"{curve}: e_scale", self.e_scale)
        if self.system == "cpofdm" and self.truncate_to is not None:
            raise ValueError(f"{curve}: a CP-OFDM curve has no pulse to "
                             "cut, so it takes no truncate_to")
        for name in ("n_pilots", "truncate_to"):
            if getattr(self, name) is not None:
                _check_int(f"{curve}: {name}", getattr(self, name))

    @property
    def family(self) -> str:
        """Its kind: "sparse_data" with a scenario, else "sparse" or "full"."""
        if self.scenario is not None:
            return "sparse_data"
        return "full" if self.n_pilots is None else "sparse"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, which checks its fields when it is built.

    Its system is the grid M, L_h, its OQAM curves take the pulse of K,
    and each curve is built at E = M (see the module docstring).  curves
    and ebn0_db take any sequence but a scalar and are stored as tuples,
    so a config hashes (the per-process curve cache is keyed on it) and
    compares by value.  A name write_csv cannot write as one field (see
    _check_csv_field), dimensions SystemConfig rejects, a K with no pulse
    (checked with none built), a seed below 0, fewer than 2 channels (the
    standard error is taken across them), no noise draw or worker, no
    curves, or an empty Eb/N0 grid or a point of it without a positive,
    finite sigma2 raise ValueError."""

    name: str
    M: int
    L_h: int
    K: int
    curves: tuple
    ebn0_db: tuple
    n_channels: int
    n_noise: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        _check_csv_field("name", self.name)
        for name in ("curves", "ebn0_db"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be a sequence") from None
        self.system  # checks the dimensions
        _check_overlap(self.K)
        for name, low in zip(("seed", "n_channels", "n_noise", "workers"),
                             (0, 2, 1, 1)):
            value = getattr(self, name)
            _check_int(name, value)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not self.curves:
            raise ValueError("the experiment has no curves")
        if not self.ebn0_db:
            raise ValueError("the Eb/N0 grid is empty")
        self.sigma2  # checks every point

    @property
    def system(self) -> SystemConfig:
        return SystemConfig(M=self.M, L_h=self.L_h)

    @property
    def sigma2(self) -> np.ndarray:
        """Noise variance per complex sample at each Eb/N0 point (E/M = 1)."""
        return np.array([ebn0_to_sigma2(g, 1.0) for g in self.ebn0_db])


@dataclass
class MseCurve:
    """One curve, per channel (row): the mean over draws of ||H_hat - H||^2
    / ||H||^2 at each Eb/N0 (ratios), and floor(H) / ||H||^2 (floors)."""

    label: str
    system: str
    ebn0_db: np.ndarray
    ratios: np.ndarray
    floors: np.ndarray
    predicted: np.ndarray
    n_samples: int

    @property
    def nmse(self) -> np.ndarray:
        return self.ratios.mean(axis=0)

    @property
    def stderr_db(self) -> np.ndarray:
        se = self.ratios.std(axis=0, ddof=1) / np.sqrt(len(self.ratios))
        return 10.0 / np.log(10.0) * se / self.nmse

    @property
    def floor(self) -> float:
        return float(self.floors.mean())

    @property
    def nmse_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.nmse)

    @property
    def predicted_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.predicted)


class _CurveRuntime:
    """Per-process expansion of a CurveSpec on the run's SystemConfig sc,
    on its pulse proto (None: CP-OFDM) and at E = M; ref is the first
    curve's preamble, the power reference (see CurveSpec), or None for
    the first curve.

    `preamble` is the curve's one preamble at its power: the static
    preamble, or the layout of a sparse-plus-data curve (see
    sparse_data_layout) that its draws are drawn from, whose pilots,
    divisors and data positions (not data values) set the floor, the
    closed form and the estimate.  `floor` is that layout's expected
    error floor as a function of the channel's CFR (analysis.floor_map),
    and `gain` the closed-form noise MSE at sigma^2 = 1, whose build
    checks the estimator.  Every draw shares the pilot tones and
    divisors, so one estimate serves a stack of draws; `n_rx` is the
    preamble's window plus L_h - 1 and `tones` the receiver's output on
    all M tones.  `fit` is the estimator's LS fit, checked once
    (estimation.pilot_fit), in its own coordinates: the L_h taps of a
    projected curve (`in_taps`), scored against h with weight M, or the
    M per-tone ratios of a raw one, against H with weight 1.  `taps`
    is None exactly where a pulse carries data to the pilots, whose
    curve is redrawn per draw; else row k is the noiseless estimate in
    those coordinates through the whole chain for a unit tap at the k-th
    of the `delays` the channel model occupies (channel._veh_a_profile):
    its samples shifted to that delay, received and fitted, so `taps` is
    (6, L_h) for a projected curve.
    """

    def __init__(self, spec: CurveSpec, sc: SystemConfig, proto, ref):
        self.spec = spec
        self.sc = sc
        self.proto = proto
        self.delays = _veh_a_profile(sc.L_h).taps
        if proto is None:
            self.synthesize = lambda x: modulate(x, sc)
            self.tones = lambda r: demodulate(r, sc)
            self.receive = lambda r: self.tones(r).take(self.pilot_idx, -1)
        else:
            self.synthesize = lambda x: sfb(x, proto)
            self.tones = lambda r: afb_column(r, proto, 0)
            self.receive = lambda r: afb(r, proto, self.pilot_idx)
        e = float(sc.M) * (1.0 if spec.e_scale is None else spec.e_scale)
        if spec.scenario is not None:
            p = sparse_data_layout(spec.scenario, e, sc, proto=proto)
        else:
            n = sc.M if spec.n_pilots is None else spec.n_pilots
            p = make_equal_comb(n, 0, e, sc, proto=proto)
        if spec.e_scale is None and ref is not None:
            p = p.scaled(float(np.sqrt(tpr(ref, p))))
        self.preamble = p
        self.floor = floor_map(p, sc)
        self.gain = closed_form_mse(p, 1.0, sc, mode=spec.estimator)
        self.pilot_idx = p.pilot_idx
        self.n_rx = p.window + sc.L_h - 1
        self.fit = pilot_fit(p, sc, spec.estimator)
        self.in_taps = spec.estimator == "projected"
        self.taps = None
        # CP-OFDM pilots never see the data: such a curve is static
        if spec.scenario is None or self.proto is None:
            tx = self.synthesize(p.symbols)
            r = np.zeros((len(self.delays), self.n_rx), dtype=complex)
            for k, d in enumerate(self.delays):
                r[k, d:d + len(tx)] = tx
            self.taps = self.estimate(r)

    def estimate(self, r) -> np.ndarray:
        """Channel estimates, in the fit's coordinates, from (..., n_rx)
        samples r."""
        return self.fit(self.receive(r))

    def delayed(self, s, h) -> np.ndarray:
        """propagate(s, h, 0.0, None) of a (T, n) stack: one add per delay."""
        r = np.zeros((len(s), self.n_rx), dtype=complex)
        for d in self.delays:
            r[:, d:d + s.shape[-1]] += h[d] * s
        return r


@lru_cache(maxsize=None)
def _pulse(M: int, K: int, cut: int | None):
    """The pulse of M, K and cut, once per process: curves share its tables."""
    proto = design_prototype(M, K)
    return proto if cut is None else truncate_prototype(proto, cut)


@lru_cache(maxsize=1)
def _runtimes(cfg: ExperimentConfig) -> list[_CurveRuntime]:
    """The curves of cfg on one SystemConfig and the pulse of cfg.K, once
    per process, each referred for its power to the first curve's
    preamble; a ValueError from building one names its curve."""
    sc = cfg.system
    runtimes = []
    for spec in cfg.curves:
        try:
            proto = (None if spec.system == "cpofdm"
                     else _pulse(cfg.M, cfg.K, spec.truncate_to))
            rt = _CurveRuntime(spec, sc, proto,
                               runtimes[0].preamble if runtimes else None)
        except ValueError as exc:
            raise ValueError(f"curve {spec.label!r}: {exc}") from exc
        runtimes.append(rt)
    return runtimes


# Unit-noise samples per block of draws (complex128, so about 1 MB): a
# block holds as many draws as fit, and at least one.
_BLOCK_SAMPLES = 1 << 16


def _run_channel(args) -> tuple:
    """All trials of one channel, as raw sums: it reads no noise level.

    Returns per curve the totals over the draws of sum |a|^2,
    sum Re(conj(a) e) and sum |e|^2 over the M tones (a (3, curve)
    array), per curve the unnormalized floor(H), and ||H||^2.  The
    estimate is linear in the received samples, so the error of draw t
    at noise level sigma is a + sigma * e: a from the noiseless pass, e
    from the unit-noise pass, both in the curve's coordinates.  The sums
    are taken over a projected curve's L_h taps, their totals times M
    (Parseval), or over a raw curve's M tones.  A static preamble's a is
    h[delays] @ taps less h or H (CP-OFDM data beside
    the pilots included); a redrawn one takes the chain per draw, with
    the channel as its delay line (delayed).  The channel's unit noise
    is one generator, seeded [seed, 301, c], and a curve i whose preamble
    is redrawn per draw has one data generator, seeded [seed, 201, c, i].
    A block of draws takes its rows from each in draw order with one call
    (awgn at the longest window; draw_sparse_data), so draw t depends on
    neither the block size nor n_noise.  A block holds about
    _BLOCK_SAMPLES noise samples and takes one receive per receiver
    (keyed on the pulse, None for CP-OFDM), which reads only its own part
    of the window, and one estimate per curve, plus a synthesis, a delay
    line, a receive and an estimate for a preamble redrawn per draw.  The
    pilots are gathered row-major (take), as numpy sums a column-major
    stack's rows in another order: no row's result depends on its block.
    """
    cfg, c = args
    runtimes = _runtimes(cfg)
    sc = runtimes[0].sc
    h = gen_veh_a(np.random.SeedSequence([cfg.seed, _TAG_CHANNEL, c]), sc)
    H = cfr_from_cir(h, sc.M)
    floors = np.array([rt.floor(H) for rt in runtimes])
    n_win = max(rt.n_rx for rt in runtimes)
    block = max(1, _BLOCK_SAMPLES // n_win)
    # sum |a|^2, sum Re(conj(a) e), sum |e|^2 per curve and draw
    sums = np.zeros((3, len(runtimes), cfg.n_noise))
    truth = [h if rt.in_taps else H for rt in runtimes]
    a = [None if rt.taps is None else h[rt.delays] @ rt.taps - truth[i]
         for i, rt in enumerate(runtimes)]
    receivers = {rt.proto: rt.tones for rt in runtimes}
    noise = np.random.default_rng([cfg.seed, _TAG_NOISE, c])
    data = [np.random.default_rng([cfg.seed, _TAG_DATA, c, i])
            if rt.taps is None else None for i, rt in enumerate(runtimes)]
    for lo in range(0, cfg.n_noise, block):
        hi = min(lo + block, cfg.n_noise)
        w = awgn((hi - lo, n_win), noise)
        y = {key: tones(w) for key, tones in receivers.items()}
        for i, rt in enumerate(runtimes):
            if rt.taps is None:
                # one expression: a bound draw would outlive its synthesis
                a[i] = rt.estimate(rt.delayed(rt.synthesize(draw_sparse_data(
                    rt.preamble, data[i], hi - lo)), h)) - truth[i]
            e = rt.fit(y[rt.proto].take(rt.pilot_idx, -1))
            sums[0, i, lo:hi] = np.sum(np.abs(a[i]) ** 2, axis=-1)
            sums[1, i, lo:hi] = np.sum((a[i].conj() * e).real, axis=-1)
            sums[2, i, lo:hi] = np.sum(np.abs(e) ** 2, axis=-1)
    weights = [sc.M if rt.in_taps else 1 for rt in runtimes]
    return (sums.sum(axis=-1) * weights, floors,
            float(np.sum(np.abs(H) ** 2)))


def run_experiment(cfg: ExperimentConfig) -> list[MseCurve]:
    """Build every curve, run every channel, and give each curve its rows.

    A curve that cannot be built raises ValueError naming it before any
    channel runs.  Channels run in min(workers, n_channels, CPUs)
    processes, serially when that is 1.  The Eb/N0 grid (cfg.sigma2)
    enters only here: from channel c's raw sums (_run_channel), its ratio
    at noise variance sigma^2 is (aa + 2 sigma ae + sigma^2 ee) /
    (||H||^2 n_noise) and its floor is floor(H) / ||H||^2.
    """
    runtimes = _runtimes(cfg)
    jobs = [(cfg, c) for c in range(cfg.n_channels)]
    workers = min(cfg.workers, cfg.n_channels, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run
        # never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            per_channel = list(ex.map(_run_channel, jobs))
    else:
        per_channel = [_run_channel(j) for j in jobs]

    sums, floors, norm_h2 = map(np.array, zip(*per_channel))
    sigma2 = cfg.sigma2
    aa, ae, ee = sums.transpose(1, 0, 2)[..., None]       # (c, curve, 1)
    all_ratios = ((aa + 2.0 * np.sqrt(sigma2) * ae + sigma2 * ee)
                  / (norm_h2[:, None, None] * cfg.n_noise))  # (c, curve, snr)
    all_floors = floors / norm_h2[:, None]                # (c, curve)

    inv_h2 = (1.0 / norm_h2).mean()
    return [MseCurve(label=rt.spec.label, system=rt.spec.system,
                     ebn0_db=np.asarray(cfg.ebn0_db, dtype=float),
                     ratios=all_ratios[:, i], floors=all_floors[:, i],
                     predicted=rt.gain * sigma2 * inv_h2
                     + float(all_floors[:, i].mean()),
                     n_samples=cfg.n_channels * cfg.n_noise)
            for i, rt in enumerate(runtimes)]


CSV_HEADER = ("preset,scheme,preamble,ebn0_db,nmse_db,nmse_linear,"
              "predicted_db,floor_db,stderr_db,n_samples")


def write_csv(curves: list, path, preset_name: str) -> None:
    """Fixed-format CSV so identical runs give identical bytes."""
    _check_csv_field("preset_name", preset_name)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for cu in curves:
            floor_db = ("-inf" if cu.floor <= 0
                        else f"{10.0 * np.log10(cu.floor):.10g}")
            for g, db, lin, pred_db, se in zip(cu.ebn0_db, cu.nmse_db, cu.nmse,
                                               cu.predicted_db, cu.stderr_db):
                fh.write(f"{preset_name},{cu.system},{cu.label},{g:.10g},"
                         f"{db:.10g},{lin:.12e},{pred_db:.10g},{floor_db},"
                         f"{se:.10g},{cu.n_samples}\n")


_DESK = dict(M=128, L_h=8, n_channels=50, n_noise=100)
_PAPER = dict(M=1024, L_h=32, n_channels=200, n_noise=300)

_EBN0_DEFAULT = tuple(float(g) for g in range(0, 35, 5))
_EBN0_LONG = tuple(float(g) for g in range(0, 50, 5))


def _qam(label, estimator, **kw):
    return CurveSpec(label=label, system="cpofdm", estimator=estimator, **kw)


def _oqam(label, estimator, **kw):
    return CurveSpec(label=label, system="oqam", estimator=estimator, **kw)


def preset(
    name: str,
    scale: str = "desk",
    M: int | None = None,
    L_h: int | None = None,
    K: int | None = None,
    seed: int = 42,
    n_channels: int | None = None,
    n_noise: int | None = None,
    workers: int = 1,
    ebn0_db=None,
) -> ExperimentConfig:
    """Named experiment at the dimensions and counts of scale, "desk" or
    "paper", with overrides; a bad override raises ValueError as the
    config is built (ExperimentConfig)."""
    if scale not in ("desk", "paper"):
        raise ValueError(f"scale must be 'desk' or 'paper', got {scale!r}")
    spec = _PRESETS.get(name)
    if spec is None:
        raise ValueError(f"unknown preset {name!r} (have {sorted(_PRESETS)})")
    dims = dict(_DESK if scale == "desk" else _PAPER, K=spec["K"],
                **spec.get(scale, {}))
    given = dict(M=M, L_h=L_h, K=K, n_channels=n_channels, n_noise=n_noise)
    dims.update({k: v for k, v in given.items() if v is not None})
    grid = ebn0_db if ebn0_db is not None else spec.get("ebn0", _EBN0_DEFAULT)
    return ExperimentConfig(
        name=name, curves=spec["curves"](dims["M"], dims["L_h"]),
        ebn0_db=grid, seed=seed, workers=workers, **dims)


def preset_names() -> list:
    return sorted(_PRESETS)


_PRESETS = {
    # full-grid vs sparse CP-OFDM at equal training energy
    "fig1a": dict(K=4, curves=lambda M, L: [
        _qam("full-raw", "raw"),
        _qam("sparse", "projected", n_pilots=L),
    ]),
    "fig1b": dict(K=4, curves=lambda M, L: [
        _qam("full-projected", "projected"),
        _qam("sparse", "projected", n_pilots=L),
    ]),
    # more pilots at the same per-pilot gain (unequalized) or same energy
    "fig2a": dict(K=4, curves=lambda M, L: [
        _qam("sparse-Lh", "projected", n_pilots=L),
        _qam("sparse-2Lh-samegain", "projected", n_pilots=2 * L, e_scale=2.0),
    ]),
    "fig2b": dict(K=4, curves=lambda M, L: [
        _qam("sparse-Lh", "projected", n_pilots=L),
        _qam("sparse-2Lh", "projected", n_pilots=2 * L),
    ]),
    # pilots sharing the symbol with data, power equalized
    "fig3": dict(K=4, curves=lambda M, L: [
        _qam("sparse", "projected", n_pilots=L),
        _qam("sparse-data", "projected", scenario="qam-sd"),
    ]),
    # full-grid vs sparse OQAM
    "fig4a": dict(K=4, curves=lambda M, L: [
        _oqam("full-pseudo-raw", "raw"),
        _oqam("sparse", "projected", n_pilots=L),
    ]),
    "fig4b": dict(K=4, curves=lambda M, L: [
        _oqam("full-pseudo-projected", "projected"),
        _oqam("sparse", "projected", n_pilots=L),
    ]),
    "fig5": dict(K=4, curves=lambda M, L: [
        _oqam("sparse-Lh", "projected", n_pilots=L),
        _oqam("sparse-2Lh", "projected", n_pilots=2 * L),
    ]),
    "fig6": dict(K=4, ebn0=_EBN0_LONG, curves=lambda M, L: [
        _oqam("sparse", "projected", n_pilots=L),
        _oqam("sparse-data-3", "projected", scenario="oqam-3"),
    ]),
    # cross-system comparisons at equal training power per window
    "fig7a": dict(K=3, paper=dict(M=512, L_h=32), curves=lambda M, L: [
        _qam("qam-sparse", "projected", n_pilots=L),
        _oqam("oqam-sparse", "projected", n_pilots=L),
    ]),
    "fig7b": dict(K=4, paper=dict(M=1024, L_h=32), curves=lambda M, L: [
        _qam("qam-sparse", "projected", n_pilots=L),
        _oqam("oqam-sparse", "projected", n_pilots=L),
    ]),
    # truncated-prototype OQAM against CP-OFDM in (almost) equal windows
    "fig8a": dict(K=2, paper=dict(M=512, L_h=32), curves=lambda M, L: [
        _qam("qam-sparse", "projected", n_pilots=L),
        _oqam("oqam-truncated", "projected", n_pilots=L, truncate_to=M + L - 1),
    ]),
    "fig8b": dict(K=4, paper=dict(M=1024, L_h=32), curves=lambda M, L: [
        _qam("qam-sparse", "projected", n_pilots=L),
        _oqam("oqam-truncated", "projected", n_pilots=L, truncate_to=M + L - 1),
    ]),
}
