"""Benchmark of mcpreamble: four preset workloads timed from outside.

    python3 perfbench/run.py --workload desk-oqam --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a ``preset(...)`` run serially (workers=1) through
``run_experiment`` and ``write_csv``, every repeat in a fresh interpreter
with ``src`` of this checkout on its path and BLAS fixed to one thread.
Every CSV is checked (see ``check_csv``) and all repeats of one seed must
write the same bytes.

--trace 0 prints the end-to-end metrics: ``trial_us`` (wall time of a
run, each of its segments at its fastest over the repeats, over its trial
count; see ``measure``), ``setup_s`` (median over the runs of
the import plus the harness's own build of the preset's prototypes,
tables, preambles and power equalisation) and ``peak_rss_mb`` (median).
--trace 1
alternates untraced and traced repeats and prints the per-layer metrics
of the traced ones (spans from tracer.py) with the tracing overhead.
The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when a run failed.  A record of the run, with the machine, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# preset, scale and size of each workload; seeds come from --seed
WORKLOADS = {
    # static OQAM preambles: afb, propagate, estimation and projection
    "desk-oqam": dict(name="fig4b", scale="desk", n_channels=8, n_noise=10),
    # CP-OFDM comb vs per-draw pilots+data symbol; the OQAM layer is idle
    "desk-cpofdm": dict(name="fig3", scale="desk", n_channels=8, n_noise=20),
    # M=1024: closed-form M x M noise covariance and large-M set-up
    "paper-oqam": dict(name="fig4b", scale="paper", n_channels=8, n_noise=1),
    # help-pilot preambles rebuilt per draw and the data-averaged floor
    "paper-help": dict(name="fig6", scale="paper", n_channels=8, n_noise=1),
}

END_TO_END = {"trial_us": "us", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYERS = ("harness", "channel", "cpofdm", "oqam", "estimation", "fourier",
          "preambles", "analysis")

# functions whose calls and self time the traced run reports
FUNCTIONS = (
    "channel.propagate", "oqam.afb", "oqam.afb_column", "oqam.sfb",
    "cpofdm.demodulate", "estimation.estimate_from_pilots",
    "estimation.project_full", "fourier.dft_submatrix",
    "preambles.make_sparse_data", "preambles.make_sparse_equal",
    "preambles.make_full_equal", "analysis.closed_form_mse",
    "analysis.afb_noise_cov", "analysis.expected_error_floor", "analysis.tpr",
    "oqam.design_prototype", "oqam.ambiguity",
)

# Layers and functions that work on every workload.  Only these give
# their self time in seconds in the result line: elsewhere an idle
# workload would print a constant 0 s.  Every layer and function gives
# its share of the traced wall time, and every function its calls; the
# printed table and the run record hold every self time.
BUSY_EVERYWHERE = (
    "harness", "channel", "estimation", "fourier", "preambles", "analysis",
    "channel.propagate", "estimation.estimate_from_pilots",
    "fourier.dft_submatrix", "preambles.make_sparse_equal",
    "analysis.closed_form_mse", "analysis.expected_error_floor",
    "analysis.tpr",
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in BUSY_EVERYWHERE},
    **{f"{name}.share": "%" for name in LAYERS + FUNCTIONS},
    **{f"{name}.calls": "count" for name in FUNCTIONS},
    "oqam.afb.useful_ratio": "ratio",
    "fourier.dft_submatrix.distinct_ratio": "ratio",
    "analysis.afb_noise_cov.bytes": "B",
    "trace.wall_s": "s",
    "trace.trial_us": "us",
    "trace.overhead_us": "us",
    "trace.accounted_share": "%",
}

# |nmse_db - predicted_db| <= Z_BOUND * stderr_db on every curve whose
# prediction is exact: every CP-OFDM curve and every OQAM curve without
# data positions.  Over 60-200 seeds the workloads reach at most 1.8.
# OQAM sparse-plus-data floors use the per-subcarrier-flat model, so
# those curves are checked for finite values only: fig6's sparse-data-3
# sits 3 to 7 stderr from its prediction today, a known gap.
Z_BOUND = 4.0

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """A repeat that failed, or a run that cannot report a result."""


def workload_preset(workload: str, seed: int, **overrides) -> dict:
    """Keyword arguments of mcpreamble.preset for one workload.

    overrides (n_channels, n_noise, ebn0_db) shrink a workload for the
    benchmark's own tests; the sizes are validated here because the
    harness accepts n_channels=1 (stderr_db = nan) and n_noise=0.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(have {sorted(WORKLOADS)})")
    kw = dict(WORKLOADS[workload], seed=int(seed), workers=1)
    kw.update(overrides)
    if kw["n_channels"] < 2:
        raise ValueError("n_channels must be >= 2 for a standard error")
    if kw["n_noise"] < 1:
        raise ValueError("n_noise must be >= 1")
    if "ebn0_db" in kw:
        kw["ebn0_db"] = [float(g) for g in kw["ebn0_db"]]
        if not kw["ebn0_db"]:
            raise ValueError("the Eb/N0 grid is empty")
    return kw


def _import_package():
    if not (SRC / "mcpreamble" / "__init__.py").is_file():
        raise BenchError(f"no mcpreamble sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcpreamble

    if Path(mcpreamble.__file__).resolve().parent != SRC / "mcpreamble":
        raise BenchError(f"imported mcpreamble from {mcpreamble.__file__}, "
                         f"not from {SRC}")
    return mcpreamble


def trial_count(cfg) -> int:
    return len(cfg.curves) * len(cfg.ebn0_db) * cfg.n_channels * cfg.n_noise


COLUMNS = ("preset", "scheme", "preamble", "ebn0_db", "nmse_db",
           "nmse_linear", "predicted_db", "floor_db", "stderr_db",
           "n_samples")


def check_csv(text: str, cfg) -> list[str]:
    """Problems with one CSV written for cfg; empty when it passes."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or any(c not in rows[0] for c in COLUMNS):
        return ["CSV is empty or lacks a column"]
    n_pts = len(cfg.ebn0_db)
    if len(rows) != len(cfg.curves) * n_pts:
        return [f"{len(rows)} rows, expected "
                f"{len(cfg.curves)} curves x {n_pts} points"]
    problems = []
    for j, row in enumerate(rows):
        spec = cfg.curves[j // n_pts]
        where = f"row {j + 1} ({row['preamble']} @ {row['ebn0_db']} dB)"
        if row["preamble"] != spec.label or row["scheme"] != spec.system:
            problems.append(f"{where}: curve out of order")
            continue
        try:
            vals = {c: float(row[c]) for c in COLUMNS[3:]}
        except (TypeError, ValueError):
            problems.append(f"{where}: unreadable value")
            continue
        # floor_db is written as -inf for a curve that has no floor
        if vals["floor_db"] == -math.inf:
            del vals["floor_db"]
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"{where}: non-finite value")
            continue
        if vals["ebn0_db"] != cfg.ebn0_db[j % n_pts]:
            problems.append(f"{where}: Eb/N0 point out of order")
        if vals["n_samples"] != cfg.n_channels * cfg.n_noise:
            problems.append(f"{where}: n_samples {vals['n_samples']:g}")
        if vals["stderr_db"] <= 0:
            problems.append(f"{where}: stderr_db {vals['stderr_db']:g}")
            continue
        exact = spec.system == "cpofdm" or spec.family != "sparse_data"
        z = (vals["nmse_db"] - vals["predicted_db"]) / vals["stderr_db"]
        if exact and abs(z) > Z_BOUND:
            problems.append(f"{where}: nmse is {z:+.2f} stderr from the "
                            f"prediction (bound {Z_BOUND:g})")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def package_imports(lines: list[str]) -> dict[str, int]:
    """Self time in us of each module that ``import mcpreamble`` loaded,
    from the ``-X importtime`` lines of one interpreter."""
    tree: dict[str, int] = {}
    for ln in lines:
        self_us, _, name = ln[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue                        # the header line
        if name.startswith("  "):           # a nested import
            tree[name.strip()] = int(self_us)
        elif name.strip() == "mcpreamble":
            tree["mcpreamble"] = int(self_us)
            return tree
        else:                               # another top-level import
            tree = {}
    raise BenchError("no import of mcpreamble in the -X importtime lines")


def run_child(job: dict) -> dict:
    """Run child.py on one job in a fresh interpreter; its JSON result,
    with the self time of each module the package import loaded."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "child.py"),
         json.dumps(job)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    imports = [ln for ln in proc.stderr.splitlines()
               if ln.startswith("import time:")]
    if proc.returncode != 0:
        tail = [ln for ln in proc.stderr.splitlines()
                if not ln.startswith("import time:")][-1:] or ["(no stderr)"]
        raise BenchError(f"repeat exited {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("repeat printed nothing")
    res = json.loads(lines[-1])
    res["import_us"] = package_imports(imports)
    return res


def machine() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "note": "shared host; only the benchmark's own processes are measured",
    }


class Repeats:
    """Runs child jobs for one workload, checks them, counts failures."""

    def __init__(self, workload: str, cfg, preset_kw: dict, workdir: Path):
        self.workload, self.cfg, self.preset_kw = workload, cfg, preset_kw
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.csv_bytes: bytes | None = None
        self.n_segments: dict[bool, int] = {}    # per trace flag

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def run(self, trace: bool) -> dict | None:
        out = self.workdir / f"repeat-{self.attempted}.csv"
        spans = OUT / f"spans-{self.workload}-seed{self.cfg.seed}.json"
        self.attempted += 1
        try:
            res = run_child(dict(preset=self.preset_kw, trace=trace,
                                 out=str(out), spans=str(spans)))
        except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
            self._fail(str(exc))
            return None
        if not out.is_file():
            self._fail("the run wrote no CSV")
            return None
        data = out.read_bytes()
        out.unlink()
        problems = check_csv(data.decode(errors="replace"), self.cfg)
        if self.csv_bytes is None:
            self.csv_bytes = data
        elif data != self.csv_bytes:
            problems.append("CSV bytes differ from the first repeat "
                            f"of this seed (trace={int(trace)})")
        n = self.n_segments.setdefault(trace, len(res["segments_s"]))
        if len(res["segments_s"]) != n:
            problems.append(f"{len(res['segments_s'])} segments, the first "
                            f"repeat of this seed had {n}")
        if problems:
            self._fail("; ".join(problems))
            return None
        return res


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{len(values)} value"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} {q2:.6g} {q3:.6g}"


def layer_metrics(summaries: list[dict], walls: list[float],
                  fastest: list[float], keys: list[str]) -> dict:
    """Per-layer numbers of the traced repeats.

    A self time sums the fastest self time of each of its spans over the
    repeats (see ``measure``); calls and counters are the same in every
    repeat of a seed.
    """
    self_s: dict[str, float] = {}
    for key, s in zip(keys, fastest):
        self_s[key] = self_s.get(key, 0.0) + s
    wall = sum(fastest)
    fns = summaries[0]["functions"]
    m = {"trace.wall_s": wall,
         "trace.accounted_share": statistics.median(
             100.0 * summ["root_s"] / w for summ, w in zip(summaries, walls))}
    for layer in LAYERS:
        s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = s
        m[f"{layer}.share"] = 100.0 * s / wall
    for fn in FUNCTIONS:
        m[f"{fn}.calls"] = fns[fn]["calls"] if fn in fns else 0
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        m[f"{fn}.share"] = 100.0 * m[f"{fn}.self_s"] / wall
    # useful outputs per output computed; 1 (nothing wasted) when idle
    afb, col = fns.get("oqam.afb"), fns.get("oqam.afb_column")
    m["oqam.afb.useful_ratio"] = (afb["outputs"] / col["outputs"]
                                  if afb and col else 1.0)
    dft = fns.get("fourier.dft_submatrix")
    m["fourier.dft_submatrix.distinct_ratio"] = (
        dft["distinct"] / dft["calls"] if dft else 1.0)
    cov = fns.get("analysis.afb_noise_cov")
    m["analysis.afb_noise_cov.bytes"] = cov["bytes"] if cov else 0
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_repeats: int = MIN_REPEATS, **overrides) -> dict:
    """Run one workload for about `seconds`; its metrics and run record.

    Untraced, each round runs one timed run; traced, one untraced and
    one traced run, so that both sample the same stretch of the host's
    speed.  Rounds continue until `seconds` have passed and at least
    `min_repeats` rounds are done.  The metrics that no successful repeat
    measured are left out, and the result is then not correct.

    ``trial_us`` sums, over the segments that the harness's package calls
    cut a run into (child.py), the fastest time of each segment over the
    repeats; traced, the segments are the spans.  Other tenants of a
    shared host slow a process in bursts of milliseconds, in a share that
    drifts over minutes: the fastest of many short segments stays put,
    where the fastest whole run of a second or more follows the drift.
    The segments cover the whole run, so every piece of work in it counts
    once.
    """
    mp = _import_package()
    preset_kw = workload_preset(workload, seed, **overrides)
    cfg = mp.preset(**preset_kw)
    trials = trial_count(cfg)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    reps = Repeats(workload, cfg, preset_kw, workdir)
    # compile src to bytecode and fill the file cache, untimed
    subprocess.run([sys.executable, "-c", "import mcpreamble"], cwd=ROOT,
                   env=child_env(), timeout=CHILD_TIMEOUT_S,
                   capture_output=True)
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [],
               "traced_wall_s": []}
    summaries, blas = [], None
    segments: dict[bool, list] = {}   # per trace flag: fastest of each
    imports: dict[str, int] = {}      # module: fastest import self time
    keys = None

    def fastest_segments(res: dict, trace: bool) -> None:
        new = res["segments_s"]
        old = segments.get(trace, new)
        segments[trace] = list(map(min, old, new))
        for name, us in res["import_us"].items():
            imports[name] = min(us, imports.get(name, us))

    start = last = time.perf_counter()
    try:
        for rounds in itertools.count():
            now = time.perf_counter()
            # stop before a round that would end past the time budget
            if now + (now - last) - start > seconds and (
                    rounds >= min_repeats or reps.failed):
                break
            if reps.failed > min_repeats:
                break
            last = now
            res = reps.run(trace=False)
            if res is not None:
                samples["wall_s"].append(res["wall_s"])
                samples["setup_s"].append(res["setup_s"])
                fastest_segments(res, False)
                setup_segments = res["setup_segments"]
                samples["peak_rss_mb"].append(res["peak_rss_kib"] / 1024.0)
                blas = res["blas_threads"]
            if trace:
                res = reps.run(trace=True)
                if res is not None:
                    samples["traced_wall_s"].append(res["wall_s"])
                    summaries.append(res["trace"])
                    fastest_segments(res, True)
                    keys = res["segment_keys"]
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    metrics = {}
    if trace and summaries:
        metrics = layer_metrics(summaries, samples["traced_wall_s"],
                                segments[True], keys)
        metrics["trace.trial_us"] = 1e6 * metrics["trace.wall_s"] / trials
        if samples["wall_s"]:
            metrics["trace.overhead_us"] = (metrics["trace.trial_us"] - 1e6
                                            * sum(segments[False]) / trials)
    elif not trace and samples["wall_s"]:
        metrics = {
            "trial_us": 1e6 * sum(segments[False]) / trials,
            "setup_s": (1e-6 * sum(imports.values())
                        + sum(segments[False][:setup_segments])),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
    names = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "config": dict(preset_kw, M=cfg.M, L_h=cfg.L_h, K=cfg.K,
                       curves=[c.label for c in cfg.curves],
                       ebn0_db=list(cfg.ebn0_db), trials=trials),
        "machine": dict(machine(), blas_threads=blas),
        "trace": trace,
        "seconds": time.perf_counter() - start,
        "correct": reps.failed == 0 and set(names) <= set(metrics),
        "attempted": reps.attempted,
        "failed": reps.failed,
        "problems": reps.problems,
        "metrics": metrics,
        "segments": {("traced" if t else "untraced"): n
                     for t, n in reps.n_segments.items()},
        "samples": samples,
    }


def _print_untraced(res: dict) -> None:
    m, s = res["metrics"], res["samples"]
    per_trial = [1e6 * w / res["config"]["trials"] for w in s["wall_s"]]
    print(f"trial_us     {m['trial_us']:12.3f} us   sum of fastest segments "
          f"/ trials; whole runs {_quartiles(per_trial)}")
    print(f"setup_s      {m['setup_s']:12.5f} s    fastest import modules "
          f"+ set-up segments; repeats {_quartiles(s['setup_s'])}")
    print(f"peak_rss_mb  {m['peak_rss_mb']:12.3f} MiB  median; "
          f"{_quartiles(s['peak_rss_mb'])}")


def _print_traced(res: dict) -> None:
    m = res["metrics"]
    print(f"{'layer / function':38s} {'self_s':>10s} {'share %':>8s} {'calls':>8s}")
    for layer in LAYERS:
        print(f"{layer:38s} {m[layer + '.self_s']:10.5f} "
              f"{m[layer + '.share']:8.2f}")
        for fn in FUNCTIONS:
            if fn.split(".")[0] == layer:
                print(f"  {fn:36s} {m[fn + '.self_s']:10.5f} "
                      f"{m[fn + '.share']:8.2f} {m[fn + '.calls']:8.0f}")
    print(f"oqam.afb.useful_ratio {m['oqam.afb.useful_ratio']:.5f}  "
          f"fourier.dft_submatrix.distinct_ratio "
          f"{m['fourier.dft_submatrix.distinct_ratio']:.5f}  "
          f"analysis.afb_noise_cov.bytes {m['analysis.afb_noise_cov.bytes']:.0f}")
    print(f"traced run {m['trace.wall_s']:.4f} s as fastest spans; spans "
          f"account for {m['trace.accounted_share']:.2f}% of each traced "
          f"wall; traced trial_us "
          f"{m['trace.trial_us']:.3f}, overhead {m['trace.overhead_us']:+.3f} us")


def report(res: dict, record: Path) -> None:
    """Human-readable lines for one workload, then its run record."""
    c = res["config"]
    print("machine " + json.dumps(res["machine"]))
    print(f"workload {res['workload']}: {c['name']} {c['scale']} M={c['M']} "
          f"L_h={c['L_h']} K={c['K']}, {len(c['curves'])} curves x "
          f"{len(c['ebn0_db'])} Eb/N0 x {c['n_channels']} channels x "
          f"{c['n_noise']} draws = {c['trials']} trials, seed {c['seed']}")
    names = PER_LAYER if res["trace"] else END_TO_END
    if set(names) <= set(res["metrics"]):
        (_print_traced if res["trace"] else _print_untraced)(res)
    else:
        print("no metrics: no repeat ran and passed the output check")
    print(f"runs_failed {res['failed']} of runs_attempted {res['attempted']}")
    for p in res["problems"]:
        print(f"  failed: {p}")
    record.write_text(json.dumps(res, indent=1) + "\n")


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        units = END_TO_END if not res["trace"] else PER_LAYER
        for name, unit in units.items():
            if name not in res["metrics"]:
                continue
            key = f"{res['workload']}/{name}" if prefix else name
            metrics[key] = {"value": res["metrics"][name], "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0 end-to-end, 1 per-layer; 'all' runs both")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    try:
        results = []
        for name in names:
            for trace in modes:
                res = measure(name, args.seed, args.seconds, trace)
                report(res, OUT / f"{name}-seed{args.seed}-trace{int(trace)}.json")
                results.append(res)
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(result_line(results, prefix=len(results) > 1))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
