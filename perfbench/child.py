"""One timed repeat of a benchmark workload, in a fresh interpreter.

Run as ``python3 -X importtime perfbench/child.py '<json job>'`` with
``src`` on PYTHONPATH; prints one JSON line.  A fresh interpreter per
repeat makes every repeat pay what a ``mcpreamble run`` pays: the import,
numpy's FFT plans and the runtime set-up that ``run_experiment`` caches
per process.

Job: {"preset": {...}, "out": path, "trace": bool, "spans": path}
times run_experiment then write_csv; with "trace" every package function
is wrapped (see tracer.py) and the span summary returned.

A run is cut into segments that are the same work in every repeat of
one seed, so that the benchmark can keep each segment's fastest time
(see ``run.measure``).  Traced, the segments are the spans' self times.
Untraced, every package function the harness holds (``harness.afb``,
``harness.propagate``, ``harness.gen_veh_a`` and the like) is rebound to
note when it is entered, and the segments run from mark to mark, from
the entry to ``run_experiment`` to the end of ``write_csv``.

The set-up is the ``mcpreamble`` import, whose modules ``-X importtime``
times one by one, plus the segments before the first ``gen_veh_a`` call:
at workers=1 the harness builds every curve's prototype, ambiguity
table, preamble and power equalisation in between.  Only the standard
library is imported before ``mcpreamble``.
"""

import contextlib
import inspect
import json
import resource
import sys
import time


@contextlib.contextmanager
def marked_calls(harness, marks: list):
    """Append (name, entry time) to marks on every package call the
    harness makes through its own names; restore the names on exit."""
    clock = time.perf_counter
    saved = [(name, fn) for name, fn in vars(harness).items()
             if inspect.isfunction(fn)
             and fn.__module__.startswith("mcpreamble.")
             and fn.__module__ != harness.__name__]

    def marked(name, fn):
        def call(*args, **kwargs):
            marks.append((name, clock()))
            return fn(*args, **kwargs)
        return call

    for name, fn in saved:
        setattr(harness, name, marked(name, fn))
    try:
        yield
    finally:
        for name, fn in saved:
            setattr(harness, name, fn)


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(job: dict) -> dict:
    t0 = time.perf_counter()
    import mcpreamble as mp
    from mcpreamble import harness

    import_s = time.perf_counter() - t0
    cfg = mp.preset(**job["preset"])
    marks = []
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    else:
        tracer = None
    with tracer or marked_calls(harness, marks):
        t1 = time.perf_counter()
        curves = mp.run_experiment(cfg)
        mp.write_csv(curves, job["out"], cfg.name)
        t2 = time.perf_counter()
    out = {
        "wall_s": t2 - t1,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    if tracer is None:
        times = [t1] + [t for _, t in marks] + [t2]
        first = next(i for i, (name, _) in enumerate(marks)
                     if name == "gen_veh_a")
        out["setup_s"] = import_s + times[first + 1] - t1
        out["setup_segments"] = first + 1
        out["segments_s"] = [b - a for a, b in zip(times, times[1:])]
    else:
        out["trace"] = tracer.summary()
        out["segments_s"] = tracer.self_times()
        out["segment_keys"] = [tracer.keys[span[0]] for span in tracer.spans]
        with open(job["spans"], "w") as fh:
            json.dump({"keys": tracer.keys, "spans": tracer.spans}, fh)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
