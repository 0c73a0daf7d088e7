"""Per-layer spans recorded from outside the mcpreamble package.

The package's modules call each other through names bound at import
time (``from .oqam import afb``), so a span at a layer boundary needs the
name rebound in every module that holds it.  ``Tracer`` replaces each
public package function, in every package module and in the package
namespace itself, by one wrapper that records a span, and puts the
originals back on exit.  The layer of a span is the module that defines
the function, so ``harness.afb`` and ``oqam.afb`` both record ``oqam.afb``.

Spans stay in memory as ``[key, parent, start, end]`` lists.  A span's
self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the time of the root spans.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time

import numpy as np

PACKAGE = "mcpreamble"


def _outputs(result, *args, **kwargs) -> int:
    return int(np.size(result))


def _dft_args(result, M, rows, cols) -> tuple:
    return (int(M), np.asarray(rows, np.int64).tobytes(),
            np.asarray(cols, np.int64).tobytes())


def _nbytes(result, *args, **kwargs) -> int:
    return int(result.nbytes)


def _distinct(values: list) -> int:
    return len(set(values))


# counters at the boundaries of the functions that can waste work:
# span key -> (counter name, value per call, reduction over calls)
COUNTERS = {
    "oqam.afb": ("outputs", _outputs, sum),
    "oqam.afb_column": ("outputs", _outputs, sum),
    "fourier.dft_submatrix": ("distinct", _dft_args, _distinct),
    "analysis.afb_noise_cov": ("bytes", _nbytes, sum),
}


def package_modules() -> list:
    """The package and every submodule of it, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Tracer:
    """Context manager that records a span around every package call."""

    def __init__(self):
        self.keys: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}   # COUNTERS values per call
        self._saved: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, fn, key_id: int, key: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS[key][1] if key in COUNTERS else None
        seen = self.counters.setdefault(key, []) if counter else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([key_id, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][3] = clock()
                stack.pop()
            if counter is not None:
                seen.append(counter(result, *args, **kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if id(obj) not in wrappers:
                    key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    self.keys.append(key)
                    wrappers[id(obj)] = self._wrap(obj, len(self.keys) - 1, key)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        self_s = [t1 - t0 for _, _, t0, t1 in self.spans]
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                self_s[parent] -= t1 - t0
        return self_s

    def summary(self) -> dict:
        """Calls and self time per function, plus the wall time of roots."""
        calls = [0] * len(self.keys)
        self_s = [0.0] * len(self.keys)
        root_s = 0.0
        for span, s in zip(self.spans, self.self_times()):
            key_id, parent, t0, t1 = span
            calls[key_id] += 1
            self_s[key_id] += s
            if parent < 0:
                root_s += t1 - t0
        fns = {k: {"calls": calls[i], "self_s": self_s[i]}
               for i, k in enumerate(self.keys) if calls[i]}
        for key, (name, _, reduce) in COUNTERS.items():
            if key in fns:
                fns[key][name] = reduce(self.counters[key])
        return {"functions": fns, "root_s": root_s}
