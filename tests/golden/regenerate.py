#!/usr/bin/env python3
"""Golden outputs of the library, and the script that regenerates them.

Run `python3 tests/golden/regenerate.py` from a checkout to rewrite every
file in this directory from the current code, or `python3
tests/golden/regenerate.py --check` to recompute them all, write nothing,
name each file whose bytes differ (with, for a CSV, the columns that
differ in some row and how far each moved, and for a text output the
1-based lines that differ) and exit 1 if any does.  The outputs are:

  * the CSV of every preset at desk scale and of paper fig3, fig4a,
    fig4b, fig6 and fig8b at Eb/N0 = 0 and 20 dB, all with 3 channels,
    2 noise draws and seed 7;
  * the printed output of every script under demos/;
  * `mcpreamble verify --trials 2000` and `mcpreamble design --M 32
    --L-h 4`.

tests/test_golden.py recomputes them and compares text exactly and
numbers to a relative 1e-12, because numpy picks its SIMD kernels per
CPU and the last bits of a value may differ between machines.  --check
compares bytes, so it holds only on a machine whose kernels wrote the
files.  A change that moves an output on purpose regenerates these files
in the same commit and says which rows and columns moved.
"""

from __future__ import annotations

import contextlib
import io
import math
import runpy
import sys
import tempfile
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mcpreamble import (  # noqa: E402
    preset, preset_names, run_experiment, write_csv)
from mcpreamble.cli import main  # noqa: E402

RUN = dict(n_channels=3, n_noise=2, seed=7)
PAPER = ("fig3", "fig4a", "fig4b", "fig6", "fig8b")
PAPER_EBN0 = (0.0, 20.0)


def preset_csv(name: str, scale: str, workers: int = 1) -> str:
    """CSV text of one preset run at the golden sizes."""
    kw = dict(RUN, workers=workers)
    if scale == "paper":
        kw["ebn0_db"] = PAPER_EBN0
    cfg = preset(name, scale=scale, **kw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.csv"
        write_csv(run_experiment(cfg), path, cfg.name)
        return path.read_text()


def _printed(fn) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue()


def _demo(path: Path) -> str:
    return _printed(lambda: runpy.run_path(str(path), run_name="__main__"))


def outputs() -> dict:
    """File name -> function that returns that output's text."""
    out = {}
    for name in preset_names():
        out[f"desk-{name}.csv"] = partial(preset_csv, name, "desk")
    for name in PAPER:
        out[f"paper-{name}.csv"] = partial(preset_csv, name, "paper")
    for path in sorted((ROOT / "demos").glob("*.py")):
        out[f"demo-{path.stem}.txt"] = partial(_demo, path)
    out["verify.txt"] = partial(
        _printed, lambda: main(["verify", "--trials", "2000"]))
    out["design.txt"] = partial(
        _printed, lambda: main(["design", "--M", "32", "--L-h", "4"]))
    return out


def relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two number fields: 0 for equal values
    and inf where one is not finite; ValueError for a text field."""
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def differing_columns(got: str, want: str) -> str:
    """The header names of the CSV columns whose values differ in some row.

    A number column is followed by its largest relative difference over
    the rows ("nmse_db by 3.1e-13"); a text column is named alone.  A
    change of header, row count or row length is named as such, and
    equal fields with different bytes as line breaks.
    """
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if got_rows[:1] != want_rows[:1]:
        return "header"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows) - 1} rows, want {len(want_rows) - 1}"
    if any(len(g) != len(w) for g, w in zip(got_rows, want_rows)):
        return "row lengths"
    moved = []
    for k, name in enumerate(want_rows[0]):
        pairs = [(g[k], w[k]) for g, w in zip(got_rows, want_rows)
                 if g[k] != w[k]]
        if not pairs:
            continue
        try:
            name += f" by {max(relative_difference(*p) for p in pairs):.1e}"
        except ValueError:
            pass
        moved.append(name)
    return ", ".join(moved) or "line breaks"


def differing_lines(got: str, want: str) -> str:
    """The 1-based numbers of the lines of a text output that differ.

    A change of line count is named as such, and equal lines with
    different bytes as line breaks.
    """
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, want {len(want_lines)}"
    moved = [str(k) for k, (g, w) in enumerate(zip(got_lines, want_lines), 1)
             if g != w]
    if not moved:
        return "line breaks"
    return f"line{'s' if len(moved) > 1 else ''} {', '.join(moved)}"


def regenerate(argv) -> int:
    if argv not in ([], ["--check"]):
        print("usage: regenerate.py [--check]", file=sys.stderr)
        return 2
    differ = []
    for fname, make in outputs().items():
        text = make()
        if argv:
            want = (HERE / fname).read_bytes()
            if want != text.encode():
                differ.append(fname)
                what = (differing_columns if fname.endswith(".csv")
                        else differing_lines)(text, want.decode())
                print(f"differs: {fname} ({what})")
        else:
            (HERE / fname).write_text(text)
            print(f"wrote {fname}")
    if argv:
        print(f"{len(differ)} of {len(outputs())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
