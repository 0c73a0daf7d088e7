"""Golden outputs: every preset, demo and CLI report reproduces its file.

tests/golden/regenerate.py defines the outputs and rewrites the files.
Text must match exactly and every number to a relative 1e-12 (absolute
1e-12 near zero); non-finite values such as a `-inf` floor must match
exactly.  Bytes are compared only within one machine: a run in two
worker processes writes the same CSV as the serial run.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate",
                                              GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

OUTPUTS = regenerate.outputs()
NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_number(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return a == b
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def mismatches(got: str, want: str) -> list:
    """Lines of got that differ from want in text or beyond the tolerance."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, want {len(want_lines)}"]
    bad = []
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        nums_g, nums_w = NUMBER.findall(g), NUMBER.findall(w)
        same = (NUMBER.split(g) == NUMBER.split(w)
                and len(nums_g) == len(nums_w)
                and all(map(_same_number, nums_g, nums_w)))
        if not same:
            bad.append(f"line {k + 1}: {g!r} != {w!r}")
    return bad


def test_every_output_has_its_file():
    files = {p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".txt")}
    assert files == set(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_reproduces_its_golden_file(name):
    want = (GOLDEN / name).read_text()
    assert mismatches(OUTPUTS[name](), want) == []


def test_comparison_holds_text_and_numbers_to_their_tolerance():
    row = "fig6,oqam,sparse-data-3,5,-19.93325578,1.015487125617e-02,-inf,6"
    assert mismatches(row, row) == []
    assert mismatches(row.replace("-19.93325578", "-19.93325579"), row)
    assert mismatches(row.replace("sparse-data-3", "sparse-data-2"), row)
    assert mismatches(row.replace("-inf", "-300"), row)
    assert mismatches("floor 6.14e-31", "floor 3.1e-31") == []


@pytest.mark.parametrize("name", ["fig3", "fig4b", "fig6"])
def test_two_workers_write_the_serial_bytes(name):
    serial = regenerate.preset_csv(name, "desk")
    assert regenerate.preset_csv(name, "desk", workers=2) == serial


def test_check_names_the_files_whose_bytes_differ(monkeypatch, tmp_path,
                                                   capsys):
    # `regenerate.py --check` writes nothing and exits 1 on any byte; a
    # CSV number that moved by roundoff is named with the size of its move
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    roundoff = "p,nmse_db,floor_db\nx,-10.000000000003,-inf\ny,0.1,-40\n"
    monkeypatch.setattr(regenerate, "outputs", lambda: {
        "a.csv": lambda: "x,1\n", "b.txt": lambda: "y 2\n",
        "c.csv": lambda: roundoff})
    (tmp_path / "a.csv").write_text("x,1\n")
    (tmp_path / "b.txt").write_text("y 2.0\n")
    (tmp_path / "c.csv").write_text(
        "p,nmse_db,floor_db\nx,-10,-inf\nz,0.1,-40.0\n")
    assert regenerate.regenerate(["--check"]) == 1
    out = capsys.readouterr().out
    assert "differs: b.txt" in out and "a.csv" not in out
    assert "differs: c.csv (p, nmse_db by 3.0e-13, floor_db by 0.0e+00)" in out
    assert (tmp_path / "b.txt").read_text() == "y 2.0\n"
    (tmp_path / "b.txt").write_text("y 2\n")
    (tmp_path / "c.csv").write_text(roundoff)
    assert regenerate.regenerate(["--check"]) == 0


def test_check_names_the_csv_columns_that_differ(monkeypatch, tmp_path,
                                                  capsys):
    want = "p,nmse_db,floor_db,stderr_db\nx,-10.5,-inf,0.25\nx,-20.5,-inf,0.5\n"
    got = want.replace("-20.5", "-20.6").replace("0.25", "0.3")
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(regenerate, "outputs", lambda: {
        "a.csv": lambda: got, "b.csv": lambda: got + "x,1,2,3\n",
        "c.csv": lambda: want.replace("p,", "q,"),
        "d.csv": lambda: want.rstrip("\n")})
    for name in ("a.csv", "b.csv", "c.csv", "d.csv"):
        (tmp_path / name).write_text(want)
    assert regenerate.regenerate(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["differs: a.csv (nmse_db by 4.9e-03, stderr_db by 1.7e-01)",
                   "differs: b.csv (3 rows, want 2)",
                   "differs: c.csv (header)",
                   "differs: d.csv (line breaks)",
                   "4 of 4 outputs differ"]


def test_check_names_the_text_lines_that_differ(monkeypatch, tmp_path,
                                                capsys):
    want = "suite\n[PASS] a 1.09\n[PASS] b 2\n[PASS] c 9.71e-05\nPASS\n"
    got = want.replace("1.09", "1.16").replace("9.71e-05", "1.24e-02")
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(regenerate, "outputs", lambda: {
        "a.txt": lambda: got, "b.txt": lambda: want.replace("b 2", "b 3"),
        "c.txt": lambda: want + "more\n", "d.txt": lambda: want.rstrip("\n")})
    for name in ("a.txt", "b.txt", "c.txt", "d.txt"):
        (tmp_path / name).write_text(want)
    assert regenerate.regenerate(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["differs: a.txt (lines 2, 4)",
                   "differs: b.txt (line 3)",
                   "differs: c.txt (6 lines, want 5)",
                   "differs: d.txt (line breaks)",
                   "4 of 4 outputs differ"]
