"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
import mcpreamble  # noqa: E402

# one Eb/N0 point, and the fewest channels and draws at which the
# output check's standard error is still a fair yardstick
MINIMAL = dict(n_channels=4, n_noise=4, ebn0_db=[10.0])


@pytest.fixture(scope="module")
def results():
    """Each workload at minimum size, untraced and traced."""
    return {(w, t): run.measure(w, seed=5, seconds=0, trace=t,
                                min_repeats=1, **MINIMAL)
            for w in run.WORKLOADS for t in (False, True)}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_minimum_size(results, workload, trace):
    res = results[(workload, trace)]
    assert res["correct"], res["problems"]
    assert res["failed"] == 0 and res["attempted"] == (2 if trace else 1)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(names) <= set(res["metrics"])
    assert all(isinstance(res["metrics"][n], (int, float)) for n in names)
    if trace:
        # the spans of the traced repeat account for its wall time
        assert 95.0 < res["metrics"]["trace.accounted_share"] <= 100.0
    else:
        assert all(res["metrics"][n] > 0 for n in run.END_TO_END)


def test_every_metric_printed_with_its_unit(results, tmp_path, capsys):
    for (w, t), res in results.items():
        run.report(res, tmp_path / f"{w}-{t}.json")
        out = capsys.readouterr().out
        names = run.PER_LAYER if t else run.END_TO_END
        line = json.loads(run.result_line([res], prefix=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(names)
        for name, unit in names.items():
            assert line["metrics"][name]["unit"] == unit
        if not t:
            for name, unit in names.items():
                assert any(ln.startswith(name) and f" {unit} " in ln
                           for ln in out.splitlines()), name
        assert json.loads((tmp_path / f"{w}-{t}.json").read_text())["metrics"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _snapshot():
    return {(mod.__name__, name): obj
            for mod in tracer.package_modules() for name, obj in vars(mod).items()}


def test_tracer_restores_every_function_it_wrapped():
    before = _snapshot()
    cfg = mcpreamble.preset("fig4b", seed=3, **MINIMAL)
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            during = _snapshot()
            mcpreamble.run_experiment(cfg)
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    wrapped = {k for k in before if during[k] is not before[k]}
    for mod, name in [("harness", "afb"), ("estimation", "cfr_samples_to_cir"),
                      ("fourier", "dft_submatrix"), ("analysis", "dft_submatrix"),
                      ("", "run_experiment")]:
        assert (f"mcpreamble.{mod}".rstrip("."), name) in wrapped
    summ = tr.summary()
    self_total = sum(v["self_s"] for v in summ["functions"].values())
    assert self_total == pytest.approx(summ["root_s"], rel=1e-9)
    assert summ["functions"]["oqam.afb"]["outputs"] < \
        summ["functions"]["oqam.afb_column"]["outputs"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_csvs_are_identical(workload, tmp_path):
    preset_kw = run.workload_preset(workload, 11, **MINIMAL)
    csvs, results = [], []
    for trace in (False, True):
        out = tmp_path / f"trace{int(trace)}.csv"
        results.append(run.run_child(dict(
            preset=preset_kw, trace=trace, out=str(out),
            spans=str(tmp_path / "spans.json"))))
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    # the untraced run's segments cover it from end to end
    untraced = results[0]
    assert sum(untraced["segments_s"]) == pytest.approx(untraced["wall_s"])
    assert 0 < untraced["setup_s"]
    # the package import, timed module by module, includes numpy's
    assert {"mcpreamble", "mcpreamble.harness", "numpy"} <= \
        set(untraced["import_us"])
    assert run.check_csv(csvs[0].decode(), mcpreamble.preset(**preset_kw)) == []


@pytest.mark.parametrize("bad", [dict(n_channels=1), dict(n_noise=0),
                                 dict(ebn0_db=[])])
def test_workload_sizes_are_validated(bad):
    with pytest.raises(ValueError):
        run.workload_preset("desk-oqam", 1, **bad)
    with pytest.raises(ValueError):
        run.workload_preset("no-such-workload", 1)


def _csv(workload, tmp_path):
    preset_kw = run.workload_preset(workload, 2, **MINIMAL)
    cfg = mcpreamble.preset(**preset_kw)
    path = tmp_path / "x.csv"
    mcpreamble.write_csv(mcpreamble.run_experiment(cfg), path, cfg.name)
    return path.read_text().splitlines(), cfg


def _set(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


def test_output_check_catches_bad_csvs(tmp_path):
    lines, cfg = _csv("desk-cpofdm", tmp_path)
    assert run.check_csv("\n".join(lines), cfg) == []
    assert run.check_csv("\n".join(lines[:-1]), cfg)          # a row missing
    assert run.check_csv("\n".join(_set(lines, 1, 4, "nan")), cfg)
    nmse_db = float(lines[1].split(",")[4])
    stderr_db = float(lines[1].split(",")[8])
    far = f"{nmse_db + 1.01 * run.Z_BOUND * stderr_db + 1e-9:.10g}"
    assert run.check_csv("\n".join(_set(lines, 1, 4, far)), cfg)


def test_data_curves_are_checked_for_finite_values_only(tmp_path):
    lines, cfg = _csv("paper-help", tmp_path)
    assert cfg.curves[1].family == "sparse_data"
    row = len(lines) - 1                                       # sparse-data-3
    far = f"{float(lines[row].split(',')[6]) + 100:.10g}"
    assert run.check_csv("\n".join(_set(lines, row, 4, far)), cfg) == []
    assert run.check_csv("\n".join(_set(lines, row, 4, "inf")), cfg)


def test_a_failed_output_check_is_reported(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "desk-oqam",
                        dict(run.WORKLOADS["desk-oqam"], **MINIMAL))
    monkeypatch.setattr(run, "check_csv", lambda text, cfg: [
        "row 1: nmse is +5.10 stderr from the prediction (bound 4)"])
    code = run.main(["--workload", "desk-oqam", "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    line = json.loads(out[-1])
    assert line["correct"] is False
    assert line["attempted"] == line["failed"] > 0
    assert line["metrics"] == {}
    assert any("failed: row 1: nmse is +5.10 stderr" in ln for ln in out)
    record = json.loads((tmp_path / "desk-oqam-seed3-trace0.json").read_text())
    assert record["problems"] and not record["correct"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-oqam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
