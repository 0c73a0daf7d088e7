import dataclasses
import inspect
import re

import numpy as np
import pytest

from mcpreamble import SystemConfig, cli, harness, load_preamble_values
from mcpreamble.cli import main

# every option of each subcommand, aliases included: each one changes
# some output, and a new one is added here
FLAGS = {
    "run": {"--preset", "--scale", "--seed", "--out", "--n-channels",
            "--n-noise", "--workers", "--ebn0", "--M", "--L_h", "--L-h",
            "--K"},
    "verify": {"--trials", "--seed", "--M", "--L_h", "--L-h", "--K"},
    "design": {"--k", "--gamma", "--theta", "--out", "--M", "--L_h", "--L-h",
               "--E"},
}
# the grid alone: a pulse carries its K, a preamble constructor takes E
SYSTEM_FIELDS = ["M", "L_h"]


def _no_channel_runs(*args):
    # stands for gen_veh_a, the draw every channel starts with
    raise AssertionError("a channel ran")


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig1a.csv"
    rc = main(["run", "--preset", "fig1a", "--scale", "desk",
               "--n-channels", "2", "--n-noise", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("preset,scheme")
    assert len(lines) > 1
    assert "wrote" in capsys.readouterr().out


def test_run_requires_preset(capsys):
    rc = main(["run", "--scale", "desk"])
    assert rc == 2
    assert "no preset" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--n-noise", "0"], ["--n-channels", "1"], ["--workers", "0"],
    ["--ebn0", ","], ["--M", "100"], ["--ebn0", "nan"], ["--ebn0", "0,inf"],
    ["--ebn0", "4000"], ["--ebn0", "-4000"], ["--seed", "-1"],
    ["--preset", "fig8a", "--K", "1"], ["--K", "6"],
], ids=["n-noise=0", "n-channels=1", "workers=0", "empty-ebn0", "M=100",
        "nan-ebn0", "inf-ebn0", "ebn0=4000", "ebn0=-4000",
        "seed=-1", "fig8a-K=1", "K=6"])
def test_run_rejects_bad_options(tmp_path, capsys, bad):
    out = tmp_path / "bad.csv"
    rc = main(["run", "--preset", "fig1a", "--n-channels", "2",
               "--n-noise", "2", *bad, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    if bad[0] == "--seed":
        assert "seed" in err
    if bad == ["--K", "6"]:
        # fig1a is CP-OFDM only: K is checked with no pulse built
        assert "K must be one of" in err
    if "fig8a" in bad:
        # the cut M + L_h - 1 = 135 is longer than the K=1 pulse of M = 128
        assert "'oqam-truncated'" in err and "135" in err and "K=1" in err


def test_run_flags_reach_the_run(capsys):
    rc = main(["run", "--preset", "fig1a", "--n-channels", "2",
               "--n-noise", "2", "--M", "64", "--L_h", "4", "--ebn0", "0,20"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "M=64 L_h=4" in text
    assert "@ 20" in text


def test_verify_exit_code(capsys):
    rc = main(["verify", "--M", "64", "--L-h", "4", "--trials", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_design_prints_and_saves(tmp_path, capsys):
    rc = main(["design", "--M", "32", "--L-h", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "index,re,im" in out
    assert "PAPR" in out

    path = tmp_path / "tw.csv"
    rc = main(["design", "--M", "32", "--L-h", "4", "--out", str(path)])
    assert rc == 0
    idx, vals = load_preamble_values(path)
    mods = np.abs(vals) ** 2
    assert len(vals) == 32
    assert np.max(mods) - np.min(mods) < 1e-12


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_subcommand_takes_its_options_only(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text)) == (
        FLAGS[command] | {"--help"})


def test_run_flags_are_the_preset_parameters_and_out(monkeypatch):
    # each run flag is one parameter of preset (its name is --preset) or
    # the CSV path, and there is no other way to give one
    seen = {}
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.update(vars(args)))
    main(["run"])
    params = set(inspect.signature(harness.preset).parameters) - {"name"}
    assert set(seen) - {"command", "func"} == params | {"preset", "out"}


def test_run_takes_no_config_file(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--preset", "fig1a", "--config", "x.ini"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config x.ini" in capsys.readouterr().err


def test_system_config_is_the_grid():
    assert [f.name for f in dataclasses.fields(SystemConfig)] == SYSTEM_FIELDS


def _blocked_path(tmp_path):
    """An output path under a plain file, so no directory can hold it."""
    (tmp_path / "blocker").write_text("")
    return tmp_path / "blocker" / "out"


def test_run_prints_each_curve_with_its_floor(capsys):
    rc = main(["run", "--preset", "fig6", "--n-channels", "2",
               "--n-noise", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fig6: M=128 L_h=8 K=4 channels=2 noise=1 seed=42"
    # isolated pilots have no floor, pilots beside data one
    assert re.fullmatch(r"  sparse +\[oqam\]  nmse .* @ 45, floor none",
                        lines[1])
    assert re.fullmatch(r"  sparse-data-3 +\[oqam\]  nmse .* @ 45, "
                        r"floor -\d+\.\d dB", lines[2])
    assert len(lines) == 3


def test_run_fails_on_an_unwritable_path_before_any_channel(
        tmp_path, capsys, monkeypatch):
    # all channels ran before the error, for either path
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    for out in (_blocked_path(tmp_path), tmp_path):
        rc = main(["run", "--preset", "fig4b", "--n-channels", "5",
                   "--n-noise", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    assert captured.err == f"error: output path is a directory: {tmp_path}\n"


def test_design_fails_on_an_unwritable_path_before_printing(tmp_path, capsys):
    # five report lines came out before the error
    rc = main(["design", "--M", "32", "--L-h", "4",
               "--out", str(_blocked_path(tmp_path))])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("k", range(32))
def test_design_takes_any_first_impulse(capsys, k):
    rc = main(["design", "--M", "32", "--L-h", "4", "--k", str(k)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"k={k} m={(k + 16) % 32} " in out
    rows = out.split("index,re,im\n")[1].splitlines()
    vals = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2]))
                     for r in rows])
    mods = np.abs(vals) ** 2
    assert len(vals) == 32
    assert np.max(mods) - np.min(mods) < 1e-12 * np.mean(mods)


def test_verify_keeps_explicit_zero_seed(capsys):
    rc = main(["verify", "--M", "64", "--L-h", "4", "--trials", "200",
               "--seed", "0"])
    assert rc == 0
    assert "seed=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--M", "0", "--trials", "200"], ["design", "--E", "0"],
    ["design", "--theta", "inf"],  # a NaN preamble behind a RuntimeWarning
    ["design", "--k", "-1"], ["design", "--k", "128"],
    ["verify", "--K", "6", "--trials", "200"],
    ["verify", "--seed", "-1", "--trials", "200"],
], ids=["verify-M=0", "design-E=0", "design-theta=inf", "design-k=-1",
        "design-k=M", "verify-K=6", "verify-seed=-1"])
def test_zero_dimension_is_rejected(capsys, argv):
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--seed" in argv:
        # numpy's "expected non-negative integer" named no option
        assert "seed must be >= 0" in err


def test_verify_reports_a_zero_unguarded_floor(capsys):
    # K=1's pulse has no intrinsic interference, so the unguarded floor
    # is 0 and helping raises it: check (c) fails, with every line printed
    rc = main(["verify", "--K", "1", "--trials", "200"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 11 and lines[0].startswith("optimality suite")
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        ln for ln in lines if "scenario_floor_ordering" in ln]
    assert "helped/unguarded = inf (< 0.2)" in lines[6]
    assert lines[-1] == "overall: FAIL (8/9)"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_bad_trial_count(capsys, trials):
    rc = main(["verify", "--M", "64", "--L-h", "4", "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overall" not in captured.out
