import dataclasses
import re

import numpy as np
import pytest

from mcpreamble import SystemConfig, cli, harness, load_preamble_values
from mcpreamble.cli import main

# every option of each subcommand, aliases included, and of run's INI
# file: each one changes some output, and a new one is added here
FLAGS = {
    "run": {"--preset", "--scale", "--seed", "--out", "--config",
            "--n-channels", "--n-noise", "--workers", "--ebn0", "--M",
            "--L_h", "--L-h", "--K"},
    "verify": {"--trials", "--seed", "--M", "--L_h", "--L-h", "--K"},
    "design": {"--k", "--gamma", "--theta", "--out", "--M", "--L_h", "--L-h",
               "--E"},
}
INI_KEYS = {
    "experiment": {"preset", "scale", "seed", "out", "n_channels", "n_noise",
                   "workers", "ebn0_db"},
    "system": {"M", "L_h", "K"},
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


def test_config_file_with_flag_override(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\npreset = fig1a\nn_channels = 2\nn_noise = 2\n"
        "ebn0_db = 0, 10\n\n[system]\nM = 64\nL_h = 4\n")
    rc = main(["run", "--config", str(ini), "--ebn0", "20"])
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


def test_run_config_file_takes_its_keys_only():
    assert {"experiment": set(cli._EXP_KEYS),
            "system": set(cli._SYS_KEYS)} == INI_KEYS


def test_system_config_is_the_grid():
    assert [f.name for f in dataclasses.fields(SystemConfig)] == SYSTEM_FIELDS


def _blocked_path(tmp_path):
    """An output path under a plain file, so no directory can hold it."""
    (tmp_path / "blocker").write_text("")
    return tmp_path / "blocker" / "out"


def test_run_fails_on_an_unwritable_path_before_any_channel(
        tmp_path, capsys, monkeypatch):
    # all channels ran before the error
    monkeypatch.setattr(harness, "gen_veh_a", _no_channel_runs)
    rc = main(["run", "--preset", "fig4b", "--n-channels", "5",
               "--n-noise", "3", "--out", str(_blocked_path(tmp_path))])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


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


@pytest.mark.parametrize("ini", [
    None,
    "[experiment]\npreset = fig1a\nbogus = 1\n",
    "[experiment]\npreset = fig1a\nn_channels = x\n",
], ids=["missing-file", "unknown-key", "bad-value"])
def test_run_rejects_bad_config(tmp_path, capsys, ini):
    path = tmp_path / "exp.ini"
    if ini is not None:
        path.write_text(ini)
    out = tmp_path / "bad.csv"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_bad_trial_count(capsys, trials):
    rc = main(["verify", "--M", "64", "--L-h", "4", "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overall" not in captured.out
