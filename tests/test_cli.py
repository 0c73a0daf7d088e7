import numpy as np
import pytest

from mcpreamble import load_preamble_values
from mcpreamble.cli import main


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
    ["--E", "inf"], ["--ebn0", "4000"], ["--ebn0", "-4000"], ["--seed", "-1"],
    ["--preset", "fig8a", "--K", "1"],
], ids=["n-noise=0", "n-channels=1", "workers=0", "empty-ebn0", "M=100",
        "nan-ebn0", "inf-ebn0", "inf-E", "ebn0=4000", "ebn0=-4000",
        "seed=-1", "fig8a-K=1"])
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
    if "--K" in bad:
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
], ids=["verify-M=0", "design-E=0"])
def test_zero_dimension_is_rejected(capsys, argv):
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_bad_trial_count(capsys, trials):
    rc = main(["verify", "--M", "64", "--L-h", "4", "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overall" not in captured.out
