"""Command line front end.

Three subcommands:

  run     execute a named experiment preset and write its CSV
  verify  run the numerical optimality suite (exit 1 on any failure)
  design  print a two-impulse equal-subcarrier-power preamble

Each takes only options its output depends on: run and verify no
training energy E (an experiment is built at E = M, the verify report
holds ratios at E = 1), design no K (its preamble is CP-OFDM) and only
its first impulse k.  run's options can also come from an INI file
([experiment] and [system] sections); flags given on the command line
win over the file.  A bad option, dimension, config file or output path
prints one `error:` line and exits 2, before any channel runs or any
report line is printed.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from .analysis import papr, verify_optimality
from .config import SystemConfig
from .cpofdm import modulate
from .harness import preset, preset_names, run_experiment, write_csv
from .preambles import make_full_equipower_qam, save_preamble

_EXP_KEYS = {
    "preset": str, "scale": str, "seed": int, "out": str,
    "n_channels": int, "n_noise": int, "workers": int, "ebn0_db": str,
}
_SYS_KEYS = {"M": int, "L_h": int, "K": int}


def _load_ini(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    out: dict = {}
    for section, keys in (("experiment", _EXP_KEYS), ("system", _SYS_KEYS)):
        if cp.has_section(section):
            for key, val in cp.items(section):
                target = {k.lower(): k for k in keys}.get(key.lower())
                if target is None:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                try:
                    out[target] = keys[target](val)
                except ValueError:
                    raise ValueError(
                        f"bad value {val!r} for {key!r} in [{section}]") from None
    return out


def _given(args: argparse.Namespace, keys) -> dict:
    """The options among keys given on the command line."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _system(args: argparse.Namespace) -> SystemConfig:
    """SystemConfig from the flags given; the rest take their defaults."""
    return SystemConfig(**{"M": 128, "L_h": 8, **_given(args, ("M", "L_h"))})


def _cmd_run(args: argparse.Namespace) -> int:
    opts = _load_ini(args.config) if args.config else {}
    opts.update(_given(args, (*_EXP_KEYS, *_SYS_KEYS)))
    name = opts.pop("preset", None)
    if name is None:
        raise ValueError("no preset given (flag --preset or config file)")
    out = opts.pop("out", None)
    if "ebn0_db" in opts:
        grid = str(opts["ebn0_db"]).replace(",", " ").split()
        opts["ebn0_db"] = tuple(float(v) for v in grid)
    cfg = preset(name, **opts)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    curves = run_experiment(cfg)
    if out:
        write_csv(curves, out, cfg.name)
    print(f"{cfg.name}: M={cfg.M} L_h={cfg.L_h} K={cfg.K} "
          f"channels={cfg.n_channels} noise={cfg.n_noise} seed={cfg.seed}")
    for cu in curves:
        lo, hi = cu.nmse_db[0], cu.nmse_db[-1]
        floor = ("none" if cu.floor <= 0
                 else f"{10 * np.log10(cu.floor):.1f} dB")
        print(f"  {cu.label:<24s} [{cu.system}]  nmse {lo:+.2f} dB @ "
              f"{cu.ebn0_db[0]:g} -> {hi:+.2f} dB @ {cu.ebn0_db[-1]:g}, "
              f"floor {floor}")
    if out:
        print(f"wrote {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_optimality(_system(args), trials=args.trials,
                               seed=args.seed, **_given(args, ("K",)))
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_design(args: argparse.Namespace) -> int:
    cfg, E = _system(args), args.E
    k, gamma, theta = args.k, args.gamma, args.theta
    m = (k + cfg.M // 2) % cfg.M
    p = make_full_equipower_qam(k, gamma, theta, E, cfg)
    if args.out:
        save_preamble(p, args.out)
    mods = np.abs(p.symbols) ** 2
    print(f"two-impulse equal-power preamble  M={cfg.M} L_h={cfg.L_h} "
          f"E={E:g}")
    print(f"k={k} m={m} gamma={gamma:.6f} theta={theta:.6f}")
    print(f"subcarrier power spread: {mods.max() - mods.min():.3e} "
          f"(target {E / cfg.M:.6g} per tone)")
    print(f"prefix energy fraction: {(p.E_train - p.E) / p.E:.3e}")
    print(f"useful-part PAPR: {papr(modulate(p.symbols, cfg)[cfg.nu:]):.2f} "
          f"(equal-value column: {cfg.M:.0f})")
    if args.out:
        print(f"wrote {args.out}")
    else:
        print("index,re,im")
        for i, v in enumerate(p.symbols):
            print(f"{i},{v.real:.17g},{v.imag:.17g}")
    return 0


def _add_system_flags(p: argparse.ArgumentParser, keys: dict) -> None:
    for flag, typ in keys.items():
        names = [f"--{flag}"]
        if "_" in flag:
            names.append(f"--{flag.replace('_', '-')}")
        p.add_argument(*names, dest=flag, type=typ, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcpreamble",
        description="preamble-based channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run an experiment preset")
    pr.add_argument("--preset", choices=preset_names(), default=None)
    pr.add_argument("--scale", choices=("desk", "paper"), default=None)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None, help="CSV output path")
    pr.add_argument("--config", default=None, help="INI file with options")
    pr.add_argument("--n-channels", dest="n_channels", type=int, default=None)
    pr.add_argument("--n-noise", dest="n_noise", type=int, default=None)
    pr.add_argument("--workers", type=int, default=None)
    pr.add_argument("--ebn0", dest="ebn0_db", default=None,
                    help="comma separated Eb/N0 grid in dB")
    _add_system_flags(pr, _SYS_KEYS)
    pr.set_defaults(func=_cmd_run)

    pv = sub.add_parser("verify", help="run the optimality suite")
    pv.add_argument("--trials", type=int, default=10000)
    pv.add_argument("--seed", type=int, default=1)
    _add_system_flags(pv, _SYS_KEYS)
    pv.set_defaults(func=_cmd_verify)

    pd = sub.add_parser("design", help="print a two-impulse preamble")
    pd.add_argument("--k", type=int, default=0,
                    help="first impulse; the second is at (k + M/2) mod M")
    pd.add_argument("--gamma", type=float, default=float(np.sqrt(0.5)))
    pd.add_argument("--theta", type=float, default=0.0)
    pd.add_argument("--out", default=None)
    pd.add_argument("--E", type=float, default=1.0, help="training energy")
    _add_system_flags(pd, {"M": int, "L_h": int})
    pd.set_defaults(func=_cmd_design)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
