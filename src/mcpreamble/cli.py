"""Command line front end.

Three subcommands:

  run     execute a named experiment preset and write its CSV
  verify  run the numerical optimality suite (exit 1 on any failure)
  design  print a two-impulse equal-subcarrier-power preamble

Options can also come from an INI file ([experiment] and [system]
sections); flags given on the command line win over the file.
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
_SYS_KEYS = {"M": int, "L_h": int, "K": int, "E": float}


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
                out[target] = keys[target](val)
    return out


def _parse_grid(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _cmd_run(args: argparse.Namespace) -> int:
    opts: dict = {}
    if args.config:
        opts.update(_load_ini(args.config))
    for key in ("preset", "scale", "seed", "out", "n_channels", "n_noise",
                "workers", "M", "L_h", "K", "E"):
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    if args.ebn0 is not None:
        opts["ebn0_db"] = args.ebn0
    name = opts.pop("preset", None)
    if name is None:
        print("error: no preset given (flag --preset or config file)",
              file=sys.stderr)
        return 2
    out = opts.pop("out", None)
    try:
        if "ebn0_db" in opts:
            opts["ebn0_db"] = _parse_grid(str(opts["ebn0_db"]))
        cfg = preset(name, **opts)
        curves = run_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        write_csv(curves, out, cfg.name)
    print(f"{cfg.name} ({cfg.scale}): M={cfg.M} L_h={cfg.L_h} K={cfg.K} "
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
    cfg = SystemConfig(M=args.M or 128, L_h=args.L_h or 8, K=args.K or 4,
                       E=args.E or 1.0)
    report = verify_optimality(cfg, trials=args.trials, seed=args.seed or 1)
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_design(args: argparse.Namespace) -> int:
    cfg = SystemConfig(M=args.M or 128, L_h=args.L_h or 8, K=args.K or 4,
                       E=args.E or 1.0)
    k = args.k if args.k is not None else 0
    m = args.m if args.m is not None else k + cfg.M // 2
    gamma = args.gamma if args.gamma is not None else float(np.sqrt(0.5))
    theta = args.theta or 0.0
    p = make_full_equipower_qam(k, m, gamma, theta, cfg.E, cfg)
    mods = np.abs(p.x) ** 2
    frame = modulate(p.x, cfg)
    print(f"two-impulse equal-power preamble  M={cfg.M} L_h={cfg.L_h} "
          f"E={cfg.E:g}")
    print(f"k={k} m={m} gamma={gamma:.6f} theta={theta:.6f}")
    print(f"subcarrier power spread: {mods.max() - mods.min():.3e} "
          f"(target {cfg.E / cfg.M:.6g} per tone)")
    print(f"prefix energy fraction: {(p.E_train - p.E) / p.E:.3e}")
    print(f"useful-part PAPR: {papr(frame.useful):.2f} "
          f"(equal-value column: {cfg.M:.0f})")
    if args.out:
        save_preamble(p, args.out)
        print(f"wrote {args.out}")
    else:
        print("index,re,im")
        for i, v in enumerate(p.x):
            print(f"{i},{v.real:.17g},{v.imag:.17g}")
    return 0


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    for flag, typ in _SYS_KEYS.items():
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
    pr.add_argument("--ebn0", default=None,
                    help="comma separated Eb/N0 grid in dB")
    _add_system_flags(pr)
    pr.set_defaults(func=_cmd_run)

    pv = sub.add_parser("verify", help="run the optimality suite")
    pv.add_argument("--trials", type=int, default=10000)
    pv.add_argument("--seed", type=int, default=None)
    _add_system_flags(pv)
    pv.set_defaults(func=_cmd_verify)

    pd = sub.add_parser("design", help="print a two-impulse preamble")
    pd.add_argument("--k", type=int, default=None)
    pd.add_argument("--m", type=int, default=None)
    pd.add_argument("--gamma", type=float, default=None)
    pd.add_argument("--theta", type=float, default=None)
    pd.add_argument("--out", default=None)
    _add_system_flags(pd)
    pd.set_defaults(func=_cmd_design)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
