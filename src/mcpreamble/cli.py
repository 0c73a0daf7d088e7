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
win over the file.  A bad option, dimension or config file prints one
`error:` line and exits 2.
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


def _parse_grid(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _system(args: argparse.Namespace) -> SystemConfig:
    """SystemConfig from the flags given; the rest take their defaults."""
    vals = {"M": 128, "L_h": 8}
    vals.update({k: v for k, v in vars(args).items()
                 if k in ("M", "L_h", "K", "E") and v is not None})
    return SystemConfig(**vals)


def _cmd_run(args: argparse.Namespace) -> int:
    opts = _load_ini(args.config) if args.config else {}
    for key in ("preset", "scale", "seed", "out", "n_channels", "n_noise",
                "workers", "M", "L_h", "K"):
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    if args.ebn0 is not None:
        opts["ebn0_db"] = args.ebn0
    name = opts.pop("preset", None)
    if name is None:
        raise ValueError("no preset given (flag --preset or config file)")
    out = opts.pop("out", None)
    if "ebn0_db" in opts:
        opts["ebn0_db"] = _parse_grid(str(opts["ebn0_db"]))
    cfg = preset(name, **opts)
    curves = run_experiment(cfg)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
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
    report = verify_optimality(_system(args), trials=args.trials, seed=args.seed)
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_design(args: argparse.Namespace) -> int:
    cfg = _system(args)
    k, gamma, theta = args.k, args.gamma, args.theta
    m = (k + cfg.M // 2) % cfg.M
    p = make_full_equipower_qam(k, gamma, theta, cfg.E, cfg)
    mods = np.abs(p.symbols) ** 2
    print(f"two-impulse equal-power preamble  M={cfg.M} L_h={cfg.L_h} "
          f"E={cfg.E:g}")
    print(f"k={k} m={m} gamma={gamma:.6f} theta={theta:.6f}")
    print(f"subcarrier power spread: {mods.max() - mods.min():.3e} "
          f"(target {cfg.E / cfg.M:.6g} per tone)")
    print(f"prefix energy fraction: {(p.E_train - p.E) / p.E:.3e}")
    print(f"useful-part PAPR: {papr(modulate(p.symbols, cfg)[cfg.nu:]):.2f} "
          f"(equal-value column: {cfg.M:.0f})")
    if args.out:
        save_preamble(p, args.out)
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
    pr.add_argument("--ebn0", default=None,
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
    _add_system_flags(pd, {"M": int, "L_h": int, "E": float})
    pd.set_defaults(func=_cmd_design)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
