#!/usr/bin/env python3
"""Noiseless error floors of the data-sharing OQAM layouts.

When payload symbols share the training symbol, their intrinsic
interference leaks into the pilots and leaves a residual that no SNR
removes.  Guarding the pilot neighborhood kills the floor outright;
help pilots cancel the first-order term and trade a little payload
energy for most of the benefit.  The unguarded layout floors at an
NMSE of exactly beta^2, whatever the channel does.
"""

import numpy as np

from mcpreamble import (SystemConfig, cfr_from_cir,
                        design_prototype, expected_error_floor, gen_veh_a,
                        make_sparse_data)

cfg = SystemConfig(M=128, L_h=8)
E = 128.0
proto = design_prototype(cfg.M, 4)
print(f"M={cfg.M}  L_h={cfg.L_h}  K={proto.K}  beta={proto.beta:.6f}  "
      f"beta^2 = {10 * np.log10(proto.beta ** 2):.2f} dB")

h = gen_veh_a(np.random.SeedSequence([42]), cfg)
den = float(np.sum(np.abs(cfr_from_cir(h, cfg.M)) ** 2))

print(f"{'layout':>10s} {'guards':>7s} {'helpers':>8s} {'floor NMSE':>11s} "
      f"{'dB':>8s}")
for sc in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
    p = make_sparse_data(sc, E, np.random.SeedSequence([7]), cfg,
                         proto=proto)
    floor = expected_error_floor(p, h, cfg) / den
    n_cols = p.symbols.shape[1]
    # a two-column grid has a help pilot above every pilot
    helpers = p.n_pilots if n_cols == 2 else 0
    guards = n_cols * cfg.M - p.n_pilots - len(p.data_positions) - helpers
    db = 10 * np.log10(floor) if floor > 0 else float("-inf")
    print(f"{sc:>10s} {guards:>7d} {helpers:>8d} "
          f"{floor:>11.3e} {db:>8.2f}")

print("\nthe unguarded floor equals beta^2 exactly: any L_h-spaced comb "
      "(pilots or either\nneighbor set) samples |H|^2 to the same "
      "(L_h/M)*||H||^2, so the channel cancels.")
