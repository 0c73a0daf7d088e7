#!/usr/bin/env python3
"""The two-impulse preamble family: flat moduli, free cyclic prefix.

Any pair of impulses half a band apart, with an arbitrary power split
and relative phase, turns into an equal-modulus frequency comb whose
time-domain tail is exactly zero.  All of the transmit energy lands on
the useful symbol, so the LS estimate meets the genie MSE, and the
power split is a free knob for PAPR.
"""

import numpy as np

from mcpreamble import (SystemConfig, cp_energy, genie_mse, make_equal_comb,
                        make_full_equipower_qam, modulate, papr)

cfg = SystemConfig(M=128, L_h=8, K=4, E=128.0)
sigma2 = 1.0

print(f"M={cfg.M}  L_h={cfg.L_h}  E={cfg.E:.0f}  (impulses at k and k+M/2)")
print(f"{'k':>4s} {'gamma^2':>8s} {'theta':>7s} {'mod spread':>11s} "
      f"{'cp/E':>9s} {'papr dB':>8s} {'mse/genie':>10s}")
rng = np.random.default_rng(3)
genie = genie_mse(sigma2, cfg.E, cfg)
for _ in range(6):
    k = int(rng.integers(0, cfg.M // 2))
    g2 = float(rng.uniform(0.1, 0.9))
    th = float(rng.uniform(0.0, 2.0 * np.pi))
    p = make_full_equipower_qam(k, k + cfg.M // 2, np.sqrt(g2), th, cfg.E, cfg)
    mods = np.abs(p.symbols) ** 2
    spread = float(np.ptp(mods)) / (cfg.E / cfg.M)
    cp = cp_energy(p.symbols, cfg) / cfg.E
    pr = papr(modulate(p.symbols, cfg)[cfg.nu:])
    mse = (cfg.L_h * sigma2 / cfg.M ** 2) * float(np.sum(1.0 / mods))
    print(f"{k:>4d} {g2:>8.3f} {th:>7.3f} {spread:>11.2e} "
          f"{cp:>9.2e} {10 * np.log10(pr):>8.2f} {mse / genie:>10.6f}")

flat = make_equal_comb(cfg.M, 0, cfg.E, cfg)
pr = papr(modulate(flat.symbols, cfg)[cfg.nu:])
print(f"\nequal-value column (a single time impulse) for comparison: papr "
      f"{10 * np.log10(pr):.2f} dB; any proper two-impulse split does better")
