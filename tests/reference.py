"""run_experiment's Monte Carlo curves, taken through the whole chain.

A check of the engine that shares no code with it: it uses only names
mcpreamble exports, never the harness module (test_harness keeps it so).
For every channel, draw and Eb/N0 point it transmits the curve's
preamble, sends it through channel.propagate, adds the point's noise,
receives it and fits LS on the pilots.  Channels, unit noise and data
come from the seed tree the harness module docstring states; each draw
is one noise row at the widest curve's window, of which every curve reads
its prefix.  A curve with a scenario draws its data afresh at every draw,
a CP-OFDM one too, which the engine keeps static because its pilots
never see the data: the match checks that.
"""

import numpy as np

from mcpreamble import (afb_column, awgn, cfr_from_cir, demodulate,
                        design_prototype, draw_sparse_data, ebn0_to_sigma2,
                        estimate_from_pilots, gen_veh_a, make_equal_comb,
                        modulate, propagate, sfb, sparse_data_layout, tpr,
                        truncate_prototype)


def preambles(cfg) -> list:
    """Each curve's preamble at its power: at E * e_scale, or built at E
    and scaled to the first curve's training power ratio, with E = M."""
    sc, out = cfg.system, []
    for spec in cfg.curves:
        proto = None
        if spec.system == "oqam":
            proto = design_prototype(sc.M, cfg.K)
            if spec.truncate_to is not None:
                proto = truncate_prototype(proto, spec.truncate_to)
        e = sc.M * (spec.e_scale or 1.0)
        if spec.scenario is not None:
            p = sparse_data_layout(spec.scenario, e, sc, proto)
        else:
            p = make_equal_comb(spec.n_pilots or sc.M, 0, e, sc, proto)
        if spec.e_scale is None and out:
            p = p.scaled(float(np.sqrt(tpr(out[0], p))))
        out.append(p)
    return out


def window(cfg) -> int:
    """Received samples per draw: the widest preamble's window + L_h - 1."""
    return max(p.window for p in preambles(cfg)) + cfg.L_h - 1


def chain(cfg) -> tuple:
    """(ratios, nmse, stderr_db): per channel, curve and point the mean
    over draws of ||H_hat - H||^2 / ||H||^2, then per curve and point its
    mean over channels and the standard error of that mean in dB."""
    sc, ps, n_win = cfg.system, preambles(cfg), window(cfg)
    sigma = np.sqrt([ebn0_to_sigma2(g, 1.0) for g in cfg.ebn0_db])  # E/M
    ratios = np.zeros((cfg.n_channels, len(ps), len(sigma)))
    for c in range(cfg.n_channels):
        h = gen_veh_a(np.random.SeedSequence([cfg.seed, 101, c]), sc)
        H = cfr_from_cir(h, sc.M)
        noise = np.random.default_rng([cfg.seed, 301, c])
        data = [np.random.default_rng([cfg.seed, 201, c, i])
                for i in range(len(ps))]
        for _ in range(cfg.n_noise):
            w = awgn(n_win, noise)
            for i, (spec, p) in enumerate(zip(cfg.curves, ps)):
                x = (p.symbols if spec.scenario is None
                     else draw_sparse_data(p, data[i], 1)[0])
                s = modulate(x, sc) if p.proto is None else sfb(x, p.proto)
                r = propagate(s, h, 0.0, None)
                r = r + sigma[:, None] * w[:len(r)]  # one row per point
                y = (demodulate(r, sc) if p.proto is None
                     else afb_column(r, p.proto, 0))[:, p.pilot_idx]
                H_hat = estimate_from_pilots(y, p, sc, mode=spec.estimator)
                ratios[c, i] += np.sum(np.abs(H_hat - H) ** 2, axis=-1)
        ratios[c] /= cfg.n_noise * np.sum(np.abs(H) ** 2)
    nmse = ratios.mean(axis=0)
    stderr = ratios.std(axis=0, ddof=1) / np.sqrt(cfg.n_channels)
    return ratios, nmse, 10.0 / np.log(10.0) * stderr / nmse
