"""End-to-end verification gate.

One test per headline claim, each printing a single [PASS]/[FAIL] line
(run with ``pytest -s`` to see the full report).  Monte Carlo counts are
sized so the measurement error sits well inside each stated tolerance
while the whole module stays in the low tens of seconds.

Curves produced by the same experiment share channel and noise seeds,
so curve-to-curve gaps are far more stable than the per-curve error
bars; the per-point tolerances below rely on that pairing.
"""

import numpy as np
import pytest

from mcpreamble import (
    SystemConfig,
    afb_column,
    afb_noise_cov,
    cfr_from_cir,
    cp_energy,
    cp_gram,
    design_prototype,
    equispaced_set,
    error_floor,
    expected_error_floor,
    gen_veh_a,
    make_equal_comb,
    make_full_equipower_qam,
    make_sparse_data,
    preset,
    run_experiment,
    verify_optimality,
    write_csv,
)


def _line(index: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {index:02d} {text}", flush=True)
    assert ok, text


def _gap_db(name: str, first: str, **kw) -> np.ndarray:
    """Per-grid-point NMSE gap (dB) of curve `first` over the other one."""
    curves = run_experiment(preset(name, **kw))
    by = {c.label: c for c in curves}
    other = next(c for c in curves if c.label != first)
    return by[first].nmse_db - other.nmse_db


def test_cpofdm_full_vs_sparse_gap():
    # equal training energy, no projection on the full estimate: the
    # dense preamble pays exactly M/L_h in MSE
    dev = {}
    for scale, n_ch, n_no in (("desk", 32, 24), ("paper", 12, 10)):
        gap = _gap_db("fig1a", "full-raw", scale=scale,
                      n_channels=n_ch, n_noise=n_no)
        cfg = preset("fig1a", scale=scale)
        want = 10.0 * np.log10(cfg.M / cfg.L_h)
        dev[scale] = float(np.max(np.abs(gap - want)))
    ok = dev["desk"] <= 0.3 and dev["paper"] <= 0.3
    _line(1, ok,
          "cp-ofdm full vs sparse gap = 10log10(M/L_h): max dev "
          f"desk {dev['desk']:.3f} dB, paper {dev['paper']:.3f} dB (tol 0.3)")


def test_projection_equalizes_full_and_sparse():
    # projecting the dense estimate onto L_h taps removes the penalty,
    # for the CP and the offset-QAM system alike
    worst = {}
    for name, label in (("fig1b", "full-projected"),
                        ("fig4b", "full-pseudo-projected")):
        gap = _gap_db(name, label, n_channels=36, n_noise=36)
        worst[name] = float(np.max(np.abs(gap)))
    ok = all(v <= 0.3 for v in worst.values())
    _line(2, ok,
          "projected full == sparse: max |gap| "
          f"cp-ofdm {worst['fig1b']:.3f} dB, oqam {worst['fig4b']:.3f} dB "
          "(tol 0.3)")


def test_pilot_count_tradeoff():
    # doubling the pilots at fixed training energy changes nothing;
    # doubling them at fixed per-pilot gain buys 10log10(2)
    gap_eq = _gap_db("fig2b", "sparse-2Lh", n_channels=36, n_noise=36)
    gap_sg = _gap_db("fig2a", "sparse-Lh", n_channels=36, n_noise=36)
    dev_eq = float(np.max(np.abs(gap_eq)))
    dev_sg = float(np.max(np.abs(gap_sg - 10.0 * np.log10(2.0))))
    ok = dev_eq <= 0.3 and dev_sg <= 0.3
    _line(3, ok,
          f"pilot count: equal-energy dev {dev_eq:.3f} dB, "
          f"same-gain gap vs 3.01 dev {dev_sg:.3f} dB (tol 0.3)")


def test_sparse_data_prefix_cost():
    # embedding data in the training symbol costs exactly the prefix
    # energy of the data tones
    cfg = preset("fig3", scale="paper")
    M, L = cfg.M, cfg.L_h
    want = 10.0 * np.log10(1.0 + (M - L) * (L - 1) / (M * L))
    gap = _gap_db("fig3", "sparse-data", scale="paper", n_channels=16,
                  n_noise=10, ebn0_db=(0.0, 5.0, 10.0, 15.0, 20.0))
    dev = float(np.max(np.abs(gap - want)))
    ok = dev <= 0.3 and abs(want - 2.87) <= 0.02
    _line(4, ok,
          f"sparse-plus-data gap {want:.2f} dB, max dev {dev:.3f} (tol 0.3)")


def test_cross_system_gap_and_truncation():
    # the offset-QAM pulse spreads training energy over K symbols, so at
    # equal window power the sparse comb gains KM/(M+L_h-1); truncating
    # the pulse to the CP-OFDM window forfeits the whole gain
    grid = (0.0, 5.0, 10.0, 15.0, 20.0)
    devs = {}
    for name in ("fig7a", "fig7b"):
        cfg = preset(name, scale="paper")
        want = 10.0 * np.log10(cfg.K * cfg.M / (cfg.M + cfg.L_h - 1))
        gap = _gap_db(name, "qam-sparse", scale="paper", n_channels=20,
                      n_noise=12, ebn0_db=grid)
        devs[name] = float(np.max(np.abs(gap - want)))
    trunc = {}
    for name in ("fig8a", "fig8b"):
        gap = _gap_db(name, "qam-sparse", scale="paper", n_channels=20,
                      n_noise=12, ebn0_db=(0.0, 5.0, 10.0, 15.0))
        trunc[name] = float(np.max(np.abs(gap)))
    ok = all(v <= 0.4 for v in devs.values()) and \
        all(v <= 0.5 for v in trunc.values())
    _line(5, ok,
          "cross-system gap = 10log10(KM/(M+L_h-1)): dev "
          f"K=3 {devs['fig7a']:.3f}, K=4 {devs['fig7b']:.3f} (tol 0.4); "
          f"truncated-pulse gap {max(trunc.values()):.3f} (tol 0.5)")


def test_oqam_full_vs_sparse_gap():
    # the dense offset-QAM preamble is read through pseudo pilots of
    # gain 1+2beta, so the sparse comb wins M/(L_h(1+2beta))
    proto = design_prototype(1024, 4)
    beta = proto.beta
    want = 10.0 * np.log10(1024.0 / (32.0 * (1.0 + 2.0 * beta)))
    gap = _gap_db("fig4a", "full-pseudo-raw", scale="paper", n_channels=16,
                  n_noise=10, ebn0_db=(0.0, 5.0, 10.0, 15.0))
    dev = abs(float(np.mean(gap)) - want)
    ok = dev <= 0.5
    _line(6, ok,
          f"oqam full vs sparse gap: formula {want:.2f} dB vs measured "
          f"{np.mean(gap):.2f} dB, dev {dev:.3f} (tol 0.5)")


def test_error_floors():
    # data leaking through the intrinsic interference leaves a noiseless
    # residual of exactly beta^2 (the pilot comb and both neighbor combs
    # all sample |H|^2 to the same (L_h/M)||H||^2); CP-OFDM has no floor
    cfg, E = SystemConfig(1024, 32), 1024.0
    proto = design_prototype(cfg.M, 4)
    closed = (cfg.M / cfg.L_h) * proto.beta ** 2 * (cfg.L_h / cfg.M)
    p = make_sparse_data("oqam-1a", E, np.random.SeedSequence([77]), cfg,
                         proto=proto)
    worst_exact = 0.0
    sims = []
    for i in range(10):
        h = gen_veh_a(np.random.SeedSequence([9000 + i]), cfg)
        den = float(np.sum(np.abs(cfr_from_cir(h, cfg.M)) ** 2))
        nmse = expected_error_floor(p, h, cfg) / den
        worst_exact = max(worst_exact, abs(nmse / closed - 1.0))
        for d in range(150):
            pd = make_sparse_data("oqam-1a", E,
                                  np.random.SeedSequence([77, i, d]), cfg,
                                  proto=proto)
            sims.append(error_floor(pd, h, cfg) / den)
    mc_dev = abs(float(np.mean(sims)) / closed - 1.0)

    grid = tuple(float(g) for g in range(0, 65, 5))
    curves = run_experiment(preset("fig1a", n_channels=16, n_noise=12,
                                   ebn0_db=grid))
    sp = next(c for c in curves if c.label == "sparse")
    monotone = bool(np.all(np.diff(sp.nmse_db) < 0.0))
    lowest = float(sp.nmse_db[-1])

    ok = worst_exact <= 0.05 and mc_dev <= 0.03 and monotone and lowest < -60.0
    _line(7, ok,
          f"error floors: sd-scenario NMSE vs (M/L_h)b^2 S|H|^2/||H||^2 "
          f"per realization dev {worst_exact:.1e} (tol 0.05, MC {mc_dev:.3f}); "
          f"cp-ofdm monotone to {lowest:.1f} dB")


def test_exact_property_suite():
    cfg, E = SystemConfig(128, 8), 128.0
    M, L_h, nu = cfg.M, cfg.L_h, cfg.nu
    G = cp_gram(M, nu)
    dev_tr = abs(np.trace(G).real / (M * nu) - 1.0)
    dev_sum = abs(np.sum(G)) / (M * nu)
    dev_sub = 0.0
    for i_0 in (0, 3, 11):
        S = G[np.ix_(equispaced_set(M, L_h, i_0), equispaced_set(M, L_h, i_0))]
        want = -np.ones((L_h, L_h)) + L_h * np.eye(L_h)
        dev_sub = max(dev_sub, float(np.max(np.abs(S - want))))
    gram_ok = dev_tr <= 1e-9 and dev_sum <= 1e-9 and dev_sub <= 1e-9

    cp_rel = 0.0
    for N, i_0 in ((L_h, 0), (2 * L_h, 0), (L_h, 3)):
        comb = make_equal_comb(N, i_0, E, cfg)
        cp_rel = max(cp_rel, cp_energy(comb.symbols, cfg) / E)
    comb_ok = cp_rel <= 1e-18

    pe = make_full_equipower_qam(0, np.sqrt(0.5), 0.0, E, cfg)
    mods = np.abs(pe.symbols) ** 2
    dev_mod = float(np.ptp(mods)) / (E / M)
    mse = (L_h / M ** 2) * float(np.sum(1.0 / mods))  # sigma2 = 1
    dev_mse = abs(mse / (L_h / E) - 1.0)
    equi_ok = dev_mod <= 1e-12 and dev_mse <= 1e-12 and \
        abs(pe.E_train - E) / E <= 1e-12

    proto = design_prototype(M, 4)
    beta = proto.beta
    pf = make_equal_comb(cfg.M, 0, E, cfg, proto=proto)
    a2 = float(pf.symbols[0, 0].real) ** 2
    dev_energy = abs(a2 * (M * (1.0 + 2.0 * beta) - 4.0 * beta) / E - 1.0)
    energy_ok = dev_energy <= 1e-6

    report = verify_optimality(cfg, trials=10000, seed=1)

    small = SystemConfig(32, 4)
    sproto = design_prototype(small.M, 4)
    B = afb_noise_cov(sproto)
    rng = np.random.default_rng(5)
    n_tr, Mm, L_g = 200_000, small.M, sproto.g.size
    acc = np.zeros((Mm, Mm), dtype=complex)
    phase = np.exp(2j * np.pi * np.arange(Mm) * ((L_g - 1) / 2) / Mm)
    done = 0
    while done < n_tr:
        blk = min(16384, n_tr - done)
        noise = (rng.standard_normal((blk, L_g)) +
                 1j * rng.standard_normal((blk, L_g))) / np.sqrt(2.0)
        folded = (noise * sproto.g).reshape(blk, L_g // Mm, Mm).sum(axis=1)
        y = np.fft.fft(folded, axis=1) * phase
        acc += y.conj().T @ y
        done += blk
    cov = acc / n_tr
    # guard the batched fold against the reference analysis bank
    r0 = (rng.standard_normal(L_g) + 1j * rng.standard_normal(L_g))
    y_ref = afb_column(r0, sproto, 0)
    folded = (r0 * sproto.g).reshape(L_g // Mm, Mm).sum(axis=0)
    assert np.max(np.abs(np.fft.fft(folded) * phase - y_ref)) < 1e-9
    dev_cov = float(np.max(np.abs(cov - B)))
    cov_ok = dev_cov <= 0.02

    ok = gram_ok and comb_ok and equi_ok and energy_ok and report.passed \
        and cov_ok
    n_checks = sum(c.passed for c in report.checks)
    _line(8, ok,
          f"exact suite: gram dev {max(dev_tr, dev_sum, dev_sub):.1e}, "
          f"comb prefix {cp_rel:.1e}*E, two-impulse dev "
          f"{max(dev_mod, dev_mse):.1e}, energy identity {dev_energy:.1e}, "
          f"optimality {n_checks}/{len(report.checks)}, "
          f"afb covariance dev {dev_cov:.4f} (tol 0.02)")
    assert report.passed, report.to_text()


def test_pulse_energy_window():
    # a CP-OFDM receiver window of M+L_h-1 samples should capture nearly
    # all of the pulse energy for the window argument to carry over
    M, L_h = 1024, 32
    fracs = {}
    for K in (3, 4, 5):
        proto = design_prototype(M, K)
        n = M + L_h - 1
        start = (proto.g.size - n) // 2
        fracs[K] = float(np.sum(proto.g[start:start + n] ** 2) /
                         np.sum(proto.g ** 2))
    ok = all(v >= 0.98 for v in fracs.values())
    _line(9, ok,
          "pulse energy in central M+L_h-1 samples: " +
          ", ".join(f"K={k} {v:.4f}" for k, v in fracs.items()) +
          " (need >= 0.98)")


def test_deterministic_output(tmp_path):
    kw = dict(seed=7, n_channels=6, n_noise=6, ebn0_db=(0.0, 10.0, 20.0))
    blobs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = preset("fig1a", workers=workers, **kw)
        path = tmp_path / f"{tag}.csv"
        write_csv(run_experiment(cfg), path, "fig1a")
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    _line(10, ok,
          f"deterministic csv: {len(blobs[0])} bytes identical across "
          "two serial runs and one parallel run")
