"""Energy accounting, closed-form MSE, error floors, and optimality checks.

Conventions used by every routine here:

  * MSE values are for the full CFR estimate, E||H_hat - H||^2 summed
    over the M tones, except genie_mse, which gives the CIR-domain value;
    the two differ exactly by a factor M because
    F_{M x L_h}^H F_{M x L_h} = M*I.
  * Training power ratios compare declared training energies per
    observation window, (E_1/R_1)/(E_2/R_2); payload data counts only
    through the side cost it forces on the training (prefix spillage,
    help pilots), never through its own useful energy.
  * Error floors are the sigma -> 0 residuals of the projected estimator
    under the per-subcarrier-flat channel model, built from the exact pulse
    inner products of the whole grid, not just the first-order ones.  A
    help pilot enters through its layout's help map (Preamble.help_c).
    A channel is its impulse response h.
  * The data-averaged floor of a layout is linear in the channel before
    its squared norm is taken, so floor_map builds its channel-independent
    part once per layout and returns a function that contracts it with
    one channel's CFR; an unhelped data symbol's part is a map per tone.
  * A preamble is OQAM exactly when it carries the pulse it was built for
    (Preamble.proto); every OQAM quantity here reads its inner products
    from that pulse.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import cfr_from_cir, gen_veh_a
from .config import (SystemConfig, _check_energy, _check_int,
                     _check_noise_variance)
from .cpofdm import cp_energy, modulate
from .estimation import _check_mode
from .fourier import cfr_samples_to_cir
# unused here; perfbench's tracer test expects the name in this module
from .fourier import dft_submatrix  # noqa: F401
from .oqam import PrototypeFilter, design_prototype, sfb
from .preambles import (Preamble, make_equal_comb, make_full_equipower_qam,
                        sparse_data_layout)


def papr(s) -> float:
    """Peak-to-average power ratio of a sample vector."""
    p = np.abs(np.asarray(s, dtype=complex)) ** 2
    if p.size == 0 or p.mean() == 0:
        raise ValueError("empty or all-zero signal")
    return float(p.max() / p.mean())


def antenna_energy(preamble: Preamble, config: SystemConfig) -> float:
    """Exact synthesized energy of the preamble over its window.

    For CP-OFDM this includes the prefix; for OQAM it is the SFB output
    energy of the whole grid.  Sparse-plus-data preambles include their
    realized data energy here; their declared training energy E_train is
    the expectation-based accounting instead.
    """
    if preamble.proto is None:
        s = modulate(preamble.symbols, config)
    else:
        s = sfb(preamble.symbols, preamble.proto)
    return float(np.sum(np.abs(s) ** 2))


def tpr(p1: Preamble, p2: Preamble) -> float:
    """Training power ratio (E_1/R_1) / (E_2/R_2) of declared energies."""
    return (p1.E_train / p1.window) / (p2.E_train / p2.window)


def genie_mse(sigma2: float, E: float, config: SystemConfig) -> float:
    """Estimation-theoretic lower bound L_h*sigma^2/E (CIR domain).  A
    sigma2 that is not a finite real number >= 0, or an E that is not a
    positive finite one, raises ValueError."""
    _check_noise_variance("sigma2", sigma2)
    _check_energy("E", E)
    return config.L_h * sigma2 / E


def closed_form_mse(
    preamble: Preamble,
    sigma2: float,
    config: SystemConfig,
    mode: str = "projected",
) -> float:
    """Noise MSE of the LS estimator, linear in sigma2.

    mode is "raw" or "projected", as in estimate_from_pilots.  The
    formulas are shared by both systems, except that a full OQAM column
    estimated projected goes through the correlated AFB noise.  The
    interference floor of the sparse-plus-data OQAM layouts depends on
    the channel; floor_map gives it.  Bar that full column, divisors may
    be a stack (..., N) of rows, giving one value per row (else a float).
    A sigma2 that is not a finite real number >= 0 raises ValueError.
    """
    _check_noise_variance("sigma2", sigma2)
    _check_mode(mode, preamble, config)
    M, L_h, N = config.M, config.L_h, preamble.n_pilots
    inv2 = np.sum(1.0 / np.abs(preamble.divisors) ** 2, axis=-1)
    per_row = lambda v: float(v) if np.ndim(v) == 0 else v
    if mode == "raw":
        return per_row(sigma2 * inv2)
    if preamble.proto is not None and N == M:
        # exact projected noise through the correlated AFB outputs:
        # (sigma^2/M) tr(D^H G0 D B^T), D = diag(d = 1/c), G0 = F F^H.  As
        # G0[p, q] = g0(p - q) and B[q, p] = b(p - q) for the literal offset,
        # it is (sigma^2/M) sum_delta g0 b r_d, r_d the autocorrelation of d,
        # and g0(delta) = sum_{l < L_h} exp(-j2pi delta l/M) is one FFT
        delta = np.arange(-(M - 1), M)
        g0 = np.fft.fft(np.ones(L_h), M)[delta % M]
        D = np.fft.fft(1.0 / preamble.divisors, 2 * M)
        r_d = np.fft.ifft(D * np.conj(D))[-delta]
        return float(np.real(np.sum(g0 * preamble.proto.kernel(0) * r_d)) * sigma2 / M)
    # white pilot noise: CP-OFDM tones, or OQAM pilots >= 2 subcarriers apart
    return per_row(sigma2 * M * L_h / N ** 2 * inv2)


def error_floor(preamble: Preamble, h, config: SystemConfig) -> float:
    """Zero-noise residual CFR MSE of this preamble instance, projected.

    h is the channel impulse response.  CP-OFDM preambles have no floor
    (the demodulated model is exact inside the prefix).  OQAM floors
    come from the interference the divisor does not account for,
    propagated through the projected estimator.
    """
    _check_mode("projected", preamble, config)
    if preamble.proto is None:
        return 0.0
    M, x = config.M, preamble.symbols
    H = cfr_from_cir(h, M)
    idx = preamble.pilot_idx
    # noiseless pilot outputs under the per-subcarrier-flat channel: every
    # pulse (m, n) arrives scaled by H_m, through the exact inner products
    y0 = sum(preamble.proto.row(idx, n) @ (H * x[:, n])
             for n in range(x.shape[1]))
    w1 = y0 / preamble.divisors - H[idx]
    h_w = cfr_samples_to_cir(w1, M, idx, config.L_h)
    return float(M * np.sum(np.abs(h_w) ** 2))


def floor_map(preamble: Preamble, config: SystemConfig):
    """The expected floor of a layout as a function of the channel's CFR H.

    The zero-noise pilot distortion is linear in the data symbols: each
    symbol contributes through its own pulse and, in the helped
    scenarios, through the help-pilot amplitudes it induces.  With
    independent zero-mean data of energy e_d per symbol the expected
    residual is e_d times a squared Frobenius norm of that linear map.
    By Parseval, the LS fit of the N = L_h comb pilots (else ValueError)
    keeps 1/N of their distortion's energy, so none is taken: an unhelped
    unit symbol (m, n) leaves (1/N) sum_i |A(m - p_i, n)|^2 / a_i^2 before
    its fade, a per-tone map, and a helped one keeps its pilot errors.
    All but H is built here once; floor(H) costs one product of M-vectors
    plus one N-vector per helped symbol.
    """
    _check_mode("projected", preamble, config)
    if preamble.proto is None or len(preamble.data_positions) == 0:
        return lambda H: 0.0
    proto, n_cols = preamble.proto, preamble.symbols.shape[1]
    M, L_h, idx = config.M, config.L_h, preamble.pilot_idx
    if len(idx) != L_h:
        raise ValueError(f"a data layout has L_h={L_h} pilots, got {len(idx)}")
    a = np.abs(preamble.divisors)  # the pilot amplitudes
    s = M * np.mean(a ** 2) / 2.0  # M * e_d
    # amb[n, M - 1 + d] = A(d, n): weight of a tone d above the pilot, column n
    amb = np.stack([proto.kernel(n) for n in range(n_cols)])
    amb2, per_tone = np.abs(amb) ** 2, np.zeros((n_cols, M))
    for p, a_p in zip(idx, a):
        per_tone += amb2[:, M - 1 - p:2 * M - 1 - p] / a_p ** 2
    m, n = preamble.data_positions.T
    d = s / L_h * per_tone[n, m]
    if n_cols == 1:
        D = np.bincount(m, weights=d, minlength=M)  # summed per tone
        return lambda H: float(D @ np.abs(H) ** 2)
    # every pilot P of a two-column grid has a help pilot (P, 1) that
    # carries help_c of the real amplitude of each data neighbour (see
    # Preamble); it is solved channel-blind, so it arrives faded by H[P],
    # and reaches pilot i with weight A(P - i, 1) / a_i: row P of G
    q, k = np.nonzero(preamble.help_c)  # (pilot, neighbour) pairs with data
    # row c of each pair's symbol among the helped symbols jh, and its
    # slot among the (at most two) pilots that symbol neighbours
    jh, first, c = np.unique(preamble.help_j[q, k], return_index=True,
                             return_inverse=True)
    slot = np.arange(len(c)) != first[c]
    # a helped symbol's pilot errors are kept explicitly, as B[c] applied
    # to the channel at tones[c]: its own fade (U), then one per help pilot
    U = amb[n[jh, None], M - 1 + m[jh, None] - idx] / a
    G = amb[1, M - 1 + idx[:, None] - idx] / a
    B = np.zeros((len(jh), 2 + slot.max(), L_h), dtype=complex)
    tones = np.zeros(B.shape[:2], dtype=np.int64)  # padding: B = 0 there
    B[:, 0], tones[:, 0] = U * preamble.phase[jh, None], m[jh]
    B[c, 1 + slot] = G[q] * preamble.help_c[q, k, None]
    tones[c, 1 + slot] = idx[q]
    d[jh] = 0.0
    D = np.bincount(m, weights=d, minlength=M)

    def floor(H):
        Ah = H[tones][:, None, :] @ B
        return float(D @ np.abs(H) ** 2 + s / L_h * np.vdot(Ah, Ah).real)

    return floor


def expected_error_floor(preamble: Preamble, h, config: SystemConfig) -> float:
    """Floor of error_floor averaged exactly over the random data (floor_map)."""
    return floor_map(preamble, config)(cfr_from_cir(h, config.M))


def afb_noise_cov(proto: PrototypeFilter) -> np.ndarray:
    """Covariance of the AFB outputs of one column under unit-variance AWGN.

    B[p, q] = <g'_{q,n}, g'_{p,n}> = A(q - p, 0) = b(q - p), b = proto.kernel(0)
    (which closed_form_mse contracts without forming B): b(0) = 1, b(+/-1) =
    beta, b(+/-(M-1)) = -beta, and zero elsewhere for frequency sampling.
    """
    return proto.row(np.arange(proto.M), 0)


# ---------------------------------------------------------------------------
# optimality verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str


@dataclass
class OptimalityReport:
    config: SystemConfig
    K: int
    trials: int
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"optimality suite  M={self.config.M} L_h={self.config.L_h} "
            f"K={self.K}  trials={self.trials}  seed={self.seed}"
        ]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name:<28s} {c.detail}")
        n_ok = sum(c.passed for c in self.checks)
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({n_ok}/{len(self.checks)})"
        )
        return "\n".join(lines)


def verify_optimality(
    config: SystemConfig,
    trials: int = 10000,
    seed: int = 1,
    K: int = 4,
) -> OptimalityReport:
    """Numerical verification of the optimality claims, each a ratio to a
    bound linear in sigma^2 and so taken at sigma^2 = 1 and at E = 1,
    with the OQAM checks on the pulse of overlapping factor K.

    (a) every random feasible sparse CP-OFDM preamble at training energy
        E has LS MSE >= L_h*sigma^2/E, with equality for the equal comb;
    (b) every random equal-phase full OQAM column with ||x||^2 = E has
        raw pseudo-pilot MSE >= M*sigma^2/(E*(1+2*beta)^2), approached
        by the equal column;
    (c) guarding or helping a sparse-plus-data layout can only lower its
        floor, by the stated large factors;
    (d) random equal-modulus preambles away from the two-impulse family
        never reach zero prefix energy, while the family always does and
        always meets the genie MSE.

    Plus stationarity/curvature of (a) and (b) at their optimizers and
    the exact sparse OQAM energy identity.  Prefix energies come from
    cp_energy, the combs from make_equal_comb, the LS MSEs (of one
    preamble or a batch of divisors) from closed_form_mse and the full
    column's pseudo pilots from the pulse's AFB noise covariance
    (afb_noise_cov).  trials < 1 or seed < 0 raise ValueError at once.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    M, L_h, nu, E = config.M, config.L_h, config.nu, 1.0
    proto = design_prototype(M, K)
    beta = proto.beta
    report = OptimalityReport(config=config, K=K, trials=trials, seed=seed)
    add = report.checks.append

    # (a) sparse CP-OFDM lower bound, random values and pilot counts
    bound_a = L_h / E
    worst_a = np.inf
    for N in (L_h, 2 * L_h, min(4 * L_h, M)):
        n_t = max(1, trials // 3)
        vals = rng.standard_normal((n_t, N)) + 1j * rng.standard_normal((n_t, N))
        vals *= (0.2 + rng.random((n_t, N)))  # spread the moduli
        comb_n = make_equal_comb(N, int(rng.integers(0, M // N)), E, config)
        X = np.zeros((n_t, M), dtype=complex)
        X[:, comb_n.pilot_idx] = vals
        e_train = np.sum(np.abs(vals) ** 2, axis=1) + cp_energy(X, config)
        vals *= np.sqrt(E / e_train)[:, None]
        mse = closed_form_mse(replace(comb_n, divisors=vals), 1.0, config) / M
        worst_a = min(worst_a, float(np.min(mse / bound_a)))
    add(CheckResult(
        "qam_sparse_lower_bound", worst_a >= 1.0 - 1e-9, worst_a, 1.0,
        f"min mse/bound = {worst_a:.9f} (>= 1)"))

    # equality case: the equal comb reaches the bound exactly
    comb = make_equal_comb(L_h, 0, E, config)
    f = lambda v: closed_form_mse(replace(comb, divisors=v), 1.0, config) / M
    dev = abs(f(comb.divisors) / bound_a - 1.0)
    add(CheckResult(
        "qam_sparse_equality", dev < 1e-12, dev, 1e-12,
        f"equal comb deviation {dev:.2e} (< 1e-12)"))

    # stationarity and curvature of (a) at the equal comb, on the sphere
    x0 = comb.divisors
    g_num = np.zeros(L_h)
    eps = 1e-6
    for i in range(L_h):
        d = np.zeros(L_h); d[i] = eps
        g_num[i] = (f(x0 + d) - f(x0 - d)) / (2 * eps)
    tangent = g_num - (g_num @ x0.real) * x0.real / (E)
    curv_ok = True
    for _ in range(32):
        d = rng.standard_normal(L_h)
        d -= (d @ x0.real) * x0.real / E
        d /= np.linalg.norm(d)
        second = f(x0 + eps * d) + f(x0 - eps * d) - 2 * f(x0)
        if second < -1e-9 * f(x0) * eps ** 2:
            curv_ok = False
    grad_norm = float(np.linalg.norm(tangent) / np.linalg.norm(g_num))
    add(CheckResult(
        "qam_sparse_stationarity", grad_norm < 1e-6 and curv_ok, grad_norm, 1e-6,
        f"projected gradient {grad_norm:.2e} (< 1e-6), curvature >= 0: {curv_ok}"))

    # (b) full OQAM raw lower bound under the SFB-input energy constraint.
    # A real column a has the raw pseudo pilots c = a @ B (the divisors of
    # column), B the AFB noise covariance of the pulse.  sum 1/c_p^2 >=
    # M^2 / sum c_p^2, and ||c||^2 < (1+2*beta)^2 ||a||^2: the first-order
    # part of B, with -beta in its wrap-around corners, has the negacyclic
    # eigenvalues 1 + 2*beta*cos(pi*(2k+1)/M), all strictly below 1 + 2*beta.
    B = np.ascontiguousarray(afb_noise_cov(proto).real)  # BLAS needs it
    column = make_equal_comb(M, 0, E, config, proto=proto)
    f_b = lambda a: closed_form_mse(replace(column, divisors=a @ B), 1.0,
                                    config, mode="raw")
    bound_b = M ** 2 / (E * (1.0 + 2.0 * beta) ** 2)
    n_t = trials
    A_rand = np.abs(rng.standard_normal((n_t, M))) + 0.05
    A_rand *= np.sqrt(E / np.sum(A_rand ** 2, axis=1))[:, None]
    mse_b = f_b(A_rand)
    worst_b = float(np.min(mse_b / bound_b))
    a_eq = np.sqrt(E / M)
    a0 = np.full(M, a_eq)
    mse_beq = f_b(a0)
    gap_eq = mse_beq / bound_b - 1.0
    add(CheckResult(
        "oqam_full_lower_bound", worst_b >= 1.0 - 1e-9 and mse_beq <= np.min(mse_b),
        worst_b, 1.0,
        f"min mse/bound = {worst_b:.6f} (>= 1), equal column within "
        f"{gap_eq:.2%} of the asymptotic bound"))

    # gradient of (b) at the equal column: matches the exact edge terms;
    # d f_b / d a_q = -2 sum_p B[q, p] c_p^-3
    g_ana = -2.0 * (B @ (1.0 / (a0 @ B) ** 3))
    g_chk = np.zeros(4)
    for t, i in enumerate((0, 1, M // 2, M - 1)):
        d = np.zeros(M); d[i] = 1e-7
        g_chk[t] = (f_b(a0 + d) - f_b(a0 - d)) / 2e-7 - g_ana[i]
    tang = g_ana - (g_ana @ a0) * a0 / E
    # tangent component comes only from the two edge rows
    edge_scale = float(np.linalg.norm(tang) * a_eq ** 3)
    dev_g = float(np.max(np.abs(g_chk)) / np.max(np.abs(g_ana)))
    add(CheckResult(
        "oqam_full_stationarity", dev_g < 1e-4, dev_g, 1e-4,
        f"numeric gradient within 1e-4 of the analytic max: {dev_g < 1e-4}; "
        f"tangent residual {edge_scale:.3f}/a^3 is the edge effect"))

    # (c) floor ordering of the sparse-plus-data scenarios
    h = gen_veh_a(np.random.SeedSequence([seed, 7]), config)
    floors = {}
    for sc in ("oqam-1a", "oqam-1b", "oqam-2", "oqam-3"):
        layout = sparse_data_layout(sc, E, config, proto)
        floors[sc] = expected_error_floor(layout, h, config)
    # compared as products: a pulse with no intrinsic interference (K=1)
    # has an unguarded floor of 0, and each ratio then reads inf
    f1a, f1b = floors["oqam-1a"], floors["oqam-1b"]
    helped = max(floors["oqam-2"], floors["oqam-3"])
    guard_ok, help_ok = f1b <= 1e-6 * f1a, helped < 0.2 * f1a
    ratio_guard, ratio_help = (f1b / f1a, helped / f1a) if f1a else (np.inf,) * 2
    # help pilots are solved channel-blind, so a residual proportional to
    # the channel variation across the neighborhood remains; scenario 3
    # adds data positions to scenario 2, so its floor can only be larger
    ordered = floors["oqam-2"] <= floors["oqam-3"] * (1 + 1e-9)
    add(CheckResult(
        "scenario_floor_ordering", guard_ok and help_ok and ordered,
        ratio_guard, 1e-6,
        f"guarded/unguarded floor < 1e-6: {guard_ok}, "
        f"helped/unguarded = {ratio_help:.2e} (< 0.2), "
        f"floor(2) <= floor(3): {ordered}"))

    # (d) two-impulse family: uniqueness searched, membership verified
    n_t = trials
    theta = rng.uniform(0, 2 * np.pi, size=(n_t, M))
    X = np.sqrt(E / M) * np.exp(1j * theta)
    cps = cp_energy(X, config)
    min_cp = float(np.min(cps) / E)
    ks = rng.integers(0, M - nu - M // 2, size=64)
    gammas = rng.uniform(0.05, 0.95, size=64)
    thetas = rng.uniform(0, 2 * np.pi, size=64)
    fam_ok = True
    fam_worst = 0.0
    for k, g, th in zip(ks, gammas, thetas):
        p = make_full_equipower_qam(int(k), float(g), float(th), E, config)
        mods = np.abs(p.symbols) ** 2
        dev_mod = float(np.max(np.abs(mods - E / M)) / (E / M))
        mse_t = closed_form_mse(p, 1.0, config) / M
        dev_mse = abs(mse_t / bound_a - 1.0)
        cp_rel = (p.E_train - E) / E
        fam_worst = max(fam_worst, dev_mod, dev_mse, abs(cp_rel))
        if dev_mod > 1e-12 or dev_mse > 1e-12 or abs(cp_rel) > 1e-12:
            fam_ok = False
    add(CheckResult(
        "equipower_family_unique",
        fam_ok and min_cp > 1e-6,
        min_cp, 1e-6,
        f"family deviations <= {fam_worst:.2e} (<= 1e-12); random equal-modulus "
        f"prefix energy never below {min_cp:.2e}*E over {n_t} trials"))

    # PAPR: any proper two-impulse split beats the single-impulse column
    p_half = make_full_equipower_qam(0, np.sqrt(0.5), 0.0, E, config)
    p_flat = make_equal_comb(M, 0, E, config)
    pr_two = papr(modulate(p_half.symbols, config)[nu:])
    pr_one = papr(modulate(p_flat.symbols, config)[nu:])
    add(CheckResult(
        "equipower_papr", pr_two < pr_one - 1e-9, pr_two, pr_one,
        f"two-impulse PAPR {pr_two:.1f} < equal-value column PAPR {pr_one:.1f}"))

    # sparse OQAM energy identity: isolated pulses add exactly
    p_sp = make_equal_comb(L_h, 0, E, config, proto=proto)
    e_meas = antenna_energy(p_sp, config)
    dev_e = abs(e_meas - E) / E
    add(CheckResult(
        "oqam_sparse_energy_exact", dev_e < 1e-12, dev_e, 1e-12,
        f"synthesized/declared energy deviation {dev_e:.2e} (< 1e-12)"))

    return report
