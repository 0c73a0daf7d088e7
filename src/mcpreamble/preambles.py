"""Training preamble constructors with exact energy accounting.

Every constructor targets a training energy budget E and records, next to
the symbols themselves, the energy the preamble actually costs at the
antenna over its observation window:

  * CP-OFDM, N >= L_h equal pilots on an equispaced set: the prefix
    energy is exactly zero (no time sample of the equispaced comb falls
    in the copied range), so the antenna energy equals the subcarrier
    energy.
  * OFDM/OQAM, isolated pilots (spacing >= 2, frequency-sampling pulse):
    pulse cross products vanish exactly, antenna energy = sum of a_p^2.
  * OFDM/OQAM, full equal-phase column: antenna energy is
    a^2 * (M*(1+2*beta) - 4*beta); the -4*beta comes from the two
    wrap-around pairs whose weight is -beta instead of +beta.
  * sparse-plus-data scenarios: the data symbols are information, not
    training, but they leak energy into the training window (CP-OFDM) or
    require side pilots (OQAM), and that expected cost is part of the
    declared training energy.

Amplitudes are solved so the declared training energy equals E exactly
for the deterministic constructions, and in expectation over the data
for the sparse-plus-data ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import SystemConfig
from .cpofdm import cp_energy
from .fourier import equispaced_set
from .oqam import (
    OqamGrid,
    PrototypeFilter,
    data_phase,
    design_prototype,
    help_pilot,
    pseudo_pilot,
)

SCENARIOS = ("qam-sd", "oqam-1a", "oqam-1b", "oqam-2", "oqam-3")


@dataclass(eq=False)
class Preamble:
    """One constructed training preamble plus its accounting.

    A preamble is OQAM exactly when it carries a pulse: proto is the pulse
    its divisors, window and help pilots were solved for, and symbols is
    then its OqamGrid; without a pulse, symbols is the CP-OFDM frequency
    vector.  divisors holds what the per-pilot least-squares estimator
    divides by.  window is the length R of the observation interval the
    training occupies, used by the power-ratio comparisons.  E_train is
    the declared training energy (exact for deterministic preambles,
    expected over data otherwise).  data_positions holds one (m, n) row
    per data symbol (none without data).  A two-column grid carries a help
    pilot at (p, 1) above every pilot p, and only the helped layouts have
    two columns.
    """

    pilot_idx: np.ndarray
    divisors: np.ndarray
    symbols: np.ndarray | OqamGrid
    E: float
    E_train: float
    window: int
    data_positions: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    proto: PrototypeFilter | None = None

    def __post_init__(self) -> None:
        if isinstance(self.symbols, OqamGrid) != (self.proto is not None):
            raise ValueError("an OQAM grid needs its pulse, and only a grid "
                             "takes one")

    @property
    def n_pilots(self) -> int:
        return len(self.pilot_idx)

    def scaled(self, amp: float) -> "Preamble":
        """Same layout with every amplitude multiplied by amp."""
        s = self.symbols
        return replace(
            self,
            divisors=self.divisors * amp,
            symbols=s * amp if self.proto is None
            else OqamGrid(a=s.a * amp, phi=s.phi.copy()),
            E=self.E * amp ** 2,
            E_train=self.E_train * amp ** 2,
        )


def _positions(tones: np.ndarray, n: int) -> np.ndarray:
    """(m, n) rows, one per tone m of column n, as a (J, 2) int64 array."""
    return np.stack([tones, np.full_like(tones, n)], axis=1).astype(np.int64)


def save_preamble(p: Preamble, path) -> None:
    """Plain-text form of a CP-OFDM preamble: `index,re,im` per nonzero tone."""
    if p.proto is not None:
        raise ValueError("save_preamble writes CP-OFDM frequency vectors only")
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(p.symbols):
            if v != 0:
                fh.write(f"{i},{v.real:.17g},{v.imag:.17g}\n")


def load_preamble_values(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (indices, complex values) written by save_preamble."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    idx = raw[:, 0].astype(np.int64)
    return idx, raw[:, 1] + 1j * raw[:, 2]


def make_sparse_equal(
    system: str,
    N: int,
    i_0: int,
    E: float,
    config: SystemConfig,
    proto: PrototypeFilter | None = None,
) -> Preamble:
    """Equal real pilots on an equispaced set of N >= L_h tones.

    proto (OQAM only) defaults to the frequency-sampling design for the
    config's M and K; a pulse for another M is rejected.
    """
    if N < config.L_h:
        raise ValueError(f"need N >= L_h={config.L_h} pilots, got {N}")
    idx = equispaced_set(config.M, N, i_0)
    amp = np.sqrt(E / N)
    if system == "cpofdm":
        x = np.zeros(config.M, dtype=complex)
        x[idx] = amp
        e_cp = cp_energy(x, config)
        return Preamble(
            pilot_idx=idx, divisors=x[idx].copy(), symbols=x,
            E=E, E_train=N * amp ** 2 + e_cp, window=config.M + config.nu,
        )
    if system == "oqam":
        if config.M // N < 2:
            raise ValueError("OQAM pilots need spacing >= 2 subcarriers")
        if proto is None:
            proto = design_prototype(config.M, config.K)
        if proto.M != config.M:
            raise ValueError(f"prototype M={proto.M} != config M={config.M}")
        grid = OqamGrid.zeros(config.M, 1)
        grid.a[idx, 0] = amp
        # isolated pilots: all pulse cross products vanish exactly
        return Preamble(
            pilot_idx=idx, divisors=np.full(N, amp, dtype=complex), symbols=grid,
            E=E, E_train=amp * amp * N, window=proto.L_g, proto=proto,
        )
    raise ValueError(f"unknown system {system!r}")


def make_full_equal(
    system: str,
    E: float,
    config: SystemConfig,
    proto: PrototypeFilter | None = None,
) -> Preamble:
    """Equal real symbols on all M tones of one multicarrier symbol.

    The amplitude is solved so the energy leaving the antenna equals E.
    OQAM divisors are the pseudo pilots, which add the intrinsic
    interference of the neighboring tones to each symbol.
    """
    M = config.M
    idx = np.arange(M, dtype=np.int64)
    if system == "cpofdm":
        amp = np.sqrt(E / M)
        x = np.full(M, amp, dtype=complex)
        e_cp = cp_energy(x, config)  # exactly zero for the equal comb
        return Preamble(
            pilot_idx=idx, divisors=x.copy(), symbols=x,
            E=E, E_train=M * amp ** 2 + e_cp, window=M + config.nu,
        )
    if system == "oqam":
        if proto is None:
            proto = design_prototype(config.M, config.K)
        if proto.M != config.M:
            raise ValueError(f"prototype M={proto.M} != config M={config.M}")
        beta = proto.beta
        ant_factor = M * (1.0 + 2.0 * beta) - 4.0 * beta
        amp = np.sqrt(E / ant_factor)
        grid = OqamGrid.zeros(M, 1)
        grid.a[:, 0] = amp
        div = np.array([pseudo_pilot(grid, proto, (m, 0)) for m in range(M)])
        return Preamble(
            pilot_idx=idx, divisors=div, symbols=grid,
            E=E, E_train=amp ** 2 * ant_factor, window=proto.L_g, proto=proto,
        )
    raise ValueError(f"unknown system {system!r}")


def make_full_equipower_qam(
    k: int,
    m: int,
    gamma: float,
    theta: float,
    E: float,
    config: SystemConfig,
) -> Preamble:
    """Two-impulse CP-OFDM preamble: equal power on every subcarrier.

    x_r = a_k exp(-2j*pi*r*k/M) + a_m exp(-2j*pi*r*m/M) with |k - m| =
    M/2 and the two coefficients in phase quadrature.  The time-domain
    symbol is two impulses at samples k and m, so the prefix energy is
    exactly zero whenever both fall before M - nu, and the peak-to-mean
    ratio of the useful part is M * max(gamma^2, 1 - gamma^2).
    """
    M = config.M
    if not (0 <= k < M and 0 <= m < M):
        raise ValueError("impulse positions must lie in 0..M-1")
    if (k - m) % M != M // 2:
        raise ValueError("impulse positions must differ by M/2")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    a_k = gamma * np.sqrt(E / M) * np.exp(1j * theta)
    a_m = np.sqrt(1.0 - gamma ** 2) * np.sqrt(E / M) * np.exp(1j * (theta + np.pi / 2))
    r = np.arange(M)
    x = a_k * np.exp(-2j * np.pi * r * k / M) + a_m * np.exp(-2j * np.pi * r * m / M)
    e_cp = cp_energy(x, config)
    return Preamble(
        pilot_idx=r.astype(np.int64), divisors=x.copy(), symbols=x,
        E=E, E_train=float(np.sum(np.abs(x) ** 2)) + e_cp,
        window=M + config.nu,
    )


def _qpsk(rng: np.random.Generator, n: int, energy: float) -> np.ndarray:
    """Gray-mapped QPSK, |symbol|^2 = energy."""
    bits = rng.integers(0, 2, size=(n, 2))
    return np.sqrt(energy / 2.0) * ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1]))


def _real_halves(rng: np.random.Generator, n: int, energy: float) -> np.ndarray:
    """Random signs carrying half a QPSK symbol's energy each."""
    return np.sqrt(energy / 2.0) * (1 - 2 * rng.integers(0, 2, size=n))


def expected_helper_ratio(scenario: str, proto: PrototypeFilter) -> float:
    """zeta = E[helper^2] / E_x for the helper-pilot scenarios.

    The helper cancels the first-order interference v at its pilot, so
    E[helper^2] = E[|v|^2] / rho^2 with v summing the surviving data
    neighbors (each carrying E_x/2).
    """
    if scenario == "oqam-2":
        return proto.wtilde ** 2 / proto.rho ** 2
    if scenario == "oqam-3":
        return (proto.beta ** 2 + proto.wtilde ** 2) / proto.rho ** 2
    return 0.0


def make_sparse_data(
    scenario: str,
    E: float,
    data_seed,
    config: SystemConfig,
    proto: PrototypeFilter | None = None,
) -> Preamble:
    """Sparse pilots sharing the training symbol with payload data.

    Scenarios:
      qam-sd   CP-OFDM, L_h pilots, QPSK data on every other tone.
      oqam-1a  OQAM, one column: pilots plus data on every other tone.
      oqam-1b  as 1a with the pilot-adjacent tones left empty.
      oqam-2   two columns: zeros around the pilots, data elsewhere,
               and a help pilot above each pilot canceling the
               first-order interference.
      oqam-3   as 2 with data also on the pilot-adjacent tones of the
               pilot column (larger help pilots).

    The scenario names the system.  The data symbols are redrawn from
    data_seed on every call; pilots sit on the comb from tone 0 in every
    draw and carry E/N each, data tones the same constellation energy.
    proto (OQAM only) is as in make_sparse_equal.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    rng = np.random.default_rng(data_seed)
    N = config.L_h
    idx = equispaced_set(config.M, N, 0)
    e_x = E / N
    amp = np.sqrt(e_x)
    M = config.M

    if scenario == "qam-sd":
        x = np.zeros(M, dtype=complex)
        x[idx] = amp
        mask = np.ones(M, dtype=bool)
        mask[idx] = False
        x[mask] = _qpsk(rng, int(mask.sum()), e_x)
        # expected prefix cost of the data comb: E_x * nu / M per tone
        e_train = N * e_x + (M - N) * e_x * config.nu / M
        return Preamble(
            pilot_idx=idx, divisors=np.full(N, amp, dtype=complex), symbols=x,
            E=E, E_train=e_train, window=M + config.nu,
            data_positions=_positions(np.flatnonzero(mask), 0),
        )

    if proto is None:
        proto = design_prototype(config.M, config.K)
    if proto.M != config.M:
        raise ValueError(f"prototype M={proto.M} != config M={config.M}")
    if config.M // N < 2:
        raise ValueError("OQAM pilots need spacing >= 2 subcarriers")

    n_cols = 1 if scenario in ("oqam-1a", "oqam-1b") else 2
    grid = OqamGrid.zeros(M, n_cols)
    grid.a[idx, 0] = amp

    guard = np.zeros(M, dtype=bool)
    if scenario in ("oqam-1b", "oqam-2"):
        guard[(idx + 1) % M] = True
        guard[(idx - 1) % M] = True
    pilot_mask = np.zeros(M, dtype=bool)
    pilot_mask[idx] = True

    col0_data = np.where(~pilot_mask & ~guard)[0]
    grid.a[col0_data, 0] = _real_halves(rng, len(col0_data), e_x)
    grid.phi[col0_data, 0] = data_phase(col0_data, 0)
    data_positions = _positions(col0_data, 0)

    if n_cols == 2:
        col1_data = np.where(~pilot_mask)[0]
        grid.a[col1_data, 1] = _real_halves(rng, len(col1_data), e_x)
        grid.phi[col1_data, 1] = data_phase(col1_data, 1)
        data_positions = np.concatenate(
            [data_positions, _positions(col1_data, 1)])
        grid.phi[idx, 1] = data_phase(idx, 1)
        for p in idx:
            grid.a[p, 1] = help_pilot(grid, proto, (int(p), 0), (int(p), 1))

    zeta = expected_helper_ratio(scenario, proto)
    window = proto.L_g + (M // 2 if n_cols == 2 else 0)
    return Preamble(
        pilot_idx=idx, divisors=np.full(N, amp, dtype=complex), symbols=grid,
        E=E, E_train=N * e_x * (1.0 + zeta), window=window,
        data_positions=data_positions, proto=proto,
    )
