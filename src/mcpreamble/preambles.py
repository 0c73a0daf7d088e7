"""Training preamble constructors with exact energy accounting.

Every constructor targets a training energy budget E and records, next to
the symbols themselves, the energy the preamble actually costs at the
antenna over its observation window:

  * CP-OFDM, N >= L_h equal pilots on an equispaced set: the prefix
    energy is exactly zero (no time sample of the equispaced comb falls
    in the copied range), so the antenna energy equals the subcarrier
    energy.
  * OFDM/OQAM, N < M isolated pilots (frequency-sampling pulse): pulse
    cross products vanish exactly, antenna energy = sum of a_p^2.
  * OFDM/OQAM, the full (N = M) equal-phase column: antenna energy is
    a^2 * (M*(1+2*beta) - 4*beta); the -4*beta comes from the two
    wrap-around pairs whose weight is -beta instead of +beta.
  * sparse-plus-data scenarios: the data symbols are information, not
    training, but they leak energy into the training window (CP-OFDM) or
    require help pilots (OQAM), and that expected cost is part of the
    declared training energy.  A help pilot is a fixed linear function
    of the data in its pilot's first-order neighbourhood
    (oqam.first_order_neighbours), and its expected energy is read from
    the same weights.

A constructor builds an OQAM preamble exactly when it is given a pulse,
and a Preamble rejects a pulse built for another M.  Amplitudes are
solved so the declared training energy equals E exactly for the
deterministic constructions, and in expectation over the data for the
sparse-plus-data ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import SystemConfig
from .cpofdm import cp_energy
from .fourier import equispaced_set
from .oqam import (
    PrototypeFilter,
    _check_pulse,
    data_phase,
    first_order_neighbours,
    pseudo_pilot,
)

SCENARIOS = ("qam-sd", "oqam-1a", "oqam-1b", "oqam-2", "oqam-3")


@dataclass(eq=False)
class Preamble:
    """One constructed training preamble plus its accounting.

    A preamble is OQAM exactly when it carries a pulse: proto is the pulse,
    for the grid's M, that its divisors, window and help pilots were
    solved for, and symbols is then its complex (M, n_cols) grid x (see
    oqam); without a pulse, symbols is the (M,) CP-OFDM frequency vector.
    divisors holds what the per-pilot least-squares estimator divides by.
    window is the length R of the observation interval the training
    occupies, used by the power-ratio comparisons.  E_train is the
    declared training energy (exact for deterministic preambles, expected
    over data otherwise).  data_positions holds one (m, n) row per data
    symbol (none without data).  A two-column grid carries a help pilot at
    (p, 1) above every pilot p, and only the helped layouts have two
    columns.
    """

    pilot_idx: np.ndarray
    divisors: np.ndarray
    symbols: np.ndarray
    E: float
    E_train: float
    window: int
    data_positions: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    proto: PrototypeFilter | None = None

    def __post_init__(self) -> None:
        if (np.ndim(self.symbols) == 2) != (self.proto is not None):
            raise ValueError("an OQAM grid needs its pulse, and only a grid "
                             "takes one")
        if self.proto is not None:
            _check_pulse(self.proto, len(self.symbols))

    @property
    def n_pilots(self) -> int:
        return len(self.pilot_idx)

    def scaled(self, amp: float) -> "Preamble":
        """Same layout with every amplitude multiplied by amp."""
        return replace(
            self,
            divisors=self.divisors * amp,
            symbols=self.symbols * amp,
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


def make_equal_comb(
    N: int,
    i_0: int,
    E: float,
    config: SystemConfig,
    proto: PrototypeFilter | None = None,
) -> Preamble:
    """Equal real pilots on an equispaced set of N >= L_h tones.

    N = M is the full preamble.  Without a pulse this is a CP-OFDM
    symbol; with one it is an OQAM column whose divisors are the pseudo
    pilots, which equal the amplitude wherever the pilots are isolated.
    The amplitude is solved so the energy leaving the antenna equals E.
    """
    if N < config.L_h:
        raise ValueError(f"need N >= L_h={config.L_h} pilots, got {N}")
    M = config.M
    idx = equispaced_set(M, N, i_0)
    if proto is None:
        amp = np.sqrt(E / N)
        x = np.zeros(M, dtype=complex)
        x[idx] = amp
        return Preamble(
            pilot_idx=idx, divisors=x[idx].copy(), symbols=x,
            E=E, E_train=N * amp ** 2 + cp_energy(x, config),
            window=M + config.nu,
        )
    # energy per a^2 (module docstring): isolated pilots add their
    # energies, the full column adds its neighbour products too
    if N < M:
        ant_factor = N
    else:
        ant_factor = M * (1.0 + 2.0 * proto.beta) - 4.0 * proto.beta
    amp = np.sqrt(E / ant_factor)
    x = np.zeros((M, 1), dtype=complex)
    x[idx, 0] = amp
    div = pseudo_pilot(x, proto, idx)
    return Preamble(
        pilot_idx=idx, divisors=div, symbols=x,
        E=E, E_train=amp ** 2 * ant_factor, window=proto.L_g, proto=proto,
    )


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

    The scenario names the system: qam-sd rejects a pulse and every
    OQAM layout needs one.  The helped layouts (2 and 3) reject an
    odd-length cut, which is not symmetric (see truncate_prototype).
    The data symbols are redrawn from data_seed on every call; pilots sit
    on the comb from tone 0 in every draw and carry E/N each, data tones
    the same constellation energy.
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
            data_positions=_positions(np.flatnonzero(mask), 0), proto=proto,
        )

    if proto is None:
        raise ValueError(f"scenario {scenario} is OQAM and needs its pulse")

    n_cols = 1 if scenario in ("oqam-1a", "oqam-1b") else 2
    x = np.zeros((M, n_cols), dtype=complex)
    x[idx, 0] = amp

    guard = np.zeros(M, dtype=bool)
    if scenario in ("oqam-1b", "oqam-2"):
        guard[(idx + 1) % M] = True
        guard[(idx - 1) % M] = True
    pilot_mask = np.zeros(M, dtype=bool)
    pilot_mask[idx] = True

    col0_data = np.where(~pilot_mask & ~guard)[0]
    x[col0_data, 0] = (_real_halves(rng, len(col0_data), e_x)
                       * np.exp(1j * data_phase(col0_data, 0)))
    data_positions = _positions(col0_data, 0)

    e_train = N * e_x
    if n_cols == 2:
        col1_data = np.where(~pilot_mask)[0]
        x[col1_data, 1] = (_real_halves(rng, len(col1_data), e_x)
                           * np.exp(1j * data_phase(col1_data, 1)))
        data_positions = np.concatenate(
            [data_positions, _positions(col1_data, 1)])
        # the help pilot (P, 1) of every pilot P takes the real amplitude
        # that cancels P's first-order neighbours, whose symbols are data
        # or 0; x[P, 1] is still 0, and w[:, -1] is its own weight rho
        m, n, w = first_order_neighbours(idx, n_cols, proto)
        nbr = x[m, n]
        phase = np.exp(1j * data_phase(idx, 1))
        a_h = -np.sum(nbr * w, axis=1) / (w[:, -1] * phase)
        off = np.abs(a_h.imag) > 1e-9 * np.maximum(1.0, np.abs(a_h.real))
        if off.any():
            raise ValueError(
                f"interference at pilot {idx[off][0]} is not on the helper "
                f"axis (residual {a_h.imag[off][0]:.3e})")
        x[idx, 1] = a_h.real * phase
        # a data symbol's real amplitude carries E_x/2, so in expectation
        # a help pilot costs E_x/2 * sum |w/rho|^2 over its data neighbours
        e_train += e_x / 2.0 * np.sum((nbr != 0) * np.abs(w / w[:, -1:]) ** 2)

    window = proto.L_g + (M // 2 if n_cols == 2 else 0)
    return Preamble(
        pilot_idx=idx, divisors=np.full(N, amp, dtype=complex), symbols=x,
        E=E, E_train=e_train, window=window,
        data_positions=data_positions, proto=proto,
    )
