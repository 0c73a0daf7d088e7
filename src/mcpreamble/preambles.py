"""Training preamble constructors with exact energy accounting.

Every constructor targets a training energy budget E, a positive and
finite real number as SystemConfig's (else ValueError), and records, next
to the symbols themselves, the energy the preamble actually costs at the
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
    (oqam.first_order_neighbours), solved once into the layout's help
    map help_c, from which its expected energy is read.  Everything but
    the data values is a layout, built once (sparse_data_layout); a
    block of draws of its data is then one stack (draw_sparse_data).

A constructor builds an OQAM preamble exactly when it is given a pulse,
and a Preamble rejects a pulse built for another M.  Amplitudes are
solved so the declared training energy equals E exactly for the
deterministic constructions, and in expectation over the data for the
sparse-plus-data ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import SystemConfig, _check_energy, _check_int, _check_real
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

    A sparse-plus-data layout (sparse_data_layout) also carries the map
    from its data to its symbols, which draw_sparse_data applies; its own
    symbols hold only its pilots.  Data symbol j, at data_positions[j],
    has energy E / n_pilots (the pilots'): phase[j] is its e^{j*phi} for
    OQAM, one real amplitude per symbol, and phase is None for QPSK, two
    bits per symbol.  Only a two-column grid has help_j and help_c: the
    help pilot (p_i, 1) is sum_k help_c[i, k] * s[help_j[i, k]], with s
    the data's real amplitudes, so help_c[i, k] is its value per unit of
    real amplitude of data symbol help_j[i, k] (0 where that neighbour
    carries no data).
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
    phase: np.ndarray | None = None
    help_j: np.ndarray | None = None
    help_c: np.ndarray | None = None

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
        """Same layout with every amplitude multiplied by amp, a positive
        and finite real number (else ValueError)."""
        _check_energy("amp", amp)
        return replace(
            self,
            divisors=self.divisors * amp,
            symbols=self.symbols * amp,
            E=self.E * amp ** 2,
            E_train=self.E_train * amp ** 2,
        )


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
    _check_energy("E", E)
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
    gamma: float,
    theta: float,
    E: float,
    config: SystemConfig,
) -> Preamble:
    """Two-impulse CP-OFDM preamble: equal power on every subcarrier.

    x_r = a_k exp(-2j*pi*r*k/M) + a_m exp(-2j*pi*r*m/M) with the second
    impulse half a band away, m = (k + M/2) mod M, and the two
    coefficients in phase quadrature.  The time-domain symbol is two
    impulses at samples k and m, so the prefix energy is exactly zero
    whenever both fall before M - nu, and the peak-to-mean ratio of the
    useful part is M * max(gamma^2, 1 - gamma^2).  k must be an integer
    in 0..M-1, gamma a real number in [0, 1] and theta a finite one.
    """
    M = config.M
    _check_energy("E", E)
    _check_int("k", k)
    _check_real("gamma", gamma)
    _check_real("theta", theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not 0 <= k < M:
        raise ValueError(f"k must lie in 0..M-1, got {k}")
    m = (k + M // 2) % M
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


def sparse_data_layout(
    scenario: str,
    E: float,
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
    OQAM layout needs one.  Pilots sit on the comb from tone 0 and carry
    E/N each, data tones the same constellation energy.  The result is
    the layout as a Preamble: its symbols hold the pilots alone, and its
    pilots, divisors, E_train, window, data positions and pulse are those
    of every draw (draw_sparse_data); phase, help_j and help_c map a
    draw's data to its symbols (see Preamble).  A help pilot must be real
    for every draw of the data, so the helped layouts (2 and 3) reject a
    pulse that turns a data neighbour's interference off the helper's
    axis, such as an odd-length cut (see truncate_prototype).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    _check_energy("E", E)
    M, N = config.M, config.L_h
    idx = equispaced_set(M, N, 0)
    e_x = E / N
    amp = np.sqrt(e_x)
    divisors = np.full(N, amp, dtype=complex)
    n_cols = 2 if scenario in ("oqam-2", "oqam-3") else 1
    x = np.zeros((M, n_cols), dtype=complex)
    x[idx, 0] = amp
    # data everywhere but on the pilots, their help pilots and the guards
    data = np.ones((M, n_cols), dtype=bool)
    data[idx] = False
    if scenario in ("oqam-1b", "oqam-2"):
        data[(idx + 1) % M, 0] = False
        data[(idx - 1) % M, 0] = False
    positions = np.argwhere(data.T)[:, ::-1]  # column by column
    e_train = N * e_x

    if scenario == "qam-sd":
        if proto is not None:
            raise ValueError("scenario qam-sd is CP-OFDM and takes no pulse")
        # expected prefix cost of the data comb: E_x * nu / M per tone
        e_train += (M - N) * e_x * config.nu / M
        return Preamble(pilot_idx=idx, divisors=divisors, symbols=x[:, 0],
                        E=E, E_train=e_train, window=M + config.nu,
                        data_positions=positions)

    if proto is None:
        raise ValueError(f"scenario {scenario} is OQAM and needs its pulse")
    _check_pulse(proto, M)
    m, n = positions.T
    phase = np.exp(1j * data_phase(m, n))
    helpers = {}
    if n_cols == 2:
        # the help pilot (P, 1) of every pilot P takes the real amplitude
        # that cancels P's first-order neighbours; w[:, -1] is its own
        # weight rho, and its own position holds no data
        nm, nn, w = first_order_neighbours(idx, n_cols, proto)
        jk = np.full((M, n_cols), -1)  # data index of each grid position
        jk[m, n] = np.arange(len(m))
        jk = jk[nm, nn]
        has = jk >= 0
        helper = np.exp(1j * data_phase(idx, 1))
        # per unit real amplitude of each data neighbour
        coef = -phase[jk] * w / (w[:, -1] * helper)[:, None]
        off = has & (np.abs(coef.imag)
                     > 1e-9 * np.maximum(1.0, np.abs(coef.real)))
        if off.any():
            i, k = np.argwhere(off)[0]
            raise ValueError(
                f"interference at pilot {idx[i]} is not on the helper "
                f"axis (residual {coef[i, k].imag:.3e})")
        help_c = np.where(has, coef.real, 0)[:, :-1] * helper[:, None]
        helpers = dict(help_j=np.where(has, jk, 0)[:, :-1], help_c=help_c)
        # a data symbol's real amplitude carries E_x/2, so in expectation
        # a help pilot costs E_x/2 * sum |help_c|^2 over its data neighbours
        e_train += e_x / 2.0 * np.sum(np.abs(help_c) ** 2)

    window = proto.L_g + (M // 2 if n_cols == 2 else 0)
    return Preamble(pilot_idx=idx, divisors=divisors, symbols=x, E=E,
                    E_train=e_train, window=window, data_positions=positions,
                    proto=proto, phase=phase, **helpers)


def draw_sparse_data(p: Preamble, rng, T: int) -> np.ndarray:
    """Symbols of T successive draws of the data of layout p, as a stack.

    p is a sparse_data_layout, or a draw of one, whose data and help
    pilots every draw overwrites.  rng is anything
    numpy.random.default_rng takes; a Generator continues its stream.
    Row t of one integers(0, 2, size=(T, J)) call, or (T, J, 2) for QPSK,
    holds draw t's bits for its J data symbols; int64 draws continue
    across calls, so a draw depends on neither its stack nor the draws
    after it.  The result is (T, M) for CP-OFDM and (T, M, n_cols) for
    OQAM: the pilot grid, the data symbols at their positions and, in a
    helped grid, the help pilots, each a real-linear map of the data's
    real amplitudes (help_c).
    """
    m, n = p.data_positions.T
    shape = (T, len(m)) if p.proto is not None else (T, len(m), 2)
    bits = np.random.default_rng(rng).integers(0, 2, size=shape)
    half = np.sqrt(p.E / p.n_pilots / 2.0)
    x = np.repeat(p.symbols[None], T, axis=0)
    if p.proto is None:
        x[:, m] = half * ((1 - 2 * bits[..., 0]) + 1j * (1 - 2 * bits[..., 1]))
        return x
    s = half * (1 - 2 * bits)
    x[:, m, n] = s * p.phase
    if p.help_j is not None:
        t = s[:, p.help_j] * p.help_c
        # one fixed order of the four terms, whatever the memory layout
        # of the stack, so that a draw does not depend on its stack
        x[:, p.pilot_idx, 1] = (t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])
    return x


def make_sparse_data(
    scenario: str,
    E: float,
    data_seed,
    config: SystemConfig,
    proto: PrototypeFilter | None = None,
) -> Preamble:
    """One draw of a sparse-plus-data layout (sparse_data_layout).

    The data symbols are drawn from data_seed, anything
    numpy.random.default_rng takes (a Generator continues its stream);
    everything else, the data map included, is the layout's.
    """
    p = sparse_data_layout(scenario, E, config, proto)
    return replace(p, symbols=draw_sparse_data(p, data_seed, 1)[0])
