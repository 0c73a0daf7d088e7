"""OFDM/OQAM prototype pulses, with their inner products, and filter banks.

Subcarrier m at half-symbol position n carries the pulse

    g'_{m,n}(l) = g(l - n*M/2) * exp(j*(2*pi/M)*m*(l - c)),   c = (L_g-1)/2,

where g is a real unit-energy prototype of length L_g, symmetric about c
unless it is an odd-length cut (see truncate_prototype).  The
grid symbol at (m, n) is x_{m,n} = a_{m,n} * exp(j*phi_{m,n}) with real
amplitude a and a phase that is either 0 on every point (equal-phase
training) or follows the staggered rule phi = (pi/2)*(m+n) mod pi.  A
grid is stored as the complex (M, n_cols) array x itself; column n
occupies time offset n*M/2.

Prototypes come from the frequency-sampling construction: L_g = K*M taps
obtained from 2*K-1 frequency samples,

    g(l) = G_0 + 2 * sum_k G_k * cos(2*pi*k*(l - c) / L_g),

normalized to unit energy.  These pulses have spectral support narrower
than two subcarrier spacings, which makes every inner product between
pulses two or more subcarriers apart on the same column vanish exactly;
cross-column products decay with |dm| but are nonzero for |dm| <= 1.

Every weight in the package is read from one read-only table per pulse
and column offset dn, PrototypeFilter.kernel(dn), of the inner products

    A(dm, dn) = sum_l g(l - dn*M/2) * g(l) * exp(j*2*pi*dm*(l - c)/M)

at the literal index offsets dm = -(M-1)..M-1 (no wrapping: the offset
between tones 0 and M-1 is the literal M-1, and A(dm - M, dn) = -A(dm, dn)
for even L_g, so edge weights pick up a sign automatically).  Between
arbitrary positions, <g'_{p+dm, q+dn}, g'_{p,q}> = (-1)^(dm*q) * A(dm, dn).
The filter banks take their centre phases from the same phase ramp.

Pilots sit in column 0, which afb reads.  Their first-order neighbourhood,
the tones p +/- 1 of column 0 and p - 1..p + 1 of column 1, is defined
once, by first_order_neighbours: positions and literal-offset weights as
arrays over the pilot tones.  The pseudo pilots here and the help map of
a helped layout (see preambles) are solved from it.  Every function here
that takes tones takes integers in 0..M-1 only (else ValueError).

Both filter banks have direct O(M*L_g) definitions; the implementations
here use M-point FFTs after folding the pulse products modulo M, which is
algebraically identical (geometric resummation, no approximation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import _check_int

# Frequency-sampling prototype coefficients G_0..G_{K-1} (G_0 = 1; the
# remaining 2*K-1 frequency samples follow by symmetry and the power
# complementarity G_k^2 + G_{K-k}^2 = 1).
PROTO_COEFFS = {
    1: [1.0],
    2: [1.0, np.sqrt(2.0) / 2.0],
    3: [1.0, 0.91143783, 0.41143783],
    4: [1.0, 0.97195983, np.sqrt(2.0) / 2.0, 0.23514695],
    5: [1.0, 0.99184131, 0.86541624, 0.50105361, 0.12747868],
}


@dataclass(frozen=True, eq=False)
class PrototypeFilter:
    """Real unit-energy pulse tied to a subcarrier count M.

    K is the overlapping factor for frequency-sampling designs and None
    for pulses of other lengths (e.g. truncated ones).  The pulse owns its
    inner products: kernel(dn) is the one table of them for column offset
    dn, weight() reads one entry of it, and row() gathers the weights of
    every tone of one column onto one analysis point, or onto each of an
    array of them.
    Pulses compare and hash by identity.  A designed pulse is symmetric,
    g == g[::-1]; an odd-length cut of one is not (see truncate_prototype).
    """

    g: np.ndarray
    M: int
    K: int | None
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=float)  # its own copy: the tables read it
        g.flags.writeable = False
        object.__setattr__(self, "g", g)
        if self.K is not None and len(g) != self.K * self.M:
            raise ValueError("frequency-sampling prototype must have length K*M")

    @property
    def L_g(self) -> int:
        return len(self.g)

    @property
    def energy(self) -> float:
        return float(np.sum(self.g ** 2))

    @cached_property
    def _ramp(self) -> np.ndarray:
        """exp(-j*2*pi*dm*c/M), dm = -(M-1)..M-1, read-only: the centre phase
        of A and of both filter banks.  Its angle is reduced modulo one turn
        in integers, as unreduced it is off by up to 2e-12 rad at M = 1024."""
        M, dm = self.M, np.arange(1 - self.M, self.M)
        ramp = np.exp(-1j * np.pi * (dm * (self.L_g - 1) % (2 * M)) / M)
        ramp.flags.writeable = False
        return ramp

    def kernel(self, dn: int) -> np.ndarray:
        """A(dm, dn) at every literal offset dm = -(M-1)..M-1, in that order.

        Built once per pulse and integer dn (else ValueError), read-only;
        the sum over l folds modulo M into one M-point FFT.
        """
        _check_int("dn", dn)
        if dn not in self._kernels:
            M, L_g = self.M, self.L_g
            l = np.arange(L_g)
            src = l - dn * (M // 2)
            valid = (src >= 0) & (src < L_g)
            w = np.zeros(L_g)
            w[valid] = self.g[src[valid]] * self.g[l[valid]]
            what = M * np.fft.ifft(_fold(w, 0, M))  # bin k: dm = k mod M
            a = self._ramp * what[np.arange(1 - M, M) % M]
            a.flags.writeable = False
            self._kernels[dn] = a
        return self._kernels[dn]

    def weight(self, dm: int, dn: int) -> complex:
        """<g'_{p+dm, dn}, g'_{p, 0}> at integers dn and literal |dm| < M."""
        _check_int("dm", dm)
        if not -self.M < dm < self.M:
            raise ValueError(f"need |dm| < M={self.M}, got dm={dm}")
        return complex(self.kernel(dn)[dm + self.M - 1])

    def row(self, p, dn: int) -> np.ndarray:
        """Weights of tones 0..M-1 (column dn) onto (p, 0), per tone p in
        0..M-1 (else ValueError)."""
        M = self.M
        p = _check_tones(p, M)
        return self.kernel(dn)[np.arange(M) - p[..., None] + M - 1]

    # Scalar shorthands for two first-order weights: their real parts,
    # which are the whole weight for a symmetric pulse.  An odd-length cut
    # gives weight(1, 0) a small imaginary part, which beta drops.
    @property
    def beta(self) -> float:
        return float(self.weight(1, 0).real)

    @property
    def rho(self) -> float:
        return float(self.weight(0, 1).real)

    def pr_residual(self) -> float:
        """Worst real-orthogonality violation over the pulse overlap range.

        Perfect reconstruction in the real field requires
        Re[j^-(dm+dn) A(dm, dn)] = delta(dm, dn); the first-order terms
        satisfy it exactly by symmetry, so the residual is dominated by
        second-order frequency offsets.
        """
        M, n_cols = self.M, 2 * (self.L_g // self.M) + 1
        a = np.stack([self.kernel(dn)[M - 1:M + 2] for dn in range(n_cols)])
        dm_dn = np.arange(3) + np.arange(n_cols)[:, None]  # dm = 0, 1, 2
        v = (1j ** (-dm_dn % 4) * a).real
        v[0, 0] = 0.0  # A(0, 0) = 1 is the pulse's own energy
        return float(np.max(np.abs(v)))


def _check_overlap(K) -> None:
    """K must be an integer key of PROTO_COEFFS (else ValueError)."""
    _check_int("K", K)
    if K not in PROTO_COEFFS:
        raise ValueError(f"K must be one of {sorted(PROTO_COEFFS)}, got {K}")


def design_prototype(M: int, K: int) -> PrototypeFilter:
    """Frequency-sampling prototype of length K*M, unit energy; M is an
    integer >= 1 and K passes _check_overlap (else ValueError)."""
    _check_int("M", M, 1)
    _check_overlap(K)
    L_g = K * M
    c = (L_g - 1) / 2.0
    l = np.arange(L_g)
    coeffs = PROTO_COEFFS[K]
    g = np.full(L_g, coeffs[0], dtype=float)
    for k in range(1, K):
        g += 2.0 * coeffs[k] * np.cos(2.0 * np.pi * k * (l - c) / L_g)
    g /= np.sqrt(np.sum(g ** 2))
    return PrototypeFilter(g=g, M=M, K=K)


def truncate_prototype(proto: PrototypeFilter, length: int) -> PrototypeFilter:
    """Central `length` samples of a prototype, renormalized to unit energy.

    An even cut of a designed pulse stays symmetric.  An odd cut cannot be
    centred: its g[1:] is the palindrome, so the pulse sits half a sample
    off its centre c, and the helped layouts of sparse_data_layout reject it.
    A length that is not an integer in 1..L_g raises ValueError.
    """
    _check_int("length", length)
    if not (0 < length <= proto.L_g):
        raise ValueError(f"length must lie in 1..{proto.L_g}, the length of "
                         f"the K={proto.K} pulse, got {length}")
    start = (proto.L_g - length) // 2
    g = proto.g[start:start + length].copy()
    g /= np.sqrt(np.sum(g ** 2))
    return PrototypeFilter(g=g, M=proto.M, K=None)


def _check_tones(tones, M: int) -> np.ndarray:
    """tones as an array, rejecting anything but integers in 0..M-1."""
    t = np.asarray(tones)
    if not (t.dtype.kind in "iu" and np.all((t >= 0) & (t < M))):
        raise ValueError(f"tones must be integers in 0..{M - 1}, "
                         f"got {t.tolist()!r}")
    return t


def _check_pulse(proto: PrototypeFilter, M: int) -> None:
    """Reject a pulse built for another subcarrier count than the grid's M."""
    if proto.M != M:
        raise ValueError(f"pulse for M={proto.M} on a grid of M={M}")


def data_phase(m, n) -> np.ndarray:
    """Staggered phase rule phi = (pi/2)*(m+n) mod pi, values in {0, pi/2}."""
    return (np.pi / 2.0) * (np.asarray(m + n) % 2)


def sfb(x: np.ndarray, proto: PrototypeFilter) -> np.ndarray:
    """Synthesis filter bank output for the whole (M, n_cols) grid x.

    Per column n the M tones share the pulse window, so the sum over m is
    an M-point inverse DFT of the phase-derotated symbols, tiled modulo M
    under the pulse.  The tone ramp exp(j*2*pi*m*(l - c)/M) is referenced
    to absolute sample time, so the ring is read at absolute residues:

        s(n*M/2 + l) += g(l) * (M * ifft(x_n * e^{-j2pi m c/M}))[(n*M/2 + l) mod M]

    x may be a stack (..., M, n_cols) of grids; the result is (..., L),
    each row exactly the row's own output.
    """
    x = np.asarray(x)
    M, n_cols = x.shape[-2:]
    _check_pulse(proto, M)
    L_g, half = proto.L_g, M // 2
    s = np.zeros(x.shape[:-2] + ((n_cols - 1) * half + L_g,), dtype=complex)
    derot = proto._ramp[M - 1:]  # exp(-j*2*pi*m*c/M), m = 0..M-1
    for n in range(n_cols):
        col = x[..., n]
        # the ring from residue n*M/2 on, laid under the pulse one M-block
        # at a time (a stack needs no L_g-long gather)
        q = np.roll(M * np.fft.ifft(col * derot, axis=-1), -n * half, axis=-1)
        for b in range(0, L_g, M):
            k = min(M, L_g - b)
            s[..., n * half + b:n * half + b + k] += (proto.g[b:b + k]
                                                      * q[..., :k])
    return s


def _fold(w: np.ndarray, start: int, M: int) -> np.ndarray:
    """Sum w[..., l] into bin (start + l) mod M, along the last axis.

    The samples are zero-padded to a whole number of M-blocks (a cut
    pulse's L_g need not be a multiple of M), summed block by block and
    rotated by start mod M.
    """
    pad = -w.shape[-1] % M
    if pad:
        w = np.concatenate([w, np.zeros(w.shape[:-1] + (pad,), w.dtype)],
                           axis=-1)
    folded = w.reshape(w.shape[:-1] + (-1, M)).sum(axis=-2)
    return np.roll(folded, start % M, axis=-1) if start % M else folded


def _fold_column(r: np.ndarray, proto: PrototypeFilter, n: int) -> np.ndarray:
    """Pulse-windowed receive samples of column n folded modulo M.

    r holds the samples along its last axis; leading axes are kept.
    """
    start = n * (proto.M // 2)
    if start < 0 or start + proto.L_g > r.shape[-1]:
        raise ValueError(
            f"column {n} needs samples {start}..{start + proto.L_g - 1}, "
            f"got {r.shape[-1]} samples"
        )
    return _fold(r[..., start:start + proto.L_g] * proto.g, start, proto.M)


def afb_column(r, proto: PrototypeFilter, n: int) -> np.ndarray:
    """All M analysis outputs of column n:  y_p = <r, g'_{p,n}>.

    Folding the windowed samples modulo M turns the projection into one
    M-point DFT plus the center-phase rerotation.  r is (..., L): the
    samples lie along the last axis and the result is (..., M), each row
    exactly the row's own result.  n is an integer (else ValueError).
    """
    _check_int("n", n)
    r = np.asarray(r, dtype=complex)
    folded = _fold_column(r, proto, n)
    # exp(+j*2*pi*k*c/M), k = 0..M-1
    return np.fft.fft(folded, axis=-1) * proto._ramp[proto.M - 1::-1]


def afb(r, proto: PrototypeFilter, tones) -> np.ndarray:
    """Analysis outputs of column 0, the pilot column, at the given tones.

    tones are integers in 0..M-1, in any order, repeats allowed; any other
    tone raises ValueError.  r is (..., L) and the result (..., len(tones)):
    a stack of windows gives a stack of outputs.  afb_column reads any column.
    """
    return afb_column(r, proto, 0).take(_check_tones(tones, proto.M), -1)


# First-order offsets (dm, dn) around a pilot of column 0, the only pilot
# column; the help pilot's own offset (0, 1) comes last.
FIRST_ORDER_OFFSETS = ((-1, 0), (1, 0), (-1, 1), (1, 1), (0, 1))


def first_order_neighbours(tones, n_cols: int,
                           proto: PrototypeFilter) -> tuple:
    """First-order neighbourhood of the pilots (p, 0) at the given tones.

    Returns (m, n, w), each of shape (len(tones), J): the grid position
    (m, n) of every neighbour, its tone wrapped modulo M, and the weight
    A(m - p, n) = proto.kernel(n)[m - p + M - 1] with which it reaches
    the pilot, at the literal offset m - p (so the band edges pick up
    their sign).  The J columns follow FIRST_ORDER_OFFSETS for the columns
    n < n_cols of the grid; in a two-column grid the last one is the help
    pilot (p, 1).  tones are integers in 0..M-1 (else ValueError).
    """
    M = proto.M
    dm, dn = np.array([o for o in FIRST_ORDER_OFFSETS if o[1] < n_cols]).T
    p = _check_tones(tones, M).astype(np.int64)[:, None]
    m = (p + dm) % M
    table = np.stack([proto.kernel(k) for k in dn])  # row k: A(., dn[k])
    return (m, np.broadcast_to(dn, m.shape),
            table[np.arange(len(dn)), m - p + M - 1])


def pseudo_pilot(x: np.ndarray, proto: PrototypeFilter, tones) -> np.ndarray:
    """First-order equivalent pilots at the column-0 tones of grid x.

    Over a channel flat across the pulse neighborhood, the analysis
    output at (p, 0) is approximately H_p * c_p with

        c_p = x_{p,0} + sum_first_order x_{m,n} <g'_{m,n}, g'_{p,0}>,

    which this returns per tone p.  Dividing the measurement by c_p
    instead of x_{p,0} alone removes the dominant intrinsic interference.
    """
    _check_pulse(proto, x.shape[0])
    tones = _check_tones(tones, proto.M)
    m, n, w = first_order_neighbours(tones, x.shape[1], proto)
    c = x[tones, 0]
    for k in range(m.shape[1]):
        c = c + x[m[:, k], n[:, k]] * w[:, k]
    return c
