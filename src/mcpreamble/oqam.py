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

Each prototype computes and caches its own inner products

    A(dm, dn) = sum_l g(l - dn*M/2) * g(l) * exp(j*2*pi*dm*(l - c)/M)

for literal index offsets dm (no wrapping: the offset between tones 0 and
M-1 is the literal M-1, and A(dm + M, dn) = -A(dm, dn) for even L_g, so
edge weights pick up a sign automatically).  Between arbitrary positions,
<g'_{p+dm, q+dn}, g'_{p,q}> = (-1)^(dm*q) * A(dm, dn).

Pilots sit in column 0.  Their first-order neighbourhood, the tones
p +/- 1 of column 0 and p - 1..p + 1 of column 1, is defined once, by
first_order_neighbours: positions and literal-offset weights as arrays
over the pilot tones.  The pseudo pilots here, the help pilots and their
energy in preambles and the floors in analysis all read it.

Both filter banks have direct O(M*L_g) definitions; the implementations
here use M-point FFTs after folding the pulse products modulo M, which is
algebraically identical (geometric resummation, no approximation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    inner products: weight() returns the literal-offset one, kernel() all
    of them for one column offset; row() gathers the weights of every tone
    of one column onto one analysis point, or onto each of an array of them.
    Pulses compare and hash by identity.  A designed pulse is symmetric,
    g == g[::-1]; an odd-length cut of one is not (see truncate_prototype).
    """

    g: np.ndarray
    M: int
    K: int | None
    _fold_fft: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if self.K is not None and len(g) != self.K * self.M:
            raise ValueError("frequency-sampling prototype must have length K*M")

    @property
    def L_g(self) -> int:
        return len(self.g)

    @property
    def center(self) -> float:
        return (self.L_g - 1) / 2.0

    @property
    def energy(self) -> float:
        return float(np.sum(self.g ** 2))

    def _shifted_fft(self, dn: int) -> np.ndarray:
        """W_hat[k] = sum_l g(l - dn*M/2) g(l) exp(+j*2*pi*k*l/M), k = 0..M-1."""
        if dn not in self._fold_fft:
            M, L_g = self.M, self.L_g
            shift = dn * (M // 2)
            l = np.arange(L_g)
            src = l - shift
            valid = (src >= 0) & (src < L_g)
            w = np.zeros(L_g)
            w[valid] = self.g[src[valid]] * self.g[l[valid]]
            folded = np.zeros(M, dtype=complex)
            np.add.at(folded, l % M, w)
            self._fold_fft[dn] = M * np.fft.ifft(folded)
        return self._fold_fft[dn]

    def weight(self, dm: int, dn: int, pilot_col: int = 0) -> complex:
        """<g'_{p+dm, q+dn}, g'_{p, q}> for literal offsets, q = pilot_col."""
        M = self.M
        what = self._shifted_fft(dn)
        a = np.exp(-2j * np.pi * dm * self.center / M) * what[dm % M]
        if (dm * pilot_col) % 2:
            a = -a
        return complex(a)

    def kernel(self, dn: int) -> np.ndarray:
        """A(dm, dn) at every literal offset dm = -(M-1)..M-1, in that order."""
        M = self.M
        dm = np.arange(1 - M, M)
        what = self._shifted_fft(dn)
        return np.exp(-2j * np.pi * dm * self.center / M) * what[dm % M]

    def row(self, p, dn: int, pilot_col: int = 0) -> np.ndarray:
        """Weights of tones 0..M-1 (column pilot_col + dn) onto (p, pilot_col), per tone p."""
        M = self.M
        dm = np.arange(M) - np.asarray(p)[..., None]
        w = self.kernel(dn)[dm + M - 1]
        if pilot_col % 2:
            w = np.where(dm % 2, -w, w)
        return w

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
        n_cols = 2 * (self.L_g // self.M) + 1
        worst = 0.0
        for dn in range(0, n_cols):
            for dm in (0, 1, 2):
                if dm == 0 and dn == 0:
                    continue
                val = (1j ** (-(dm + dn) % 4) * self.weight(dm, dn)).real
                worst = max(worst, abs(val))
        return worst


def design_prototype(M: int, K: int) -> PrototypeFilter:
    """Frequency-sampling prototype of length K*M, unit energy."""
    if K not in PROTO_COEFFS:
        raise ValueError(f"K must be one of {sorted(PROTO_COEFFS)}, got {K}")
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
    off its centre c, and the helped layouts of make_sparse_data reject it.
    """
    if not (0 < length <= proto.L_g):
        raise ValueError(f"length must lie in 1..{proto.L_g}, got {length}")
    start = (proto.L_g - length) // 2
    g = proto.g[start:start + length].copy()
    g /= np.sqrt(np.sum(g ** 2))
    return PrototypeFilter(g=g, M=proto.M, K=None)


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
    """
    M, n_cols = x.shape
    _check_pulse(proto, M)
    L_g, half = proto.L_g, M // 2
    s = np.zeros((n_cols - 1) * half + L_g, dtype=complex)
    derot = np.exp(-2j * np.pi * np.arange(M) * proto.center / M)
    offsets = np.arange(L_g)
    for n in range(n_cols):
        col = x[:, n]
        if not col.any():
            continue
        q = M * np.fft.ifft(col * derot)
        s[n * half:n * half + L_g] += proto.g * q[(n * half + offsets) % M]
    return s


def _fold_column(r: np.ndarray, proto: PrototypeFilter, n: int) -> np.ndarray:
    """Pulse-windowed receive samples of column n folded modulo M."""
    M, L_g, half = proto.M, proto.L_g, proto.M // 2
    start = n * half
    if start < 0 or start + L_g > len(r):
        raise ValueError(
            f"column {n} needs samples {start}..{start + L_g - 1}, "
            f"got {len(r)} samples"
        )
    w = r[start:start + L_g] * proto.g
    folded = np.zeros(M, dtype=complex)
    np.add.at(folded, (start + np.arange(L_g)) % M, w)
    return folded


def afb_column(r, proto: PrototypeFilter, n: int) -> np.ndarray:
    """All M analysis outputs of column n:  y_p = <r, g'_{p,n}>.

    Folding the windowed samples modulo M turns the projection into one
    M-point DFT plus the center-phase rerotation.
    """
    r = np.asarray(r, dtype=complex).reshape(-1)
    folded = _fold_column(r, proto, n)
    rerot = np.exp(2j * np.pi * np.arange(proto.M) * proto.center / proto.M)
    return np.fft.fft(folded) * rerot


def afb(r, proto: PrototypeFilter, points) -> np.ndarray:
    """Analysis filter bank outputs at the given (m, n) grid points.

    points is anything that converts to an (N, 2) integer array; each
    distinct column n takes one afb_column pass.
    """
    r = np.asarray(r, dtype=complex).reshape(-1)
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(pts), dtype=complex)
    for n in sorted(set(pts[:, 1].tolist())):
        at = pts[:, 1] == n
        out[at] = afb_column(r, proto, n)[pts[at, 0]]
    return out


# First-order offsets (dm, dn) around a pilot of column 0, the only pilot
# column; the help pilot's own offset (0, 1) comes last.
FIRST_ORDER_OFFSETS = ((-1, 0), (1, 0), (-1, 1), (1, 1), (0, 1))


def first_order_neighbours(tones, n_cols: int,
                           proto: PrototypeFilter) -> tuple:
    """First-order neighbourhood of the pilots (p, 0) at the given tones.

    Returns (m, n, w), each of shape (len(tones), J): the grid position
    (m, n) of every neighbour, its tone wrapped modulo M, and the weight
    proto.weight(m - p, n) with which it reaches the pilot, at the
    literal offset m - p (so the band edges pick up their sign).  The J
    columns follow FIRST_ORDER_OFFSETS for the columns n < n_cols of the
    grid; in a two-column grid the last one is the help pilot (p, 1).
    """
    M = proto.M
    offsets = [o for o in FIRST_ORDER_OFFSETS if o[1] < n_cols]
    dm, dn = np.array(offsets).T
    p = np.asarray(tones, dtype=np.int64)[:, None]
    wrap = (p + dm) // M  # -1 or 1 past the band edges, else 0
    # the literal offset m - p = dm - wrap*M takes three values per column
    table = np.array([[proto.weight(a - s * M, b) for a, b in offsets]
                      for s in (-1, 0, 1)])
    return (p + dm - wrap * M, np.broadcast_to(dn, wrap.shape),
            table[wrap + 1, np.arange(len(offsets))])


def pseudo_pilot(x: np.ndarray, proto: PrototypeFilter, tones) -> np.ndarray:
    """First-order equivalent pilots at the column-0 tones of grid x.

    Over a channel flat across the pulse neighborhood, the analysis
    output at (p, 0) is approximately H_p * c_p with

        c_p = x_{p,0} + sum_first_order x_{m,n} <g'_{m,n}, g'_{p,0}>,

    which this returns per tone p.  Dividing the measurement by c_p
    instead of x_{p,0} alone removes the dominant intrinsic interference.
    """
    _check_pulse(proto, x.shape[0])
    tones = np.asarray(tones, dtype=np.int64)
    m, n, w = first_order_neighbours(tones, x.shape[1], proto)
    c = x[tones, 0]
    for k in range(m.shape[1]):
        c = c + x[m[:, k], n[:, k]] * w[:, k]
    return c
