"""Confinement checks: crossing amplitudes, corner recurrences, and compact
localized states.

A flux-carrying glued tree becomes impossible to cross when the flux is a
nonzero multiple of 2*pi over the branching product: every same-length path
from one root to the other picks up phases that sum to zero.  When a lattice
region is fenced by uncrossable trees, the Krylov space of any seed is finite
and spanned by the seed's projections onto the eigenspaces: compact states are
read from the columns of the dense spectral projectors, or beyond the dense
limit from a sparse 80-bit Krylov expansion.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gauge, graphs, spectral
from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_KRYLOV_CAP = 512
# A cluster projecting the seed to at most this norm adds no state; in the
# sparse expansion, image components this small (relative to the image) count
# as inside the span, which closes when a whole level adds nothing.  True
# novel weights in caged systems are products of a few partial-cancellation
# factors (well above 1e-4 here), while roundoff stays below 1e-8 even after
# dozens of 80-bit expansion levels; the reported invariance defect and
# per-state residuals expose any system where this separation fails.
KRYLOV_NOVELTY_TOL = 1e-6
CLS_RESIDUAL_TOL = 1e-8
SUPPORT_EPS = 1e-8
# Dense eigenvalues split by at most this gap merge into one cluster.
EIGEN_CLUSTER_TOL = 1e-6


def _endpoints(m: gauge.Ccam, m_max: int, source: int | None,
               target: int | None) -> tuple[int, int]:
    """The source and target of a crossing run, by default the marked roots;
    refuses a negative power count and an unmarked or out-of-range vertex."""
    if m_max < 0:
        raise InvalidParameterError(f"power count must be non-negative, got {m_max}")
    src = m.first_vertex if source is None else source
    tgt = m.last_vertex if target is None else target
    if src is None or tgt is None:
        raise InvalidParameterError("source and target roots are not marked")
    if not (0 <= src < m.dimension and 0 <= tgt < m.dimension):
        raise InvalidParameterError(f"source {src} or target {tgt} out of range")
    return src, tgt


def crossing_amplitudes(m: gauge.Ccam, m_max: int, *, source: int | None = None,
                        target: int | None = None) -> np.ndarray:
    """<target| H^k |source> for k = 1..m_max via repeated sparse products.

    Defaults to the marked first/last roots; matrices read from external
    files may need the vertices given explicitly.
    """
    src, tgt = _endpoints(m, m_max, source, target)
    op = gauge.PhasedOperator(m, extended=True)  # cancellations grow with ||H||^k
    vec = np.zeros(m.dimension, dtype=np.clongdouble)
    vec[src] = 1.0
    out = np.zeros(m_max, dtype=complex)
    for k in range(m_max):
        vec = op.apply(vec)
        out[k] = complex(vec[tgt])
    return out


# ---------------------------------------------------------------------------
# Exact caging at rational flux
#
# The verdict is the flat-value rule (``is_caged``).  As an independent check,
# with every phase a multiple of 2*pi/N the amplitude <t|H^k|s> is an integer
# polynomial in the primitive N-th root of unity, whose zeros are certified in
# exact integer arithmetic: float powers lose about ||H||^k * eps, which swamps
# any fixed zero threshold on deep trees, so float amplitudes are for display.
# ---------------------------------------------------------------------------

# Largest int64 state (|V| * N values) of a polynomial run: (2,)*9 needs 25 MB.
# A run holds about three such states: the doubled-row buffer (two), the next
# power (one) and one chunk of gathered rows (at most a quarter).
POLY_STATE_LIMIT_BYTES = 64 * 2**20
# A chunk of gathered rows may take this many bytes even when that is more
# than a quarter state, so a small run gathers each power in one chunk.
POLY_CHUNK_MIN_BYTES = 2**18


def is_caged(x: Sequence[int], z: int) -> bool:
    """Whether the glued tree of ``x`` is uncrossable at flux 2*pi*z/M.

    The level-wise rule: caged iff some level i has z*P_{i-1}/M non-integral
    while z*P_i/M is an integer, where P_i = x_1...x_i, P_0 = 1 and M = P_d
    (there the level's phase pairing, a factor of the root-to-root corner,
    vanishes).  This reduces to z != 0 (mod M): z*P_d/M = z is an integer, so
    if z/M is not, the first level where z*P_i/M is an integer qualifies; if
    z/M is, every z*P_i/M is an integer and no level qualifies.
    """
    xs = graphs.check_growth_sequence(x)
    return z % math.prod(xs) != 0


def phase_exponents(m: gauge.Ccam, denominator: int, tol: float = 1e-8) -> np.ndarray:
    """Each edge phase as an integer multiple of 2*pi/denominator."""
    if denominator < 1:
        raise InvalidParameterError("denominator must be positive")
    ts = m.phases
    out = np.round(ts * denominator / (2.0 * math.pi)) % denominator
    # Distance of each residual angle from the nearest whole turn, as
    # |gauge.reduce_angle(...)| computes it; NaN never passes.
    r = np.abs(np.fmod(ts - 2.0 * math.pi * out / denominator, 2.0 * math.pi))
    bad = np.flatnonzero(~(np.minimum(r, 2.0 * math.pi - r) <= tol))
    if bad.size:
        raise InvalidParameterError(
            f"phase {float(ts[bad[0]])} is not a multiple of 2*pi/{denominator}")
    return out.astype(np.int64)


def crossing_amplitude_polynomials(m: gauge.Ccam, m_max: int, denominator: int, *,
                                   source: int | None = None,
                                   target: int | None = None) -> np.ndarray:
    """Integer coefficient arrays A_k with <t|H^k|s> = A_k(zeta_N).

    The sparse product is run over Z[w]/(w^N - 1): multiplying by an edge
    phase rotates the coefficient array.  Rescaling the flux by an integer z
    turns A_k(zeta_N) into A_k(zeta_N^z), so one run covers every multiple of
    the base flux at once.  Refuses when the state would exceed
    ``POLY_STATE_LIMIT_BYTES``.

    Each row's state is stored twice over, side by side, so the row rotated
    by c is the contiguous length-N window at column N - c.  A table lists,
    for every vertex, the source row and window of each incoming edge, padded
    with an all-zero row; one power is then a gather and a sum per chunk of
    rows, in the same exact int64 additions as an edge-by-edge update.

    Power k computes only the rows of its light cone: the rows an exact
    k-step walk reaches from the source that lie within m_max - k steps of
    the target (``distances(target)``).  Every other row is exactly zero or
    never reaches the target in the powers left.  A cone row w has
    dist(w, t) <= m_max - k, so each neighbour of w lies within
    m_max - (k - 1) steps: it is in the previous cone or exactly zero, and
    each computed row is the same sum as in the full run.  For the same
    reason a boolean frontier pushed along the edges from the previous cone,
    then cut to the distance budget, is the next cone.  The chunks write the
    cone rows, packed, into one state; they are then copied into both halves
    of the doubled buffer, and the rows the previous power wrote but this one
    does not are zeroed.  The working set is still at most three states: the
    doubled buffer, the packed state and one chunk of gathered rows.  The
    overflow guard sees the computed rows only, so a run is refused only when
    a row that can still reach the target passes 2^60.
    """
    src, tgt = _endpoints(m, m_max, source, target)
    dim = m.dimension
    n = int(denominator)
    if dim * n * 8 > POLY_STATE_LIMIT_BYTES:
        raise ResourceLimitError(f"polynomial state {dim} x {n} int64 exceeds "
                                 f"{POLY_STATE_LIMIT_BYTES >> 20} MiB")
    exps = phase_exponents(m, n)
    # Edge (u, v, c) adds state[v] rotated by c into row u, and state[u]
    # rotated by -c into row v.
    heads = np.concatenate([m.rows, m.cols])
    tails = np.concatenate([m.cols, m.rows])
    windows = np.concatenate([(n - exps) % n, exps])
    order = np.argsort(heads, kind="stable")
    heads, tails, windows = heads[order], tails[order], windows[order]
    degree = np.bincount(heads, minlength=dim)
    slot = np.arange(len(heads)) - np.repeat(np.cumsum(degree) - degree, degree)
    width = max(int(degree.max(initial=0)), 1)
    table = np.full((dim, width), dim, dtype=np.intp)  # row dim stays zero
    table[heads, slot] = tails
    offset = np.zeros((dim, width), dtype=np.intp)
    offset[heads, slot] = windows

    # Row w can still reach the target at powers k <= budget[w].
    to_target = m.graph.distances(tgt)
    budget = np.where(to_target < dim, m_max - to_target, -1)

    buf = np.zeros((dim + 1, 2 * n), dtype=np.int64)
    buf[src, [0, n]] = 1
    win = np.lib.stride_tricks.sliding_window_view(buf, n, axis=1)
    halves = buf.reshape(dim + 1, 2, n)
    state = np.empty((dim, n), dtype=np.int64)
    step = max(1, dim // (4 * width), POLY_CHUNK_MIN_BYTES // (width * n * 8))
    out = np.zeros((m_max, n), dtype=np.int64)
    in_cone = np.zeros(dim, dtype=bool)
    in_cone[src] = True
    live = np.array([src])
    for k in range(1, m_max + 1):
        reached = np.zeros(dim, dtype=bool)
        reached[tails[in_cone[heads]]] = True
        in_cone = reached & (budget >= k)
        stale, live = live, np.flatnonzero(in_cone)
        if not live.size:
            break  # no later power reaches the target either
        for lo in range(0, live.size, step):
            rows = live[lo:lo + step]
            win[table[rows], offset[rows]].sum(axis=1, out=state[lo:lo + rows.size])
        cone = state[:live.size]
        if int(max(cone.max(), -cone.min())) > 2**60:
            raise InvalidParameterError(
                "coefficients overflow 64-bit integers; reduce the power count")
        halves[stale[~in_cone[stale]]] = 0
        halves[live] = cone[:, None, :]
        if in_cone[tgt]:
            out[k - 1] = cone[np.searchsorted(live, tgt)]
    return out


def evaluate_cyclotomic(coeffs: np.ndarray, z: int, denominator: int) -> np.ndarray:
    """Float value of integer polynomials at the z-th power of the root."""
    n = int(denominator)
    root = np.exp(2j * math.pi * (np.arange(n) * z % n) / n)
    return np.asarray(coeffs, dtype=float) @ root


def _prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))


@lru_cache(maxsize=64)
def _cyclotomic_reduction(primes: tuple[int, ...]) -> np.ndarray:
    """(r, phi(r)) matrix whose row e holds w^e mod Phi_r, r = prod(primes).

    Phi_r = prod over e | r of (1 - w^e)^mu(r/e) for r > 1, expanded as a
    power series cut at its degree: multiplying by 1 - w^e is a shifted
    difference, dividing by it a running sum along every residue mod e.  Every
    step is a ring operation, so a wrapped intermediate still leaves the
    exact (small) coefficients of Phi_r.
    """
    r, deg = math.prod(primes), math.prod(p - 1 for p in primes)
    divisors = [(1, (-1) ** len(primes))]  # (e, mu(r/e))
    for p in primes:
        divisors += [(e * p, -mu) for (e, mu) in divisors]
    poly = np.zeros(deg + 1, dtype=np.int64)
    poly[0] = 1
    for (e, mu) in divisors:
        if e > deg:
            continue  # 1 - w^e is 1 below degree e
        if mu > 0:
            poly[e:] = poly[e:] - poly[:-e]
        else:
            for j in range(e):
                poly[j::e] = np.cumsum(poly[j::e])
    out = np.zeros((r, deg), dtype=np.int64)
    out[:deg] = np.eye(deg, dtype=np.int64)
    for e in range(deg, r):  # w^e = w * w^(e-1), with w^deg = w^deg - Phi_r
        out[e, 1:] = out[e - 1, :-1]
        out[e] -= out[e - 1, -1] * poly[:-1]
    out.flags.writeable = False  # shared through the cache
    return out


def _zero_at_order(mat: np.ndarray, d: int) -> np.ndarray:
    """Per row of ``mat``: is the polynomial zero at a primitive d-th root?"""
    primes = _prime_factors(d)
    red = _cyclotomic_reduction(primes)
    # Folding and reducing keep every value within a row's l1 norm times max|red|.
    if np.abs(mat).sum(axis=1, dtype=float).max(initial=0.0) * np.abs(red).max() >= 2.0**62:
        raise InvalidParameterError("cyclotomic reduction would overflow 64-bit integers")
    folded = mat.reshape(len(mat), -1, d).sum(axis=1)  # w^d = 1 at a d-th root
    # With r = prod(primes) and s = d/r, Phi_d(w) = Phi_r(w^s) and
    # B(w) = sum_j w^j B_j(w^s), B_j = folded[s*a + j]: Phi_d | B iff Phi_r | each B_j.
    parts = folded.reshape(len(mat), len(red), -1).transpose(0, 2, 1)
    return ~(parts @ red).any(axis=(1, 2))


def cyclotomic_zero_table(polys: np.ndarray, denominator: int,
                          zs: Sequence[int] | None = None) -> np.ndarray:
    """Exact zero test of A_k(zeta_N^z) for every polynomial row and power.

    Returns a boolean array of shape (len(polys), len(zs)); entry (k, i) is
    True iff row k evaluates to exactly zero at the zs[i]-th power of the
    primitive root.  zeta_N^z is a primitive d-th root, d = N/gcd(N, z), with
    minimal polynomial Phi_d: the test is divisibility by Phi_d in integers.
    """
    n = int(denominator)
    mat = np.atleast_2d(np.asarray(polys, dtype=np.int64))
    orders = [n // math.gcd(n, z) for z in (range(1, n + 1) if zs is None else zs)]
    zero = {d: _zero_at_order(mat, d) for d in set(orders)}
    result = np.empty((len(mat), len(orders)), dtype=bool)
    for i, d in enumerate(orders):
        result[:, i] = zero[d]
    return result


# ---------------------------------------------------------------------------
# Corner recurrences for the resolvent of the canonical gauge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceState:
    """Normalized corner data of the depth-i tree resolvent at a fixed shift.

    delta is the normalized characteristic polynomial, phi the matching
    diagonal corner of the adjugate, chi the off-corner; they satisfy
    delta_i * delta_{i-1} = phi_i**2 - chi_i**2 level by level.
    """

    level: int
    delta: complex
    phi: complex
    chi: complex


def resolvent_recurrence(x: Sequence[int], flux: float, lam: complex) -> list[RecurrenceState]:
    """Corner recurrence states for levels 1..d at a non-real shift ``lam``.

    phi and chi follow linear recurrences (chi picks up one phase-pairing
    factor per level, so it dies at the level whose pairing vanishes); delta
    closes the triple through the quadratic identity.  Level 0 is seeded by
    the 1x1 zero matrix: delta = -lam, phi = chi = 1.
    """
    if lam.imag == 0:
        raise InvalidParameterError("shift must have a nonzero imaginary part")
    xs = graphs.check_growth_sequence(x)
    delta, phi_c, chi = -lam, 1.0 + 0.0j, 1.0 + 0.0j
    out: list[RecurrenceState] = []
    for i, xi in enumerate(xs, start=1):
        # In the normalized variables the per-level sign of the corner
        # cofactor cancels against the normalizer; the dense adjugate oracle
        # confirms a plain product (and the sign is squared away in delta).
        pairing = gauge.phase_pairing(gauge.canonical_phase_vector(xs, i, flux))
        phi_next = -lam * delta - xi * phi_c
        chi_next = pairing * chi
        delta_next = (phi_next * phi_next - chi_next * chi_next) / delta
        delta, phi_c, chi = delta_next, phi_next, chi_next
        out.append(RecurrenceState(level=i, delta=delta, phi=phi_c, chi=chi))
    return out


def recurrence_normalizer(x: Sequence[int], flux: float, lam: complex, i: int) -> complex:
    """The factor nu_i = prod_{j=0..i-1} C(Y_j; lam)^-(x_{j+1}-1) relating the
    normalized recurrence values to raw determinants and adjugate corners."""
    xs = graphs.check_growth_sequence(x)
    nu = 1.0 + 0.0j
    for j in range(i):
        if j == 0:
            cj = -lam  # the 1x1 zero matrix
        else:
            yj = gauge.dense_matrix(gauge.canonical_ccam(xs[:j], flux, _allow_trailing_one=True))
            cj = complex(np.linalg.det(yj - lam * np.eye(len(yj))))
        nu /= cj ** (xs[j] - 1)
    return nu


# ---------------------------------------------------------------------------
# Exchange (order-reversal) symmetry
# ---------------------------------------------------------------------------


def exchange_symmetry_check(m: gauge.Ccam, tol: float = 1e-10) -> tuple[bool, float]:
    """Whether the matrix commutes with the anti-diagonal permutation J.

    J H J maps edge (u, v, w) to (n-1-v, n-1-u, conj w).  The edge arrays and
    their mirror image are laid out over the union of their (row, col) slots,
    an absent edge reading 0, and the norm is the largest |w - w'| over that
    union, so an edge on one side only contributes |w|.  This is the maximum
    entry of |H - J H J|, bit for bit, without forming either matrix.
    """
    n = m.dimension
    w = np.exp(1j * m.phases)
    keys = m.rows * n + m.cols
    mirror = (n - 1 - m.cols) * n + (n - 1 - m.rows)
    slots = np.union1d(keys, mirror)
    h = np.zeros(len(slots), dtype=complex)
    h[np.searchsorted(slots, keys)] = w
    jhj = np.zeros(len(slots), dtype=complex)
    jhj[np.searchsorted(slots, mirror)] = w.conj()
    norm = float(np.max(np.abs(h - jhj))) if slots.size else 0.0
    return norm < tol, norm


# ---------------------------------------------------------------------------
# Compact localized states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClsState:
    """A normalized finite-support eigenvector."""

    vector: np.ndarray
    eigenvalue: float
    support_radius: int
    residual: float

    @property
    def amplitudes(self) -> dict[int, complex]:
        """The amplitudes above ``SUPPORT_EPS``, by vertex."""
        support = np.flatnonzero(np.abs(self.vector) > SUPPORT_EPS)
        return dict(zip(support.tolist(), self.vector[support].tolist()))


@dataclass(frozen=True)
class KrylovResult:
    seed: int
    dimension: int
    closed: bool
    states: tuple[ClsState, ...]
    defect: float = 0.0  # ||(I - QQ*) H Q|| of the closed subspace

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(s.eigenvalue for s in self.states)

    @property
    def support_radius(self) -> int:
        return max((s.support_radius for s in self.states), default=0)


def krylov_cls(m: gauge.Ccam, seed: int, *, cap: int = DEFAULT_KRYLOV_CAP,
               novelty_tol: float = KRYLOV_NOVELTY_TOL) -> KrylovResult:
    """Diagonalize the matrix on the Krylov space of one site.

    That space is spanned by the projections P_c e_s of the seed onto the
    eigenspaces, so within the dense limit the states are the normalised
    columns V_c V_c^H e_s of the clusters (lambda_c, V_c) of
    ``dense_spectral_data`` with ||V_c[s, :]|| > ``novelty_tol``.  That
    decomposition is taken once per matrix and kept only while the matrix
    lives, so every seed of one matrix (and ``verify_all_cls`` on it) shares
    one ``eigh``.  Beyond the dense limit the space is grown breadth-first
    in 80-bit arithmetic, orthogonalizing each level's images twice (plain
    Gram-Schmidt loses orthogonality inside degenerate flat bands) and
    keeping the novel components above ``novelty_tol``; a level that adds
    nothing closes an invariant span.  Residuals are measured on the
    returned vectors, the invariance defect on the projector columns or the
    80-bit basis.  A cap hit is reported (``closed=False``, dimension
    ``cap``, no states), not raised: it is expected away from flat fluxes.

    At a dispersive flux the 80-bit route keeps roundoff copies of
    eigenvalues, so its dimension and cap hits are upper bounds there: on
    the (2,3,2) chain of four cells at flux 0.3 it counts up to 85 states
    against 63 distinct eigenvalues.
    """
    if not (0 <= seed < m.dimension):
        raise InvalidParameterError(f"seed {seed} out of range")
    if cap < 1:
        raise InvalidParameterError(f"cap must be at least 1, got {cap}")
    if m.dimension <= gauge.dense_limit():
        hits = [(value, basis) for value, basis in _shared_spectral_data(m)
                if np.linalg.norm(basis[seed]) > novelty_tol]
        if len(hits) > cap:
            return KrylovResult(seed=seed, dimension=cap, closed=False, states=())
        block = np.column_stack([basis @ basis[seed].conj() for _, basis in hits])
        return _closed_result(m, seed, np.array([value for value, _ in hits]),
                              block / np.linalg.norm(block, axis=0))

    op = gauge.PhasedOperator(m, extended=True)
    basis: list[np.ndarray] = []

    def orthogonalized(w: np.ndarray) -> np.ndarray:
        for b in basis:
            w = w - b * np.vdot(b, w)
        for b in basis:
            w = w - b * np.vdot(b, w)
        return w

    seed_vec = np.zeros(m.dimension, dtype=np.clongdouble)
    seed_vec[seed] = 1.0
    frontier = [seed_vec]
    while True:
        fresh: list[np.ndarray] = []
        for w in frontier:
            pre = float(np.linalg.norm(w))
            if pre < 1e-13:
                continue
            r = orthogonalized(w)
            norm = float(np.linalg.norm(r))
            if norm <= novelty_tol * max(1.0, pre):
                continue
            if len(basis) >= cap:
                return KrylovResult(seed=seed, dimension=cap, closed=False, states=())
            b = r / norm
            basis.append(b)
            fresh.append(b)
        if not fresh:
            break
        frontier = [op.apply(b) for b in fresh]

    q = np.array(basis).T  # dimension x k
    image = np.column_stack([op.apply(c) for c in q.T])
    small = q.conj().T @ image
    defect = float(np.max(np.sqrt(np.sum(np.abs(image - q @ small) ** 2, axis=0))))
    small = 0.5 * (small + small.conj().T)
    vals, vecs = np.linalg.eigh(small.astype(complex))  # small and well conditioned
    block = (q @ vecs.astype(np.clongdouble)).astype(complex)
    return _closed_result(m, seed, vals, block, defect)


def dense_spectral_data(m: gauge.Ccam):
    """Eigen-decomposition of the dense matrix grouped into degeneracy
    clusters, (mean eigenvalue, orthonormal eigenvector columns) each."""
    evals, evecs = np.linalg.eigh(gauge.dense_matrix(m))
    cuts = np.flatnonzero(np.diff(evals, prepend=-np.inf, append=np.inf) > EIGEN_CLUSTER_TOL)
    return [(float(np.mean(evals[a:b])), evecs[:, a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


# ``dense_spectral_data`` of each matrix, held only while the matrix lives.
_SPECTRAL_DATA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared_spectral_data(m: gauge.Ccam):
    """``dense_spectral_data(m)``, computed once per matrix; a ``Ccam`` is
    immutable, so the decomposition stays valid while ``m`` lives."""
    data = _SPECTRAL_DATA.get(m)
    if data is None:
        data = _SPECTRAL_DATA[m] = dense_spectral_data(m)
    return data


def _closed_result(m: gauge.Ccam, seed: int, vals: np.ndarray, block: np.ndarray,
                   defect: float | None = None) -> KrylovResult:
    """States from the orthonormal columns of ``block``, with residuals, radii
    and (unless given) the invariance defect measured on those columns."""
    plain = gauge.PhasedOperator(m)
    image = np.column_stack([plain.apply(c) for c in block.T])
    resid = np.linalg.norm(image - block * vals, axis=0)
    if defect is None:
        defect = float(np.max(np.linalg.norm(image - block @ (block.conj().T @ image), axis=0)))
    dist = m.graph.distances(seed)
    states = tuple(
        ClsState(vector=v, eigenvalue=float(val), residual=float(r),
                 support_radius=int(dist[np.abs(v) > SUPPORT_EPS].max(initial=0)))
        for v, val, r in zip(block.T, vals, resid))
    return KrylovResult(seed=seed, dimension=len(vals), closed=True, states=states, defect=defect)


def local_caging_check(m: gauge.Ccam, vertex: int, tol: float = 1e-10) -> bool:
    """Whether H^2 acts on the site as multiplication by its degree.

    True exactly when every two-step return interferes away; the hallmark of
    a caged hub.  Trivially true for isolated vertices.
    """
    if not (0 <= vertex < m.dimension):
        raise InvalidParameterError(f"vertex {vertex} out of range")
    vec = np.zeros(m.dimension, dtype=complex)
    vec[vertex] = 1.0
    op = gauge.PhasedOperator(m)
    image = op.apply(op.apply(vec))
    image[vertex] -= m.graph.degrees()[vertex]
    return float(np.linalg.norm(image)) < tol


# ---------------------------------------------------------------------------
# Whole-matrix verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedRecord:
    seed: int
    krylov_dim: int
    closed: bool
    eigenvalues: tuple[float, ...]
    support_radius: int
    residual: float


@dataclass(frozen=True)
class CagingReport:
    dimension: int
    span_rank: int
    covered: bool
    radius_bound: int
    radius_ok: bool
    cap_exceeded: tuple[int, ...]
    records: tuple[SeedRecord, ...]

    def to_json(self) -> str:
        payload = {
            "states": [
                {
                    "seed": r.seed,
                    "krylov_dim": r.krylov_dim,
                    "eigenvalues": list(r.eigenvalues),
                    "support_radius": r.support_radius,
                    "residual": r.residual,
                }
                for r in self.records
            ],
            "summary": {
                "span_rank": self.span_rank,
                "dimension": self.dimension,
                "covered": self.covered,
                "radius_bound": self.radius_bound,
                "radius_ok": self.radius_ok,
                "cap_exceeded": list(self.cap_exceeded),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def verify_all_cls(m: gauge.Ccam, radius_bound: int, *, seeds: Sequence[int] | None = None,
                   cap: int = DEFAULT_KRYLOV_CAP, rank_tol: float = 1e-8) -> CagingReport:
    """Extract compact states from every seed and check that they span.

    Within the dense limit one pass over the clusters reads every seed's
    projector columns (see ``krylov_cls``, whose decomposition of ``m`` it
    shares) and the singular values of all of them together; beyond it each
    seed runs the sparse Krylov expansion and its states are stacked as rows
    for one SVD.  The rank of the states deduplicates them (pairwise
    matching is ill-posed inside degenerate flat bands).  Seeds over ``cap``
    are reported: the matrix is not caging at this flux, or the cap is too
    small.
    """
    if cap < 1 or radius_bound < 0:
        raise InvalidParameterError(f"cap {cap} must be >= 1 and radius bound {radius_bound} >= 0")
    seed_list = list(range(m.dimension)) if seeds is None else list(seeds)
    if any(not 0 <= s < m.dimension for s in seed_list):
        raise InvalidParameterError(f"seeds must lie in 0..{m.dimension - 1}")
    if m.dimension <= gauge.dense_limit():
        records, svals = _projector_cover(m, seed_list, cap)
    else:
        results = [krylov_cls(m, seed, cap=cap) for seed in seed_list]
        records = [SeedRecord(seed=r.seed, krylov_dim=r.dimension, closed=r.closed,
                              eigenvalues=r.eigenvalues, support_radius=r.support_radius,
                              residual=max((s.residual for s in r.states), default=0.0))
                   for r in results]
        stack = np.array([s.vector for r in results for s in r.states]).reshape(-1, m.dimension)
        svals = np.linalg.svd(stack, compute_uv=False) if len(stack) else np.zeros(0)
    rank = int(np.sum(svals > rank_tol * max(1.0, float(svals.max(initial=0.0)))))
    cap_exceeded = tuple(r.seed for r in records if not r.closed)
    return CagingReport(
        dimension=m.dimension,
        span_rank=rank,
        covered=(rank == m.dimension and not cap_exceeded),
        radius_bound=radius_bound,
        radius_ok=all(r.support_radius <= radius_bound for r in records if r.closed),
        cap_exceeded=cap_exceeded,
        records=tuple(records),
    )


def _projector_cover(m: gauge.Ccam, seeds: list[int], cap: int):
    """Seed records, and the singular values of the states of the seeds
    within ``cap``: the projector columns of ``krylov_cls``, read one cluster
    at a time.

    Cluster c's states are V_c C_c, with C_c = V_c[hits, :]^H scaled to unit
    columns.  States of different clusters are orthogonal and V_c has
    orthonormal columns, so the singular values of all the states together
    are those of the small blocks C_c together, and no (states x dimension)
    stack is formed.
    """
    clusters, h = _shared_spectral_data(m), gauge.dense_matrix(m)
    reach = np.array([np.linalg.norm(basis[seeds], axis=1) > KRYLOV_NOVELTY_TOL
                      for _, basis in clusters], dtype=bool).reshape(len(clusters), len(seeds))
    dims = reach.sum(axis=0)
    reach &= dims <= cap
    support = np.zeros((len(seeds), m.dimension), dtype=bool)
    resid = np.zeros(len(seeds))
    svals = [np.zeros(0)]
    for c, (value, basis) in enumerate(clusters):
        hits = np.flatnonzero(reach[c])
        if not hits.size:
            continue
        coeffs = basis[[seeds[j] for j in hits]].conj().T
        block = basis @ coeffs
        norms = np.linalg.norm(block, axis=0)
        block /= norms
        svals.append(np.linalg.svd(coeffs / norms, compute_uv=False))
        support[hits] |= (np.abs(block) > SUPPORT_EPS).T
        resid[hits] = np.maximum(resid[hits], np.linalg.norm(h @ block - value * block, axis=0))
    values = np.array([value for value, _ in clusters])
    records = [SeedRecord(
        seed=seed, krylov_dim=int(min(dims[j], cap)), closed=bool(dims[j] <= cap),
        eigenvalues=tuple(values[reach[:, j]].tolist()),
        support_radius=int(m.graph.distances(seed)[support[j]].max(initial=0)),
        residual=float(resid[j])) for j, seed in enumerate(seeds)]
    return records, np.concatenate(svals)
