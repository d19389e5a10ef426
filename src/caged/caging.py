"""Confinement checks: crossing amplitudes, corner recurrences, and compact
localized states.

A flux-carrying glued tree becomes impossible to cross when the flux is a
nonzero multiple of 2*pi over the branching product: every same-length path
from one root to the other picks up phases that sum to zero.  Float crossing
amplitudes show it, by one dense product with the sublattice block per power
on a small bipartite graph and a sparse ``Ccam.powers`` walk on any other,
both within the forward error of their products; an exact decision needs the
flat-value rule or the integer cyclotomic certificate.  When a lattice region
is fenced by uncrossable trees, the Krylov space of any seed is finite and
spanned by the seed's projections onto the eigenspaces: compact states are
read from the columns of dense spectral projectors, of the whole matrix within
the dense limit and beyond it of a window around the seeds that none leak from.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gauge, graphs
from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_KRYLOV_CAP = 512
# A cluster projecting the seed to at most this norm adds no state.  True
# weights in caged systems are products of a few partial-cancellation factors
# (well above 1e-4 here), while the roundoff of one dense ``eigh`` stays near
# 1e-14; the per-state residuals expose any system where this separation fails.
KRYLOV_NOVELTY_TOL = 1e-6
CLS_RESIDUAL_TOL = 1e-8
SUPPORT_EPS = 1e-8
# Dense eigenvalues split by at most this gap merge into one cluster.
EIGEN_CLUSTER_TOL = 1e-6
# Float residual norms below these read as zero in the local caging and the
# exchange symmetry checks.
LOCAL_CAGING_TOL = 1e-10
EXCHANGE_SYMMETRY_TOL = 1e-10
# Most powers of H one crossing run takes, refused before it allocates: one
# complex amplitude per power (1.6 MB at the limit), and one product with H
# each.
POWER_COUNT_LIMIT = 100_000
# Most entries of the sublattice block T that ``crossing_amplitudes`` walks
# with dense products.  On a 2-core x86 box with one BLAS thread, one dense
# product per power beat the sparse walk's three numpy calls by a third or
# more in every run up to 8,904 entries, won or lost from run to run between
# 14,740 and 17,520, and lost from 42,780 on (BENCH_block_walk.json).  Every
# tree of product <= 40 fits, the largest ((2, 2, 2, 5), 112 vertices) with
# 3,100 entries.
WALK_BLOCK_ENTRIES = 4096


def _endpoints(m: gauge.Ccam, m_max: int, source: int | None,
               target: int | None) -> tuple[int, int, int]:
    """The power count, source and target of a crossing run, by default the
    marked roots; refuses a count or vertex that is not an integer, a
    negative power count or one above ``POWER_COUNT_LIMIT``, and an unmarked
    or out-of-range vertex."""
    m_max = graphs.check_integer(m_max, "power count")
    if m_max < 0:
        raise InvalidParameterError(f"power count must be non-negative, got {m_max}")
    if m_max > POWER_COUNT_LIMIT:
        raise ResourceLimitError(f"power count {m_max} exceeds the limit {POWER_COUNT_LIMIT}")
    src = m.first_vertex if source is None else graphs.check_integer(source, "source")
    tgt = m.last_vertex if target is None else graphs.check_integer(target, "target")
    if src is None or tgt is None:
        raise InvalidParameterError("source and target roots are not marked")
    if not (0 <= src < m.dimension and 0 <= tgt < m.dimension):
        raise InvalidParameterError(f"source {src} or target {tgt} out of range")
    return m_max, src, tgt


def _walk_side(m: gauge.Ccam) -> np.ndarray | None:
    """The ``colouring`` of a bipartite graph whose block T = <A|H|B> has at
    most ``WALK_BLOCK_ENTRIES`` entries, else None.  A graph with more edges
    than that is not coloured at all: each edge is an entry of T."""
    if m.graph.num_edges > WALK_BLOCK_ENTRIES:
        return None
    try:
        side = m.graph.colouring
    except InvalidParameterError:  # an odd cycle
        return None
    nb = m.graph.block_layout[0]
    return side if (m.dimension - nb) * nb <= WALK_BLOCK_ENTRIES else None


def crossing_amplitudes(m: gauge.Ccam, m_max: int, *, source: int | None = None,
                        target: int | None = None) -> np.ndarray:
    """<target| H^k |source> for k = 1..m_max, by one product with H per
    power, on one of two routes chosen by the graph alone.

    The block route takes a bipartite graph whose block T = <A|H|B>
    (``gauge.sublattice_block``) has at most ``WALK_BLOCK_ENTRIES`` entries:
    H = [[0, T], [T^H, 0]], so the walk starts from e_source on its own side
    and applies T^H and T in turn, one dense matrix-vector product per power
    in T's dtype (real at flux 0).  Powers that land on the other side than
    the target are exactly 0 and are not read.  Every other graph, larger or
    with an odd cycle, takes the sparse route: one walk of ``Ccam.powers``
    from the source in complex128.  Each route's amplitudes equal those of
    the other to rounding, not bit for bit.

    On either route an amplitude whose exact value is zero reads at most
    about k * ||H||_2^k * eps (the forward error of k products), and any
    amplitude is within about k * W_k * eps of its exact value, W_k the
    number of k-step walks between the two vertices: these values are for
    display, and ``is_caged`` decides.  Refuses, after the walk, at the
    first amplitude that is not finite; on the block route an overflow
    anywhere on one side reaches every entry of the next power through the
    zero entries of T (0 * inf is nan).  A finite amplitude is still
    correct to rounding.  Defaults to the marked first/last roots; matrices
    read from external files may need the vertices given explicitly.
    """
    m_max, src, tgt = _endpoints(m, m_max, source, target)
    out = np.zeros(m_max, dtype=complex)
    side = _walk_side(m)
    if side is None:
        vec = np.zeros(m.dimension, dtype=complex)
        vec[src] = 1.0
        for k, power in enumerate(m.powers(vec, m_max)):
            out[k] = power[tgt]
    else:
        t = gauge.sublattice_block(m)
        on_b, tgt_b = bool(side[src]), bool(side[tgt])
        # A vertex's place on its side is the count of that side's vertices before it.
        vec = np.zeros(t.shape[on_b], dtype=t.dtype)
        vec[np.count_nonzero(side[:src] == on_b)] = 1.0
        at = int(np.count_nonzero(side[:tgt] == tgt_b))
        # Power k + 1 multiplies by steps[k & 1], T^H from A and T from B,
        # and lands on the target's side when k & 1 == read.
        steps = (t.dot, t.conj().T.dot) if on_b else (t.conj().T.dot, t.dot)
        read = int(on_b == tgt_b)
        for k in range(m_max):
            vec = steps[k & 1](vec)
            if k & 1 == read:
                out[k] = vec[at]
    finite = np.isfinite(out)
    if not finite.all():
        raise ResourceLimitError(f"amplitude {finite.argmin() + 1} overflows complex128; "
                                 "reduce the power count")
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

# Largest int64 state (|V| * N/g values) of a polynomial run: (2,)*10 at N = 4M
# holds 24 MiB.  A run holds about three such states: the doubled-row buffer
# (two), the next power (one) and one chunk of gathered rows (a quarter).
POLY_STATE_LIMIT_BYTES = 64 * 2**20
# A chunk of gathered rows may take this many bytes even when that is more
# than a quarter state, so a small run gathers each power in one chunk.
POLY_CHUNK_MIN_BYTES = 2**18


def is_caged(x: Sequence[int], z: int) -> bool:
    """Whether the glued tree of ``x`` is uncrossable at flux 2*pi*z/M.

    The level-wise rule: caged iff some level i has z*P_{i-1}/M non-integral
    while z*P_i/M is an integer, where P_i = x_1...x_i, P_0 = 1 and M = P_d.
    This reduces to z != 0 (mod M): z*P_d/M = z is an integer, so if z/M is
    not, the first level where z*P_i/M is an integer qualifies; if z/M is,
    every z*P_i/M is an integer and no level qualifies.

    Proof of the rule: the Schur complement of level i onto its fresh roots
    multiplies the last-to-first corner by the level pairing p_i =
    sum_b exp(2i theta_b) (``gauge.level_pairings``), so every root-to-root
    amplitude A_k carries the factor prod_i p_i, and the first, A_{2d},
    equals it (tested).  p_i is a geometric sum of x_i terms with ratio
    exp(-i phi P_{i-1}), which vanishes exactly when that ratio is a
    nontrivial x_i-th root of unity: at phi = 2*pi*z/M, the level rule.
    Refuses a ``z`` that is not an integer.
    """
    xs = graphs.check_growth_sequence(x)
    return graphs.check_integer(z, "z") % math.prod(xs) != 0


def phase_exponents(m: gauge.Ccam, denominator: int) -> np.ndarray:
    """Each edge phase as an integer multiple of 2*pi/denominator, by
    ``gauge.angle_multiples``; refuses a phase that is none."""
    out = gauge.angle_multiples(m.phases, denominator)
    if (out < 0).any():  # argmin finds the first -1
        raise InvalidParameterError(f"phase {float(m.phases[out.argmin()])} is not a multiple "
                                    f"of 2*pi/{denominator}")
    return out


def crossing_amplitude_polynomials(m: gauge.Ccam, m_max: int, denominator: int, *,
                                   source: int | None = None,
                                   target: int | None = None) -> np.ndarray:
    """Integer coefficient arrays A_k with <t|H^k|s> = A_k(zeta_N).

    The sparse product is run over Z[w]/(w^N - 1): multiplying by an edge
    phase rotates the coefficient array.  Rescaling the flux by an integer z
    turns A_k(zeta_N) into A_k(zeta_N^z), so one run covers every multiple of
    the base flux at once.  Rows are held in a potential gauge: with chi from
    ``graphs.hang_forest`` mod N and g = gcd(N, every residual c_e - chi_u +
    chi_v), a walk s -> v has exponent chi_v - chi_s mod g, so row v is
    w^(chi_v - chi_s) B_v(w^g).  The run keeps B_v's N/g coefficients, and
    each output coefficient is the same int64 sum as over all N columns.
    Refuses, before it allocates, when the |V| x N/g state or the m_max x N
    output would exceed ``POLY_STATE_LIMIT_BYTES``.

    Each row's state is stored twice over, side by side, so the row rotated
    by c is the contiguous length-N/g window at column N/g - c.  A table lists,
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
    m_max, src, tgt = _endpoints(m, m_max, source, target)
    dim = m.dimension
    n = graphs.check_integer(denominator, "denominator")
    exps = phase_exponents(m, n)
    # Edge (u, v), u < v, adds row v rotated by its residual / g into row u,
    # and row u rotated back into row v; a hang edge's residual is zero.
    rows, cols = m.graph.rows, m.graph.cols
    _root, chi = graphs.hang_forest(dim, rows, cols, -exps % n, n)
    residual = (exps + chi[cols] - chi[rows]) % n
    g = int(np.gcd.reduce(residual, initial=n))
    n_g = n // g
    if max(dim * n_g, m_max * n) * 8 > POLY_STATE_LIMIT_BYTES:
        raise ResourceLimitError(f"polynomial state {dim} x {n_g} or output {m_max} x {n} "
                                 f"int64 exceeds {POLY_STATE_LIMIT_BYTES >> 20} MiB")
    steps = residual // g
    offsets, tails, edges = m.graph.adjacency
    degree = np.diff(offsets)
    heads = np.repeat(np.arange(dim), degree)
    windows = np.where(heads < tails, -steps[edges], steps[edges]) % n_g
    slot = np.arange(len(heads)) - offsets[heads]
    width = max(int(degree.max(initial=0)), 1)
    table = np.full((dim, width), dim, dtype=np.intp)  # row dim stays zero
    table[heads, slot] = tails
    offset = np.zeros((dim, width), dtype=np.intp)
    offset[heads, slot] = windows

    # Row w can still reach the target at powers k <= budget[w].
    to_target = m.graph.distances(tgt)
    budget = np.where(to_target < dim, m_max - to_target, -1)

    buf = np.zeros((dim + 1, 2 * n_g), dtype=np.int64)
    buf[src, [0, n_g]] = 1
    win = np.lib.stride_tricks.sliding_window_view(buf, n_g, axis=1)
    halves = buf.reshape(dim + 1, 2, n_g)
    state = np.empty((dim, n_g), dtype=np.int64)
    step = max(1, dim // (4 * width), POLY_CHUNK_MIN_BYTES // (width * n_g * 8))
    out = np.zeros((m_max, n), dtype=np.int64)
    places = (chi[tgt] - chi[src] + g * np.arange(n_g)) % n
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
            out[k - 1, places] = cone[np.searchsorted(live, tgt)]
    return out


def evaluate_cyclotomic(coeffs: np.ndarray, z: int, denominator: int) -> np.ndarray:
    """Float value of integer polynomials at the z-th power of the root;
    refuses a denominator or z that is not an integer."""
    n = graphs.check_integer(denominator, "denominator")
    z = graphs.check_integer(z, "z")
    root = np.exp(2j * math.pi * (np.arange(n) * z % n) / n)
    return np.asarray(coeffs, dtype=float) @ root


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


def _zero_at_order(mat: np.ndarray, d: int, l1: float) -> np.ndarray:
    """Per row of ``mat``: is the polynomial zero at a primitive d-th root?
    ``l1`` is the largest l1 norm of a row."""
    primes = tuple(p for p, _e in graphs.prime_factorization(d))
    red = _cyclotomic_reduction(primes)
    # Folding and reducing keep every value within a row's l1 norm times max|red|.
    if l1 * np.abs(red).max() >= 2.0**62:
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
    Refuses a denominator or z that is not an integer, a denominator below
    1 and rows that are not N coefficients wide.
    """
    n = graphs.check_integer(denominator, "denominator")
    zs = range(1, n + 1) if zs is None else [graphs.check_integer(z, "z") for z in zs]
    mat = np.atleast_2d(np.asarray(polys, dtype=np.int64))
    if n < 1 or mat.shape[1] != n:
        raise InvalidParameterError("need a positive denominator N and N coefficients "
                                    f"per row, got {n} and {mat.shape[1]}")
    orders = [n // math.gcd(n, z) for z in zs]
    l1 = np.abs(mat).sum(axis=1, dtype=float).max(initial=0.0)
    zero = {d: _zero_at_order(mat, d, l1) for d in set(orders)}
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
    # In the normalized variables the per-level sign of the corner cofactor
    # cancels against the normalizer; the dense adjugate oracle confirms a
    # plain product (and the sign is squared away in delta).
    for i, (xi, pairing) in enumerate(zip(xs, gauge.level_pairings(xs, flux).tolist()), start=1):
        phi_next = -lam * delta - xi * phi_c
        chi_next = pairing * chi
        delta_next = (phi_next * phi_next - chi_next * chi_next) / delta
        delta, phi_c, chi = delta_next, phi_next, chi_next
        out.append(RecurrenceState(level=i, delta=delta, phi=phi_c, chi=chi))
    return out


def recurrence_normalizer(x: Sequence[int], flux: float, lam: complex, i: int) -> complex:
    """The factor nu_i = prod_{j=0..i-1} C(Y_j; lam)^-(x_{j+1}-1) relating the
    normalized recurrence values to raw determinants and adjugate corners.
    Refuses a level ``i`` that is not an integer in 0..d."""
    xs = graphs.check_growth_sequence(x)
    i = graphs.check_integer(i, "level")
    if not 0 <= i <= len(xs):
        raise InvalidParameterError(f"level {i} is not in 0..{len(xs)}")
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


def exchange_symmetry_check(m: gauge.Ccam) -> tuple[bool, float]:
    """Whether the matrix commutes with the anti-diagonal permutation J.

    J H J maps edge (u, v, w) to (n-1-v, n-1-u, conj w).  The edge arrays and
    their mirror image are laid out over the union of their (row, col) slots,
    an absent edge reading 0, and the norm is the largest |w - w'| over that
    union, so an edge on one side only contributes |w|.  This is the maximum
    entry of |H - J H J|, bit for bit, without forming either matrix; it
    passes below ``EXCHANGE_SYMMETRY_TOL`` or the phases' rounding, 4 eps max|phase|.
    """
    n = m.dimension
    w = np.exp(1j * m.phases)
    keys = m.graph.keys
    mirror = (n - 1 - m.cols) * n + (n - 1 - m.rows)
    slots = np.union1d(keys, mirror)
    h = np.zeros(len(slots), dtype=complex)
    h[np.searchsorted(slots, keys)] = w
    jhj = np.zeros(len(slots), dtype=complex)
    jhj[np.searchsorted(slots, mirror)] = w.conj()
    norm = float(np.max(np.abs(h - jhj))) if slots.size else 0.0
    rounding = 4 * np.finfo(float).eps * float(np.abs(m.phases).max(initial=0.0))
    return norm < max(EXCHANGE_SYMMETRY_TOL, rounding), norm


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

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(s.eigenvalue for s in self.states)

    @property
    def support_radius(self) -> int:
        return max((s.support_radius for s in self.states), default=0)


def krylov_cls(m: gauge.Ccam, seed: int, *, cap: int = DEFAULT_KRYLOV_CAP) -> KrylovResult:
    """Diagonalize the matrix on the Krylov space of one site, spanned by
    its projections P_c e_s onto the eigenspaces (``_cover``).  Beyond the
    dense limit the window is the seed's ball of radius 1, 2, 4, ..., grown
    until no state leaks out; ``ResourceLimitError`` is raised when no ball
    within the limit closes.  A Krylov space over ``cap`` is reported
    (``closed=False``, dimension ``cap``, no states), not raised: it is
    expected away from flat fluxes.  Refuses a seed or cap that is not an
    integer.
    """
    seed, cap = graphs.check_integer(seed, "seed"), graphs.check_integer(cap, "cap")
    if not (0 <= seed < m.dimension):
        raise InvalidParameterError(f"seed {seed} out of range")
    if cap < 1:
        raise InvalidParameterError(f"cap must be at least 1, got {cap}")
    radius, leak = 1, [np.inf]
    while leak[0] > CLS_RESIDUAL_TOL:
        (record,), leak, (states,) = _cover(m, [seed], radius, m.dimension, keep=True)
        radius *= 2
    closed = record.krylov_dim <= cap
    return KrylovResult(seed, min(record.krylov_dim, cap), closed, tuple(states) if closed else ())


# The whole matrix's ``dense_spectral_data``, held only while the matrix lives.
_SPECTRAL_DATA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dense_spectral_data(m: gauge.Ccam, inner: np.ndarray | None = None):
    """Eigen-decomposition of the dense matrix, or of its rows and columns
    ``inner``, grouped into degeneracy clusters: (mean eigenvalues,
    orthonormal eigenvectors, zero off ``inner``, and the offsets of each
    cluster's run of columns).  The whole matrix's is computed once: a
    ``Ccam`` is immutable."""
    if inner is None and m in _SPECTRAL_DATA:
        return _SPECTRAL_DATA[m]
    h = gauge.dense_matrix(m)
    evals, evecs = np.linalg.eigh(h if inner is None else h[np.ix_(inner, inner)])
    if inner is not None:  # zero off ``inner``
        part, evecs = evecs, np.zeros((m.dimension, len(evals)), dtype=complex)
        evecs[inner] = part
    cuts = np.flatnonzero(np.diff(evals, prepend=-np.inf, append=np.inf) > EIGEN_CLUSTER_TOL)
    data = np.array([np.mean(evals[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]), evecs, cuts
    if inner is None:
        _SPECTRAL_DATA[m] = data
    return data


def _window(m: gauge.Ccam, seeds: np.ndarray, radius: int):
    """The sorted vertices within ``radius`` + 1 of ``seeds``, the mask of
    those within ``radius``, and the matrix induced from their own edges."""
    levels = [np.unique(seeds)]  # breadth first, walking only the edges at each level
    while len(levels) <= radius + 1:
        reached = np.unique(m.graph.incidences(levels[-1])[1])
        reached = reached[~np.isin(reached, np.concatenate(levels[-2:]))]
        if not reached.size:
            break
        levels.append(reached)
    vertices = np.sort(np.concatenate(levels))
    inner = ~np.isin(vertices, np.concatenate([[-1]] + levels[radius + 1:]))
    j, a, e = m.graph.incidences(vertices)
    pos = np.minimum(np.searchsorted(vertices, a), len(vertices) - 1)
    own = (vertices[pos] == a) & (vertices[j] < a)
    return vertices, inner, gauge.Ccam(graphs.Graph(len(vertices), j[own], pos[own]),
                                       m.phases[e[own]], m.flux)


def _project(window: gauge.Ccam, data, local: np.ndarray, cap: int, radius: int,
             inner: np.ndarray | None, keep: bool):
    """One window's pass over its ``dense_spectral_data`` for the seeds at
    ``local``: per seed, the record fields after the seed, largest leak and
    (with ``keep``) states as [value, column, residual, radius].  H from
    ``window.apply`` gives each cluster's residuals and leak onto the ring; a
    seed whose states leak or reach past ``radius`` records radius + 1."""
    values, evecs, cuts = data
    weight = np.add.reduceat(np.abs(evecs[local]) ** 2, cuts[:-1], axis=1)
    reach = np.sqrt(weight).T > KRYLOV_NOVELTY_TOL
    dims = reach.sum(axis=0)
    reach &= dims <= cap
    support = np.zeros((len(local), window.dimension), dtype=bool)
    resid, leak, found = np.zeros(len(local)), np.zeros(len(local)), [[] for _ in local]
    for c in np.flatnonzero(reach.any(axis=1)).tolist():
        value, basis, hits = values[c], evecs[:, cuts[c]:cuts[c + 1]], np.flatnonzero(reach[c])
        block = basis @ basis[local[hits]].conj().T
        norms = np.linalg.norm(block, axis=0)
        block /= norms
        support[hits] |= (np.abs(block) > SUPPORT_EPS).T
        image = window.apply(block)
        r = np.linalg.norm(image - value * block, axis=0)
        resid[hits] = np.maximum(resid[hits], r)
        ring = image[slice(0) if inner is None else ~inner]
        leak[hits] = np.maximum(leak[hits], np.linalg.norm(ring, axis=0))
        for col, row in enumerate(hits.tolist() if keep else ()):
            found[row].append([float(value), block[:, col], float(r[col])])
    out = []
    for row, dist in enumerate(window.graph.distances(local)):
        for state in found[row]:
            state.append(int(dist[np.abs(state[1]) > SUPPORT_EPS].max(initial=0)))
        reached = dist[support[row]].max(initial=0)
        if leak[row] > CLS_RESIDUAL_TOL or reached > radius:
            reached = radius + 1
        out.append(((int(min(dims[row], cap)), bool(dims[row] <= cap),
                     tuple(values[reach[:, row]].tolist()), int(reached), float(resid[row])),
                    leak[row], found[row]))
    return out


def _cover(m: gauge.Ccam, seeds: Sequence[int], radius: int, cap: int, keep: bool = False):
    """Each seed's ``SeedRecord``, largest leak and states (with ``keep``).
    The states are the columns V_c V_c^H e_s, scaled to unit norm, of the
    window's clusters (lambda_c, V_c) with ||V_c[s, :]|| > ``KRYLOV_NOVELTY_TOL``.

    Within the dense limit the window is the whole matrix.  Beyond it the
    seeds of a chain cell (``cell_bounds``), or else each seed, share the
    vertices within ``radius`` of them, diagonalized as the matrix they
    induce; equal windows share one ``eigh``, and one above the dense limit
    (with its outer ring) is refused.  A state's leak is H v on that ring.
    Without leak its span is invariant under H, so the states are the global
    P_c e_s.  Records read one rule on either route (``_project``), so the
    window only decides which matrix ``eigh`` sees.  Residuals use H on the
    window and ring, the whole matrix; state radii, distances there, are
    exact to ``radius + 1``.
    """
    g, seeds = m.graph, np.asarray(seeds, dtype=np.int64)
    records, leaks, states = [None] * len(seeds), np.zeros(len(seeds)), [[] for _ in seeds]
    shared, whole = {}, m.dimension <= gauge.dense_limit()
    labels = (np.arange(len(seeds)) if g.cell_bounds is None
              else graphs.chain_cell_of_vertex(g, seeds))
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(seeds) else []
    windows = ([(np.arange(m.dimension), None, m, np.arange(len(seeds)))] if whole else
               (_window(m, seeds[group], radius) + (group,) for group in groups))
    for vertices, inner, window, pos in windows:
        local = np.searchsorted(vertices, seeds[pos])
        key = whole or tuple(a.tobytes() for a in (window.rows, window.cols, window.phases, inner))
        if key not in shared:  # equal windows share one ``eigh``, and with equal seeds one pass
            shared[key] = dense_spectral_data(window, inner)
        pass_key = key, local.tobytes()
        if pass_key not in shared:
            shared[pass_key] = _project(window, shared[key], local, cap, radius, inner, keep)
        for j, (fields, leak, found) in zip(pos.tolist(), shared[pass_key]):
            records[j], leaks[j] = SeedRecord(int(seeds[j]), *fields), leak
            for value, v, r, reached in found:
                vector = np.zeros(m.dimension, dtype=complex)
                vector[vertices] = v
                states[j].append(ClsState(vector, value, reached, r))
    return records, leaks, states


def local_caging_check(m: gauge.Ccam, vertex: int) -> bool:
    """Whether H^2 acts on the site as multiplication by its degree.

    True exactly when every two-step return interferes away; the hallmark of
    a caged hub.  Trivially true for isolated vertices.
    """
    vertex = graphs.check_integer(vertex, "vertex")
    if not (0 <= vertex < m.dimension):
        raise InvalidParameterError(f"vertex {vertex} out of range")
    vec = np.zeros(m.dimension, dtype=complex)
    vec[vertex] = 1.0
    *_, image = m.powers(vec, 2)
    image[vertex] -= m.graph.degrees()[vertex]
    return float(np.linalg.norm(image)) < LOCAL_CAGING_TOL


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
                   cap: int = DEFAULT_KRYLOV_CAP) -> CagingReport:
    """Extract compact states from every seed (``_cover``) and check that
    they span.  ``span_rank`` counts the seeds that close under ``cap`` with
    support radius within ``radius_bound``, on either route: such a seed's
    states sum to it, sum_c P_c e_s = e_s, so the states span the space when
    every vertex is such a seed.  Seeds over ``cap`` are reported: the
    matrix is not caging at this flux, or the cap is too small.  Refuses a
    radius bound, cap or seed that is not an integer.
    """
    radius_bound = graphs.check_integer(radius_bound, "radius bound")
    cap = graphs.check_integer(cap, "cap")
    if cap < 1 or radius_bound < 0:
        raise InvalidParameterError(f"cap {cap} must be >= 1 and radius bound {radius_bound} >= 0")
    seed_list = (list(range(m.dimension)) if seeds is None
                 else [graphs.check_integer(s, "seed") for s in seeds])
    if any(not 0 <= s < m.dimension for s in seed_list):
        raise InvalidParameterError(f"seeds must lie in 0..{m.dimension - 1}")
    records, _, _ = _cover(m, seed_list, radius_bound, cap)
    cap_exceeded = tuple(r.seed for r in records if not r.closed)
    rank = len({r.seed for r in records if r.closed and r.support_radius <= radius_bound})
    return CagingReport(
        dimension=m.dimension,
        span_rank=rank,
        covered=(rank == m.dimension and not cap_exceeded),
        radius_bound=radius_bound,
        radius_ok=all(r.support_radius <= radius_bound for r in records if r.closed),
        cap_exceeded=cap_exceeded,
        records=tuple(records),
    )
