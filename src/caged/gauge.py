"""Unit-modulus phases on graphs: canonical gauge, fluxes, and flat values.

A complex weighted adjacency matrix is stored as three edge arrays: edge k
joins rows[k] < cols[k] with <rows[k]|H|cols[k]> = exp(i*phases[k]) and
<cols[k]|H|rows[k]> = exp(-i*phases[k]), so Hermiticity is exact by
construction.  The flux through a face is the winding sum of the phases
around its boundary cycle; the canonical gauge threads the same flux through
every face of a glued tree, each edge's phase a fixed factor times the flux.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import graphs
from .errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

DEFAULT_DENSE_LIMIT = 4096
DENSE_LIMIT_ENV = "CAGED_DENSE_LIMIT"
# An angle within FLAT_VALUE_TOL of 2*pi*z/n is the multiple z of 2*pi/n;
# from ANGLE_LIMIT on, neighbouring floats lie farther apart than that.
FLAT_VALUE_TOL = 1e-9
ANGLE_LIMIT = FLAT_VALUE_TOL * 2**52


def check_angle(phi, shown=None) -> float:
    """``phi`` as a float, refused unless it is finite and below
    ``ANGLE_LIMIT`` in magnitude, where neighbouring floats still lie closer
    than ``FLAT_VALUE_TOL``; a value that ``float`` does not convert, such
    as None, is refused too.  A refusal quotes ``shown`` (the text it was
    read from, say) if given, else ``phi``."""
    try:
        angle = float(phi)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"flux {phi!r} is not a number") from None
    if not abs(angle) < ANGLE_LIMIT:
        quoted = repr(phi if shown is None else shown)
        if not math.isfinite(angle):
            raise InvalidParameterError(f"flux {quoted} is not a finite angle")
        raise InvalidParameterError(f"flux {quoted} is not an angle that a float resolves: "
                                    f"|phi| must be below {ANGLE_LIMIT:.10g}")
    return angle


def dense_limit() -> int:
    """The largest dimension of a dense matrix: ``CAGED_DENSE_LIMIT`` if set,
    which must be a positive integer, else ``DEFAULT_DENSE_LIMIT``."""
    raw = os.environ.get(DENSE_LIMIT_ENV)
    if not raw:
        return DEFAULT_DENSE_LIMIT
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InvalidParameterError(f"{DENSE_LIMIT_ENV}={raw!r} is not a positive integer")
    return int(raw)


# ---------------------------------------------------------------------------
# Complex weighted adjacency matrices
# ---------------------------------------------------------------------------


_ENTRY = np.dtype([("u", np.int64), ("v", np.int64), ("t", float)])


@dataclass(frozen=True, eq=False)
class Ccam:
    """Hermitian unit-modulus weighted adjacency matrix with a nominal flux.

    A graph plus one phase per edge: edge k of ``graph`` joins ``rows[k] <
    cols[k]`` with <rows[k]|H|cols[k]> = exp(i*phases[k]).  The graph holds
    the checked edges, faces and roots, and canonical trees share it through
    a per-sequence cache; the phases are read-only, and they and the flux
    must be finite.  ``entries`` views the matrix as (u, v, theta) tuples,
    ``with_phases`` rephases it on the same graph, checking only the new
    phases, and ``powers`` and ``apply`` multiply by it without forming it.
    """

    graph: graphs.Graph
    phases: np.ndarray
    flux: float = 0.0

    def __post_init__(self):
        phases = graphs.read_only(self.phases, float)
        if phases.shape != self.graph.rows.shape:
            raise InvalidParameterError(
                f"phases of shape {phases.shape} for {self.graph.rows.shape} edges")
        if not (np.isfinite(phases).all() and math.isfinite(self.flux)):
            raise InvalidParameterError("phases and flux must be finite")
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_entries(cls, dimension: int, entries: Iterable[tuple[int, int, float]], *,
                     flux: float = 0.0, **annotations) -> Ccam:
        """Build from (u, v, theta) tuples with u < v, in any order; the
        ``annotations`` (faces, roots) go to the graph."""
        table = np.sort(np.fromiter(entries, dtype=_ENTRY), order=("u", "v"))
        return cls(graphs.Graph(dimension, table["u"], table["v"], **annotations), table["t"], flux)

    def with_phases(self, phases, flux: float) -> Ccam:
        """The same graph with new ``phases`` and nominal ``flux``."""
        return Ccam(self.graph, phases, flux)

    @property
    def dimension(self) -> int:
        return self.graph.num_vertices

    @property
    def rows(self) -> np.ndarray:
        return self.graph.rows

    @property
    def cols(self) -> np.ndarray:
        return self.graph.cols

    @property
    def first_vertex(self) -> int | None:
        return self.graph.first_vertex

    @property
    def last_vertex(self) -> int | None:
        return self.graph.last_vertex

    @property
    def entries(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.phases.tolist()))

    @cached_property
    def _weights(self) -> np.ndarray:
        """<head|H|tail> along ``graph.slots``: exp(phase * rot), which is
        exp(i*phase) on a forward slot and exp(-i*phase), its conjugate, on a
        backward one; 0 on an isolated vertex's self-slot."""
        _tails, edges, rot, _starts = self.graph.slots
        n = self.graph.num_edges
        if len(edges) == 2 * n:  # every vertex has an edge
            return np.exp(self.phases[edges] * rot)
        w = np.exp(np.append(self.phases, 0.0)[edges] * rot)
        w[edges == n] = 0.0
        return w

    def powers(self, x, count: int):
        """Yield H x, H^2 x, ..., H^count x in complex128 for a vector (n,) or
        a column block (n, c).  Each product is one gather along
        ``graph.slots`` and one segmented sum over every vertex's run, an
        isolated vertex summing its zero-weight self-slot; the layout and the
        weights are read once per walk."""
        x = np.asarray(x)
        if not self.dimension:
            for _ in range(count):
                yield np.zeros(x.shape, dtype=complex)
            return
        tails, _edges, _rot, starts = self.graph.slots
        w = self._weights if x.ndim == 1 else self._weights[:, None]
        for _ in range(count):
            x = np.add.reduceat(x[tails] * w, starts, axis=0)
            yield x

    def apply(self, x) -> np.ndarray:
        """H x, the first of ``powers``."""
        return next(self.powers(x, 1))


def require_dense(dimension: int):
    """Refuse a dense solve of ``dimension`` rows above ``dense_limit()``."""
    limit = dense_limit()
    if dimension > limit:
        raise ResourceLimitError(f"dimension {dimension} exceeds dense limit {limit} "
                                 f"(override with {DENSE_LIMIT_ENV})")


def dense_matrix(m: Ccam) -> np.ndarray:
    """Dense Hermitian matrix of a Ccam; refuses above the configured limit."""
    require_dense(m.dimension)
    out = np.zeros((m.dimension, m.dimension), dtype=complex)
    w = np.exp(1j * m.phases)
    out[m.rows, m.cols] = w
    out[m.cols, m.rows] = w.conj()
    return out


def sublattice_block(m: Ccam) -> np.ndarray:
    """The |A| x |B| block T = <A|H|B> of a bipartite Ccam, H = [[0, T],
    [T^H, 0]] over the graph's ``colouring``; refuses a graph with an odd
    cycle.  Edge k enters T as exp(i*phases[k]) when its row lies in A,
    conjugated when it lies in B, at the slot the graph's cached
    ``block_layout`` gives it, so every flux on one graph shares the layout.
    T is real when no entry has a nonzero imaginary part (as at flux 0,
    where every phase is +-0.0).  The caller bounds its size."""
    nb, slots, flip = m.graph.block_layout
    w = np.exp(1j * m.phases)
    w = w if w.imag.any() else w.real
    t = np.zeros((m.dimension - nb) * nb, dtype=w.dtype)
    t[slots] = np.where(flip, w.conj(), w)
    return t.reshape(m.dimension - nb, nb)


def _branch_factors(xs: tuple[int, ...], level: np.ndarray, branch: np.ndarray):
    """The canonical phase rule: the angle of branch b (1-based) at level j is
    f * (phi/4) * a * p, with f = 1 - 2(b-1)/(x_j-1), a = x_j - 1 and p =
    x_1...x_{j-1}, so the x_j angles step uniformly from +omega_j down to
    -omega_j, omega_j = (phi/4) * a * p; a level with x_j = 1 carries the
    single angle 0.  Returns (f, a, p) for arrays of (level, branch) pairs;
    p is a float product, which does not wrap on deep sequences."""
    x = np.array(xs)[level - 1]
    f = 1.0 - 2.0 * (branch - 1) / np.maximum(x - 1, 1)
    return f, x - 1.0, np.cumprod((1.0,) + xs[:-1])[level - 1]


@lru_cache(maxsize=graphs.GROWTH_CACHE_SIZE)
def _canonical_template(xs: tuple[int, ...]):
    """The flux-free part of ``canonical_ccam``: the tree at zero flux, and
    per edge the ``_branch_factors`` of its level and branch, the phase
    running from the lower label: out of the fresh first root and into the
    fresh last root."""
    g = graphs.growth(xs)
    factors = _branch_factors(xs, g.level, g.branch)
    for arr in factors:
        arr.flags.writeable = False  # shared by every Ccam of this sequence
    zero = Ccam(graphs.grow_tree(xs, _allow_trailing_one=True), np.zeros(len(g.rows)))
    return (zero,) + factors


def canonical_ccam(x: Sequence[int], phi: float, *, _allow_trailing_one: bool = False) -> Ccam:
    """The glued tree grown by ``x`` in the canonical gauge at flux ``phi``.

    Couplings out of each fresh first root and into each fresh last root carry
    the canonical level phases, which winds exactly ``phi`` around every face.
    A flux that the phases hold must still pass ``check_angle``.
    """
    xs = graphs.check_growth_sequence(x, allow_trailing_one=_allow_trailing_one)
    # Each a * p is below the product M: a finite phi * M / 4 keeps every phase
    # finite, and a flux that fails is refused before the factors meet it.  M
    # is multiplied in floats, so one past the float range is refused too.
    if not math.isfinite(0.25 * phi * math.prod(xs, start=1.0)):
        raise InvalidParameterError(f"flux {phi} is not finite or overflows the phases")
    phi = check_angle(phi)
    zero, f, a, p = _canonical_template(xs)
    return zero.with_phases(f * (0.25 * phi * a * p), phi)


def level_pairings(x: Sequence[int], phi: float) -> np.ndarray:
    """The phase pairing p_j = sum_b exp(2i theta_b) of each level j = 1..d,
    theta_b the canonical angles of ``_branch_factors``.  Its terms are a
    common phase times the powers 0..x_j-1 of r = exp(-i phi x_1...x_{j-1}),
    so it vanishes exactly when r is a nontrivial x_j-th root of unity.
    Refuses a flux for which some |2 theta_b| <= phi * M / 2 is not finite,
    M multiplied in floats as in ``canonical_ccam``, and then one that
    ``check_angle`` refuses."""
    xs = graphs.check_growth_sequence(x)
    if not math.isfinite(0.5 * phi * math.prod(xs, start=1.0)):
        raise InvalidParameterError(f"flux {phi} is not finite or overflows the phases")
    phi = check_angle(phi)
    starts = np.cumsum((0,) + xs[:-1])
    level = np.repeat(np.arange(1, len(xs) + 1), xs)
    f, a, p = _branch_factors(xs, level, np.arange(1, len(level) + 1) - starts[level - 1])
    return np.add.reduceat(np.exp(2j * (f * (0.25 * phi * a * p))), starts)


def chain_ccam(x: Sequence[int], cells: int, phi: float) -> Ccam:
    """A root-to-root chain of ``cells`` canonically gauged glued trees: cell
    c carries the tree's phases on the tree's edges shifted by c times (tree
    size - 1), which is the chain graph's edge order.  The flux is refused
    as ``canonical_ccam`` refuses it."""
    tree = canonical_ccam(x, phi)
    return Ccam(graphs.chain_graph(x, cells), np.tile(tree.phases, cells), phi)


def ccam_with_plaquette_fluxes(g: graphs.Graph, fluxes: Sequence[float]) -> Ccam:
    """Edge phases winding each flux around its face, peeled breadth first from
    the boundary: each round reaches every unreached face through its first
    step on an edge no other unreached face holds, or else roots the first
    unreached face.  From the deepest round up each reaching edge closes its
    face, other edges keeping 0, so each phase is a signed sum of fluxes.
    Refuses fluxes the sums miss by over L * eps times their magnitudes."""
    want = np.asarray(fluxes, dtype=float)
    if want.shape != g.face_lengths.shape or not np.isfinite(want).all():
        raise InvalidParameterError("one flux per plaquette is required, each finite")
    face, us, vs = graphs.face_steps(g.face_vertices, g.face_lengths)
    edge, sign = g.edge_slots(us, vs), np.where(us < vs, 1.0, -1.0)
    depth, via = np.full((2, len(want)), -1)  # each face's round and reaching step
    while (depth < 0).any():
        unreached = depth[face] < 0
        free = unreached & (np.bincount(edge[unreached], minlength=g.num_edges)[edge] == 1)
        faces, first = np.unique(face[free], return_index=True)
        via[faces] = np.flatnonzero(free)[first]
        depth[faces if len(faces) else face[unreached][:1]] = depth.max() + 1
    theta = np.zeros(g.num_edges)  # a face's other edges are set in deeper rounds, or 0
    for r in range(depth.max(initial=-1), -1, -1):
        faces = np.flatnonzero((depth == r) & (via >= 0))
        rest = want[faces] - np.bincount(face, sign * theta[edge])[faces]
        theta[edge[via[faces]]] = sign[via[faces]] * rest
    steps = sign * theta[edge]
    slack = g.face_lengths * np.finfo(float).eps * (np.bincount(face, abs(steps)) + abs(want))
    if (abs(np.bincount(face, steps) - want) > slack).any():
        raise InvalidParameterError("face flux prescription is inconsistent")
    return Ccam(g, theta)


def lotus_ccam(patch: graphs.Graph, phi: float) -> Ccam:
    """Phases winding each lotus face's recorded sign times phi: the signs are
    peeled once and scaled, so each phase is an exact integer multiple of phi.
    Refuses a flux whose phases are not finite, then one that ``check_angle``
    refuses."""
    if patch.plaquette_signs is None:
        raise InvalidParameterError("patch does not carry face orientation signs")
    unit = ccam_with_plaquette_fluxes(patch, patch.plaquette_signs).phases
    if not math.isfinite(float(phi) * float(np.abs(unit).max(initial=0.0))):
        raise InvalidParameterError(f"flux {phi} is not finite or overflows the phases")
    phi = check_angle(phi)
    return Ccam(patch, unit * phi, phi)


def reduce_angle(angle):
    """Reduce an angle, or each of an array of angles, to (-pi, pi]; a float
    reduces to a float."""
    r = np.fmod(angle, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))
    return r if np.ndim(angle) else float(r)


def _face_fluxes(m: Ccam, vertices: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Winding sum of phases around each closed loop of ``vertices`` cut into runs
    of ``lengths``, reduced to (-pi, pi]: one bincount adds its steps in order."""
    face, us, vs = graphs.face_steps(vertices, lengths)
    theta = m.phases[m.graph.edge_slots(us, vs)]
    return reduce_angle(np.bincount(face, np.where(us < vs, theta, -theta)))


def all_plaquette_fluxes(m: Ccam) -> tuple[float, ...]:
    if not len(m.graph.face_lengths):
        raise InvalidParameterError("matrix carries no face data")
    return tuple(_face_fluxes(m, m.graph.face_vertices, m.graph.face_lengths).tolist())


# ---------------------------------------------------------------------------
# Flat values
# ---------------------------------------------------------------------------


def angle_multiples(angles, n: int) -> np.ndarray:
    """Each angle's z in 0..n-1 with angle = 2*pi*z/n (mod 2*pi) within
    ``FLAT_VALUE_TOL``, else -1.  Whole turns drop exactly (``fmod``), so z is
    exact for every n in 1..2^53; refuses any other n and an angle that is
    not finite or reaches ``ANGLE_LIMIT``."""
    if not 1 <= n <= 2**53:
        raise InvalidParameterError(f"denominator must be positive and at most 2^53, got {n}")
    a = np.asarray(angles, dtype=float)
    far = ~(np.abs(a) < ANGLE_LIMIT)
    if far.any():
        raise InvalidParameterError(f"phase {float(a[far][0])} is not a multiple of 2*pi/{n} that "
                                    f"a float resolves: finite and below {ANGLE_LIMIT:.10g}")
    r = np.fmod(a, TWO_PI)
    q = np.round(r * n / TWO_PI)
    return np.where(np.abs(r - q * TWO_PI / n) < FLAT_VALUE_TOL, q % n, -1).astype(np.int64)


@dataclass(frozen=True)
class FlatSet:
    """The angles 2*pi*z/M for z = 1..M, where M is the product of the
    sequence.  Only ``values`` lists them, when first read; the membership
    tests need only M.  Construction refuses an M that is not an integer
    >= 1, and ``values`` and ``midpoints`` refuse M above
    ``graphs.LISTING_LIMIT`` before they build the list."""

    denominator: int

    def __post_init__(self):
        m = graphs.check_integer(self.denominator, "denominator")
        if m < 1:
            raise InvalidParameterError(f"denominator must be >= 1, got {m}")
        object.__setattr__(self, "denominator", m)

    @cached_property
    def values(self) -> tuple[float, ...]:
        m = self._listed("flat values")
        return tuple(TWO_PI * z / m for z in range(1, m + 1))

    def _listed(self, what: str) -> int:
        """M, refused above the listing limit."""
        if self.denominator > graphs.LISTING_LIMIT:
            raise ResourceLimitError(f"{self.denominator} {what} exceed the listing limit "
                                     f"{graphs.LISTING_LIMIT}")
        return self.denominator

    def index(self, angle: float) -> int | None:
        """The z in 1..M with angle = 2*pi*z/M by ``angle_multiples``, else None."""
        z = int(angle_multiples(angle, self.denominator))
        return None if z < 0 else z or self.denominator

    def contains(self, angle: float) -> bool:
        return self.index(angle) is not None

    def midpoints(self) -> tuple[float, ...]:
        """Angles halfway between consecutive members."""
        m = self._listed("midpoints")
        step = TWO_PI / m
        return tuple((z + 0.5) * step for z in range(m))


def flat_values(x: Sequence[int]) -> FlatSet:
    return FlatSet(denominator=math.prod(graphs.check_growth_sequence(x)))


# ---------------------------------------------------------------------------
# Text format: `ccam <num_vertices> <flux>` header, `e <u> <v> <theta>` per
# edge, plus the face/root lines of the plain graph format.
# ---------------------------------------------------------------------------


def format_ccam(m: Ccam) -> str:
    return graphs.format_text(f"ccam {m.dimension} {m.flux:.17g}",
                              (f"e {u} {v} {t:.17g}" for (u, v, t) in m.entries), m.graph)


def parse_ccam(text: str) -> Ccam:
    """Read the text ccam format; an edge given as (v, u, theta) with u < v
    is read as (u, v, -theta).  Refuses what ``graphs.parse_graph`` refuses."""
    header, edges, extra = graphs.parse_text(text, "ccam <n> <flux>", (int, int, float))
    dim, flux = (graphs.text_fields(header, int, float) if len(header.split()) > 2
                 else graphs.text_fields(header, int) + [0.0])
    table = np.fromiter(edges, dtype=_ENTRY)
    flip = table["u"] > table["v"]
    table["u"][flip], table["v"][flip] = table["v"][flip], table["u"][flip]
    table["t"][flip] *= -1.0
    return Ccam.from_entries(dim, table, flux=flux, **extra)
