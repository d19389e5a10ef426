"""Unit-modulus phases on graphs: canonical gauge, fluxes, and flat values.

A complex weighted adjacency matrix is stored as three edge arrays: edge k
joins rows[k] < cols[k] with <rows[k]|H|cols[k]> = exp(i*phases[k]) and
<cols[k]|H|rows[k]> = exp(-i*phases[k]), so Hermiticity is exact by
construction.  The flux through a face is the winding sum of the phases
around its boundary cycle; the canonical gauge threads the same flux through
every face of a glued tree, each edge's phase a fixed factor times the flux.
"""

from __future__ import annotations

import cmath
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
# An angle within this distance of 2*pi*z/M is the flat value z.
FLAT_VALUE_TOL = 1e-9


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
# Canonical phase vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseVector:
    """Unit-modulus weights attached to one growth level at a given flux."""

    entries: tuple[complex, ...]
    level: int
    flux: float


def branch_angle(x: Sequence[int], j: int, branch: int, phi: float) -> float:
    """Phase angle of the ``branch``-th entry (1-based) at level j.

    The x_j entries step uniformly from +omega_j down to -omega_j, where
    omega_j = (phi/4) * (x_j - 1) * prod_{l<j} x_l; a level with x_j = 1
    carries the single angle 0 (the omega -> 0 limit).
    """
    xj = x[j - 1]
    if xj == 1:
        return 0.0
    omega = 0.25 * phi * (xj - 1) * math.prod(x[: j - 1])
    return (1.0 - 2.0 * (branch - 1) / (xj - 1)) * omega


def canonical_phase_vector(x: Sequence[int], j: int, phi: float) -> PhaseVector:
    xs = graphs.check_growth_sequence(x, allow_trailing_one=True)
    if not (1 <= j <= len(xs)):
        raise InvalidParameterError(f"level {j} out of range for sequence of length {len(xs)}")
    entries = tuple(
        cmath.exp(1j * branch_angle(xs, j, b, phi)) for b in range(1, xs[j - 1] + 1)
    )
    return PhaseVector(entries=entries, level=j, flux=phi)


def phase_pairing(v: PhaseVector) -> complex:
    """The unconjugated self-pairing sum_j entries[j]^2.

    Vanishes exactly when the squared entries are the full set of nontrivial
    rotations of some root of unity; for the canonical vectors this happens
    when exp(i * phi * prod_{l<j} x_l) is a nontrivial x_j-th root of unity.
    """
    return sum(e * e for e in v.entries)


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
    a per-sequence cache; the phases are read-only too, and they and the
    flux must be finite.  ``entries`` views the matrix as (u, v, theta)
    tuples.  ``with_phases`` rephases a matrix on the same graph and checks
    only the new phases.  ``apply`` multiplies by the matrix without forming
    it.
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
        """<head|H|tail> along ``graph.slots``: exp(i*phase) on a forward slot,
        its conjugate on a backward one, 0 on an isolated vertex's self-slot."""
        _tails, edges, backward, _starts = self.graph.slots
        w = np.append(np.exp(1j * self.phases), 0.0)[edges]
        return np.where(backward, w.conj(), w)

    def apply(self, x) -> np.ndarray:
        """H x in complex128 for a vector (n,) or a column block (n, c): one
        gather along ``graph.slots`` and one segmented sum over every vertex's
        run, an isolated vertex summing its zero-weight self-slot."""
        x = np.asarray(x)
        if not self.dimension:
            return np.zeros(x.shape, dtype=complex)
        tails, _edges, _backward, starts = self.graph.slots
        w = self._weights
        return np.add.reduceat(x[tails] * (w if x.ndim == 1 else w[:, None]), starts, axis=0)


def require_dense(dimension: int):
    """Refuse a dense solve of ``dimension`` rows above ``dense_limit()``."""
    limit = dense_limit()
    if dimension > limit:
        raise ResourceLimitError(
            f"dimension {dimension} exceeds dense limit {limit} "
            f"(override with {DENSE_LIMIT_ENV})")


def dense_matrix(m: Ccam) -> np.ndarray:
    """Dense Hermitian matrix of a Ccam; refuses above the configured limit."""
    require_dense(m.dimension)
    out = np.zeros((m.dimension, m.dimension), dtype=complex)
    w = np.exp(1j * m.phases)
    out[m.rows, m.cols] = w
    out[m.cols, m.rows] = w.conj()
    return out


@lru_cache(maxsize=graphs.GROWTH_CACHE_SIZE)
def _canonical_template(xs: tuple[int, ...]):
    """The flux-free part of ``canonical_ccam``: the tree at zero flux, and
    per edge the factors of its phase f * (phi/4) * a * p, where a =
    x_j - 1, p = x_1...x_{j-1} and f = +-(1 - 2(b-1)/(x_j-1)) for branch b,
    negative when the edge runs to the lower label.  Multiplied in that
    order they reproduce ``branch_angle`` bit for bit."""
    g = graphs.growth(xs)
    x = np.array(xs)[g.level - 1]
    f = np.where(g.forward, 1.0, -1.0) * (1.0 - 2.0 * (g.branch - 1) / np.maximum(x - 1, 1))
    p = np.cumprod(np.array((1,) + xs[:-1]))[g.level - 1]
    factors = (f, x - 1.0, p * 1.0)
    for arr in factors:
        arr.flags.writeable = False  # shared by every Ccam of this sequence
    zero = Ccam(graphs.grow_tree(xs, _allow_trailing_one=True), np.zeros(len(g.rows)))
    return (zero,) + factors


def canonical_ccam(x: Sequence[int], phi: float, *, _allow_trailing_one: bool = False) -> Ccam:
    """The glued tree grown by ``x`` in the canonical gauge at flux ``phi``.

    Couplings out of each fresh first root and into each fresh last root carry
    the canonical level phases, which winds exactly ``phi`` around every face.
    """
    xs = graphs.check_growth_sequence(x, allow_trailing_one=_allow_trailing_one)
    # Each a * p is below the product M: a finite phi * M / 4 keeps every phase
    # finite, and a flux that fails is refused before the factors meet it.
    if not math.isfinite(0.25 * phi * math.prod(xs)):
        raise InvalidParameterError(f"flux {phi} is not finite or overflows the phases")
    zero, f, a, p = _canonical_template(xs)
    return zero.with_phases(f * (0.25 * phi * a * p), phi)


def chain_ccam(x: Sequence[int], cells: int, phi: float) -> Ccam:
    """A root-to-root chain of ``cells`` canonically gauged glued trees: cell
    c carries the tree's phases on the tree's edges shifted by c times (tree
    size - 1), which is the chain graph's edge order."""
    tree = canonical_ccam(x, phi)
    return Ccam(graphs.chain_graph(x, cells), np.tile(tree.phases, cells), phi)


def ccam_with_plaquette_fluxes(g: graphs.Graph, fluxes: Sequence[float], *,
                               flux: float = 0.0) -> Ccam:
    """Solve for edge phases realizing the requested flux through each face.

    On a planar graph the face fluxes are free parameters, so the linear
    system always has a solution; the minimum-norm one is used and verified.
    """
    if len(fluxes) != len(g.face_lengths):
        raise InvalidParameterError("one flux per plaquette is required")
    face, _pos, us, vs = graphs.face_steps(g.face_vertices, g.face_lengths)
    shape = (len(g.face_lengths), g.num_edges)
    cells = face * g.num_edges + g.edge_slots(us, vs)
    incidence = np.bincount(cells, np.where(us < vs, 1.0, -1.0),
                            minlength=shape[0] * shape[1]).reshape(shape)
    want = np.asarray(fluxes, dtype=float)
    theta, *_ = np.linalg.lstsq(incidence, want, rcond=None)
    if len(fluxes) and np.max(np.abs(incidence @ theta - want)) > 1e-9:
        raise InvalidParameterError("face flux prescription is inconsistent")
    return Ccam(g, theta, flux)


def lotus_ccam(patch: graphs.Graph, phi: float) -> Ccam:
    """Phases for a lotus patch: each shrub face winds its recorded sign times phi."""
    if patch.plaquette_signs is None:
        raise InvalidParameterError("patch does not carry face orientation signs")
    return ccam_with_plaquette_fluxes(patch, np.multiply(patch.plaquette_signs, phi), flux=phi)


def reduce_angle(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.fmod(angle, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def _face_fluxes(m: Ccam, vertices: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Winding sum of phases around each closed vertex loop, the loops being
    ``vertices`` cut into runs of ``lengths``, reduced to (-pi, pi].

    Each face sums its steps left to right, as ``reduce_angle(sum)`` would;
    the zero padding of shorter faces leaves their sums unchanged.
    """
    face, pos, us, vs = graphs.face_steps(vertices, lengths)
    steps = np.zeros((len(lengths), int(pos.max(initial=-1)) + 1))
    theta = m.phases[m.graph.edge_slots(us, vs)]
    steps[face, pos] = np.where(us < vs, theta, -theta)
    total = np.zeros(len(lengths))
    for column in steps.T:
        total += column
    r = np.fmod(total, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))


def all_plaquette_fluxes(m: Ccam) -> tuple[float, ...]:
    if not len(m.graph.face_lengths):
        raise InvalidParameterError("matrix carries no face data")
    return tuple(_face_fluxes(m, m.graph.face_vertices, m.graph.face_lengths).tolist())


# ---------------------------------------------------------------------------
# Flat values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSet:
    """The angles 2*pi*z/M for z = 1..M, where M is the product of the sequence."""

    denominator: int
    values: tuple[float, ...]

    def index(self, angle: float) -> int | None:
        """The z in 1..M with angle = 2*pi*z/M (mod 2*pi) within
        ``FLAT_VALUE_TOL``, else None; refuses an angle that is not finite."""
        if not math.isfinite(angle):
            raise InvalidParameterError(f"flux {angle} is not a finite angle")
        step = TWO_PI / self.denominator
        z = round(angle / step)
        return (z - 1) % self.denominator + 1 if abs(angle - z * step) < FLAT_VALUE_TOL else None

    def contains(self, angle: float) -> bool:
        return self.index(angle) is not None

    def midpoints(self) -> tuple[float, ...]:
        """Angles halfway between consecutive members."""
        step = TWO_PI / self.denominator
        return tuple((z + 0.5) * step for z in range(self.denominator))


def flat_values(x: Sequence[int]) -> FlatSet:
    xs = graphs.check_growth_sequence(x)
    m = 1
    for v in xs:
        m *= v
    return FlatSet(denominator=m, values=tuple(TWO_PI * z / m for z in range(1, m + 1)))


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
