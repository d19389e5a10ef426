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
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import graphs
from .errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

DEFAULT_DENSE_LIMIT = 4096
DENSE_LIMIT_ENV = "CAGED_DENSE_LIMIT"


def dense_limit() -> int:
    raw = os.environ.get(DENSE_LIMIT_ENV)
    return int(raw) if raw else DEFAULT_DENSE_LIMIT


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


def _frozen(values, dtype) -> np.ndarray:
    """A read-only array of ``values``; a writeable input is copied first."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Ccam:
    """Hermitian unit-modulus weighted adjacency matrix with a nominal flux.

    Edge k joins ``rows[k] < cols[k]`` with <rows[k]|H|cols[k]> =
    exp(i*phases[k]).  The edges are unique and sorted by (row, col).  The
    three arrays are read-only, because canonical trees share their index
    arrays through a per-sequence cache; ``entries`` views them as
    (u, v, theta) tuples.
    """

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    phases: np.ndarray
    first_vertex: int | None = None
    last_vertex: int | None = None
    flux: float = 0.0
    graph: graphs.Graph | None = None
    _keys: np.ndarray = field(init=False, repr=False)  # rows * dimension + cols

    def __post_init__(self):
        rows, cols = _frozen(self.rows, np.int64), _frozen(self.cols, np.int64)
        phases = _frozen(self.phases, float)
        if rows.ndim != 1 or cols.shape != rows.shape or phases.shape != rows.shape:
            raise InvalidParameterError(
                f"edge arrays differ in shape: {rows.shape}, {cols.shape}, {phases.shape}")
        bad = np.flatnonzero((rows < 0) | (rows >= cols) | (cols >= self.dimension))
        if bad.size:
            raise InvalidParameterError(f"bad weighted edge ({rows[bad[0]]}, {cols[bad[0]]})")
        keys = rows * self.dimension + cols
        bad = np.flatnonzero(keys[1:] <= keys[:-1]) + 1
        if bad.size:
            raise InvalidParameterError(
                f"duplicate or unsorted weighted edge ({rows[bad[0]]}, {cols[bad[0]]})")
        for name, value in (("rows", rows), ("cols", cols), ("phases", phases), ("_keys", keys)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_entries(cls, dimension: int, entries: Iterable[tuple[int, int, float]],
                     **fields) -> Ccam:
        """Build from (u, v, theta) tuples with u < v, in any order."""
        table = np.array(list(entries), dtype=[("u", np.int64), ("v", np.int64), ("t", float)])
        table.sort(order=("u", "v"))
        return cls(dimension=dimension, rows=table["u"], cols=table["v"], phases=table["t"],
                   **fields)

    @property
    def entries(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.phases.tolist()))

    def edge_slots(self, us, vs) -> np.ndarray:
        """Index of the edge {u, v} for each pair of vertices; raises for a non-edge."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        want = lo * self.dimension + hi
        slot = np.searchsorted(self._keys, want)
        hit = (lo >= 0) & (lo < hi) & (hi < self.dimension) & (slot < len(self._keys))
        hit[hit] = self._keys[slot[hit]] == want[hit]
        miss = np.flatnonzero(~hit)
        if miss.size:
            raise InvalidParameterError(f"({us[miss[0]]}, {vs[miss[0]]}) is not an edge")
        return slot

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.rows, self.cols]), minlength=self.dimension)

    def distances(self, source: int) -> list[int]:
        """Graph distance from ``source``, level by level; ``dimension`` if unreachable."""
        heads = np.concatenate([self.rows, self.cols])
        tails = np.concatenate([self.cols, self.rows])
        dist = np.full(self.dimension, self.dimension, dtype=np.int64)
        dist[source] = 0
        frontier = dist == 0
        level = 0
        while frontier.any():
            level += 1
            reached = np.zeros(self.dimension, dtype=bool)
            reached[tails[frontier[heads]]] = True
            frontier = reached & (dist == self.dimension)
            dist[frontier] = level
        return dist.tolist()


def dense_matrix(m: Ccam) -> np.ndarray:
    """Dense Hermitian matrix of a Ccam; refuses above the configured limit."""
    limit = dense_limit()
    if m.dimension > limit:
        raise ResourceLimitError(
            f"dimension {m.dimension} exceeds dense limit {limit} "
            f"(override with {DENSE_LIMIT_ENV})")
    out = np.zeros((m.dimension, m.dimension), dtype=complex)
    w = np.exp(1j * m.phases)
    out[m.rows, m.cols] = w
    out[m.cols, m.rows] = w.conj()
    return out


class PhasedOperator:
    """Prepared sparse matrix-vector kernel for a Ccam.

    Stores the directed edge arrays once so repeated products cost O(|E|)
    vectorized work each, with no dense matrix ever formed.  With
    ``extended=True`` the weights are held in 80-bit floats and products
    accumulate at that precision, which buys roughly three extra digits in
    long cancellation-heavy iterations.
    """

    def __init__(self, m: Ccam, extended: bool = False):
        self.dimension = m.dimension
        if extended:
            tl = m.phases.astype(np.longdouble)
            w = np.cos(tl) + 1j * np.sin(tl)
        else:
            w = np.exp(1j * m.phases)
        self.rows = np.concatenate([m.rows, m.cols])
        self.cols = np.concatenate([m.cols, m.rows])
        self.weights = np.concatenate([w, w.conj()])
        self.dtype = self.weights.dtype

    def apply(self, vec: np.ndarray) -> np.ndarray:
        prod = self.weights * vec[self.cols]
        if self.dtype == np.complex128:
            out = np.bincount(self.rows, weights=prod.real, minlength=self.dimension)
            out = out.astype(self.dtype)
            out += 1j * np.bincount(self.rows, weights=prod.imag, minlength=self.dimension)
            return out
        out = np.zeros(self.dimension, dtype=self.dtype)  # bincount would downcast
        np.add.at(out, self.rows, prod)
        return out


@lru_cache(maxsize=graphs.GROWTH_CACHE_SIZE)
def _canonical_template(xs: tuple[int, ...]):
    """The flux-free part of ``canonical_ccam``: the tree, its sorted edges,
    and per edge the factors of its phase f * (phi/4) * a * p, where a =
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
    return (graphs.grow_tree(xs, _allow_trailing_one=True), g.rows, g.cols) + factors


def canonical_ccam(x: Sequence[int], phi: float, *, _allow_trailing_one: bool = False) -> Ccam:
    """The glued tree grown by ``x`` in the canonical gauge at flux ``phi``.

    Couplings out of each fresh first root and into each fresh last root carry
    the canonical level phases, which winds exactly ``phi`` around every face.
    """
    xs = graphs.check_growth_sequence(x, allow_trailing_one=_allow_trailing_one)
    g, rows, cols, f, a, p = _canonical_template(xs)
    return Ccam(dimension=g.num_vertices, rows=rows, cols=cols,
                phases=f * (0.25 * phi * a * p), first_vertex=g.first_vertex,
                last_vertex=g.last_vertex, flux=phi, graph=g)


def chain_ccam(x: Sequence[int], cells: int, phi: float) -> Ccam:
    """A root-to-root chain of ``cells`` canonically gauged glued trees.

    Cell c is the tree shifted by c times (tree size - 1); the shift keeps
    every cell's edges after the previous cell's, so the tiling stays sorted.
    """
    tree = canonical_ccam(x, phi)
    g = graphs.chain_graph(x, cells)
    offsets = (tree.dimension - 1) * np.arange(cells)[:, None]
    return Ccam(dimension=g.num_vertices, rows=(tree.rows + offsets).ravel(),
                cols=(tree.cols + offsets).ravel(), phases=np.tile(tree.phases, cells),
                first_vertex=0, last_vertex=g.num_vertices - 1, flux=phi, graph=g)


def _face_steps(faces: Sequence[Sequence[int]]):
    """Every step u -> v around closed vertex loops, as arrays (face,
    position, u, v), in face order and along each face."""
    lengths = np.array(list(map(len, faces)), dtype=np.int64)
    us = np.array(list(itertools.chain.from_iterable(faces)), dtype=np.int64)
    face = np.repeat(np.arange(len(lengths)), lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.arange(len(us)) - start
    nxt = np.where(pos == lengths[face] - 1, start, np.arange(len(us)) + 1)
    return face, pos, us, us[nxt]


def ccam_with_plaquette_fluxes(g: graphs.Graph, fluxes: Sequence[float], *,
                               first: int | None = None, last: int | None = None,
                               flux: float = 0.0) -> Ccam:
    """Solve for edge phases realizing the requested flux through each face.

    On a planar graph the face fluxes are free parameters, so the linear
    system always has a solution; the minimum-norm one is used and verified.
    """
    if len(fluxes) != len(g.plaquettes):
        raise InvalidParameterError("one flux per plaquette is required")
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    m = Ccam(dimension=g.num_vertices, rows=edges[:, 0], cols=edges[:, 1],
             phases=np.zeros(len(edges)),
             first_vertex=first if first is not None else g.first_vertex,
             last_vertex=last if last is not None else g.last_vertex, flux=flux, graph=g)
    face, _pos, us, vs = _face_steps(g.plaquettes)
    incidence = np.zeros((len(g.plaquettes), len(edges)))
    np.add.at(incidence, (face, m.edge_slots(us, vs)), np.where(us < vs, 1.0, -1.0))
    want = np.asarray(fluxes, dtype=float)
    theta, *_ = np.linalg.lstsq(incidence, want, rcond=None)
    if len(fluxes) and np.max(np.abs(incidence @ theta - want)) > 1e-9:
        raise InvalidParameterError("face flux prescription is inconsistent")
    return replace(m, phases=theta)


def lotus_ccam(patch: graphs.Graph, phi: float) -> Ccam:
    """Phases for a lotus patch: each shrub face winds its recorded sign times phi."""
    if patch.plaquette_signs is None:
        raise InvalidParameterError("patch does not carry face orientation signs")
    fluxes = [s * phi for s in patch.plaquette_signs]
    return ccam_with_plaquette_fluxes(patch, fluxes, flux=phi)


def reduce_angle(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.fmod(angle, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def _face_fluxes(m: Ccam, faces: Sequence[Sequence[int]]) -> np.ndarray:
    """Winding sum of phases around each closed vertex loop, reduced to (-pi, pi].

    Each face sums its steps left to right, as ``reduce_angle(sum)`` would;
    the zero padding of shorter faces leaves their sums unchanged.
    """
    face, pos, us, vs = _face_steps(faces)
    steps = np.zeros((len(faces), int(pos.max(initial=-1)) + 1))
    theta = m.phases[m.edge_slots(us, vs)]
    steps[face, pos] = np.where(us < vs, theta, -theta)
    total = np.zeros(len(faces))
    for column in steps.T:
        total += column
    r = np.fmod(total, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r <= -math.pi, r + TWO_PI, r))


def plaquette_flux(m: Ccam, loop: Sequence[int]) -> float:
    """Winding sum of phases around a closed vertex loop, reduced to (-pi, pi]."""
    return float(_face_fluxes(m, (loop,))[0])


def all_plaquette_fluxes(m: Ccam) -> tuple[float, ...]:
    if m.graph is None or not m.graph.plaquettes:
        raise InvalidParameterError("matrix carries no face data")
    return tuple(_face_fluxes(m, m.graph.plaquettes).tolist())


def gauge_transform(m: Ccam, w: int, gamma: float) -> Ccam:
    """Conjugate by the diagonal unitary that rotates vertex ``w`` by gamma.

    Phases move between the edges at ``w``; every loop sum, and hence the
    spectrum, is unchanged.
    """
    if not (0 <= w < m.dimension):
        raise InvalidParameterError(f"vertex {w} out of range")
    t = m.phases
    return replace(m, phases=np.where(m.cols == w, t + gamma, np.where(m.rows == w, t - gamma, t)))


# ---------------------------------------------------------------------------
# Flat values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSet:
    """The angles 2*pi*z/M for z = 1..M, where M is the product of the sequence."""

    denominator: int
    values: tuple[float, ...]

    def index(self, angle: float, tol: float = 1e-9) -> int | None:
        """The z in 1..M with angle = 2*pi*z/M (mod 2*pi) within ``tol``, else None."""
        step = TWO_PI / self.denominator
        z = round(angle / step)
        return (z - 1) % self.denominator + 1 if abs(angle - z * step) < tol else None

    def contains(self, angle: float, tol: float = 1e-9) -> bool:
        return self.index(angle, tol) is not None

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
    faces = m.graph.plaquettes if m.graph is not None else ()
    return graphs.format_text(f"ccam {m.dimension} {m.flux:.17g}",
                              (f"e {u} {v} {t:.17g}" for (u, v, t) in m.entries),
                              faces, m.first_vertex, m.last_vertex)


def parse_ccam(text: str) -> Ccam:
    header, edges, faces, roots = graphs.parse_text(text, "ccam <n> <flux>", (int, int, float))
    dim, flux = (graphs.text_fields(header, int, float) if len(header.split()) > 2
                 else graphs.text_fields(header, int) + [0.0])
    entries = [(u, v, t) if u < v else (v, u, -t) for (u, v, t) in edges]
    first, last = roots.get("first"), roots.get("last")
    m = Ccam.from_entries(dim, entries, first_vertex=first, last_vertex=last, flux=flux)
    if not faces:
        return m
    g = graphs.Graph(num_vertices=dim, edges=tuple(zip(m.rows.tolist(), m.cols.tolist())),
                     plaquettes=tuple(faces), first_vertex=first, last_vertex=last)
    return replace(m, graph=g)
