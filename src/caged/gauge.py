"""Unit-modulus phases on graphs: canonical gauge, fluxes, and flat values.

A complex weighted adjacency matrix is stored as a list of directed phase
angles: an entry (u, v, theta) with u < v means <u|H|v> = exp(i*theta) and
<v|H|u> = exp(-i*theta), so Hermiticity is exact by construction.  The flux
through a face is the winding sum of the phases around its boundary cycle;
the canonical gauge threads the same flux through every face of a glued tree.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

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


def level_angle_scale(x: Sequence[int], j: int, phi: float) -> float:
    """The angle omega_j = (phi/4) * (x_j - 1) * prod_{l<j} x_l."""
    prod = 1
    for v in x[: j - 1]:
        prod *= v
    return 0.25 * phi * (x[j - 1] - 1) * prod


def branch_angle(x: Sequence[int], j: int, branch: int, phi: float) -> float:
    """Phase angle of the ``branch``-th entry (1-based) at level j.

    The x_j entries step uniformly from +omega_j down to -omega_j; a level
    with x_j = 1 carries the single angle 0 (the omega -> 0 limit).
    """
    xj = x[j - 1]
    if xj == 1:
        return 0.0
    return (1.0 - 2.0 * (branch - 1) / (xj - 1)) * level_angle_scale(x, j, phi)


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


@dataclass(frozen=True)
class Ccam:
    """Hermitian unit-modulus weighted adjacency matrix with a nominal flux."""

    dimension: int
    entries: tuple[tuple[int, int, float], ...]
    first_vertex: int | None = None
    last_vertex: int | None = None
    flux: float = 0.0
    graph: graphs.Graph | None = None

    def __post_init__(self):
        for (u, v, _t) in self.entries:
            if not (0 <= u < v < self.dimension):
                raise InvalidParameterError(f"bad weighted edge ({u}, {v})")

    def phase(self, u: int, v: int) -> float:
        """Angle of <u|H|v>; raises for non-edges."""
        key = (u, v) if u < v else (v, u)
        theta = self._phase_map().get(key)
        if theta is None:
            raise InvalidParameterError(f"({u}, {v}) is not an edge")
        return theta if u < v else -theta

    def _phase_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): t for (u, v, t) in self.entries}

    def neighbors(self) -> tuple[tuple[tuple[int, complex], ...], ...]:
        """Row view: neighbors()[u] lists (v, <u|H|v>) for every edge at u."""
        out: list[list[tuple[int, complex]]] = [[] for _ in range(self.dimension)]
        for (u, v, t) in self.entries:
            w = cmath.exp(1j * t)
            out[u].append((v, w))
            out[v].append((u, w.conjugate()))
        return tuple(tuple(row) for row in out)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.dimension
        for (u, v, _t) in self.entries:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def dense_matrix(m: Ccam) -> np.ndarray:
    """Dense Hermitian matrix of a Ccam; refuses above the configured limit."""
    limit = dense_limit()
    if m.dimension > limit:
        raise ResourceLimitError(
            f"dimension {m.dimension} exceeds dense limit {limit} "
            f"(override with {DENSE_LIMIT_ENV})")
    out = np.zeros((m.dimension, m.dimension), dtype=complex)
    for (u, v, t) in m.entries:
        w = cmath.exp(1j * t)
        out[u, v] = w
        out[v, u] = w.conjugate()
    return out


def apply_ccam(m: Ccam, vec: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product H @ vec from the edge list."""
    return PhasedOperator(m).apply(vec)


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
        us = np.fromiter((e[0] for e in m.entries), dtype=np.int64, count=len(m.entries))
        vs = np.fromiter((e[1] for e in m.entries), dtype=np.int64, count=len(m.entries))
        ts = np.fromiter((e[2] for e in m.entries), dtype=float, count=len(m.entries))
        if extended:
            tl = ts.astype(np.longdouble)
            w = np.cos(tl) + 1j * np.sin(tl)
        else:
            w = np.exp(1j * ts)
        self.rows = np.concatenate([us, vs])
        self.cols = np.concatenate([vs, us])
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


def canonical_ccam(x: Sequence[int], phi: float, *, _allow_trailing_one: bool = False) -> Ccam:
    """The glued tree grown by ``x`` in the canonical gauge at flux ``phi``.

    Couplings out of each fresh first root and into each fresh last root carry
    the canonical level phases, which winds exactly ``phi`` around every face.
    """
    xs = graphs.check_growth_sequence(x, allow_trailing_one=_allow_trailing_one)
    lay = graphs.grow_layout(xs)
    perm = graphs.bfs_permutation(xs)
    entries = []
    for (u, v, lev, br, _side) in lay.tagged_edges:
        a = branch_angle(xs, lev, br, phi)
        pu, pv = perm[u], perm[v]
        entries.append((pu, pv, a) if pu < pv else (pv, pu, -a))
    g = _tree_graph(xs)
    return Ccam(
        dimension=lay.num_vertices,
        entries=tuple(sorted(entries)),
        first_vertex=perm[lay.first],
        last_vertex=perm[lay.last],
        flux=phi,
        graph=g,
    )


@lru_cache(maxsize=graphs.LAYOUT_CACHE_SIZE)
def _tree_graph(xs: tuple[int, ...]) -> graphs.Graph:
    lay = graphs.grow_layout(xs)
    perm = graphs.bfs_permutation(xs)
    edges = tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for (u, v, *_t) in lay.tagged_edges))
    plaq = tuple(tuple(perm[v] for v in cyc) for cyc in lay.plaquettes)
    return graphs.Graph(
        num_vertices=lay.num_vertices, edges=edges, plaquettes=plaq,
        first_vertex=perm[lay.first], last_vertex=perm[lay.last])


def chain_ccam(x: Sequence[int], cells: int, phi: float) -> Ccam:
    """A root-to-root chain of ``cells`` canonically gauged glued trees."""
    tree = canonical_ccam(x, phi)
    g = graphs.chain_graph(x, cells)
    stride = tree.dimension - 1
    entries = []
    for c in range(cells):
        off = c * stride
        entries.extend((u + off, v + off, t) for (u, v, t) in tree.entries)
    return Ccam(
        dimension=g.num_vertices,
        entries=tuple(sorted(entries)),
        first_vertex=0,
        last_vertex=g.num_vertices - 1,
        flux=phi,
        graph=g,
    )


def ccam_with_plaquette_fluxes(g: graphs.Graph, fluxes: Sequence[float], *,
                               first: int | None = None, last: int | None = None,
                               flux: float = 0.0) -> Ccam:
    """Solve for edge phases realizing the requested flux through each face.

    On a planar graph the face fluxes are free parameters, so the linear
    system always has a solution; the minimum-norm one is used and verified.
    """
    if len(fluxes) != len(g.plaquettes):
        raise InvalidParameterError("one flux per plaquette is required")
    index = {e: i for i, e in enumerate(g.edges)}
    rows = np.zeros((len(g.plaquettes), len(g.edges)))
    for r, cyc in enumerate(g.plaquettes):
        for i in range(len(cyc)):
            u, v = cyc[i], cyc[(i + 1) % len(cyc)]
            if u < v:
                rows[r, index[(u, v)]] += 1.0
            else:
                rows[r, index[(v, u)]] -= 1.0
    theta, *_ = np.linalg.lstsq(rows, np.asarray(fluxes, dtype=float), rcond=None)
    resid = rows @ theta - np.asarray(fluxes, dtype=float)
    if len(fluxes) and np.max(np.abs(resid)) > 1e-9:
        raise InvalidParameterError("face flux prescription is inconsistent")
    entries = tuple((u, v, float(theta[index[(u, v)]])) for (u, v) in g.edges)
    return Ccam(dimension=g.num_vertices, entries=entries,
                first_vertex=first if first is not None else g.first_vertex,
                last_vertex=last if last is not None else g.last_vertex,
                flux=flux, graph=g)


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


def plaquette_flux(m: Ccam, loop: Sequence[int]) -> float:
    """Winding sum of phases around a closed vertex loop, reduced to (-pi, pi]."""
    total = 0.0
    for i in range(len(loop)):
        total += m.phase(loop[i], loop[(i + 1) % len(loop)])
    return reduce_angle(total)


def all_plaquette_fluxes(m: Ccam) -> tuple[float, ...]:
    if m.graph is None or not m.graph.plaquettes:
        raise InvalidParameterError("matrix carries no face data")
    return tuple(plaquette_flux(m, cyc) for cyc in m.graph.plaquettes)


def gauge_transform(m: Ccam, w: int, gamma: float) -> Ccam:
    """Conjugate by the diagonal unitary that rotates vertex ``w`` by gamma.

    Phases move between the edges at ``w``; every loop sum, and hence the
    spectrum, is unchanged.
    """
    if not (0 <= w < m.dimension):
        raise InvalidParameterError(f"vertex {w} out of range")
    entries = []
    for (u, v, t) in m.entries:
        if v == w:
            t = t + gamma
        elif u == w:
            t = t - gamma
        entries.append((u, v, t))
    return replace(m, entries=tuple(entries))


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
    lines = [f"ccam {m.dimension} {m.flux:.17g}"]
    lines += [f"e {u} {v} {t:.17g}" for (u, v, t) in m.entries]
    if m.graph is not None:
        lines += ["face " + " ".join(str(v) for v in cyc) for cyc in m.graph.plaquettes]
    if m.first_vertex is not None:
        lines.append(f"root first {m.first_vertex}")
    if m.last_vertex is not None:
        lines.append(f"root last {m.last_vertex}")
    return "\n".join(lines) + "\n"


def parse_ccam(text: str) -> Ccam:
    dim = None
    flux = 0.0
    entries: list[tuple[int, int, float]] = []
    faces: list[tuple[int, ...]] = []
    first = last = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "ccam":
            dim = int(parts[1])
            flux = float(parts[2]) if len(parts) > 2 else 0.0
        elif parts[0] == "e":
            u, v, t = int(parts[1]), int(parts[2]), float(parts[3])
            entries.append((u, v, t) if u < v else (v, u, -t))
        elif parts[0] == "face":
            faces.append(tuple(int(s) for s in parts[1:]))
        elif parts[0] == "root":
            if parts[1] == "first":
                first = int(parts[2])
            else:
                last = int(parts[2])
        else:
            raise InvalidParameterError(f"unrecognized line {line!r}")
    if dim is None:
        raise InvalidParameterError("missing 'ccam <n> <flux>' header")
    g = None
    if faces:
        g = graphs.Graph(
            num_vertices=dim,
            edges=tuple(sorted((u, v) for (u, v, _t) in entries)),
            plaquettes=tuple(faces),
            first_vertex=first,
            last_vertex=last,
        )
    return Ccam(dimension=dim, entries=tuple(sorted(entries)), first_vertex=first,
                last_vertex=last, flux=flux, graph=g)
