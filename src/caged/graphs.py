"""Construction of glued trees, chains, lotus patches, and related graphs.

A glued tree is grown from a sequence of positive integers X = (x_1, ..., x_d)
with x_d > 1: level 1 is the x_1-shrub (the complete bipartite graph K_{2,x_1}
with its two degree-x_1 vertices marked as roots), and level i joins x_i copies
of the level i-1 tree between a fresh pair of roots.  Growing records, for every
bounded face of the standard planar drawing, the cycle of vertices around it
("plaquettes"); downstream code threads a uniform flux through those faces.

All builders are pure functions returning frozen values.  Vertex ids are
assigned in breadth-first order from the first root, with neighbors visited in
construction order, so identical inputs always produce identical graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidParameterError

Edge = tuple[int, int]

# Entries in each per-sequence cache: more than the 440 sequences with
# product <= 64, so a sweep over that family rebuilds nothing.
GROWTH_CACHE_SIZE = 512
# Most vertices of a graph: a vertex pair is keyed u * n + v in int64.
MAX_VERTICES = math.isqrt(2**63 - 1)


def check_growth_sequence(x: Sequence[int], *, allow_trailing_one: bool = False) -> tuple[int, ...]:
    """Validate and normalize a growth sequence.

    Entries must be integers >= 1 and, unless ``allow_trailing_one`` (used for
    internal sub-builds), the last entry must be >= 2.
    """
    xs = tuple(int(v) for v in x)
    if len(xs) == 0:
        raise InvalidParameterError("growth sequence must be nonempty")
    if any(v < 1 for v in xs):
        raise InvalidParameterError(f"growth sequence entries must be >= 1, got {xs}")
    if not allow_trailing_one and xs[-1] < 2:
        raise InvalidParameterError(f"last growth entry must be > 1, got {xs}")
    return xs


def read_only(values, dtype) -> np.ndarray:
    """A read-only array of ``values``; a writeable input is copied first."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def face_steps(vertices: np.ndarray, lengths: np.ndarray):
    """Every step u -> v around closed vertex loops, given as ``vertices`` cut
    into runs of ``lengths``: arrays (face, position, u, v), in face order and
    along each face."""
    face = np.repeat(np.arange(len(lengths)), lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.arange(len(vertices)) - start
    nxt = np.where(pos == lengths[face] - 1, start, np.arange(len(vertices)) + 1)
    return face, pos, vertices, vertices[nxt]


def two_colouring(n: int, rows, cols) -> np.ndarray:
    """The side of each of ``n`` vertices in the 2-colouring of the graph
    with edges (rows[k], cols[k]), as booleans: False on the lowest vertex of
    each component.  Refuses a graph with an odd cycle (or a loop).

    Each vertex hangs from its lowest neighbour below it, which makes a
    forest, and pointer doubling reads every vertex's root and the parity of
    its depth.  An edge between two trees becomes an edge between their
    roots, carrying the parity its ends must differ by, and the same step
    joins those roots, until every edge lies within one tree and is checked.
    A breadth-first labelling, as every builder here makes, leaves one tree
    per component after the first step.
    """
    u, v = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    odd = np.ones(lo.shape, dtype=bool)  # whether the two ends differ
    side, root = np.zeros(n, dtype=bool), np.arange(n)
    while True:
        inside = lo == hi
        if (odd & inside).any():
            raise InvalidParameterError("the graph is not bipartite: it has an odd cycle")
        lo, hi, odd = lo[~inside], hi[~inside], odd[~inside]
        if not lo.size:
            return side
        # Each vertex's lowest lower neighbour and the parity to it, as 2*lo + odd.
        best = np.full(n, 2 * n)
        np.minimum.at(best, hi, 2 * lo + odd)
        up = np.where(best < 2 * n, best // 2, np.arange(n))
        flip = best % 2 == 1
        while (up[up] != up).any():
            flip ^= flip[up]
            up = up[up]
        side ^= flip[root]
        root = up[root]
        odd ^= flip[lo] ^ flip[hi]
        lo, hi = np.minimum(up[lo], up[hi]), np.maximum(up[lo], up[hi])


def sublattice_slots(side: np.ndarray, rows, cols):
    """Each edge's slot in the |A| x |B| block <A|H|B> of a bipartite graph,
    A and B being the vertices where ``side`` is False and True, each in id
    order: arrays (row among A, column among B, flip).  ``flip`` marks an
    edge whose row lies in B; it enters the block with its ends swapped,
    conjugated.
    """
    pos = np.where(side, np.cumsum(side), np.cumsum(~side)) - 1
    flip = side[rows]
    return np.where(flip, pos[cols], pos[rows]), np.where(flip, pos[rows], pos[cols]), flip


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected graph as read-only arrays, with face and root annotations.

    Edge k joins ``rows[k] < cols[k]``, unique and sorted by (row, col).  The
    faces bound internal faces: ``face_vertices`` cut into runs of
    ``face_lengths``, each cyclic step an edge.  ``roles`` classifies the
    vertices of lotus patches, ``cell_bounds`` marks the shared roots of a
    chain, and ``plaquette_signs`` gives each lotus face's flux sign relative
    to the common flux angle.

    Construction is the one check: it refuses more than ``MAX_VERTICES``
    vertices and the first edge, in the order given, that is out of range or
    repeats an earlier edge, then sorts the edges, and refuses a root outside
    ``0..num_vertices-1``, a face of fewer than 3 vertices or a face step
    that is not an edge.  Sorted read-only inputs, such as the cached growth
    arrays, are kept without a copy.
    """

    num_vertices: int
    rows: np.ndarray
    cols: np.ndarray
    face_vertices: np.ndarray = ()
    face_lengths: np.ndarray = ()
    first_vertex: int | None = None
    last_vertex: int | None = None
    roles: tuple[str, ...] | None = None
    cell_bounds: tuple[int, ...] | None = None
    plaquette_signs: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.num_vertices
        if not 0 <= n <= MAX_VERTICES:
            raise InvalidParameterError(f"{n} vertices; at most {MAX_VERTICES} are supported")
        rows, cols = np.asarray(self.rows, dtype=np.int64), np.asarray(self.cols, dtype=np.int64)
        if rows.ndim != 1 or cols.shape != rows.shape:
            raise InvalidParameterError(f"edge arrays differ in shape: {rows.shape}, {cols.shape}")
        bad = np.flatnonzero((rows < 0) | (rows >= cols) | (cols >= n))
        # Stably sorted by (row, col), every edge but the first of each run repeats one.
        order = np.lexsort((cols, rows))
        same = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
        first = min(bad[:1].tolist() + order[1:][same].tolist(), default=None)
        if first is not None:
            a, b = int(rows[first]), int(cols[first])
            if bad.size and bad[0] == first:
                raise InvalidParameterError(f"bad edge ({a}, {b}) for {n} vertices")
            raise InvalidParameterError(f"duplicate edge ({a}, {b})")
        if (order[1:] < order[:-1]).any():
            rows, cols = rows[order], cols[order]
        for name, value in (("rows", rows), ("cols", cols), ("face_vertices", self.face_vertices),
                            ("face_lengths", self.face_lengths)):
            object.__setattr__(self, name, read_only(value, np.int64))
        vertices, lengths = self.face_vertices, self.face_lengths
        if (vertices.ndim != 1 or lengths.ndim != 1 or (lengths < 0).any()
                or lengths.sum() != vertices.size):
            raise InvalidParameterError(
                f"face lengths {lengths.tolist()} do not cut {vertices.size} face vertices")
        short = np.flatnonzero(lengths < 3)
        if short.size:
            raise InvalidParameterError(
                f"face {short[0]} has {lengths[short[0]]} vertices; a face needs at least 3")
        for root in (self.first_vertex, self.last_vertex):
            if root is not None and not 0 <= root < n:
                raise InvalidParameterError(f"root {root} out of range for {n} vertices")
        self.edge_slots(*face_steps(vertices, lengths)[2:])  # refuses a face step off the edges

    @property
    def num_edges(self) -> int:
        return len(self.rows)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as (u, v) tuples, a view for readers."""
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))

    @property
    def plaquettes(self) -> tuple[tuple[int, ...], ...]:
        """The faces as vertex tuples, a view for readers."""
        flat = self.face_vertices.tolist()
        ends = np.cumsum(self.face_lengths).tolist()
        return tuple(map(tuple, map(flat.__getitem__, map(slice, [0] + ends[:-1], ends))))

    def edge_slots(self, us, vs) -> np.ndarray:
        """Index of the edge {u, v} for each pair of vertices; raises for a non-edge."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        n = self.num_vertices
        keys, want = self.rows * n + self.cols, lo * n + hi
        slot = np.searchsorted(keys, want)
        hit = (lo >= 0) & (lo < hi) & (hi < n) & (slot < len(keys))
        hit[hit] = keys[slot[hit]] == want[hit]
        miss = np.flatnonzero(~hit)
        if miss.size:
            raise InvalidParameterError(f"({us[miss[0]]}, {vs[miss[0]]}) is not an edge")
        return slot

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.rows, self.cols]), minlength=self.num_vertices)

    def distances(self, source) -> np.ndarray:
        """Graph distance from ``source``, level by level along ``slots``;
        ``num_vertices`` if unreachable.  An array of sources gives one row
        of distances per source."""
        tails, _edges, _backward, starts = self.slots
        n = self.num_vertices
        source = np.asarray(source)
        dist = np.full(source.shape + (n,), n, dtype=np.int64)
        np.put_along_axis(dist, source[..., None], 0, axis=-1)
        frontier = dist == 0
        level = 0
        while frontier.any():
            level += 1
            frontier = np.logical_or.reduceat(frontier[..., tails], starts, axis=-1) & (dist == n)
            dist[frontier] = level
        return dist

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each vertex's run offsets, then every (neighbour, edge) by vertex."""
        heads = np.concatenate([self.rows, self.cols])
        tails = np.concatenate([self.cols, self.rows])
        order = np.lexsort((tails, heads))
        offsets = np.searchsorted(heads[order], np.arange(self.num_vertices + 1))
        return offsets, tails[order], order % max(self.num_edges, 1)

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The flux-free layout of a product with H: ``adjacency`` with one
        self-slot for each isolated vertex, so every vertex has a nonempty run.
        Arrays (tails, edges, backward, starts): each directed slot's tail,
        its edge, or the sentinel ``num_edges`` (weight 0) on a self-slot,
        whether it runs from the higher label to the lower, and where each
        vertex's run starts."""
        offsets, tails, edges = self.adjacency
        degree = np.diff(offsets)
        lonely = np.flatnonzero(degree == 0)
        tails = np.insert(tails, offsets[lonely], lonely)
        edges = np.insert(edges, offsets[lonely], self.num_edges)
        runs = np.maximum(degree, 1)
        heads = np.repeat(np.arange(self.num_vertices), runs)
        return tails, edges, heads >= tails, np.cumsum(runs) - runs

    @cached_property
    def colouring(self) -> np.ndarray:
        """``two_colouring`` of the graph, read-only: the sublattice of each
        vertex, True on B; refuses a graph with an odd cycle."""
        return read_only(two_colouring(self.num_vertices, self.rows, self.cols), bool)

    def incidences(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (j, w, e): w is across edge e from vertices[j], by j then w."""
        offsets, neighbours, edges = self.adjacency
        lo, hi = offsets[vertices], offsets[np.asarray(vertices) + 1]
        j = np.repeat(np.arange(len(lo)), hi - lo)
        k = np.arange(len(j)) + (lo - np.cumsum(hi - lo) + hi - lo)[j]
        return j, neighbours[k], edges[k]


# ---------------------------------------------------------------------------
# Growth: the level-by-level construction, relabeled breadth-first.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Growth:
    """The glued tree grown by a sequence, as read-only arrays.

    ``perm`` maps each growth id to its breadth-first id; growth ids put the
    first root first, then the x_d copies of the depth d-1 tree one after
    another, each in its own growth order, and the last root last.  Edge k
    joins breadth-first ids ``rows[k] < cols[k]``, sorted by (row, col); it
    couples a fresh root of level ``level[k]`` to copy ``branch[k]``
    (1-based), and ``forward[k]`` is true when that root side is the row.
    The faces are ``face_vertices`` cut into runs of ``face_lengths``, in
    growth order: at each level the big faces between adjacent copies, then
    each copy's own faces.  The first root is 0 and the last root is the
    last id.
    """

    perm: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    level: np.ndarray
    branch: np.ndarray
    forward: np.ndarray
    face_vertices: np.ndarray
    face_lengths: np.ndarray


@lru_cache(maxsize=GROWTH_CACHE_SIZE)
def growth(x: tuple[int, ...]) -> Growth:
    """The tree grown by ``x``, built once per sequence and shared.

    Level i tiles x_i copies of the level i-1 arrays at their copy offsets
    (level 1 tiles single vertices) between a fresh pair of roots, and closes
    a big face between adjacent copies along their boundary paths.  The
    breadth-first ids are tiled with them: a copy's vertex at distance d from
    the copy's first root is at distance d + 1 from the fresh first root, so
    it takes an id after every vertex closer, after the vertices at its
    distance in earlier copies, and in its copy's own order.  That is the
    order of a breadth-first search from the first root that visits
    neighbours by growth id.
    """
    xs = check_growth_sequence(x, allow_trailing_one=True)
    n = 1
    u = v = level = branch = faces = lengths = np.zeros(0, dtype=np.int64)
    left = right = perm = dist = np.zeros(1, dtype=np.int64)  # boundary paths, ids, distances
    for lev, xi in enumerate(xs, start=1):
        copy = np.arange(xi)
        shift = (1 + n * copy)[:, None]  # growth id of each copy's first root
        last = 1 + xi * n
        u = np.concatenate([0 * copy, shift[:, 0] + n - 1, (u + shift).ravel()])
        v = np.concatenate([shift[:, 0], 0 * copy + last, (v + shift).ravel()])
        level = np.concatenate([np.full(2 * xi, lev)] + [level] * xi)
        branch = np.concatenate([copy + 1, copy + 1] + [branch] * xi)
        # the face between copies 0 and 1; copy j's face shifts its copy vertices by j * n
        big = np.concatenate([[0], right + 1, [last], left[::-1] + 1 + n])
        big = big + n * copy[:-1, None] * ((big != 0) & (big != last))
        faces = np.concatenate([big.ravel(), (faces + shift).ravel()])
        lengths = np.concatenate([np.full(xi - 1, big.shape[1])] + [lengths] * xi)
        left = np.concatenate([[0], left + 1, [last]])
        right = np.concatenate([[0], right + 1 + n * (xi - 1), [last]])
        count = np.bincount(dist)
        start = (np.cumsum(count) - count)[dist]  # first id at each vertex's distance
        ids = 1 + xi * start + (perm - start) + count[dist] * copy[:, None]
        perm = np.concatenate([[0], ids.ravel(), [last]])
        dist = np.concatenate([[0]] + [dist + 1] * xi + [[dist[-1] + 2]])
        n = last + 1

    pu, pv = perm[u], perm[v]
    rows, cols = np.minimum(pu, pv), np.maximum(pu, pv)
    order = np.argsort(rows * n + cols)
    arrays = (perm, rows[order], cols[order], level[order], branch[order], (pu < pv)[order],
              perm[faces], lengths)
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller of this sequence
    return Growth(*arrays)


def shrub(p: int) -> Graph:
    """The p-shrub K_{2,p}: two degree-p roots joined through p middle vertices."""
    if p < 1:
        raise InvalidParameterError(f"shrub parameter must be >= 1, got {p}")
    return grow_tree((p,), _allow_trailing_one=True)


def grow_tree(x: Sequence[int], *, _allow_trailing_one: bool = False) -> Graph:
    """The glued tree grown by ``x``, breadth-first relabeled from the first
    root; it shares the cached growth arrays."""
    g = growth(check_growth_sequence(x, allow_trailing_one=_allow_trailing_one))
    n = len(g.perm)
    return Graph(n, g.rows, g.cols, g.face_vertices, g.face_lengths, first_vertex=0,
                 last_vertex=n - 1)


def tree_vertex_count(x: Sequence[int]) -> int:
    """Vertex count N_i = x_i * N_{i-1} + 2 with N_1 = x_1 + 2."""
    xs = check_growth_sequence(x, allow_trailing_one=True)
    n = xs[0] + 2
    for v in xs[1:]:
        n = v * n + 2
    return n


def replace_edges(
    g: Graph,
    marked: Iterable[Edge],
    trees: Mapping[Edge, Sequence[int]],
) -> Graph:
    """Splice a glued tree across each marked edge of ``g``.

    Each marked edge (u, v) is removed; a fresh tree grown by ``trees[(u, v)]``
    (or ``trees[(v, u)]``) is added with disjoint vertex ids, its first root
    joined to u and its last root joined to v by new edges, for u < v.  Faces
    of ``g`` that used a removed edge are dropped; the spliced trees
    contribute their own faces.
    """
    pairs = np.array(list(marked), dtype=np.int64).reshape(-1, 2)
    slots = np.unique(g.edge_slots(pairs[:, 0], pairs[:, 1]))
    us, vs = g.rows[slots], g.cols[slots]
    spliced = []
    for e in zip(us.tolist(), vs.tolist()):
        seq = trees.get(e, trees.get(e[::-1]))
        if seq is None:
            raise InvalidParameterError(f"no tree given for marked edge {e}")
        spliced.append(grow_tree(seq))
    sizes = np.array([t.num_vertices for t in spliced], dtype=np.int64)
    base = g.num_vertices + np.cumsum(sizes) - sizes  # each tree follows the ones before

    def shifted(name):  # one array of every tree's ``name``, each tree moved to its base
        parts = [getattr(t, name) for t in spliced]
        shift = np.repeat(base, list(map(len, parts)))
        return np.concatenate([np.zeros(0, np.int64), *parts]) + shift

    keep = np.ones(g.num_edges, dtype=bool)
    keep[slots] = False
    face, _pos, fu, fv = face_steps(g.face_vertices, g.face_lengths)
    kept_face = np.ones(len(g.face_lengths), dtype=bool)
    kept_face[face[~keep[g.edge_slots(fu, fv)]]] = False
    return Graph(g.num_vertices + int(sizes.sum()),
                 np.concatenate([g.rows[keep], us, vs, shifted("rows")]),
                 np.concatenate([g.cols[keep], base, base + sizes - 1, shifted("cols")]),
                 np.concatenate([g.face_vertices[np.repeat(kept_face, g.face_lengths)],
                                 shifted("face_vertices")]),
                 np.concatenate([g.face_lengths[kept_face]] + [t.face_lengths for t in spliced]),
                 first_vertex=g.first_vertex, last_vertex=g.last_vertex)


def chain_graph(x: Sequence[int], cells: int) -> Graph:
    """A finite open chain of ``cells`` glued trees joined root to root.

    The last root of cell c is identified with the first root of cell c+1;
    ``cell_bounds`` lists the resulting shared roots (including the two ends).
    Cell c is the tree shifted by c times (tree size - 1), so each cell's
    edges follow the previous cell's and the tiling stays sorted.
    """
    xs = check_growth_sequence(x)
    if cells < 1:
        raise InvalidParameterError(f"cells must be >= 1, got {cells}")
    g = growth(xs)
    stride = len(g.perm) - 1
    offsets = stride * np.arange(cells)[:, None]
    return Graph(cells * stride + 1, (g.rows + offsets).ravel(), (g.cols + offsets).ravel(),
                 (g.face_vertices + offsets).ravel(), np.tile(g.face_lengths, cells),
                 first_vertex=0, last_vertex=cells * stride,
                 cell_bounds=tuple(range(0, cells * stride + 1, stride)))


def chain_cell_of_vertex(g: Graph, v):
    """Cell index of chain vertices; shared roots belong to the lower cell."""
    if g.cell_bounds is None:
        raise InvalidParameterError("graph does not carry chain cell marks")
    stride = g.cell_bounds[1] - g.cell_bounds[0]
    return np.maximum(np.asarray(v) - 1, 0) // stride


# ---------------------------------------------------------------------------
# Lotus patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LotusSpec:
    """Parameters of a lotus patch.

    ``kind``: "first" tiles {sides, 3} with polygons split into 2*sides
    shrub rhombi around a hub skeleton; "second" tiles {sides, tiling_q}
    (both even) with a star of shrubs from the polygon center to its corners.
    ``generations`` counts tile rings (1 = a single tile).
    """

    kind: str
    sides: int
    shrub_p: int = 2
    tiling_q: int = 3
    generations: int = 1

    def validate(self):
        if self.kind not in ("first", "second"):
            raise InvalidParameterError(f"unknown lotus kind {self.kind!r}")
        if self.shrub_p < 2:
            raise InvalidParameterError("lotus shrubs need p >= 2")
        if self.generations < 1:
            raise InvalidParameterError("generations must be >= 1")
        if self.kind == "first":
            if self.sides < 6 or self.tiling_q != 3:
                raise InvalidParameterError(
                    "first-kind lotus requires sides >= 6 and tiling_q == 3")
        else:
            if self.sides < 4 or self.sides % 2 != 0 or self.tiling_q < 4 or self.tiling_q % 2 != 0:
                raise InvalidParameterError(
                    "second-kind lotus requires even sides >= 4 and even tiling_q >= 4")


@dataclass
class _Side:
    corners: tuple[int, int]
    midpoint: int | None
    tiles: list[int] = field(default_factory=list)
    flank: list[int] = field(default_factory=list)  # second kind: adjacent shrub interior per tile


class _LotusBuilder:
    """Incremental patch assembly with corner-fan bookkeeping.

    Around every corner the incident sides form a rotational arc; each placed
    tile fills the wedge between two consecutive sides.  A new tile walks the
    boundary of its polygon, reusing an existing side whenever the corner fan
    is already full (tiling_q sides), which closes rings deterministically.
    """

    def __init__(self, spec: LotusSpec):
        spec.validate()
        self.spec = spec
        self.roles: list[str] = []
        self.edges: set[Edge] = set()
        self.face_vertices: list[int] = []
        self.face_lengths: list[int] = []
        self.signs: list[int] = []
        self.sides: list[_Side] = []
        self.arcs: dict[int, list[int]] = {}  # corner vertex -> side ids in fan order
        self.tile_count = 0

    def vertex(self, role: str) -> int:
        self.roles.append(role)
        return len(self.roles) - 1

    def edge(self, u: int, v: int):
        self.edges.add((u, v) if u < v else (v, u))

    def face(self, cycle: tuple[int, ...], sign: int):
        self.face_vertices.extend(cycle)
        self.face_lengths.append(len(cycle))
        self.signs.append(sign)

    def _extend_arc(
        self,
        corner: int,
        prev_sid: int,
        *,
        allow_reuse: bool,
        anchored: int | None = None,
        anchor_prev: int | None = None,
    ) -> int:
        """Advance the fan at ``corner`` past ``prev_sid`` for the tile being placed.

        The tile occupies the wedge at the arc end where ``prev_sid`` sits.
        When the fan already holds tiling_q sides the opposite end side is
        reused (ring closure); otherwise a fresh side is created there, ending
        at a fresh corner or at ``anchored``.
        """
        arc = self.arcs[corner]
        if not arc or prev_sid not in (arc[0], arc[-1]):
            raise AssertionError("tile attached at an interior fan side")
        at_tail = prev_sid == arc[-1]
        if allow_reuse and len(arc) == self.spec.tiling_q:
            return arc[0] if at_tail else arc[-1]
        far = self.vertex("corner") if anchored is None else anchored
        mid = self.vertex("midpoint") if self.spec.kind == "first" else None
        sid = len(self.sides)
        self.sides.append(_Side(corners=(corner, far), midpoint=mid))
        if at_tail:
            arc.append(sid)
        else:
            arc.insert(0, sid)
        if anchored is None:
            self.arcs[far] = [sid]
        else:
            arc2 = self.arcs[anchored]
            if anchor_prev == arc2[-1]:
                arc2.append(sid)
            elif anchor_prev == arc2[0]:
                arc2.insert(0, sid)
            else:
                raise AssertionError("anchor side is not at a fan end")
        return sid

    def seed_tile(self):
        n = self.spec.sides
        corners = [self.vertex("corner") for _ in range(n)]
        sids = []
        for i in range(n):
            a, b = corners[i], corners[(i + 1) % n]
            m = self.vertex("midpoint") if self.spec.kind == "first" else None
            sid = len(self.sides)
            self.sides.append(_Side(corners=(a, b), midpoint=m))
            sids.append(sid)
        for i, c in enumerate(corners):
            self.arcs[c] = [sids[(i - 1) % n], sids[i]]
        self._fill_tile(sids, [self.sides[s].corners for s in sids])

    def attach_tile(self, sid0: int):
        """Place a tile across frontier side ``sid0``.

        The tile boundary is walked in both directions from the shared side,
        reusing existing sides while corner fans are full, then creating fresh
        sides through new territory.
        """
        n = self.spec.sides
        side0 = self.sides[sid0]
        if len(side0.tiles) != 1:
            return
        a, b = side0.corners
        sids: list[int] = [-1] * n
        orient: list[tuple[int, int]] = [(-1, -1)] * n
        sids[0] = sid0
        orient[0] = (b, a)  # traversed opposite to the tile that created it

        fwd_corner, fwd_prev = a, sid0
        j = 1
        while j < n - 1 and len(self.arcs[fwd_corner]) == self.spec.tiling_q:
            sid = self._extend_arc(fwd_corner, fwd_prev, allow_reuse=True)
            far = [c for c in self.sides[sid].corners if c != fwd_corner][0]
            sids[j] = sid
            orient[j] = (fwd_corner, far)
            fwd_corner, fwd_prev = far, sid
            j += 1
        bwd_corner, bwd_prev = b, sid0
        k = n - 1
        while k > j and len(self.arcs[bwd_corner]) == self.spec.tiling_q:
            sid = self._extend_arc(bwd_corner, bwd_prev, allow_reuse=True)
            far = [c for c in self.sides[sid].corners if c != bwd_corner][0]
            sids[k] = sid
            orient[k] = (far, bwd_corner)
            bwd_corner, bwd_prev = far, sid
            k -= 1

        if j <= k:
            cur, prev = fwd_corner, fwd_prev
            for t in range(j, k + 1):
                last = t == k
                sid = self._extend_arc(
                    cur, prev, allow_reuse=False,
                    anchored=bwd_corner if last else None,
                    anchor_prev=bwd_prev if last else None)
                far = [c for c in self.sides[sid].corners if c != cur][0]
                sids[t] = sid
                orient[t] = (cur, far)
                cur, prev = far, sid
            if cur != bwd_corner:
                raise AssertionError("tile boundary walk failed to close")
        if any(s < 0 for s in sids):
            raise AssertionError("tile boundary walk left unresolved sides")
        self._fill_tile(sids, orient)

    def _fill_tile(self, sids: list[int], orient: list[tuple[int, int]]):
        tile = self.tile_count
        self.tile_count += 1
        if self.spec.kind == "first":
            self._fill_first_kind(sids, orient, tile)
        else:
            self._fill_second_kind(sids, orient, tile)
        for sid in sids:
            self.sides[sid].tiles.append(tile)

    def _fill_first_kind(self, sids, orient, tile):
        n, p = self.spec.sides, self.spec.shrub_p
        corners = [orient[i][0] for i in range(n)]
        mids = [self.sides[sids[i]].midpoint for i in range(n)]
        c = self.vertex("center")
        ring = [self.vertex("interior") for _ in range(n)]  # shared between adjacent hub shrubs
        # hub shrubs: center <-> side midpoint, interiors [ring[i-1], fresh.., ring[i]]
        for i in range(n):
            inner = [ring[i - 1]] + [self.vertex("interior") for _ in range(p - 2)] + [ring[i]]
            for t in inner:
                self.edge(c, t)
                self.edge(mids[i], t)
            for t0, t1 in zip(inner, inner[1:]):
                self.face((c, t0, mids[i], t1), +1)
        # rim shrubs: midpoint <-> next midpoint around the shared corner
        for i in range(n):
            m0, m1 = mids[i], mids[(i + 1) % n]
            v = corners[(i + 1) % n]
            outer = [ring[i]] + [self.vertex("interior") for _ in range(p - 2)] + [v]
            for t in outer:
                self.edge(m0, t)
                self.edge(m1, t)
            for t0, t1 in zip(outer, outer[1:]):
                self.face((m0, t0, m1, t1), -1)

    def _fill_second_kind(self, sids, orient, tile):
        n, p = self.spec.sides, self.spec.shrub_p
        corners = [orient[i][0] for i in range(n)]
        c = self.vertex("center")
        ring = [self.vertex("interior") for _ in range(n)]  # ring[i] between corner i and i+1
        interiors = []
        for i in range(n):
            inner = [ring[i - 1]] + [self.vertex("interior") for _ in range(p - 2)] + [ring[i]]
            interiors.append(inner)
            for t in inner:
                self.edge(c, t)
                self.edge(corners[i], t)
            for t0, t1 in zip(inner, inner[1:]):
                self.face((c, t0, corners[i], t1), +1 if i % 2 == 0 else -1)
        # faces shared with an already-placed neighbor across each side
        for i in range(n):
            sid = sids[i]
            a, b = orient[i]  # ring[i] is adjacent to corners i and i+1 = (a_next)
            z = ring[i]
            side = self.sides[sid]
            if side.flank:
                z_other = side.flank[0]
                self.face((a, z, b, z_other), +1)
            side.flank.append(z)

    def build(self) -> Graph:
        spec = self.spec
        self.seed_tile()
        for _gen in range(1, spec.generations):
            frontier = [i for i, s in enumerate(self.sides) if len(s.tiles) == 1]
            for sid in frontier:
                if len(self.sides[sid].tiles) == 1:
                    self.attach_tile(sid)
        uv = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        return Graph(len(self.roles), uv[:, 0], uv[:, 1], self.face_vertices, self.face_lengths,
                     roles=tuple(self.roles), plaquette_signs=tuple(self.signs))


def lotus_patch(spec: LotusSpec) -> Graph:
    """A finite lotus patch grown ring by ring from a seed tile."""
    return _LotusBuilder(spec).build()


def lotus_hubs(g: Graph) -> tuple[int, ...]:
    """Vertices that carry shrub roots in a lotus patch (centers and, for the
    first kind, side midpoints; for the second kind, centers and corners)."""
    if g.roles is None:
        raise InvalidParameterError("graph does not carry lotus roles")
    want = {"center", "midpoint"} if "midpoint" in g.roles else {"center", "corner"}
    return tuple(i for i, r in enumerate(g.roles) if r in want)


# ---------------------------------------------------------------------------
# Ordered factorizations
# ---------------------------------------------------------------------------


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def ordered_factorizations(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """All ordered factorizations of ``m`` into factors > 1, with their count.

    The empty product is the unique factorization of 1.  Equivalently the
    count is the number of growth sequences (entries >= 2) whose product is
    ``m``, which also satisfies N(1) = 1, N(m) = sum over proper divisors d
    of N(d).
    """
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    # Each value's list is built once, first factor ascending, from the lists
    # of its cofactors; the memo lives only for this call.
    memo: dict[int, list[tuple[int, ...]]] = {1: [()]}

    def listing(value: int) -> list[tuple[int, ...]]:
        if value not in memo:
            memo[value] = [(d,) + rest for d in _divisors(value)[1:]
                           for rest in listing(value // d)]
        return memo[value]

    out = listing(m)
    return len(out), tuple(out)


def ordered_factorization_count(m: int) -> int:
    """N(m) from the divisor recurrence over the divisors of ``m`` alone."""
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    divisors, counts = _divisors(m), {1: 1}
    for d in divisors[1:]:
        counts[d] = sum(counts[e] for e in divisors if e < d and d % e == 0)
    return counts[m]


def ordered_factorization_counts(limit: int) -> list[int]:
    """Count table n -> N(n) for 1 <= n <= limit: each N(d) adds to its multiples."""
    if limit < 1:
        raise InvalidParameterError("limit must be >= 1")
    counts = [0, 1] + [0] * (limit - 1)
    for d in range(1, limit // 2 + 1):
        for n in range(2 * d, limit + 1, d):
            counts[n] += counts[d]
    return counts


# ---------------------------------------------------------------------------
# Text format: `graph <num_vertices>` then `e <u> <v>`, `face <v1> ...`,
# `root first <v>` / `root last <v>`; ids are 0-based decimal.
# ---------------------------------------------------------------------------


def format_text(header: str, edge_lines: Iterable[str], g: Graph) -> str:
    """A text graph: the header line, the edge lines, then a ``face`` line per
    face of ``g`` and a ``root`` line per root that is set."""
    lines = [header, *edge_lines]
    lines += ["face " + " ".join(map(str, cyc)) for cyc in g.plaquettes]
    lines += [f"root {kind} {v}" for kind, v in (("first", g.first_vertex), ("last", g.last_vertex))
              if v is not None]
    return "\n".join(lines) + "\n"


def text_fields(line: str, *types) -> list:
    """The words after a text line's keyword, converted by ``types`` in turn;
    refuses a line with too few words, a word that does not convert or an
    integer outside int64 (vertex ids and counts are int64 arrays)."""
    words = line.split()[1:]
    if len(words) < len(types):
        raise InvalidParameterError(f"line {line!r} needs {len(types)} field(s)")
    try:
        fields = [kind(word) for kind, word in zip(types, words)]
    except ValueError:
        raise InvalidParameterError(f"bad field in line {line!r}") from None
    if any(type(f) is int and not -2**63 <= f < 2**63 for f in fields):
        raise InvalidParameterError(f"integer field out of range in line {line!r}")
    return fields


def parse_text(text: str, usage: str, edge_types: Sequence[type]):
    """The header line, the fields of each edge line as a tuple (converted by
    ``edge_types``), and the faces and roots of a text graph as ``Graph``
    keywords.

    Blank lines and ``#`` comments are skipped.  The header keyword is the
    first word of ``usage``; refuses a missing header, an unrecognized line,
    a malformed field or a root kind other than ``first`` or ``last``.  The
    graph built from them checks the roots and faces.
    """
    keyword = usage.split()[0]
    header = None
    edges: list[tuple] = []
    extra: dict = {"face_vertices": [], "face_lengths": []}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == keyword:
            header = line
        elif parts[0] == "e":
            edges.append(tuple(text_fields(line, *edge_types)))
        elif parts[0] == "face":
            extra["face_vertices"] += text_fields(line, *[int] * (len(parts) - 1))
            extra["face_lengths"].append(len(parts) - 1)
        elif parts[0] == "root":
            kind, v = text_fields(line, str, int)
            if kind not in ("first", "last"):
                raise InvalidParameterError(f"unknown root kind {kind!r}")
            extra[f"{kind}_vertex"] = v
        else:
            raise InvalidParameterError(f"unrecognized line {line!r}")
    if header is None:
        raise InvalidParameterError(f"missing '{usage}' header")
    return header, edges, extra


def format_graph(g: Graph) -> str:
    return format_text(f"graph {g.num_vertices}", (f"e {u} {v}" for (u, v) in g.edges), g)


def parse_graph(text: str) -> Graph:
    """Read the text graph format; refuses a repeated edge, in either
    orientation, a root outside the vertices and a face step that is not an
    edge."""
    header, edges, extra = parse_text(text, "graph <n>", (int, int))
    num, = text_fields(header, int)
    uv = np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return Graph(num, uv[:, 0], uv[:, 1], **extra)
