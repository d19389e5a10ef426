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

from .errors import InvalidParameterError, ResourceLimitError

Edge = tuple[int, int]

# Entries in each per-sequence cache: more than the 440 sequences with
# product <= 64, so a sweep over that family rebuilds nothing.
GROWTH_CACHE_SIZE = 512
# Most vertices of a graph: a vertex pair is keyed u * n + v in int64.
MAX_VERTICES = math.isqrt(2**63 - 1)
# Most bytes the growth of a tree or chain may hold (``check_growth_bytes``):
# (6,)*8, with 4,031,076 edges, may take 0.52 GB.
GROWTH_LIMIT_BYTES = 2**30
# Most entries a listing holds in memory: the factorizations that
# `caged factorize --list` prints (every m <= 1100 has at most 2,496), and the
# flat values and their midpoints.
LISTING_LIMIT = 100_000
# Most vertices of a lotus patch, 15 times the largest recorded one (8,701).
LOTUS_VERTEX_LIMIT = 2**17
# Largest trial divisor of ``prime_factorization``: every m <= 10^12 factors.
TRIAL_DIVISION_LIMIT = 10**6


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


def check_vertex_count(n: int) -> int:
    """``n``, refused unless 0 <= n <= ``MAX_VERTICES``."""
    if not 0 <= n <= MAX_VERTICES:
        raise InvalidParameterError(f"{n} vertices; at most {MAX_VERTICES} are supported")
    return n


def check_growth_bytes(xs: tuple[int, ...], cells: int = 1):
    """Refuse, before anything is grown, a tree of ``xs`` (or a chain of
    ``cells`` of them) whose edge arrays would pass ``GROWTH_LIMIT_BYTES``.

    Level i joins x_i copies of the tree so far to two fresh roots by two
    edges each, so the tree has E_1 = 2 x_1 and E_i = x_i (E_{i-1} + 2)
    edges, and a chain ``cells`` times as many.  ``_grow_level`` holds at most
    128 bytes per edge of the level it grows: the four int64 edge arrays and
    the copies it gathers them from (64), two face-vertex ids and their
    copies (32), and at most one vertex id, its copy and its breadth-first
    label (24); tracemalloc reads a peak of 105-108.
    """
    edges = 0
    for v in xs:
        edges = v * (edges + 2)
    if 128 * cells * edges > GROWTH_LIMIT_BYTES:
        raise ResourceLimitError(f"{cells * edges} edges need {128 * cells * edges} bytes, "
                                 f"past the growth limit of {GROWTH_LIMIT_BYTES}")


def read_only(values, dtype) -> np.ndarray:
    """A read-only array of ``values``; a writeable input is copied first."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def face_successors(vertices: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The vertex after each of ``vertices`` around its closed loop, the
    loops being ``vertices`` cut into nonempty runs of ``lengths``: one step
    along the run, and from a loop's last vertex back to its first."""
    ends = np.cumsum(lengths)
    nxt = np.arange(1, len(vertices) + 1)
    nxt[ends - 1] = ends - lengths
    return vertices[nxt]


def face_steps(vertices: np.ndarray, lengths: np.ndarray):
    """Every step u -> v around closed vertex loops, given as ``vertices`` cut
    into runs of ``lengths``: arrays (face, u, v), in face order and along
    each face."""
    return np.repeat(np.arange(len(lengths)), lengths), vertices, face_successors(vertices, lengths)


def hang_forest(n: int, lo, hi, offset, modulus: int):
    """Each of ``n`` vertices hung from its lowest neighbour below it, along
    int64 edges lo[k] < hi[k] with ``offset[k]`` in 0..modulus-1: arrays
    (root, potential), each vertex's root (a vertex with no lower neighbour
    is its own) and the sum mod ``modulus`` of the hang edges' offsets from
    the root down to it, read by pointer doubling.  Among parallel edges to
    the lowest neighbour, any one may be the hang edge."""
    best = np.full(n, n)
    np.minimum.at(best, hi, lo)
    up = np.minimum(best, np.arange(n))
    hang = np.flatnonzero(lo == best[hi])
    pot = np.zeros(n, dtype=np.int64)
    pot[hi[hang]] = offset[hang]
    while (up[up] != up).any():
        pot = (pot + pot[up]) % modulus
        up = up[up]
    return up, pot


def two_colouring(n: int, rows, cols) -> np.ndarray:
    """The side of each of ``n`` vertices in the 2-colouring of the graph
    with edges (rows[k], cols[k]), as booleans: False on the lowest vertex of
    each component.  Refuses a graph with an odd cycle (or a loop).

    ``hang_forest`` mod 2, with each edge's offset the parity its ends
    differ by, gives every vertex's root and side relative to it.  An edge
    between two trees becomes an edge between their roots, carrying the
    parity its ends must differ by, and the same step joins those roots,
    until every edge lies within one tree and is checked.  A breadth-first
    labelling, as every builder here makes, leaves one tree per component
    after the first step.
    """
    u, v = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    odd = np.ones(lo.shape, dtype=np.int64)  # the parity the two ends differ by
    side, root = np.zeros(n, dtype=np.int64), np.arange(n)
    while True:
        inside = lo == hi
        if (odd & inside).any():
            raise InvalidParameterError("the graph is not bipartite: it has an odd cycle")
        lo, hi, odd = lo[~inside], hi[~inside], odd[~inside]
        if not lo.size:
            return side == 1
        up, flip = hang_forest(n, lo, hi, odd, 2)
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

    Edge k joins ``rows[k] < cols[k]``, unique and sorted by (row, col), and
    ``keys[k]`` is its key ``rows[k] * num_vertices + cols[k]``.  The faces
    bound internal faces: ``face_vertices`` cut into runs of
    ``face_lengths``, each cyclic step an edge.  ``roles`` classifies the
    vertices of lotus patches, ``cell_bounds`` marks the shared roots of a
    chain, and ``plaquette_signs`` gives each lotus face's flux sign relative
    to the common flux angle.

    Construction is the one check: it refuses more than ``MAX_VERTICES``
    vertices and the first edge, in the order given, that is out of range or
    repeats an earlier edge, then sorts the edges, and refuses a root outside
    ``0..num_vertices-1``, a face of fewer than 3 vertices or a face step
    that is not an edge.  The keys are computed once, for the edges before
    the first one out of range; edges whose keys strictly increase, such as
    the cached growth arrays, are unique and sorted, so only other input is
    sorted and scanned for repeats.  Sorted read-only inputs are kept without
    a copy.
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
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = check_vertex_count(self.num_vertices)
        rows, cols = np.asarray(self.rows, dtype=np.int64), np.asarray(self.cols, dtype=np.int64)
        if rows.ndim != 1 or cols.shape != rows.shape:
            raise InvalidParameterError(f"edge arrays differ in shape: {rows.shape}, {cols.shape}")
        bad = np.flatnonzero((rows < 0) | (rows >= cols) | (cols >= n))
        # Only a repeat before the first bad edge can come first, and what it
        # repeats lies before it too: those edges are in range, so their keys
        # are distinct unless the edges are.
        valid = bad[0] if bad.size else len(rows)
        keys = rows[:valid] * n + cols[:valid]
        if not (keys[1:] > keys[:-1]).all():
            # Stably sorted, every edge but the first of each run repeats one.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            repeats = order[1:][keys[1:] == keys[:-1]]
            if repeats.size:
                first = repeats.min()
                raise InvalidParameterError(f"duplicate edge ({rows[first]}, {cols[first]})")
            if not bad.size:
                rows, cols = rows[order], cols[order]
                rows.flags.writeable = cols.flags.writeable = False
        if bad.size:
            a, b = rows[bad[0]], cols[bad[0]]
            raise InvalidParameterError(f"bad edge ({a}, {b}) for {n} vertices")
        keys.flags.writeable = False
        for name, value in (("rows", rows), ("cols", cols), ("keys", keys),
                            ("face_vertices", self.face_vertices),
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
        # refuses a face step that is not an edge
        self.edge_slots(vertices, face_successors(vertices, lengths))

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
        n, keys = self.num_vertices, self.keys
        want = lo * n + hi
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
        tails, _edges, _rot, starts = self.slots
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
        Arrays (tails, edges, rot, starts): each directed slot's tail, its
        edge, or the sentinel ``num_edges`` (weight 0) on a self-slot, the
        factor that turns its edge's phase into the exponent of its weight,
        -1j where it runs from the higher label to the lower and 1j
        elsewhere, and where each vertex's run starts."""
        offsets, tails, edges = self.adjacency
        degree = np.diff(offsets)
        lonely = np.flatnonzero(degree == 0)
        if lonely.size:  # no grown tree, chain or lotus patch has one
            tails = np.insert(tails, offsets[lonely], lonely)
            edges = np.insert(edges, offsets[lonely], self.num_edges)
        runs = np.maximum(degree, 1)
        heads = np.repeat(np.arange(self.num_vertices), runs)
        return tails, edges, np.where(heads >= tails, -1j, 1j), np.cumsum(runs) - runs

    @cached_property
    def colouring(self) -> np.ndarray:
        """``two_colouring`` of the graph, read-only: the sublattice of each
        vertex, True on B; refuses a graph with an odd cycle.  ``grow_tree``
        gives its tree the parity of each breadth-first layer instead."""
        return read_only(two_colouring(self.num_vertices, self.rows, self.cols), bool)

    @cached_property
    def block_layout(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Where each edge enters the |A| x |B| block <A|H|B> of the
        ``colouring``, laid out row by row: (|B|, each edge's flat slot
        u * |B| + v from ``sublattice_slots``, and its flip), read-only."""
        side = self.colouring
        nb = int(side.sum())
        u, v, flip = sublattice_slots(side, self.rows, self.cols)
        return nb, read_only(u * nb + v, np.int64), read_only(flip, bool)

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
    (1-based), the first root to the copy's first root or the copy's last
    root to the last root.  The faces are ``face_vertices`` cut into runs of
    ``face_lengths``, in growth order: at each level the big faces between
    adjacent copies, then each copy's own faces.  The first root is 0 and
    the last root is the last id.  The next level is grown from the small
    arrays: ``counts[t]`` vertices lie at distance t from the first root,
    and ``left`` and ``right`` are the boundary paths from the first root to
    the last through the first and the last copy.
    """

    perm: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    level: np.ndarray
    branch: np.ndarray
    face_vertices: np.ndarray
    face_lengths: np.ndarray
    counts: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _grow_level(g: Growth, x: int, lev: int) -> Growth:
    """Level ``lev``: x copies of ``g`` between a fresh pair of roots.

    A copy's vertex at distance t from the copy's first root is at distance
    t + 1 from the fresh first root, so it takes an id after every vertex
    closer, after the vertices at its distance in earlier copies, and in its
    copy's own order: copy c of vertex v at distance t becomes 1 + x *
    start[t] + c * counts[t] + (v - start[t]).  That is the order of a
    breadth-first search from the first root that visits neighbours by
    growth id.  Each copy keeps the order of its edges, and a copy's rows at
    distance t come after the rows closer and after the earlier copies'
    rows at distance t; so the copies' edges are laid out the same way, run
    by run of rows at one distance, then copy by copy, and stay sorted by
    (row, col) between the fresh first root's edges and the last root's.
    """
    n, e, d = len(g.perm), len(g.rows), len(g.counts)
    last = 1 + x * n
    bounds = np.cumsum(g.counts)  # the end of each distance's run of ids
    shift = 1 + (x - 1) * (bounds - g.counts) + np.arange(x)[:, None] * g.counts
    ids = np.arange(n) + np.repeat(shift, g.counts, axis=1)  # copy c of vertex v is ids[c, v]
    # rows, cols, level and branch of every edge: the first root's, the
    # copies' and the last root's
    edges = np.empty((4, x * e + 2 * x), dtype=np.int64)
    copies = np.empty((4, x, e), dtype=np.int64)
    copies[0], copies[1] = ids.take(g.rows, axis=1), ids.take(g.cols, axis=1)
    copies[2], copies[3] = g.level, g.branch
    # with one copy the runs are already in order
    ends = np.searchsorted(g.rows, bounds).tolist() if x > 1 else [e]
    for a, b in zip([0] + ends[:-1], ends):
        edges[:, x + x * a:x + x * b] = copies[:, :, a:b].reshape(4, -1)
    edges[0, :x], edges[0, -x:], edges[1, -x:] = 0, ids[:, n - 1], last
    edges[1, :x] = edges[3, :x] = edges[3, -x:] = ids[:, 0]  # copy c's first root is c + 1
    edges[2, :x] = edges[2, -x:] = lev
    # the face between copies c and c + 1: c's right path, then c + 1's left path back
    big = np.empty((x - 1, 2 * d + 2), dtype=np.int64)
    big[:, 0], big[:, 1:d + 1], big[:, d + 1], big[:, d + 2:] = (
        0, ids[:-1, g.right], last, ids[1:, g.left[::-1]])
    return Growth(
        np.concatenate([[0], ids.take(g.perm, axis=1).ravel(), [last]]), *edges,
        face_vertices=np.concatenate([big.ravel(), ids.take(g.face_vertices, axis=1).ravel()]),
        face_lengths=np.concatenate([np.full(x - 1, 2 * d + 2)] + [g.face_lengths] * x),
        counts=np.concatenate([[1], x * g.counts, [1]]),
        left=np.concatenate([[0], ids[0, g.left], [last]]),
        right=np.concatenate([[0], ids[-1, g.right], [last]]))


_ONE, _NONE = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
# The tree of the empty sequence: one vertex, both roots, at distance 0.
_VERTEX = Growth(_ONE, _NONE, _NONE, _NONE, _NONE, _NONE, _NONE,
                 counts=np.ones(1, dtype=np.int64), left=_ONE, right=_ONE)


@lru_cache(maxsize=GROWTH_CACHE_SIZE)
def growth(x: tuple[int, ...]) -> Growth:
    """The tree grown by ``x``, built once per sequence and shared.

    It grows on the cached tree of its parent, the longest proper prefix of
    ``x`` that ends in an entry >= 2 (or the single vertex): each later
    level, a run of 1s and then the last entry, tiles x_i copies of the tree
    so far between a fresh pair of roots (``_grow_level``), and closes a big
    face between adjacent copies along their boundary paths.  The levels
    after the parent are cached nowhere, so the recursion is no deeper than
    the number of entries >= 2.
    """
    xs = check_growth_sequence(x, allow_trailing_one=True)
    check_vertex_count(tree_vertex_count(xs))  # before a level is grown
    check_growth_bytes(xs)
    cut = max((i for i, v in enumerate(xs[:-1], start=1) if v >= 2), default=0)
    g = growth(xs[:cut]) if cut else _VERTEX
    for lev in range(cut + 1, len(xs) + 1):
        g = _grow_level(g, xs[lev - 1], lev)
    for arr in vars(g).values():
        arr.flags.writeable = False  # shared by every caller of this sequence
    return g


def shrub(p: int) -> Graph:
    """The p-shrub K_{2,p}: two degree-p roots joined through p middle vertices."""
    if p < 1:
        raise InvalidParameterError(f"shrub parameter must be >= 1, got {p}")
    return grow_tree((p,), _allow_trailing_one=True)


def grow_tree(x: Sequence[int], *, _allow_trailing_one: bool = False) -> Graph:
    """The glued tree grown by ``x``, breadth-first relabeled from the first
    root; it shares the cached growth arrays.

    Its ``colouring`` is the parity of each vertex's distance from the first
    root, read from the breadth-first layers (``counts``), once every edge is
    seen to join two layers of opposite parity.
    """
    g = growth(check_growth_sequence(x, allow_trailing_one=_allow_trailing_one))
    n = len(g.perm)
    tree = Graph(n, g.rows, g.cols, g.face_vertices, g.face_lengths, first_vertex=0,
                 last_vertex=n - 1)
    side = np.repeat(np.arange(len(g.counts)) % 2 == 1, g.counts)
    if (side[g.rows] == side[g.cols]).any():
        raise InvalidParameterError("the graph is not bipartite: it has an odd cycle")
    side.flags.writeable = False
    vars(tree)["colouring"] = side  # the cached property, filled once proven
    return tree


def tree_vertex_count(x: Sequence[int]) -> int:
    """Vertex count N_i = x_i * N_{i-1} + 2 with N_1 = x_1 + 2."""
    return _tree_vertex_count(check_growth_sequence(x, allow_trailing_one=True))


def _tree_vertex_count(xs: tuple[int, ...]) -> int:
    """``tree_vertex_count`` of a checked sequence."""
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
    face, fu, fv = face_steps(g.face_vertices, g.face_lengths)
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
    stride = tree_vertex_count(xs) - 1
    check_vertex_count(cells * stride + 1)  # before a cell is laid out
    check_growth_bytes(xs, cells)
    g = growth(xs)
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
    tiles: int = 0
    flank: int | None = None  # second kind: the first tile's ring interior beside this side


class _LotusBuilder:
    """A lotus patch grown tile by tile, each tile a ``sides``-gon filled with
    shrubs.

    Around each corner the sides met so far form a fan in rotational order,
    with a tile in the wedge between consecutive sides.  A new tile across a
    frontier side walks its boundary both ways from that side, turning past
    each full fan (``tiling_q`` sides) onto the side at the fan's other end.
    The rest of its boundary is fresh: sides through fresh corners, each on
    the tail of its start corner's fan, then a closing side on the head of
    the fan where the backward walk stopped.
    """

    def __init__(self, spec: LotusSpec):
        spec.validate()
        self.spec = spec
        self.roles: list[str] = []
        self.faces: list[int] = []  # flat rhombi, four vertices each; their steps are the edges
        self.signs: list[int] = []
        self.sides: list[_Side] = []
        self.arcs: dict[int, list[int]] = {}  # corner vertex -> side ids in fan order

    def vertex(self, role: str) -> int:
        if len(self.roles) >= LOTUS_VERTEX_LIMIT:
            raise ResourceLimitError(f"lotus patch passes the vertex limit {LOTUS_VERTEX_LIMIT}")
        self.roles.append(role)
        return len(self.roles) - 1

    def side(self, a: int, b: int) -> int:
        """A new side from corner a to corner b, with a midpoint for the first kind."""
        mid = self.vertex("midpoint") if self.spec.kind == "first" else None
        self.sides.append(_Side((a, b), mid))
        return len(self.sides) - 1

    def across(self, sid: int, corner: int) -> int:
        return sum(self.sides[sid].corners) - corner  # the side's other corner

    def turn(self, corner: int, sid: int) -> int:
        """The side at the other end of the full fan at ``corner`` from ``sid``."""
        arc = self.arcs[corner]
        if sid not in (arc[0], arc[-1]):
            raise AssertionError("tile attached at an interior fan side")
        return arc[0] if sid == arc[-1] else arc[-1]

    def place(self, corner: int, prev: int, far: int | None = None) -> int:
        """A fresh side on the tail of the fan at ``corner``, just after
        ``prev``, to ``far`` or else to a fresh corner."""
        arc = self.arcs[corner]
        if arc[-1] != prev:
            raise AssertionError("fresh side placed off the tail of its fan")
        sid = self.side(corner, self.vertex("corner") if far is None else far)
        arc.append(sid)
        if far is None:
            self.arcs[self.across(sid, corner)] = [sid]
        return sid

    def seed_tile(self):
        n = self.spec.sides
        corners = [self.vertex("corner") for _ in range(n)]
        sids = [self.side(corners[i], corners[(i + 1) % n]) for i in range(n)]
        for i, c in enumerate(corners):
            self.arcs[c] = [sids[i - 1], sids[i]]
        self.fill(list(zip(sids, corners)))

    def attach_tile(self, sid0: int):
        """Place a tile across frontier side ``sid0``, traversing it opposite
        to the tile already there."""
        n, q = self.spec.sides, self.spec.tiling_q
        cur, end = self.sides[sid0].corners
        ahead, behind = [(sid0, end)], []  # (side, start corner) along the tile
        prev = last = sid0
        while len(ahead) < n - 1 and len(self.arcs[cur]) == q:
            prev = self.turn(cur, prev)
            ahead.append((prev, cur))
            cur = self.across(prev, cur)
        while len(ahead) + len(behind) < n - 1 and len(self.arcs[end]) == q:
            last = self.turn(end, last)
            end = self.across(last, end)
            behind.append((last, end))
        while len(ahead) + len(behind) < n - 1:
            prev = self.place(cur, prev)
            ahead.append((prev, cur))
            cur = self.across(prev, cur)
        if self.arcs[end][0] != last:
            raise AssertionError("closing side is not at the head of its fan")
        closing = self.place(cur, prev, end)
        self.arcs[end].insert(0, closing)
        tile = ahead + [(closing, cur)] + behind[::-1]
        if len({c for _, c in tile}) < n:
            raise AssertionError("tile boundary walk failed to close")
        self.fill(tile)

    def shrub(self, u: int, w: int, first: int, last: int, sign: int):
        """A shrub between hubs u and w through interiors ``first``, p - 2
        fresh ones and ``last``, with a face of ``sign`` between neighbours."""
        inner = [first] + [self.vertex("interior") for _ in range(self.spec.shrub_p - 2)] + [last]
        for t0, t1 in zip(inner, inner[1:]):
            self.faces += (u, t0, w, t1)
        self.signs += [sign] * (len(inner) - 1)

    def fill(self, tile: list[tuple[int, int]]):
        """Fill a tile given as (side, start corner) pairs along its boundary.

        A ring of interiors joins n hub shrubs from a fresh center to the side
        midpoints (first kind, sign +1) or to the corners (second kind, signs
        alternating).  The first kind then adds a rim shrub between adjacent
        midpoints, closed by their shared corner; the second kind closes a
        face across each side that already has a tile.
        """
        n, first = self.spec.sides, self.spec.kind == "first"
        sides, corners = [self.sides[sid] for sid, _ in tile], [c for _, c in tile]
        c = self.vertex("center")
        ring = [self.vertex("interior") for _ in range(n)]
        for i, side in enumerate(sides):
            hub = side.midpoint if first else corners[i]
            self.shrub(c, hub, ring[i - 1], ring[i], +1 if first or i % 2 == 0 else -1)
        for i, side in enumerate(sides):
            j = (i + 1) % n
            if first:
                self.shrub(side.midpoint, sides[j].midpoint, ring[i], corners[j], -1)
            elif side.flank is None:
                side.flank = ring[i]
            else:
                self.faces += (corners[i], ring[i], corners[j], side.flank)
                self.signs.append(+1)
            side.tiles += 1

    def build(self) -> Graph:
        self.seed_tile()
        for _gen in range(1, self.spec.generations):
            for sid in [i for i, s in enumerate(self.sides) if s.tiles == 1]:
                if self.sides[sid].tiles == 1:  # unless a tile of this ring closed it
                    self.attach_tile(sid)
        n, faces = len(self.roles), np.reshape(np.array(self.faces, dtype=np.int64), (-1, 4))
        steps = np.roll(faces, -1, axis=1)
        keys = np.unique(np.minimum(faces, steps) * n + np.maximum(faces, steps))
        return Graph(n, keys // n, keys % n, faces.ravel(), np.full(len(faces), 4),
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


def prime_factorization(m: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of ``m`` >= 1, primes ascending, by trial
    division (2, then odd numbers) up to the square root of the cofactor
    still unfactored.  Refuses a cofactor that would need a trial divisor
    past ``TRIAL_DIVISION_LIMIT``."""
    out, p = [], 2
    while p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            raise ResourceLimitError(f"cofactor {m} would trial-divide past {TRIAL_DIVISION_LIMIT}")
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _divisors(m: int) -> list[int]:
    """The divisors of ``m``, ascending: those built from the primes so far,
    times each power of the next prime."""
    divisors = [1]
    for p, e in prime_factorization(m):
        layer = divisors
        for _ in range(e):
            layer = [d * p for d in layer]
            divisors += layer
    divisors.sort()
    return divisors


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
    """N(m) from the exponents e_i of ``m`` alone, Omega = sum_i e_i.  There
    are W(i) = prod_i C(e_i + i - 1, e_i) ways into i parts >= 1, and
    inclusion-exclusion over the parts equal to 1 gives N(m) = sum_{k<=Omega}
    sum_{j<k} (-1)^j C(k, j) W(k - j) = sum_i B(i) W(i), where B(i) =
    sum_{k=i..Omega} (-1)^(k-i) C(k, i) = (-1)^(Omega-i) C(Omega+1, i+1) +
    2 B(i+1) by C(k, i) = C(k+1, i+1) - C(k, i+1).  N(1) = 1."""
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    exps = [e for _p, e in prime_factorization(m)]
    omega, total, b = sum(exps), 0, 0
    for i in range(omega, 0, -1):
        b = (-1) ** (omega - i) * math.comb(omega + 1, i + 1) + 2 * b
        total += b * math.prod(math.comb(e + i - 1, e) for e in exps)
    return total if exps else 1


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
