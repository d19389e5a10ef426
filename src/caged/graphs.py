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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidParameterError

Edge = tuple[int, int]

# Entries in each per-sequence cache: more than the 440 sequences with
# product <= 64, so a sweep over that family rebuilds nothing.
GROWTH_CACHE_SIZE = 512


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


@dataclass(frozen=True)
class Graph:
    """An undirected graph with optional face and root annotations.

    ``edges`` are (u, v) pairs with u < v.  ``plaquettes`` are closed vertex
    cycles bounding internal faces; consecutive vertices (cyclically) must be
    edges.  ``roles`` optionally classifies vertices (lotus patches), and
    ``cell_bounds`` marks the shared roots of a chain.  ``plaquette_signs``
    records, for lotus patches, the orientation sign each face's flux should
    carry relative to the common flux angle.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    plaquettes: tuple[tuple[int, ...], ...] = ()
    first_vertex: int | None = None
    last_vertex: int | None = None
    roles: tuple[str, ...] | None = None
    cell_bounds: tuple[int, ...] | None = None
    plaquette_signs: tuple[int, ...] | None = None

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if not (0 <= u < v < self.num_vertices):
                raise InvalidParameterError(f"bad edge ({u}, {v}) for {self.num_vertices} vertices")
            if (u, v) in seen:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


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


def _tiled_tree(xs: tuple[int, ...], cells: int,
                cell_bounds: tuple[int, ...] | None = None) -> Graph:
    """``cells`` copies of the tree grown by ``xs``, copy c shifted by c times
    (tree size - 1): each copy's first root is the previous copy's last root,
    and the tiled edges stay sorted."""
    g = growth(xs)
    stride = len(g.perm) - 1
    offsets = stride * np.arange(cells)[:, None]
    faces = (g.face_vertices + offsets).ravel().tolist()
    ends = np.cumsum(np.tile(g.face_lengths, cells)).tolist()  # each face is faces[start:end]
    return Graph(
        num_vertices=cells * stride + 1,
        edges=tuple(zip((g.rows + offsets).ravel().tolist(), (g.cols + offsets).ravel().tolist())),
        plaquettes=tuple(map(tuple, map(faces.__getitem__, map(slice, [0] + ends[:-1], ends)))),
        first_vertex=0,
        last_vertex=cells * stride,
        cell_bounds=cell_bounds,
    )


def shrub(p: int) -> Graph:
    """The p-shrub K_{2,p}: two degree-p roots joined through p middle vertices."""
    if p < 1:
        raise InvalidParameterError(f"shrub parameter must be >= 1, got {p}")
    return grow_tree((p,), _allow_trailing_one=True)


def grow_tree(x: Sequence[int], *, _allow_trailing_one: bool = False) -> Graph:
    """The glued tree grown by ``x``, breadth-first relabeled from the first root."""
    return _tiled_tree(check_growth_sequence(x, allow_trailing_one=_allow_trailing_one), 1)


def tree_vertex_count(x: Sequence[int]) -> int:
    """Vertex count N_i = x_i * N_{i-1} + 2 with N_1 = x_1 + 2."""
    xs = check_growth_sequence(x, allow_trailing_one=True)
    n = xs[0] + 2
    for v in xs[1:]:
        n = v * n + 2
    return n


def tree_edge_count(x: Sequence[int]) -> int:
    xs = check_growth_sequence(x, allow_trailing_one=True)
    e = 2 * xs[0]
    for v in xs[1:]:
        e = v * (e + 2)
    return e


def average_degree(g: Graph) -> Fraction:
    """Average vertex degree 2|E| / |V| as an exact rational."""
    if g.num_vertices == 0:
        raise InvalidParameterError("average degree of an empty graph is undefined")
    return Fraction(2 * g.num_edges, g.num_vertices)


def replace_edges(
    g: Graph,
    marked: Iterable[Edge],
    trees: Mapping[Edge, Sequence[int]],
) -> Graph:
    """Splice a glued tree across each marked edge of ``g``.

    Each marked edge (u, v) is removed; a fresh tree grown by ``trees[(u,v)]``
    is added with disjoint vertex ids, its first root joined to u and its last
    root joined to v by new edges.  Faces of ``g`` that used a removed edge are
    dropped; the spliced trees contribute their own faces.
    """
    edge_set = set(g.edges)
    norm = []
    for (u, v) in marked:
        e = (u, v) if u < v else (v, u)
        if e not in edge_set:
            raise InvalidParameterError(f"marked edge {e} is not an edge of the graph")
        norm.append(e)
    norm = sorted(set(norm))

    removed = set(norm)
    edges = [e for e in g.edges if e not in removed]
    removed_pairs = removed | {(v, u) for (u, v) in removed}
    plaquettes = [
        cyc for cyc in g.plaquettes
        if not any((cyc[i], cyc[(i + 1) % len(cyc)]) in removed_pairs for i in range(len(cyc)))
    ]

    base = g.num_vertices
    for (u, v) in norm:
        t = grow_tree(trees[(u, v)])
        edges.extend((a + base, b + base) for (a, b) in t.edges)
        plaquettes.extend(tuple(w + base for w in cyc) for cyc in t.plaquettes)
        edges.append(tuple(sorted((u, base + t.first_vertex))))
        edges.append(tuple(sorted((v, base + t.last_vertex))))
        base += t.num_vertices

    return Graph(
        num_vertices=base,
        edges=tuple(sorted(edges)),
        plaquettes=tuple(plaquettes),
        first_vertex=g.first_vertex,
        last_vertex=g.last_vertex,
    )


def chain_graph(x: Sequence[int], cells: int) -> Graph:
    """A finite open chain of ``cells`` glued trees joined root to root.

    The last root of cell c is identified with the first root of cell c+1;
    ``cell_bounds`` lists the resulting shared roots (including the two ends).
    """
    xs = check_growth_sequence(x)
    if cells < 1:
        raise InvalidParameterError(f"cells must be >= 1, got {cells}")
    stride = tree_vertex_count(xs) - 1
    return _tiled_tree(xs, cells, cell_bounds=tuple(range(0, cells * stride + 1, stride)))


def chain_cell_of_vertex(g: Graph, v: int) -> int:
    """Cell index of a chain vertex; shared roots belong to the lower cell."""
    if g.cell_bounds is None:
        raise InvalidParameterError("graph does not carry chain cell marks")
    stride = g.cell_bounds[1] - g.cell_bounds[0]
    return max(v - 1, 0) // stride


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
        self.plaquettes: list[tuple[int, ...]] = []
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
        self.plaquettes.append(cycle)
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
        return Graph(
            num_vertices=len(self.roles),
            edges=tuple(sorted(self.edges)),
            plaquettes=tuple(self.plaquettes),
            roles=tuple(self.roles),
            plaquette_signs=tuple(self.signs),
        )


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


def ordered_factorization_counts(limit: int) -> list[int]:
    """Count table n -> N(n) for 1 <= n <= limit via the divisor recurrence."""
    if limit < 1:
        raise InvalidParameterError("limit must be >= 1")
    counts = [0] * (limit + 1)
    counts[1] = 1
    for n in range(2, limit + 1):
        total = 0
        for d in _divisors(n):
            if d < n:
                total += counts[d]
        counts[n] = total
    return counts


# ---------------------------------------------------------------------------
# Text format: `graph <num_vertices>` then `e <u> <v>`, `face <v1> ...`,
# `root first <v>` / `root last <v>`; ids are 0-based decimal.
# ---------------------------------------------------------------------------


def format_text(header: str, edge_lines: Iterable[str], faces: Iterable[Sequence[int]],
                first: int | None, last: int | None) -> str:
    """A text graph: the header line, the edge lines, then a ``face`` line per
    face and a ``root`` line per root that is set."""
    lines = [header, *edge_lines]
    lines += ["face " + " ".join(map(str, cyc)) for cyc in faces]
    lines += [f"root {kind} {v}" for kind, v in (("first", first), ("last", last)) if v is not None]
    return "\n".join(lines) + "\n"


def text_fields(line: str, *types) -> list:
    """The words after a text line's keyword, converted by ``types`` in turn;
    refuses a line with too few words or a word that does not convert."""
    words = line.split()[1:]
    if len(words) < len(types):
        raise InvalidParameterError(f"line {line!r} needs {len(types)} field(s)")
    try:
        return [kind(word) for kind, word in zip(types, words)]
    except ValueError:
        raise InvalidParameterError(f"bad field in line {line!r}") from None


def parse_text(text: str, usage: str, edge_types: Sequence[type]):
    """The header line, the fields of each edge line (converted by
    ``edge_types``), the faces and the roots by kind of a text graph.

    Blank lines and ``#`` comments are skipped.  The header keyword is the
    first word of ``usage``; refuses a missing header, an unrecognized line,
    a malformed field or a root kind other than ``first`` or ``last``.
    """
    keyword = usage.split()[0]
    header = None
    edges: list[list] = []
    faces: list[tuple[int, ...]] = []
    roots: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == keyword:
            header = line
        elif parts[0] == "e":
            edges.append(text_fields(line, *edge_types))
        elif parts[0] == "face":
            faces.append(tuple(text_fields(line, *[int] * (len(parts) - 1))))
        elif parts[0] == "root":
            kind, v = text_fields(line, str, int)
            if kind not in ("first", "last"):
                raise InvalidParameterError(f"unknown root kind {kind!r}")
            roots[kind] = v
        else:
            raise InvalidParameterError(f"unrecognized line {line!r}")
    if header is None:
        raise InvalidParameterError(f"missing '{usage}' header")
    return header, edges, faces, roots


def format_graph(g: Graph) -> str:
    return format_text(f"graph {g.num_vertices}", (f"e {u} {v}" for (u, v) in g.edges),
                       g.plaquettes, g.first_vertex, g.last_vertex)


def parse_graph(text: str) -> Graph:
    """Read the text graph format; refuses a repeated edge, in either orientation."""
    header, edges, faces, roots = parse_text(text, "graph <n>", (int, int))
    num, = text_fields(header, int)
    return Graph(
        num_vertices=num,
        edges=tuple(sorted((min(u, v), max(u, v)) for (u, v) in edges)),
        plaquettes=tuple(faces),
        first_vertex=roots.get("first"),
        last_vertex=roots.get("last"),
    )
