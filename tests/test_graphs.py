import itertools
import math
import re
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caged import caging, gauge, graphs, spectral
from caged.errors import InvalidParameterError, ResourceLimitError

growth_sequences = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda xs: tuple(xs[:-1]) + (max(xs[-1], 2),))


def kron_growth(xs):
    """Literal partitioned-matrix recurrence; the independent construction oracle."""
    def unit(n, i):
        v = np.zeros(n)
        v[i] = 1.0
        return v

    p = xs[0]
    y = np.zeros((p + 2, p + 2))
    y[0, 1:p + 1] = y[1:p + 1, 0] = 1.0
    y[p + 1, 1:p + 1] = y[1:p + 1, p + 1] = 1.0
    for x in xs[1:]:
        n = len(y)
        ones = np.ones(x)
        top = np.kron(ones, unit(n, 0))
        bot = np.kron(ones, unit(n, n - 1))
        m = np.zeros((2 + x * n, 2 + x * n))
        m[0, 1:-1] = top
        m[1:-1, 0] = top
        m[-1, 1:-1] = bot
        m[1:-1, -1] = bot
        m[1:-1, 1:-1] = np.kron(np.eye(x), y)
        y = m
    return y


def reference_breadth_first_ids(g):
    """Breadth-first ids by a queue from the first root that visits
    neighbours by growth id, over the growth-order edges."""
    growth_id = np.argsort(g.perm)
    nbrs = [[] for _ in growth_id]
    for a, b in zip(growth_id[g.rows].tolist(), growth_id[g.cols].tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    ids = {0: 0}
    queue = deque([0])
    while queue:
        for w in sorted(nbrs[queue.popleft()]):
            if w not in ids:
                ids[w] = len(ids)
                queue.append(w)
    return [ids[w] for w in range(len(nbrs))]


def same_graph(a, b):
    """Equal vertex counts, edge and face arrays, roots and annotations."""
    arrays = ("rows", "cols", "face_vertices", "face_lengths")
    fields = ("num_vertices", "first_vertex", "last_vertex", "roles", "cell_bounds",
              "plaquette_signs")
    return (all(np.array_equal(getattr(a, k), getattr(b, k)) for k in arrays)
            and all(getattr(a, k) == getattr(b, k) for k in fields))


class TestShrub:
    def test_two_shrub_is_four_cycle(self):
        g = graphs.shrub(2)
        assert g.num_vertices == 4
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert g.degrees().tolist() == [2, 2, 2, 2]
        assert len(g.plaquettes) == 1 and len(g.plaquettes[0]) == 4

    def test_three_shrub_counts(self):
        g = graphs.shrub(3)
        assert g.num_vertices == 5
        assert g.num_edges == 6
        assert len(g.plaquettes) == 2

    def test_roots_have_degree_p(self):
        for p in range(1, 7):
            g = graphs.shrub(p)
            deg = g.degrees()
            assert deg[g.first_vertex] == deg[g.last_vertex] == p

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            graphs.shrub(0)


def average_degree(g):
    """Average vertex degree 2|E| / |V| as an exact rational."""
    return Fraction(2 * g.num_edges, g.num_vertices)


def tree_edge_count(xs):
    """Edge count E_i = x_i * (E_{i-1} + 2) with E_1 = 2 * x_1."""
    e = 2 * xs[0]
    for v in xs[1:]:
        e = v * (e + 2)
    return e


class TestAverageDegree:
    def test_four_cycle(self):
        assert average_degree(graphs.shrub(2)) == 2

    @pytest.mark.parametrize("p", range(1, 9))
    def test_shrub_formula(self, p):
        assert average_degree(graphs.shrub(p)) == Fraction(4 * p, p + 2)

    def test_below_four_small(self):
        g = graphs.grow_tree((2, 2, 2))
        assert g.num_edges == tree_edge_count((2, 2, 2))
        assert average_degree(g) < 4

    def test_below_four_exhaustive(self):
        # every growth sequence with product up to 256, via edge/vertex counts
        for m in range(2, 257):
            for xs in graphs.ordered_factorizations(m)[1]:
                avg = Fraction(2 * tree_edge_count(xs), graphs.tree_vertex_count(xs))
                assert avg < 4, xs


class TestGrowTree:
    def test_depth_one_is_shrub(self):
        assert same_graph(graphs.grow_tree((2,)), graphs.shrub(2))
        assert same_graph(graphs.grow_tree((5,)), graphs.shrub(5))

    def test_vertex_recurrence(self):
        assert graphs.grow_tree((2, 2)).num_vertices == 10
        assert graphs.tree_vertex_count((2, 3, 2)) == 30

    @pytest.mark.parametrize("xs", [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 3, 2), (1, 2), (2, 1, 2)])
    def test_matches_partitioned_matrix_recurrence(self, xs):
        g = graphs.growth(xs)
        growth_id = np.argsort(g.perm)
        u, v = growth_id[g.rows], growth_id[g.cols]
        a = np.zeros((len(g.perm), len(g.perm)))
        a[u, v] = a[v, u] = 1.0
        assert np.array_equal(a, kron_growth(xs))

    @given(growth_sequences | st.sampled_from([(2,) * 6, (1, 3, 1, 2), (3, 1, 1, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_breadth_first_ids_match_a_queue(self, xs):
        g = graphs.growth(xs)
        assert g.perm.tolist() == reference_breadth_first_ids(g)

    @given(growth_sequences)
    @settings(max_examples=40, deadline=None)
    def test_plaquette_count_is_cyclomatic(self, xs):
        g = graphs.grow_tree(xs)
        assert len(g.plaquettes) == g.num_edges - g.num_vertices + 1

    @given(growth_sequences)
    @settings(max_examples=40, deadline=None)
    def test_roots_and_sizes(self, xs):
        g = graphs.grow_tree(xs)
        assert g.first_vertex == 0
        assert g.last_vertex == g.num_vertices - 1
        assert g.num_vertices == graphs.tree_vertex_count(xs)
        assert g.degrees()[0] == g.degrees()[-1] == xs[-1]

    def test_long_run_of_ones(self):
        xs = (1,) * 1500 + (2,)
        g = graphs.grow_tree(xs)
        assert g.num_vertices == graphs.tree_vertex_count(xs) == 6004
        assert g.num_edges == tree_edge_count(xs)

    @given(growth_sequences | st.sampled_from([(2,) * 6, (1, 3, 1, 2), (3, 1, 1, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_layer_counts_and_boundary_paths(self, xs):
        g, t = graphs.growth(xs), graphs.grow_tree(xs)
        assert g.counts.tolist() == np.bincount(t.distances(0)).tolist()
        for path in (g.left, g.right):
            assert path[0] == 0 and path[-1] == t.last_vertex and len(path) == len(g.counts)
            t.edge_slots(path[:-1], path[1:])  # every step is an edge
        # the left path runs through the first copy, the right one through the last
        x, n = xs[-1], (t.num_vertices - 2) // xs[-1]
        growth_id = np.argsort(g.perm)
        assert (growth_id[g.left[1:-1]] <= n).all()
        assert (growth_id[g.right[1:-1]] > n * (x - 1)).all()

    def test_plaquettes_are_cycles(self):
        g = graphs.grow_tree((2, 3, 2))
        edge_set = set(g.edges)
        for cyc in g.plaquettes:
            for i in range(len(cyc)):
                u, v = cyc[i], cyc[(i + 1) % len(cyc)]
                assert (min(u, v), max(u, v)) in edge_set

    def test_deterministic(self):
        a = graphs.grow_tree((2, 3))
        b = graphs.grow_tree((2, 3))
        assert same_graph(a, b)

    def test_shares_the_growth_arrays(self):
        g, t = graphs.growth((2, 3)), graphs.grow_tree((2, 3))
        assert t.rows is g.rows and t.cols is g.cols
        assert t.face_vertices is g.face_vertices and t.face_lengths is g.face_lengths

    def test_oversized_tree_refused_before_growing(self, monkeypatch):
        # 10^12 + 2 * 10^6 + 2 vertices: refused before a level is grown.
        def grow_level(*args):
            raise AssertionError("a level was grown")

        monkeypatch.setattr(graphs, "_grow_level", grow_level)
        n = graphs.tree_vertex_count((10**6, 10**6))
        with pytest.raises(InvalidParameterError, match=f"^{n} vertices; at most"):
            graphs.grow_tree((10**6, 10**6))
        with pytest.raises(InvalidParameterError, match="vertices; at most"):
            graphs.growth((3,) * 40)

    def test_tree_past_the_byte_limit_refused_before_growing(self, monkeypatch):
        def grow_level(*args):
            raise AssertionError("a level was grown")

        monkeypatch.setattr(graphs, "_grow_level", grow_level)
        assert graphs.tree_vertex_count((3 * 10**9,)) <= graphs.MAX_VERTICES
        with pytest.raises(ResourceLimitError, match="^6000000000 edges need"):
            graphs.growth((3 * 10**9,))
        # the largest trees the limit must admit
        graphs.check_growth_bytes((6,) * 8)  # 4,031,076 edges
        graphs.check_growth_bytes((2,) * 16)

    def test_colouring_is_the_layer_parity(self):
        t = graphs.grow_tree((2, 3, 2))
        assert not t.colouring.flags.writeable
        assert (t.colouring == (t.distances(0) % 2 == 1)).all()

    def test_invalid_sequences(self):
        with pytest.raises(InvalidParameterError):
            graphs.grow_tree(())
        with pytest.raises(InvalidParameterError):
            graphs.grow_tree((2, 1))
        with pytest.raises(InvalidParameterError):
            graphs.grow_tree((0, 2))


def reference_edge_error(num_vertices, edges):
    """The per-edge loop that the array check replaces: the first message, or None."""
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < v < num_vertices):
            return f"bad edge ({u}, {v}) for {num_vertices} vertices"
        if (u, v) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add((u, v))
    return None


def edge_error(num_vertices, edges):
    try:
        graphs.Graph(num_vertices=num_vertices, rows=[u for (u, _v) in edges],
                     cols=[v for (_u, v) in edges])
    except InvalidParameterError as exc:
        return str(exc)
    return None


class TestGraphEdgeCheck:
    def test_bad_edge_before_a_duplicate(self):
        edges = ((0, 1), (3, 2), (0, 1), (1, 2))
        assert edge_error(4, edges) == "bad edge (3, 2) for 4 vertices"

    def test_duplicate_before_a_bad_edge(self):
        edges = ((0, 1), (1, 2), (0, 1), (2, 9))
        assert edge_error(4, edges) == "duplicate edge (0, 1)"

    def test_out_of_range_edge_that_aliases_a_valid_one(self):
        # (0, 7) in 4 vertices would share the key 0*4 + 7 = 1*4 + 3 with (1, 3).
        assert edge_error(4, ((1, 3), (0, 7))) == "bad edge (0, 7) for 4 vertices"
        assert edge_error(4, ((0, 7), (1, 3))) == "bad edge (0, 7) for 4 vertices"

    @given(st.integers(1, 6), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
                                       max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge_loop(self, num_vertices, edges):
        assert edge_error(num_vertices, edges) == reference_edge_error(num_vertices, edges)

    @pytest.mark.parametrize("edges, message", [
        (((0, 1), (0, 1), (1, 2)), "duplicate edge (0, 1)"),
        (((0, 1), (1, 2), (1, 2), (2, 9)), "duplicate edge (1, 2)"),
        (((0, 1), (2, 9), (2, 3), (2, 3)), "bad edge (2, 9) for 4 vertices"),
    ])
    def test_sorted_input_with_a_repeat(self, edges, message):
        assert edge_error(4, edges) == message == reference_edge_error(4, edges)

    @pytest.mark.parametrize("faces, lengths, step", [
        ([0, 1, 2], [3], "(1, 2)"),
        ([0, 1, 3, 2], [4], "(2, 0)"),  # the step that closes the face
        ([0, 1, 3, 1, 3, 2], [3, 3], "(2, 1)"),  # the second face's closing step
    ])
    def test_face_step_off_the_edges_on_sorted_input(self, faces, lengths, step):
        with pytest.raises(InvalidParameterError, match=re.escape(f"{step} is not an edge")):
            graphs.Graph(num_vertices=4, rows=[0, 0, 1, 2], cols=[1, 3, 3, 3],
                         face_vertices=faces, face_lengths=lengths)

    def test_faces_on_a_graph_with_no_edges(self):
        with pytest.raises(InvalidParameterError, match=re.escape("(0, 1) is not an edge")):
            graphs.Graph(num_vertices=3, rows=[], cols=[], face_vertices=[0, 1, 2],
                         face_lengths=[3])

    def test_keys_follow_the_sorted_edges(self):
        g = graphs.Graph(num_vertices=5, rows=[2, 0, 1, 0], cols=[3, 4, 3, 1])
        assert g.keys.tolist() == (g.rows * 5 + g.cols).tolist() == [1, 4, 8, 13]
        assert not g.keys.flags.writeable

    def test_edges_sorted_and_read_only(self):
        g = graphs.Graph(num_vertices=4, rows=[2, 0, 1, 0], cols=[3, 2, 3, 1])
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        with pytest.raises(ValueError):
            g.rows[0] = 1

    @pytest.mark.parametrize("faces, lengths, roots", [
        ([0, 1, 3, 2], [4], {"first_vertex": 4}),  # root past the last vertex
        ([0, 1, 3, 2], [4], {"last_vertex": -1}),  # negative root
        ([0, 1, 2], [3], {}),  # step 1 -> 2 is not an edge
        ([0, 1, 3, 7], [4], {}),  # face vertex out of range
        ([0, 1, 3, 2], [3], {}),  # lengths do not cut the vertices
        ([0, 1, 3, 2], [5, -1], {}),
    ])
    def test_bad_faces_and_roots_refused(self, faces, lengths, roots):
        with pytest.raises(InvalidParameterError):
            graphs.Graph(num_vertices=4, rows=[0, 0, 1, 2], cols=[1, 2, 3, 3],
                         face_vertices=faces, face_lengths=lengths, **roots)

    @pytest.mark.parametrize("faces, lengths", [
        ([], [0]),  # an empty face
        ([0, 1, 3, 2, 0, 1], [4, 2]),  # a face of two vertices after a square
        ([0, 1], [1, 1]),
    ])
    def test_faces_below_three_vertices_refused(self, faces, lengths):
        with pytest.raises(InvalidParameterError, match="a face needs at least 3"):
            graphs.Graph(num_vertices=4, rows=[0, 0, 1, 2], cols=[1, 2, 3, 3],
                         face_vertices=faces, face_lengths=lengths)


def reference_colouring(n, rows, cols):
    """Breadth-first 2-colouring from the lowest uncoloured vertex of each
    component, as booleans; None when some edge joins equal colours."""
    adjacent = [[] for _ in range(n)]
    for u, v in zip(rows, cols):
        adjacent[u].append(v)
        adjacent[v].append(u)
    colour = [None] * n
    for s in range(n):
        if colour[s] is None:
            colour[s], queue = False, deque([s])
            while queue:
                u = queue.popleft()
                for v in adjacent[u]:
                    if colour[v] is None:
                        colour[v] = not colour[u]
                        queue.append(v)
    if any(colour[u] == colour[v] for u, v in zip(rows, cols)):
        return None
    return np.array(colour, dtype=bool)


class TestTwoColouring:
    def test_matches_breadth_first_on_random_labellings(self):
        # Random labels leave several trees per component after the first
        # step, so edges between trees carry parities into later steps.
        rng = np.random.default_rng(41)
        refused = 0
        for _ in range(1500):
            n = int(rng.integers(0, 13))
            pairs = list(itertools.combinations(range(n), 2))
            chosen = rng.permutation(len(pairs))[:int(rng.integers(0, n + 3))]
            label = rng.permutation(n)
            rows = np.array([label[pairs[i][0]] for i in chosen], dtype=np.int64)
            cols = np.array([label[pairs[i][1]] for i in chosen], dtype=np.int64)
            want = reference_colouring(n, rows.tolist(), cols.tolist())
            if want is None:
                refused += 1
                with pytest.raises(InvalidParameterError, match="odd cycle"):
                    graphs.two_colouring(n, rows, cols)
            else:
                assert (graphs.two_colouring(n, rows, cols) == want).all(), (n, rows, cols)
        assert 100 < refused < 1400

    def test_loops_and_repeated_edges(self):
        with pytest.raises(InvalidParameterError, match="odd cycle"):
            graphs.two_colouring(2, [0, 1], [1, 1])
        assert graphs.two_colouring(3, [0, 1, 2, 1], [1, 0, 1, 2]).tolist() == [False, True, False]

    def test_graph_caches_one_boolean_per_vertex(self):
        g = gauge.canonical_ccam((2, 3, 2), 0.0).graph
        side = g.colouring
        assert side is g.colouring and side.dtype == bool and side.shape == (g.num_vertices,)
        assert not side.flags.writeable
        assert (side[g.rows] != side[g.cols]).all() and not side[0]
        # A glued tree keeps its level parity along the root-to-root chain.
        assert side[g.last_vertex] == (g.distances(0)[g.last_vertex] % 2 == 1)


def check_hang_forest(n, lo, hi, offset, modulus):
    """``hang_forest`` against its definition, edge by edge: roots are fixed
    points with potential 0, and every other vertex has its lowest lower
    neighbour's root and potential plus the offset of the edge between them.
    Returns the roots."""
    root, pot = graphs.hang_forest(n, lo, hi, offset, modulus)
    assert (root[root] == root).all() and not pot[root].any()
    assert ((0 <= pot) & (pot < modulus)).all()
    below = {}
    for a, b, c in zip(lo.tolist(), hi.tolist(), np.asarray(offset).tolist()):
        below[b] = min(below.get(b, (a, c)), (a, c))
    for v in range(n):
        if v not in below:
            assert root[v] == v
            continue
        parent, c = below[v]
        assert root[v] == root[parent] and pot[v] == (pot[parent] + c) % modulus
    return root


class TestHangForest:
    @pytest.mark.parametrize("modulus", [2, 3, 8, 1024])
    def test_roots_and_hang_offsets_on_random_labellings(self, modulus):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(0, 13))
            pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
            chosen = rng.permutation(len(pairs))[:int(rng.integers(0, n + 3))]
            ends = rng.permutation(n)[pairs[chosen]].reshape(-1, 2)
            lo, hi = ends.min(axis=1), ends.max(axis=1)
            offset = rng.integers(0, modulus, size=lo.size)
            check_hang_forest(n, lo, hi, offset, modulus)

    def test_one_tree_per_grown_tree(self):
        # Breadth-first ids hang every vertex of a glued tree from the first
        # root, with the canonical gauge's exponents as offsets.
        for m_prod in range(2, 25):
            for xs in graphs.ordered_factorizations(m_prod)[1]:
                n = 4 * m_prod
                m = gauge.canonical_ccam(xs, 2 * math.pi / m_prod)
                offset = -caging.phase_exponents(m, n) % n
                root = check_hang_forest(m.dimension, m.graph.rows, m.graph.cols, offset, n)
                assert not root.any(), xs


class TestReplaceEdges:
    def test_single_edge_becomes_bridged_shrub(self):
        g = graphs.Graph(num_vertices=2, rows=[0], cols=[1])
        out = graphs.replace_edges(g, [(0, 1)], {(0, 1): (2,)})
        assert out.num_vertices == 6
        assert (0, 1) not in out.edges
        assert out.degrees()[0] == 1 and out.degrees()[1] == 1

    def test_triangle_all_edges(self):
        tri = graphs.Graph(num_vertices=3, rows=[0, 0, 1], cols=[1, 2, 2])
        trees = {e: (2,) for e in tri.edges}
        out = graphs.replace_edges(tri, tri.edges, trees)
        assert out.num_vertices == 3 * 4 + 3

    def test_zero_edges_identity(self):
        g = graphs.grow_tree((2, 2))
        assert same_graph(graphs.replace_edges(g, [], {}), g)

    def test_absent_edge_rejected(self):
        g = graphs.Graph(num_vertices=3, rows=[0], cols=[1])
        with pytest.raises(InvalidParameterError):
            graphs.replace_edges(g, [(1, 2)], {(1, 2): (2,)})

    def test_tree_keyed_by_either_orientation(self):
        g = graphs.Graph(num_vertices=2, rows=[0], cols=[1])
        for marked, key in [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0))]:
            out = graphs.replace_edges(g, [marked], {key: (2,)})
            assert same_graph(out, graphs.replace_edges(g, [(0, 1)], {(0, 1): (2,)}))

    def test_missing_tree_refused(self):
        g = graphs.Graph(num_vertices=3, rows=[0, 1], cols=[1, 2])
        with pytest.raises(InvalidParameterError, match="no tree"):
            graphs.replace_edges(g, [(0, 1), (1, 2)], {(0, 1): (2,)})

    def test_faces_on_a_marked_edge_dropped(self):
        g = graphs.grow_tree((2, 2))
        out = graphs.replace_edges(g, [(0, 1)], {(0, 1): (3,)})
        kept = [cyc for cyc in g.plaquettes
                if not any({cyc[i], cyc[i - 1]} == {0, 1} for i in range(len(cyc)))]
        assert out.plaquettes == tuple(kept) + tuple(
            tuple(v + g.num_vertices for v in cyc) for cyc in graphs.shrub(3).plaquettes)
        assert out.num_edges == g.num_edges - 1 + 2 + graphs.shrub(3).num_edges


class TestChainGraph:
    def test_single_cell_is_tree(self):
        t = graphs.grow_tree((2, 3, 2))
        c = graphs.chain_graph((2, 3, 2), 1)
        assert c.num_vertices == t.num_vertices
        assert c.edges == t.edges
        assert c.plaquettes == t.plaquettes

    def test_shared_roots(self):
        c = graphs.chain_graph((2,), 2)
        assert c.num_vertices == 7
        assert c.cell_bounds == (0, 3, 6)

    def test_three_rhombi(self):
        c = graphs.chain_graph((2,), 3)
        assert c.num_vertices == 10
        assert len(c.plaquettes) == 3
        deg = c.degrees()
        for b in c.cell_bounds[1:-1]:
            assert deg[b] == 4

    def test_shared_roots_belong_to_the_lower_cell(self):
        c = graphs.chain_graph((2,), 3)
        cells = [graphs.chain_cell_of_vertex(c, v) for v in range(c.num_vertices)]
        assert cells == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_oversized_chain_refused_before_growing(self, monkeypatch):
        def growth(xs):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(graphs, "growth", growth)
        cells = graphs.MAX_VERTICES // 3 + 1  # three more vertices per shrub cell
        with pytest.raises(InvalidParameterError, match=f"^{3 * cells + 1} vertices; at most"):
            graphs.chain_graph((2,), cells)

    def test_chain_past_the_byte_limit_refused_before_growing(self, monkeypatch):
        def growth(xs):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(graphs, "growth", growth)
        cells = graphs.GROWTH_LIMIT_BYTES // (128 * 4) + 1  # a (2,) cell has four edges
        with pytest.raises(ResourceLimitError, match=f"^{4 * cells} edges need"):
            graphs.chain_graph((2,), cells)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            graphs.chain_graph((2,), 0)
        with pytest.raises(InvalidParameterError, match="cell marks"):
            graphs.chain_cell_of_vertex(graphs.grow_tree((2,)), 1)


class TestLotus:
    def test_dice_tile_structure(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        assert patch.num_vertices == 19
        assert patch.num_edges == 30
        assert len(patch.plaquettes) == 12  # 2n shrubs, one rhombus each
        center = patch.roles.index("center")
        assert patch.degrees()[center] == 6
        by_role = {}
        for v, role in enumerate(patch.roles):
            by_role.setdefault(role, []).append(patch.degrees()[v])
        assert set(by_role["interior"]) == {3}
        assert set(by_role["midpoint"]) == {4}  # rises to 6 once neighbors attach

    def test_dice_patch_ring_growth(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6, generations=2))
        # hexagonal ring closes: 7 tiles, every inner midpoint is now a full hub
        assert len(patch.plaquettes) == 7 * 12
        deg = patch.degrees()
        inner = graphs.lotus_hubs(patch)[:7]
        hubs6 = [v for v in inner if deg[v] == 6]
        assert len(hubs6) >= 7
        # dice degree classes: hubs 6, rims at most 3 (interior ones exactly 3)
        assert all(deg[v] in (3, 6) or deg[v] < 6 for v in range(patch.num_vertices))

    def test_heptagon_tile(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=7, shrub_p=3))
        assert len(patch.plaquettes) == 2 * 7 * (3 - 1)  # 14 shrubs, two faces each
        assert patch.num_vertices == 36
        assert patch.num_edges == 63
        center = patch.roles.index("center")
        assert patch.degrees()[center] == 7 * 2

    def test_heptagon_ring_growth_euler(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=7, shrub_p=3,
                                                    generations=2))
        assert len(patch.plaquettes) == patch.num_edges - patch.num_vertices + 1

    def test_star_tile(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="second", sides=4, tiling_q=4))
        assert patch.num_vertices == 9
        assert patch.num_edges == 12
        assert len(patch.plaquettes) == 4
        center = patch.roles.index("center")
        assert patch.degrees()[center] == 4

    def test_star_ring_growth(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="second", sides=4, tiling_q=4,
                                                    generations=2))
        # 5 tiles; neighbors share corner pairs only, plus one joint face per side
        assert len(patch.plaquettes) == 5 * 4 + 4
        assert len(patch.plaquettes) == patch.num_edges - patch.num_vertices + 1

    def test_invalid_specs(self):
        with pytest.raises(InvalidParameterError):
            graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=5))
        with pytest.raises(InvalidParameterError):
            graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6, tiling_q=4))
        with pytest.raises(InvalidParameterError):
            graphs.lotus_patch(graphs.LotusSpec(kind="second", sides=5, tiling_q=4))
        with pytest.raises(InvalidParameterError):
            graphs.lotus_patch(graphs.LotusSpec(kind="second", sides=4, tiling_q=3))

    @pytest.mark.parametrize("spec, match", [
        (dict(kind="third", sides=6), "unknown lotus kind"),
        (dict(kind="first", sides=6, shrub_p=1), "p >= 2"),
        (dict(kind="second", sides=4, tiling_q=4, generations=0), "generations"),
    ])
    def test_refused_specs(self, spec, match):
        """A spec is checked when it is built, before any patch."""
        with pytest.raises(InvalidParameterError, match=match):
            graphs.LotusSpec(**spec)

    def test_vertex_limit(self, monkeypatch):
        spec = graphs.LotusSpec(kind="first", sides=7, generations=4)
        monkeypatch.setattr(graphs, "LOTUS_VERTEX_LIMIT", 1394)
        assert graphs.lotus_patch(spec).num_vertices == 1394
        monkeypatch.setattr(graphs, "LOTUS_VERTEX_LIMIT", 1393)
        with pytest.raises(ResourceLimitError, match="passes the vertex limit 1393"):
            graphs.lotus_patch(spec)

    def test_hubs_need_roles(self):
        with pytest.raises(InvalidParameterError, match="lotus roles"):
            graphs.lotus_hubs(graphs.grow_tree((2, 2)))


def seeded_square():
    """A {4,4} star builder after its seed tile: corners 0..3, side i from
    corner i to corner i + 1, each corner's fan [side i - 1, side i]."""
    b = graphs._LotusBuilder(graphs.LotusSpec(kind="second", sides=4, tiling_q=4))
    b.seed_tile()
    assert [s.corners for s in b.sides] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    return b


class TestLotusFanInvariants:
    """A tile across side 0 walks from corner 0 and closes at corner 1."""

    def test_turn_from_an_interior_fan_side(self):
        b = seeded_square()
        b.arcs[0] = [3, 0, 1, 2]  # full, with side 0 inside
        with pytest.raises(AssertionError, match="interior fan side"):
            b.attach_tile(0)

    def test_fresh_side_off_the_tail(self):
        b = seeded_square()
        b.arcs[0] = [0, 3]
        with pytest.raises(AssertionError, match="off the tail"):
            b.attach_tile(0)

    def test_closing_side_off_the_head(self):
        b = seeded_square()
        b.arcs[1] = [1, 0]
        with pytest.raises(AssertionError, match="head of its fan"):
            b.attach_tile(0)

    def test_boundary_that_meets_itself(self):
        # A full fan at corner 0 turns onto a second side 4 back to corner 1,
        # so the boundary passes corner 1 twice.
        b = seeded_square()
        b.sides.append(graphs._Side((0, 1), None))
        b.arcs[0], b.arcs[1] = [4, 2, 2, 0], [0, 4]
        with pytest.raises(AssertionError, match="failed to close"):
            b.attach_tile(0)

    def test_growth_keeps_fans_ordered(self):
        b = graphs._LotusBuilder(graphs.LotusSpec(kind="second", sides=4, tiling_q=4,
                                                  generations=3))
        b.build()
        assert all(len(arc) <= 4 for arc in b.arcs.values())
        assert all(s.tiles in (1, 2) for s in b.sides)


def brute_force_factorizations(m):
    """Independent oracle: non-decreasing factorizations, then all orderings."""
    def multisets(value, min_factor):
        if value == 1:
            return [()]
        out = []
        f = min_factor
        while f <= value:
            if value % f == 0:
                out.extend((f,) + rest for rest in multisets(value // f, f))
            f += 1
        return out

    ordered = set()
    for ms in multisets(m, 2):
        ordered.update(itertools.permutations(ms))
    return sorted(ordered)


class TestOrderedFactorizations:
    def test_examples(self):
        assert graphs.ordered_factorizations(1) == (1, ((),))
        assert graphs.ordered_factorizations(2) == (1, ((2,),))
        count, facs = graphs.ordered_factorizations(4)
        assert count == 2 and set(facs) == {(4,), (2, 2)}
        assert graphs.ordered_factorizations(12)[0] == 8

    @pytest.mark.parametrize("m", list(range(1, 61)))
    def test_matches_brute_force(self, m):
        count, facs = graphs.ordered_factorizations(m)
        expected = brute_force_factorizations(m)
        assert count == len(facs) == len(expected)
        assert set(facs) == set(expected)

    def test_every_factorization_is_valid(self):
        for m in (24, 36, 60):
            _count, facs = graphs.ordered_factorizations(m)
            assert len(set(facs)) == len(facs)
            for f in facs:
                assert all(v >= 2 for v in f)
                assert math.prod(f) == m

    def test_divisor_recurrence_table(self):
        counts = graphs.ordered_factorization_counts(600)
        for m in range(1, 601):
            assert counts[m] == graphs.ordered_factorizations(m)[0]

    def test_count_without_listing_matches_the_table(self):
        counts = graphs.ordered_factorization_counts(3000)
        assert [graphs.ordered_factorization_count(m) for m in range(1, 3001)] == counts[1:]

    def test_count_of_a_large_power_of_two(self):
        # The ordered factorizations of 2^k are the compositions of k: 2^(k-1).
        assert graphs.ordered_factorization_count(2**48) == 2**47

    def test_count_of_many_divisors_reads_only_the_exponents(self):
        # 2^10 3^6 5^4 7^3 11^2 13 17 19 23 has 73,920 divisors; the same
        # exponents on the primes in reverse give the same count.
        start = time.perf_counter()
        count = graphs.ordered_factorization_count(1870082229375360000)
        assert time.perf_counter() - start < 0.1
        swapped = 23**10 * 19**6 * 17**4 * 13**3 * 11**2 * 7 * 5 * 3 * 2
        assert graphs.ordered_factorization_count(swapped) == count

    def test_count_meets_the_divisor_recurrence(self):
        # N(m) is the sum of N(d) over the proper divisors d (6,720 of them here).
        m = 963761198400
        divisors = graphs._divisors(m)
        assert len(divisors) == 6720
        assert graphs.ordered_factorization_count(m) == sum(
            graphs.ordered_factorization_count(d) for d in divisors[:-1])

    def test_trial_division_bound(self):
        with pytest.raises(ResourceLimitError, match="would trial-divide past 1000000"):
            graphs.prime_factorization(2**61 - 1)
        # Every m <= 10^12 factors, the largest prime below it too.
        assert graphs.prime_factorization(999999999989) == [(999999999989, 1)]
        assert graphs.prime_factorization(10**12) == [(2, 12), (5, 12)]

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            graphs.ordered_factorizations(0)
        with pytest.raises(InvalidParameterError):
            graphs.ordered_factorization_count(0)
        with pytest.raises(InvalidParameterError, match="limit must be >= 1"):
            graphs.ordered_factorization_counts(0)


class TestGraphFile:
    def test_round_trip(self):
        g = graphs.grow_tree((2, 3))
        text = graphs.format_graph(g)
        assert text.startswith("graph 14\n")
        back = graphs.parse_graph(text)
        assert back.num_vertices == g.num_vertices
        assert back.edges == g.edges
        assert back.plaquettes == g.plaquettes
        assert back.first_vertex == g.first_vertex
        assert back.last_vertex == g.last_vertex

    def test_bad_header(self):
        with pytest.raises(InvalidParameterError):
            graphs.parse_graph("e 0 1\n")

    def test_unrecognized_line_refused(self):
        with pytest.raises(InvalidParameterError, match="unrecognized line 'edge 0 1'"):
            graphs.parse_graph("graph 2\nedge 0 1\n")

    def test_comments_skipped(self):
        g = graphs.parse_graph("# a rhombus\ngraph 2\n  # its one edge\ne 0 1\n")
        assert (g.num_vertices, g.edges) == (2, ((0, 1),))

    def test_repeated_edge_refused(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            graphs.parse_graph("graph 3\ne 0 1\ne 1 0\ne 1 2\n")

    @pytest.mark.parametrize("text", [
        "graph x\ne 0 1\n",  # non-integer vertex count
        "graph\ne 0 1\n",  # vertex count missing
        "graph 3\ne 0\n",  # edge end missing
        "graph 3\ne 0 one\n",  # non-integer edge end
        "graph 3\ne 0 1\nroot first\n",  # root vertex missing
        "graph 3\ne 0 1\nroot middle 2\n",  # unknown root kind
        "graph 3\ne 0 1\nface 0 1 x\n",  # non-integer face vertex
        "graph 3\ne 0 1\nface 0 1 7\nroot first 9\nroot last -2\n",
        "graph 3\ne 0 1\nface 0 1 7\n",  # face vertex out of range
        "graph 3\ne 0 1\ne 1 2\nface 0 1 2\n",  # step 2 -> 0 is not an edge
        "graph 3\ne 0 1\nroot first 9\n",  # root past the last vertex
        "graph 3\ne 0 1\nroot last -2\n",  # negative root
    ])
    def test_bad_line_refused(self, text):
        with pytest.raises(InvalidParameterError):
            graphs.parse_graph(text)

    @pytest.mark.parametrize("text", [
        "graph 99999999999999999999\ne 0 1\n",  # vertex count past int64
        "graph 3\ne 0 99999999999999999999\n",  # edge end past int64
        "graph 3\ne -99999999999999999999 1\n",  # edge end below int64
        "graph 3\ne 0 1\ne 1 2\nface 0 1 99999999999999999999\n",
        "graph 3\ne 0 1\nroot last 99999999999999999999\n",
    ])
    def test_integer_past_int64_refused(self, text):
        with pytest.raises(InvalidParameterError, match="out of range"):
            graphs.parse_graph(text)

    @pytest.mark.parametrize("parse, text", [
        # n^2 wraps int64, so the non-edge step (5, 10) would alias an edge key
        (graphs.parse_graph, "graph 4611686018427387904\ne 1 10\ne 1 5\nface 1 5 10\n"),
        (gauge.parse_ccam, "ccam 4611686018427387904 0\ne 1 10 0.5\ne 1 5 0.5\nface 1 5 10\n"),
        (graphs.parse_graph, "graph 3037000500\ne 1 10\n"),  # one past the largest count
        (graphs.parse_graph, "graph -1\n"),
    ])
    def test_vertex_count_past_the_key_range_refused(self, parse, text):
        with pytest.raises(InvalidParameterError, match="vertices"):
            parse(text)

    def test_largest_vertex_count_keeps_edge_keys_exact(self):
        with pytest.raises(InvalidParameterError, match="vertices"):
            graphs.Graph(2**62, [1], [10])
        g = graphs.Graph(graphs.MAX_VERTICES, [1, graphs.MAX_VERTICES - 2],
                         [10, graphs.MAX_VERTICES - 1])
        assert g.edge_slots([10, graphs.MAX_VERTICES - 1], [1, graphs.MAX_VERTICES - 2]).tolist() \
            == [0, 1]
        with pytest.raises(InvalidParameterError, match="not an edge"):
            g.edge_slots([5], [10])

    @pytest.mark.parametrize("face", ["face", "face 0", "face 0 1"])
    def test_degenerate_face_refused(self, face):
        with pytest.raises(InvalidParameterError, match="at least 3"):
            graphs.parse_graph(f"graph 2\ne 0 1\n{face}\n")


class TestIntegerInputs:
    """Sequence entries, counts, vertex ids and edge and face arrays must be
    integers: a float is refused, not truncated or left to a raw error."""

    @pytest.mark.parametrize("build", [
        lambda: gauge.canonical_ccam((2.7, 3), 1.0),
        lambda: graphs.grow_tree((2.5,)),
        lambda: graphs.tree_vertex_count((2.5,)),
        lambda: graphs.check_growth_sequence((2, 3.0)),
    ], ids=["canonical", "grow", "vertex-count", "float-valued"])
    def test_sequence_entries(self, build):
        with pytest.raises(InvalidParameterError, match="growth sequence entry must be an integer"):
            build()

    def test_spectrum_sequence_entries(self):
        with pytest.raises(InvalidParameterError, match="growth sequence entry must be an integer"):
            spectral.spectrum_fluxless((2.5,))

    def test_numpy_sequence_entries(self):
        assert graphs.check_growth_sequence(np.array([2, 3])) == (2, 3)
        assert all(type(v) is int for v in graphs.check_growth_sequence(np.array([2, 3])))

    def test_shrub_parameter(self):
        with pytest.raises(InvalidParameterError, match="shrub parameter must be an integer"):
            graphs.shrub(2.5)
        assert graphs.shrub(np.int64(3)).num_vertices == 5

    def test_edge_arrays(self):
        with pytest.raises(InvalidParameterError, match="rows must be integers, got dtype float64"):
            graphs.Graph(3, [0.5, 1.7], [1.2, 2.9])
        with pytest.raises(InvalidParameterError, match="cols must be integers"):
            graphs.Graph(3, [0, 1], [1.0, 2.0])

    def test_face_arrays(self):
        rows, cols = [0, 0, 1], [1, 2, 2]
        with pytest.raises(InvalidParameterError, match="face_vertices must be integers"):
            graphs.Graph(3, rows, cols, [0.0, 1.0, 2.0], [3])
        with pytest.raises(InvalidParameterError, match="face_lengths must be integers"):
            graphs.Graph(3, rows, cols, [0, 1, 2], [3.0])

    def test_empty_arrays_pass(self):
        g = graphs.Graph(2, np.array([]), [], face_vertices=np.zeros(0), face_lengths=[])
        assert g.num_edges == 0 and g.rows.dtype == np.int64
        assert graphs.Graph(2, np.array([0]), np.array([1], dtype=np.uint8)).edges == ((0, 1),)

    def test_vertex_count(self):
        with pytest.raises(InvalidParameterError, match="num_vertices must be an integer, got 3.5"):
            graphs.Graph(3.5, [0], [1])
        g = graphs.Graph(np.int64(3), [0], [1])
        assert type(g.num_vertices) is int and g.num_vertices == 3

    @pytest.mark.parametrize("root", ["first_vertex", "last_vertex"])
    def test_roots(self, root):
        with pytest.raises(InvalidParameterError, match=f"{root} must be an integer, got 1.5"):
            graphs.Graph(3, [0, 1], [1, 2], **{root: 1.5})
        g = graphs.Graph(3, [0, 1], [1, 2], **{root: np.int64(1)})
        assert type(getattr(g, root)) is int

    def test_factorization_count_argument(self):
        with pytest.raises(InvalidParameterError, match="m must be an integer, got 2.5"):
            graphs.ordered_factorization_count(2.5)
        assert graphs.ordered_factorization_count(np.int64(12)) == 8

    def test_factorization_listing_argument(self):
        with pytest.raises(InvalidParameterError, match="m must be an integer, got 2.5"):
            graphs.ordered_factorizations(2.5)
        assert graphs.ordered_factorizations(np.int64(4)) == (2, ((2, 2), (4,)))

    def test_factorization_table_limit(self):
        with pytest.raises(InvalidParameterError, match="limit must be an integer, got 2.5"):
            graphs.ordered_factorization_counts(2.5)

    def test_chain_cells(self):
        with pytest.raises(InvalidParameterError, match="cells must be an integer, got 2.5"):
            graphs.chain_graph((2,), 2.5)
        assert graphs.chain_graph((2,), np.int64(2)).num_vertices == 7

    @pytest.mark.parametrize("field", ["sides", "shrub_p", "tiling_q", "generations"])
    def test_lotus_spec(self, field):
        values = {"sides": 6, "shrub_p": 2, "tiling_q": 3, "generations": 1}
        values[field] += 0.5
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            graphs.LotusSpec("first", **values)

    def test_lotus_spec_numpy_counts(self):
        spec = graphs.LotusSpec("first", np.int64(6), generations=np.int64(1))
        assert spec == graphs.LotusSpec("first", 6)
        assert graphs.lotus_patch(spec).num_vertices == graphs.lotus_patch(
            graphs.LotusSpec("first", 6)).num_vertices
