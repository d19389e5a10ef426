import cmath
import dataclasses
import functools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caged import caging, gauge, graphs
from caged.errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

growth_sequences = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda xs: tuple(xs[:-1]) + (max(xs[-1], 2),))


def plaquette_flux(m, loop):
    """Winding sum of phases around one closed vertex loop, reduced to
    (-pi, pi], from the face kernel of ``all_plaquette_fluxes``."""
    loop = np.asarray(loop, dtype=np.int64)
    return float(gauge._face_fluxes(m, loop, np.array([len(loop)]))[0])


def gauge_transform(m, w, gamma):
    """Conjugate by the diagonal unitary that rotates vertex ``w`` by gamma.

    Phases move between the edges at ``w``; every loop sum, and hence the
    spectrum, is unchanged.
    """
    t = m.phases
    return m.with_phases(np.where(m.cols == w, t + gamma, np.where(m.rows == w, t - gamma, t)),
                         m.flux)


def spectrum_of(m):
    return np.linalg.eigvalsh(gauge.dense_matrix(m))


def edge_arrays(entries):
    rows, cols, phases = zip(*entries)
    return np.array(rows), np.array(cols), np.array(phases)


def branch_angle(x, j, branch, phi):
    """The canonical angle of the ``branch``-th entry (1-based) at level j,
    one entry at a time: the x_j angles step uniformly from +omega_j down to
    -omega_j, omega_j = (phi/4) * (x_j - 1) * prod_{l<j} x_l, and a level
    with x_j = 1 carries the single angle 0."""
    xj = x[j - 1]
    if xj == 1:
        return 0.0
    omega = 0.25 * phi * (xj - 1) * math.prod(x[: j - 1])
    return (1.0 - 2.0 * (branch - 1) / (xj - 1)) * omega


def reference_pairing(xs, j, phi):
    """sum_b exp(2i theta_b) over the branches of level j, entry by entry,
    each part summed exactly rounded."""
    terms = [cmath.exp(2j * branch_angle(xs, j, b, phi)) for b in range(1, xs[j - 1] + 1)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def reference_canonical_entries(xs, phi):
    """The per-edge builder that the cached template replaces."""
    g = graphs.growth(xs)
    edges = zip(*(arr.tolist() for arr in (g.rows, g.cols, g.level, g.branch)))
    return sorted((u, v, branch_angle(xs, lev, br, phi)) for (u, v, lev, br) in edges)


def reference_fluxes(m):
    """Face fluxes from an edge -> phase dict, summed left to right per face."""
    table = {(u, v): t for (u, v, t) in m.entries}
    out = []
    for cyc in m.graph.plaquettes:
        total = 0.0
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            total += table[(u, v)] if u < v else -table[(v, u)]
        out.append(gauge.reduce_angle(total))
    return tuple(out)


class TestPhaseVectors:
    def test_two_branch_at_pi(self):
        assert abs(gauge.level_pairings((2,), math.pi)[0]) < 1e-12

    def test_pairing_at_zero_flux_counts_branches(self):
        assert gauge.level_pairings((2, 3, 4), 0.0).tolist() == [2.0, 3.0, 4.0]

    def test_three_branch_vanishing(self):
        assert abs(gauge.level_pairings((3,), TWO_PI / 3)[0]) < 1e-12

    def test_four_branch_vanishing(self):
        assert abs(gauge.level_pairings((4,), math.pi / 2)[0]) < 1e-12

    def test_unit_branch_is_one(self):
        assert gauge.level_pairings((1, 2), 1.234)[0] == 1.0

    @pytest.mark.parametrize("xs", [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2)])
    def test_pairing_vanishing_iff(self, xs):
        """The self-pairing at level i dies exactly on the nontrivial lattice
        of flux values 2*pi*z / prod_{j<=i} x_j with x_i not dividing z."""
        for i in range(1, len(xs) + 1):
            prod = math.prod(xs[:i])
            for z in range(1, prod + 1):
                pairing = gauge.level_pairings(xs, TWO_PI * z / prod)[i - 1]
                if z % xs[i - 1] == 0:
                    assert abs(pairing) > 1e-6, (xs, i, z)
                else:
                    assert abs(pairing) < 1e-10, (xs, i, z)
            for z in range(prod):
                assert abs(gauge.level_pairings(xs, TWO_PI * (z + 0.5) / prod)[i - 1]) > 1e-6

    @pytest.mark.parametrize("phi", [math.inf, math.nan, 1e308])
    def test_flux_past_the_doubled_angles_refused(self, phi):
        with pytest.raises(InvalidParameterError, match="not finite or overflows"):
            gauge.level_pairings((2, 3), phi)

    @pytest.mark.parametrize("phi", [1.0, 0.0])
    def test_product_past_the_float_range_refused(self, phi):
        # 2^2000 does not convert to a float; the guard multiplies in floats.
        with pytest.raises(InvalidParameterError, match="not finite or overflows"):
            gauge.level_pairings((2,) * 2000, phi)

    def test_product_within_the_float_range_answers(self):
        # 2^1000 is a finite float, and phi * 2^1000 / 2 is about 5.
        assert gauge.level_pairings((2,) * 1000, 1e-300).shape == (1000,)

    def test_pairings_match_the_per_entry_sum(self):
        """Every level's pairing equals the entry-by-entry sum of the squared
        canonical weights, over the family at every flat value, midpoint and
        two generic fluxes.  A sum of x_j unit terms rounds by a few eps per
        term, so each level is held to 4 eps * x_j."""
        for p in range(2, 65):
            for xs in graphs.ordered_factorizations(p)[1]:
                fv = gauge.flat_values(xs)
                tol = 4 * np.finfo(float).eps * np.array(xs)
                for phi in fv.values + fv.midpoints() + (0.7, -1.3):
                    got = gauge.level_pairings(xs, phi)
                    want = [reference_pairing(xs, j, phi) for j in range(1, len(xs) + 1)]
                    assert (np.abs(got - want) <= tol).all(), (xs, phi)


class TestCanonicalCcam:
    def test_zero_flux_is_plain_adjacency(self):
        m = gauge.canonical_ccam((2,), 0.0)
        assert all(t == 0.0 for (_u, _v, t) in m.entries)
        assert sorted((u, v) for (u, v, _t) in m.entries) == list(graphs.shrub(2).edges)

    def test_all_plaquettes_carry_pi(self):
        m = gauge.canonical_ccam((2,), math.pi)
        for f in gauge.all_plaquette_fluxes(m):
            assert f == pytest.approx(math.pi)

    @given(growth_sequences, st.floats(-6.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_flux_uniformity(self, xs, phi):
        m = gauge.canonical_ccam(xs, phi)
        for f in gauge.all_plaquette_fluxes(m):
            assert abs(gauge.reduce_angle(f - phi)) < 1e-10

    def test_fig_arrow_pattern_232(self):
        """Phases come in four magnitudes: 0, phi/4 (level 1), phi (level 2),
        and 3*phi/2 (level 3)."""
        phi = 0.9
        m = gauge.canonical_ccam((2, 3, 2), phi)
        counts = {}
        for (_u, _v, t) in m.entries:
            key = round(abs(gauge.reduce_angle(t)) / phi, 6)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {0.25: 24, 1.0: 8, 0.0: 4, 1.5: 4}

    def test_roots_marked(self):
        m = gauge.canonical_ccam((2, 3), 1.0)
        assert m.first_vertex == 0
        assert m.last_vertex == m.dimension - 1

    def test_matches_per_edge_builder(self):
        family = [xs for p in range(2, 65) for xs in graphs.ordered_factorizations(p)[1]]
        for xs in family + [(1, 2), (2, 1, 3)]:
            for phi in (0.0, math.pi, -1.234, TWO_PI / 12, 5.5e-3):
                m = gauge.canonical_ccam(xs, phi, _allow_trailing_one=True)
                want = edge_arrays(reference_canonical_entries(xs, phi))
                got = (m.rows, m.cols, m.phases)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (xs, phi)
                assert m.graph.edges == tuple(zip(m.rows.tolist(), m.cols.tolist()))

    def test_template_arrays_are_read_only(self):
        m = gauge.canonical_ccam((2, 3), 0.7)
        before = (m.rows.copy(), m.cols.copy(), m.phases.copy())
        for arr in (m.rows, m.cols, m.phases):
            with pytest.raises(ValueError):
                arr[0] = 5
        again = gauge.canonical_ccam((2, 3), 0.7)
        assert again.rows is m.rows  # shared through the per-sequence cache
        assert all(np.array_equal(a, b) for a, b in zip((again.rows, again.cols, again.phases),
                                                          before))


class TestPlaquetteFlux:
    def test_reversed_loop_negates(self):
        m = gauge.canonical_ccam((3, 2), 0.7)
        loop = m.graph.plaquettes[0]
        fwd = plaquette_flux(m, loop)
        bwd = plaquette_flux(m, tuple(reversed(loop)))
        assert fwd == pytest.approx(-bwd)
        assert fwd == pytest.approx(0.7)

    def test_non_edge_rejected(self):
        m = gauge.canonical_ccam((2,), 0.0)
        with pytest.raises(InvalidParameterError):
            plaquette_flux(m, (0, 3, 1, 2))

    def test_range_is_half_open(self):
        m = gauge.canonical_ccam((2,), math.pi)
        f = plaquette_flux(m, m.graph.plaquettes[0])
        assert -math.pi < f <= math.pi

    def test_all_fluxes_match_per_face_lookup(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6, generations=2))
        lotus = gauge.lotus_ccam(patch, 0.9)
        tree = gauge_transform(gauge.canonical_ccam((2, 3), 0.8), 5, 0.77)
        for m in (lotus, tree):
            assert gauge.all_plaquette_fluxes(m) == reference_fluxes(m)


class TestGaugeTransform:
    def test_identity(self):
        m = gauge.canonical_ccam((2, 2), 0.9)
        assert gauge_transform(m, 3, 0.0).entries == m.entries

    @given(st.integers(0, 9), st.floats(-6.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_preserved(self, w, gamma):
        m = gauge.canonical_ccam((2, 2), 1.1)
        t = gauge_transform(m, w, gamma)
        assert np.max(np.abs(spectrum_of(m) - spectrum_of(t))) < 1e-10

    @given(st.integers(0, 13), st.floats(-6.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_fluxes_preserved(self, w, gamma):
        m = gauge.canonical_ccam((2, 3), 0.8)
        t = gauge_transform(m, w, gamma)
        assert gauge.all_plaquette_fluxes(t) == pytest.approx(
            gauge.all_plaquette_fluxes(m))

    def test_single_edge_gauge_is_equivalent(self):
        """The rhombus with all its flux on one edge matches the spread-out
        gauge face by face, hence also in spectrum."""
        phi = 1.3
        spread = gauge.canonical_ccam((2,), phi)
        assert spread.graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        lumped = gauge.Ccam(spread.graph, [phi, 0.0, 0.0, 0.0], phi)
        assert plaquette_flux(lumped, spread.graph.plaquettes[0]) == pytest.approx(
            plaquette_flux(spread, spread.graph.plaquettes[0]))
        assert np.max(np.abs(spectrum_of(lumped) - spectrum_of(spread))) < 1e-10


class TestFlatValues:
    def test_two(self):
        fv = gauge.flat_values((2,))
        assert fv.denominator == 2
        assert fv.values == pytest.approx((math.pi, TWO_PI))

    def test_232_multiples_of_pi_over_six(self):
        fv = gauge.flat_values((2, 3, 2))
        assert fv.denominator == 12
        assert fv.values == pytest.approx(tuple(math.pi / 6 * z for z in range(1, 13)))

    def test_depends_only_on_product(self):
        a = gauge.flat_values((4, 3)).values
        b = gauge.flat_values((2, 6)).values
        c = gauge.flat_values((12,)).values
        assert a == pytest.approx(b)
        assert a == pytest.approx(c)

    def test_closed_under_step_mod_two_pi(self):
        fv = gauge.flat_values((2, 3))
        step = TWO_PI / fv.denominator
        for v in fv.values:
            assert fv.contains(math.fmod(v + step, TWO_PI))

    def test_membership_tolerance(self):
        fv = gauge.flat_values((2, 3, 2))
        assert fv.contains(math.pi / 6 + 5e-10)
        assert fv.index(math.pi / 6 + 5e-10) == 1
        assert fv.index(math.pi / 6 - 5e-10) == 1
        assert fv.index(-11 * math.pi / 6) == 1
        assert not fv.contains(math.pi / 6 + 1e-3)
        assert not fv.contains(math.pi / 12)
        assert fv.index(math.pi / 12) is None

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, angle):
        with pytest.raises(InvalidParameterError, match="finite"):
            gauge.flat_values((2, 3)).index(angle)

    @pytest.mark.parametrize("angle", [
        # 5e-9 off every flat value of (2, 3, 2), where floats lie 1.5e-8 apart
        TWO_PI * (12 * 2**24 + 1) / 12 + 5e-9,
        gauge.ANGLE_LIMIT, -gauge.ANGLE_LIMIT, 1e17, 1e300,
    ])
    def test_angle_a_float_cannot_resolve_refused(self, angle):
        with pytest.raises(InvalidParameterError, match="that a float resolves"):
            gauge.flat_values((2, 3, 2)).index(angle)

    def test_resolved_just_below_the_angle_limit(self):
        fv = gauge.flat_values((2, 3, 2))
        z = int(0.999 * gauge.ANGLE_LIMIT / (TWO_PI / 12))
        flat = TWO_PI * z / 12
        assert 0.99 * gauge.ANGLE_LIMIT < flat < gauge.ANGLE_LIMIT
        assert (fv.index(flat), fv.index(-flat)) == (z % 12, -z % 12)
        assert fv.index(flat + 5e-9) is None and fv.index(flat - 5e-9) is None

    def test_denominator_past_two_to_the_53_refused(self):
        assert gauge.flat_values((2,) * 53).index(0.0) == 2**53
        with pytest.raises(InvalidParameterError, match="at most 2\\^53"):
            gauge.flat_values((2,) * 60).index(0.0)

    def test_angle_multiples(self):
        angles = [0.0, TWO_PI / 3, -TWO_PI / 3 + 5e-10, 1.0, 7 * TWO_PI - 1e-12, 4 * math.pi / 3]
        assert gauge.angle_multiples(angles, 3).tolist() == [0, 1, 2, -1, 0, 2]
        assert gauge.angle_multiples(angles, 1).tolist() == [0, -1, -1, -1, 0, -1]
        assert gauge.angle_multiples(TWO_PI / 2**53 * 5, 2**53) == 5
        for n in (0, -3, 2**53 + 1):
            with pytest.raises(InvalidParameterError, match="denominator must be positive"):
                gauge.angle_multiples(0.0, n)

    def test_full_turn_index(self):
        fv = gauge.flat_values((2, 3, 2))
        assert fv.index(0.0) == fv.index(TWO_PI) == fv.index(1e-12) == 12

    def test_index_does_not_list_the_values(self):
        fv = gauge.flat_values((10**6, 10**6))
        assert fv.index(TWO_PI * 7 / 10**12) == 7 and fv.contains(TWO_PI)
        assert fv.denominator == 10**12 and "values" not in vars(fv)

    def test_listings_refused_above_the_limit(self):
        fv = gauge.flat_values((10**6, 10**6))
        for read, what in ((lambda: fv.values, "flat values"), (fv.midpoints, "midpoints")):
            with pytest.raises(ResourceLimitError,
                               match=f"^{10**12} {what} exceed the listing limit 100000$"):
                read()
        assert "values" not in vars(fv)
        at_limit = gauge.FlatSet(graphs.LISTING_LIMIT)
        assert len(at_limit.values) == len(at_limit.midpoints()) == graphs.LISTING_LIMIT
        with pytest.raises(ResourceLimitError):
            gauge.FlatSet(graphs.LISTING_LIMIT + 1).midpoints()

    def test_midpoints_not_members(self):
        fv = gauge.flat_values((2, 2))
        assert all(not fv.contains(mid) for mid in fv.midpoints())
        assert all(fv.index(mid) is None for mid in fv.midpoints())

    @pytest.mark.parametrize("m", [0, -3])
    def test_denominator_below_one_refused(self, m):
        with pytest.raises(InvalidParameterError, match=f"denominator must be >= 1, got {m}"):
            gauge.FlatSet(m)

    def test_denominator_not_an_integer_refused(self):
        with pytest.raises(InvalidParameterError, match="denominator must be an integer, got 2.5"):
            gauge.FlatSet(2.5)
        fv = gauge.FlatSet(np.int64(4))
        assert type(fv.denominator) is int and fv == gauge.flat_values((2, 2))


BUILDERS_AT = {
    "canonical": lambda phi: gauge.canonical_ccam((2, 3, 2), phi),
    "chain": lambda phi: gauge.chain_ccam((2, 3), 2, phi),
    "lotus": lambda phi: gauge.lotus_ccam(graphs.lotus_patch(graphs.LotusSpec("first", 6)), phi),
    "pairings": lambda phi: gauge.level_pairings((2, 3, 2), phi),
    "recurrence": lambda phi: caging.resolvent_recurrence((2, 3, 2), phi, 0.5 + 1j),
}


class TestBuilderFluxRule:
    """The phased-matrix builders refuse the fluxes that ``check_angle``
    refuses, once the phases are seen to hold them."""

    @pytest.mark.parametrize("name", sorted(BUILDERS_AT))
    @pytest.mark.parametrize("phi", [gauge.ANGLE_LIMIT, -gauge.ANGLE_LIMIT, 1e7])
    def test_refused_at_the_angle_limit(self, name, phi):
        with pytest.raises(InvalidParameterError, match="not an angle that a float resolves"):
            BUILDERS_AT[name](phi)

    @pytest.mark.parametrize("phi", [None, "pi", object()])
    def test_not_a_number_refused(self, phi):
        with pytest.raises(InvalidParameterError, match="is not a number"):
            gauge.check_angle(phi)

    @pytest.mark.parametrize("name", sorted(BUILDERS_AT))
    def test_answers_just_below_it(self, name):
        phi = float(np.nextafter(gauge.ANGLE_LIMIT, 0.0))
        assert BUILDERS_AT[name](phi) is not None
        assert BUILDERS_AT[name](-phi) is not None


class TestDenseMatrix:
    def test_shrub_row_sums(self):
        m = gauge.dense_matrix(gauge.canonical_ccam((2,), 0.0))
        assert m[0].sum() == pytest.approx(2.0)

    def test_hermitian_exactly(self):
        m = gauge.dense_matrix(gauge.canonical_ccam((2, 3), 2.1))
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_pi_flux_eigenvalues(self):
        vals = np.linalg.eigvalsh(gauge.dense_matrix(gauge.canonical_ccam((2,), math.pi)))
        assert vals == pytest.approx([-math.sqrt(2), -math.sqrt(2),
                                      math.sqrt(2), math.sqrt(2)])

    def test_limit_env_override(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        with pytest.raises(ResourceLimitError):
            gauge.dense_matrix(gauge.canonical_ccam((2,), 0.0))
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "64")
        assert gauge.dense_matrix(gauge.canonical_ccam((2,), 0.0)).shape == (4, 4)

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "2.5"])
    def test_limit_env_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, raw)
        with pytest.raises(InvalidParameterError, match="positive integer"):
            gauge.dense_limit()


def busy_rows_apply(m, x):
    """The product kept as the reference for ``Ccam.apply``: weights and
    tails along ``graph.adjacency``, a zero-filled output, and a segmented
    sum scattered into the rows that have edges."""
    offsets, tails, edges = m.graph.adjacency
    heads = np.repeat(np.arange(m.dimension), np.diff(offsets))
    w = np.exp(1j * m.phases[edges])
    weights = np.where(heads < tails, w, w.conj())
    busy = np.flatnonzero(np.diff(offsets))
    x = np.asarray(x)
    prod = x[tails] * (weights if x.ndim == 1 else weights[:, None])
    out = np.zeros(x.shape, dtype=complex)
    out[busy] = np.add.reduceat(prod, offsets[busy], axis=0)
    return out


APPLY_CASES = {
    "chain": gauge.chain_ccam((2, 3), 3, 0.66),
    "lotus": gauge.lotus_ccam(graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6)), 1.3),
    # a reversed edge, and vertex 4 with no edges
    "parsed": gauge.parse_ccam("ccam 5 0\ne 0 1 0.5\ne 2 1 0.25\ne 0 3 -1.5\ne 2 3 2.0\n"),
    "empty": gauge.Ccam.from_entries(0, ()),
    "first-isolated": gauge.Ccam.from_entries(4, [(1, 2, 0.3), (2, 3, -1.1), (1, 3, 2.0)]),
    "consecutive-isolated": gauge.Ccam.from_entries(
        8, [(0, 1, 0.3), (1, 5, -0.7), (5, 7, 1.0)]),  # 2, 3, 4 and 6 have no edges
    "no-edges": gauge.Ccam.from_entries(3, ()),
    "canonical": gauge.canonical_ccam((2, 3, 2), math.pi / 6),
}


class TestApply:
    """``Ccam.apply`` is the dense product H x, for vectors and column blocks."""

    @pytest.mark.parametrize("m", APPLY_CASES.values(), ids=APPLY_CASES.keys())
    def test_matches_dense_product(self, m):
        rng = np.random.default_rng(7)
        h = gauge.dense_matrix(m)
        for shape in ((m.dimension,), (m.dimension, 3)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = m.apply(x)
            assert got.shape == shape and got.dtype == complex
            assert np.max(np.abs(got - h @ x), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("m", APPLY_CASES.values(), ids=APPLY_CASES.keys())
    def test_bits_match_busy_rows_reference(self, m):
        rng = np.random.default_rng(11)
        for shape in ((m.dimension,), (m.dimension, 4), (m.dimension, 1)):
            for x in (rng.normal(size=shape) + 1j * rng.normal(size=shape),
                      rng.normal(size=shape)):
                assert np.array_equal(m.apply(x), busy_rows_apply(m, x))

    def test_layout_has_one_run_per_vertex(self):
        g = APPLY_CASES["consecutive-isolated"].graph
        tails, edges, rot, starts = g.slots
        runs = np.diff(np.append(starts, len(tails)))
        assert runs.tolist() == [1, 2, 1, 1, 1, 2, 1, 1]
        lonely = starts[[2, 3, 4, 6]]
        assert tails[lonely].tolist() == [2, 3, 4, 6]
        assert (edges[lonely] == g.num_edges).all() and (rot[lonely] == -1j).all()
        assert not (edges[np.setdiff1d(np.arange(len(tails)), lonely)] == g.num_edges).any()
        heads = np.repeat(np.arange(g.num_vertices), runs)
        assert np.array_equal(rot, np.where(heads >= tails, -1j, 1j))

    @pytest.mark.parametrize("m", APPLY_CASES.values(), ids=APPLY_CASES.keys())
    def test_powers_repeat_apply(self, m):
        rng = np.random.default_rng(5)
        for shape in ((m.dimension,), (m.dimension, 3)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            walk = list(m.powers(x, 4))
            assert len(walk) == 4
            for power in walk:
                x = m.apply(x)
                assert power.shape == shape and np.array_equal(power, x)
        assert list(m.powers(x, 0)) == []

    def test_layout_shared_across_fluxes(self, monkeypatch):
        calls, layout = [], graphs.Graph.slots.func
        counted = functools.cached_property(lambda g: calls.append(g) or layout(g))
        counted.__set_name__(graphs.Graph, "slots")
        monkeypatch.setattr(graphs.Graph, "slots", counted)
        gauge._canonical_template.cache_clear()  # a fresh tree graph, its layout not yet built
        a = gauge.canonical_ccam((2, 3, 2), 0.7)
        b = gauge.canonical_ccam((2, 3, 2), math.pi / 6)
        x = np.ones(a.dimension)
        assert not np.array_equal(a.apply(x), b.apply(x))
        assert a.graph is b.graph and a.graph.slots is b.graph.slots
        assert calls == [a.graph]


def former_weights(m):
    """The slot weights as first built: exp(i*phase) per edge over a zero
    sentinel, gathered along ``graph.slots`` and conjugated on the slots
    that run from the higher label to the lower."""
    tails, edges, _rot, starts = m.graph.slots
    heads = np.repeat(np.arange(m.dimension), np.diff(np.append(starts, len(tails))))
    w = np.append(np.exp(1j * m.phases), 0.0)[edges]
    return np.where(heads >= tails, w.conj(), w)


LOTUS = APPLY_CASES["lotus"]
WEIGHT_CASES = {
    **APPLY_CASES,
    "canonical-zero-flux": gauge.canonical_ccam((3, 3), 0.0),  # -0.0 on the lower branches
    "canonical-negative": gauge.canonical_ccam((4, 2), -1.3),
    "canonical-deep": gauge.canonical_ccam((2,) * 6, TWO_PI * 1.5 / 64),
    "chain-negative": gauge.chain_ccam((3,), 2, -0.7),
    "lotus-negative": gauge.lotus_ccam(LOTUS.graph, -0.9),
    "lotus-zero-flux": gauge.lotus_ccam(LOTUS.graph, 0.0),
    "lotus-signed-zeros": LOTUS.with_phases(np.resize([-0.0, 0.0, -1.3], LOTUS.graph.num_edges), 0.0),
}


class TestWeights:
    """``Ccam._weights`` is exp(phase * rot) along the slots, 0 on self-slots."""

    @pytest.mark.parametrize("m", WEIGHT_CASES.values(), ids=WEIGHT_CASES.keys())
    def test_equal_to_conjugated_exponentials(self, m):
        w = m._weights
        assert w.dtype == complex and w.shape == m.graph.slots[0].shape
        assert np.array_equal(w, former_weights(m))


def winds_its_signs(m, phi):
    """Whether every face of a lotus ccam winds its recorded sign times phi."""
    fluxes = np.array(gauge.all_plaquette_fluxes(m))
    want = gauge.reduce_angle(np.multiply(m.graph.plaquette_signs, phi))
    return bool(np.all(np.abs(gauge.reduce_angle(fluxes - want)) < 1e-12))


class TestDerivedCcams:
    def test_chain_fluxes(self):
        m = gauge.chain_ccam((2, 3), 3, 0.66)
        for f in gauge.all_plaquette_fluxes(m):
            assert abs(gauge.reduce_angle(f - 0.66)) < 1e-10

    def test_lotus_fluxes_follow_signs(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        m = gauge.lotus_ccam(patch, 0.9)
        fluxes = gauge.all_plaquette_fluxes(m)
        for f, s in zip(fluxes, patch.plaquette_signs):
            assert abs(gauge.reduce_angle(f - s * 0.9)) < 1e-9

    def test_plain_graph_needs_signs(self):
        g = graphs.grow_tree((2,))
        with pytest.raises(InvalidParameterError):
            gauge.lotus_ccam(g, 1.0)

    def test_flux_solver_round_trip(self):
        g = graphs.grow_tree((2, 2))
        want = [0.3 * (i + 1) for i in range(len(g.plaquettes))]
        m = gauge.ccam_with_plaquette_fluxes(g, want)
        got = [plaquette_flux(m, cyc) for cyc in g.plaquettes]
        assert got == pytest.approx(want)

    def test_flux_solver_refusals(self):
        g = graphs.grow_tree((2, 2))
        with pytest.raises(InvalidParameterError, match="one flux per plaquette"):
            gauge.ccam_with_plaquette_fluxes(g, [0.1] * (len(g.plaquettes) + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (math.inf, math.nan):
                with pytest.raises(InvalidParameterError, match="each finite"):
                    gauge.ccam_with_plaquette_fluxes(g, [0.1] * (len(g.plaquettes) - 1) + [bad])
        # one triangle listed twice cannot carry two fluxes
        twice = graphs.Graph(3, [0, 0, 1], [1, 2, 2], [0, 1, 2, 0, 1, 2], [3, 3])
        with pytest.raises(InvalidParameterError, match="inconsistent"):
            gauge.ccam_with_plaquette_fluxes(twice, [0.1, 0.2])
        # equal fluxes are consistent: the first face roots, the second closes it
        m = gauge.ccam_with_plaquette_fluxes(twice, [0.1, 0.1])
        assert gauge.all_plaquette_fluxes(m) == pytest.approx([0.1, 0.1], abs=1e-15)

    def test_flux_solver_phases_a_large_patch(self):
        start = time.perf_counter()
        spec = graphs.LotusSpec(kind="first", sides=12, shrub_p=4, tiling_q=3, generations=3)
        patch = graphs.lotus_patch(spec)
        assert patch.num_vertices == 8701 and patch.num_edges > gauge.DEFAULT_DENSE_LIMIT
        m = gauge.lotus_ccam(patch, math.pi)
        assert time.perf_counter() - start < 1.0
        assert winds_its_signs(m, math.pi)

    def test_flux_solver_ignores_the_dense_limit(self, monkeypatch):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, str(patch.num_edges - 1))
        assert winds_its_signs(gauge.lotus_ccam(patch, math.pi), math.pi)

    def test_fluxes_need_faces(self):
        m = gauge.Ccam.from_entries(2, ((0, 1, 0.5),), flux=0.0)
        with pytest.raises(InvalidParameterError, match="no face data"):
            gauge.all_plaquette_fluxes(m)

    @pytest.mark.parametrize("xs, cells", [((2, 3, 2), 4), ((2,), 6), ((2,) * 6, 3)])
    def test_chain_matches_per_cell_loop(self, xs, cells):
        for phi in (0.0, math.pi / 6, -1.234):
            tree = gauge.canonical_ccam(xs, phi)
            stride = tree.dimension - 1
            want = sorted((u + c * stride, v + c * stride, t)
                          for c in range(cells) for (u, v, t) in tree.entries)
            m = gauge.chain_ccam(xs, cells, phi)
            got = (m.rows, m.cols, m.phases)
            assert all(np.array_equal(g, w) for g, w in zip(got, edge_arrays(want)))


def lstsq_gauge(g, fluxes):
    """The minimum-norm phases that wind ``fluxes`` around the faces by a dense
    faces x edges least-squares solve, an oracle for the peel."""
    face, us, vs = graphs.face_steps(g.face_vertices, g.face_lengths)
    incidence = np.zeros((len(g.face_lengths), g.num_edges))
    np.add.at(incidence, (face, g.edge_slots(us, vs)), np.where(us < vs, 1.0, -1.0))
    theta, *_ = np.linalg.lstsq(incidence, np.asarray(fluxes, dtype=float), rcond=None)
    return gauge.Ccam(g, theta)


def peel_cases():
    """(graph, fluxes, vertices to check): lotus patches of both kinds at their
    signs times three fluxes, at their hubs; grown trees at a common and at
    random face fluxes, at every vertex."""
    rng = np.random.default_rng(31)
    for spec in (graphs.LotusSpec("first", 6, 2, 3, 2), graphs.LotusSpec("first", 7, 3, 3, 2),
                 graphs.LotusSpec("second", 8, 2, 8, 2), graphs.LotusSpec("second", 4, 3, 4, 2)):
        patch = graphs.lotus_patch(spec)
        for phi in (math.pi, TWO_PI / 3, 0.9):
            yield pytest.param(patch, np.multiply(patch.plaquette_signs, phi),
                               graphs.lotus_hubs(patch), id=f"{spec.kind},{spec.sides},{phi:.3f}")
    for xs in ((2, 3), (3, 2, 2), (2, 2, 2, 2)):
        tree = graphs.grow_tree(xs)
        for name, fluxes in (("pi", np.full(len(tree.face_lengths), math.pi)),
                             ("random", rng.uniform(-math.pi, math.pi, len(tree.face_lengths)))):
            yield pytest.param(tree, fluxes, range(tree.num_vertices), id=f"{xs}-{name}")


class TestFacePeel:
    """``ccam_with_plaquette_fluxes`` peels the faces; its phases differ from
    the least-squares gauge by a gauge transformation only."""

    @pytest.mark.parametrize("g, fluxes, vertices", peel_cases())
    def test_equals_the_least_squares_gauge(self, g, fluxes, vertices):
        peel, oracle = gauge.ccam_with_plaquette_fluxes(g, fluxes), lstsq_gauge(g, fluxes)
        got = np.array(gauge.all_plaquette_fluxes(peel))
        assert np.abs(gauge.reduce_angle(got - fluxes)).max() < 1e-12
        assert np.abs(spectrum_of(peel) - spectrum_of(oracle)).max() < 1e-12
        for v in vertices:
            assert caging.local_caging_check(peel, v) == caging.local_caging_check(oracle, v)

    @pytest.mark.parametrize("spec, n", [
        (graphs.LotusSpec("first", 7, 3, 3, 1), 3), (graphs.LotusSpec("first", 7, 3, 3, 3), 3),
        (graphs.LotusSpec("first", 6, 2, 3, 2), 2), (graphs.LotusSpec("second", 8, 2, 8, 2), 2),
        (graphs.LotusSpec("second", 6, 3, 4, 2), 6)])
    def test_lotus_phases_are_integer_multiples(self, spec, n):
        patch = graphs.lotus_patch(spec)
        unit = gauge.lotus_ccam(patch, 1.0).phases
        assert np.array_equal(unit, np.round(unit))
        m = gauge.lotus_ccam(patch, TWO_PI / n)
        assert np.array_equal(m.phases, unit * (TWO_PI / n))
        assert np.array_equal(caging.phase_exponents(m, n), unit.astype(np.int64) % n)

    def test_largest_multiple_on_a_large_patch(self):
        patch = graphs.lotus_patch(graphs.LotusSpec("first", 12, 4, 3, 3))
        assert np.abs(gauge.lotus_ccam(patch, 1.0).phases).max() <= 35

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan, 1e308, -1e308])
    def test_lotus_refuses_phases_past_the_float_range(self, phi):
        patch = graphs.lotus_patch(graphs.LotusSpec("first", 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="overflows the phases"):
                gauge.lotus_ccam(patch, phi)

    def test_closed_surface_roots_one_face(self):
        # a tetrahedron, each face oriented outward: the windings sum to 0
        g = graphs.Graph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3],
                         [0, 1, 2, 0, 3, 1, 0, 2, 3, 1, 3, 2], [3, 3, 3, 3])
        fluxes = [0.3, 0.5, -1.1, -(0.3 + 0.5 - 1.1)]
        m = gauge.ccam_with_plaquette_fluxes(g, fluxes)
        assert gauge.all_plaquette_fluxes(m) == pytest.approx(fluxes, abs=1e-15)
        with pytest.raises(InvalidParameterError, match="inconsistent"):
            gauge.ccam_with_plaquette_fluxes(g, [0.1] * 4)


class TestFluxPeriodicityBoundary:
    """The 2*pi endpoint of the flat set is gauge-equivalent to zero flux."""

    def test_full_turn_matches_zero_flux_spectrum(self):
        at_zero = spectrum_of(gauge.canonical_ccam((2,), 0.0))
        at_turn = spectrum_of(gauge.canonical_ccam((2,), TWO_PI))
        assert np.max(np.abs(at_zero - at_turn)) < 1e-10

    def test_full_turn_is_crossable(self):
        m = gauge.dense_matrix(gauge.canonical_ccam((2,), TWO_PI))
        assert abs((m @ m)[3, 0]) == pytest.approx(2.0)


class TestCcamArrays:
    def test_distances_mark_unreachable_vertices(self):
        m = gauge.Ccam.from_entries(5, [(0, 1, 0.3), (1, 2, 0.0), (3, 4, 1.0)])
        assert m.graph.distances(0).tolist() == [0, 1, 2, 5, 5]
        assert m.graph.distances(4).tolist() == [5, 5, 5, 1, 0]
        assert m.graph.distances([4, 0]).tolist() == [[5, 5, 5, 1, 0], [0, 1, 2, 5, 5]]

    @pytest.mark.parametrize("g", [
        gauge.chain_ccam((2, 3, 2), 4, math.pi / 6).graph,
        graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6, generations=2)),
        graphs.Graph(6, [1, 2], [2, 4]),
    ], ids=["chain", "dice", "isolated"])
    def test_distances_match_edge_list_walk(self, g):
        heads = np.concatenate([g.rows, g.cols])
        tails = np.concatenate([g.cols, g.rows])
        n = g.num_vertices
        want = np.full((n, n), n)
        for s in range(n):  # a breadth-first walk over the edge list
            want[s, s], frontier, level = 0, [s], 0
            while frontier:
                level += 1
                frontier = sorted({int(t) for t in tails[np.isin(heads, frontier)]
                                   if want[s, t] == n})
                want[s, frontier] = level
        assert np.array_equal(g.distances(np.arange(n)), want)
        assert all(np.array_equal(g.distances(s), want[s]) for s in range(n))

    def test_repeated_edge_refused(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            gauge.parse_ccam("ccam 3 0\ne 0 1 0.5\ne 1 0 0.25\ne 1 2 0\n")

    @pytest.mark.parametrize("rows, cols, phases", [
        ([1], [1], [0.0]),  # u == v
        ([2], [1], [0.0]),  # u > v
        ([0], [3], [0.0]),  # vertex out of range
        ([-1], [1], [0.0]),  # negative vertex
        ([0, 1], [1], [0.0, 0.0]),  # lengths differ
        ([0], [1], [0.0, 1.0]),
    ])
    def test_bad_edge_arrays_refused(self, rows, cols, phases):
        with pytest.raises(InvalidParameterError):
            gauge.Ccam(graphs.Graph(num_vertices=3, rows=rows, cols=cols), phases)

    def test_from_entries_sorts_and_checks_orientation(self):
        m = gauge.Ccam.from_entries(3, [(1, 2, 0.5), (0, 1, -0.25)])
        assert m.entries == ((0, 1, -0.25), (1, 2, 0.5))
        with pytest.raises(InvalidParameterError):
            gauge.Ccam.from_entries(3, [(1, 0, 0.5)])


def same_ccam(a, b):
    """Every field equal, with phases compared bit for bit (sign bits included)."""
    return (a.dimension == b.dimension and a.first_vertex == b.first_vertex
            and a.last_vertex == b.last_vertex and a.flux == b.flux
            and graphs.format_graph(a.graph) == graphs.format_graph(b.graph)
            and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("rows", "cols"))
            and a.phases.dtype == b.phases.dtype and a.phases.tobytes() == b.phases.tobytes()
            and not a.phases.flags.writeable)


class TestWithPhases:
    def test_index_arrays_graph_and_roots_shared(self):
        m = gauge.canonical_ccam((2, 3), 0.7)
        r = m.with_phases(np.arange(len(m.rows)), 0.25)
        assert all(getattr(r, k) is getattr(m, k) for k in ("rows", "cols", "graph"))
        assert (r.dimension, r.first_vertex, r.last_vertex) == (m.dimension, 0, m.dimension - 1)
        assert r.flux == 0.25 and r.phases.dtype == float
        assert np.array_equal(r.phases, np.arange(len(m.rows)))

    @pytest.mark.parametrize("phases", [np.zeros(3), np.zeros((2, 10)), 0.5])
    def test_wrong_shape_refused(self, phases):
        m = gauge.canonical_ccam((2,), 0.7)
        with pytest.raises(InvalidParameterError, match="shape"):
            m.with_phases(phases, 0.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phases_and_flux_refused(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            gauge.canonical_ccam((2, 3), bad)
        with pytest.raises(InvalidParameterError, match="finite"):
            gauge.Ccam.from_entries(3, [(0, 1, 0.5), (1, 2, bad)])
        with pytest.raises(InvalidParameterError, match="finite"):
            gauge.Ccam.from_entries(3, [(0, 1, 0.5), (1, 2, 0.0)], flux=bad)
        m = gauge.canonical_ccam((2,), 0.7)
        with pytest.raises(InvalidParameterError, match="finite"):
            m.with_phases(np.array([0.1, bad, 0.3, 0.4]), 0.7)
        with pytest.raises(InvalidParameterError, match="finite"):
            m.with_phases(m.phases, bad)

    @pytest.mark.parametrize("xs, phi", [((2, 3), math.inf), ((2, 3), -math.inf),
                                         ((2, 3), math.nan), ((2, 2, 2, 2), 1e308),
                                         ((3, 3, 3), -1.7e308),
                                         # 2^2000 passes the float range even at flux 0
                                         ((2,) * 2000, 1.0), ((2,) * 2000, 0.0)])
    def test_canonical_refusal_emits_no_warning(self, xs, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="finite"):
                gauge.canonical_ccam(xs, phi)

    def test_phases_read_only_and_copied(self):
        m = gauge.canonical_ccam((2,), 0.7)
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        r = m.with_phases(theta, 0.7)
        theta[0] = 9.0
        assert r.phases[0] == 0.1
        with pytest.raises(ValueError):
            r.phases[0] = 5.0

    @pytest.mark.parametrize("xs", [(2,), (3,), (2, 3), (3, 2, 2), (2, 1, 3)])
    @pytest.mark.parametrize("phi", [0.0, -0.0, 0.7, -1.3, "flat"])
    def test_canonical_equals_full_constructor(self, xs, phi):
        phi = TWO_PI / math.prod(xs) if phi == "flat" else phi
        m = gauge.canonical_ccam(xs, phi, _allow_trailing_one=True)
        _zero, f, a, p = gauge._canonical_template(xs)
        g = m.graph
        tree = graphs.Graph(g.num_vertices, g.rows.copy(), g.cols.copy(), g.face_vertices.copy(),
                            g.face_lengths.copy(), first_vertex=0, last_vertex=g.num_vertices - 1)
        full = gauge.Ccam(graph=tree, phases=f * (0.25 * phi * a * p), flux=phi)
        assert same_ccam(m, full)
        if phi == 0.0:  # the phases are zeros of both signs
            assert np.signbit(m.phases).any() and not np.signbit(m.phases).all()

    @pytest.mark.parametrize("w, gamma", [(0, 0.4), (3, -0.0), (13, -2.5), (6, 0.0)])
    def test_gauge_transform_equals_full_constructor(self, w, gamma):
        m = gauge.canonical_ccam((2, 3), 0.0)  # reversed edges carry -0.0
        t = m.phases
        want = dataclasses.replace(
            m, phases=np.where(m.cols == w, t + gamma, np.where(m.rows == w, t - gamma, t)))
        assert same_ccam(gauge_transform(m, w, gamma), want)

    def test_no_index_check_after_the_template(self, monkeypatch):
        m = gauge.canonical_ccam((2, 2), 0.3)

        def refuse(self):
            raise AssertionError("index arrays checked again")

        monkeypatch.setattr(graphs.Graph, "__post_init__", refuse)
        again = gauge.canonical_ccam((2, 2), 0.9)
        moved = gauge_transform(again, 4, 0.2)
        assert again.rows is m.rows and moved.rows is m.rows


class TestCcamFile:
    def test_round_trip(self):
        m = gauge.canonical_ccam((2, 3), 1.25)
        text = gauge.format_ccam(m)
        back = gauge.parse_ccam(text)
        assert back.dimension == m.dimension
        assert back.flux == pytest.approx(m.flux)
        assert back.first_vertex == m.first_vertex
        assert back.last_vertex == m.last_vertex
        assert np.max(np.abs(gauge.dense_matrix(back) - gauge.dense_matrix(m))) < 1e-15

    def test_header_required(self):
        with pytest.raises(InvalidParameterError):
            gauge.parse_ccam("e 0 1 0.5\n")

    @pytest.mark.parametrize("bad", [
        "root middle 2",  # unknown root kind
        "root first",  # root vertex missing
        "e 0 1",  # phase missing
        "e 0 x 0.5",  # non-integer vertex
        "e 0 1 half",  # non-numeric phase
        "face 0 x 2",  # non-integer face vertex
        "root first 5",  # root past the last vertex
        "root last -1",  # negative root
        "face 0 1 7",  # face vertex out of range
        "face 0 1 2",  # step 2 -> 0 is not an edge
    ])
    def test_bad_line_refused(self, bad):
        with pytest.raises(InvalidParameterError):
            gauge.parse_ccam(f"ccam 3 0\ne 0 1 0.5\ne 1 2 0\n{bad}\n")

    @pytest.mark.parametrize("text", [
        "ccam 99999999999999999999 0\ne 0 1 0.5\n",  # vertex count past int64
        "ccam 3 0\ne 0 99999999999999999999 0.5\n",  # edge end past int64
        "ccam 3 0\ne 99999999999999999999 0 0.5\n",  # reversed edge past int64
        "ccam 3 0\ne 0 1 0.5\ne 1 2 0\nface 0 1 99999999999999999999\n",
    ])
    def test_integer_past_int64_refused(self, text):
        with pytest.raises(InvalidParameterError, match="out of range"):
            gauge.parse_ccam(text)

    def test_degenerate_face_refused(self):
        with pytest.raises(InvalidParameterError, match="at least 3"):
            gauge.parse_ccam("ccam 2 0\ne 0 1 0.5\nface 0 1\n")

    @pytest.mark.parametrize("header", ["ccam x 0", "ccam 3 x", "ccam"])
    def test_bad_header_refused(self, header):
        with pytest.raises(InvalidParameterError):
            gauge.parse_ccam(f"{header}\ne 0 1 0.5\n")

    def test_flux_defaults_to_zero(self):
        assert gauge.parse_ccam("ccam 2\ne 0 1 0.5\n").flux == 0.0
