import gc
import json
import math
import random
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from caged import caging, cli, gauge, graphs
from caged.errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi


def gauge_transform(m, w, gamma):
    """Conjugate by the diagonal unitary that rotates vertex ``w`` by gamma.

    Phases move between the edges at ``w``; every loop sum, and hence the
    spectrum, is unchanged.
    """
    t = m.phases
    return m.with_phases(np.where(m.cols == w, t + gamma, np.where(m.rows == w, t - gamma, t)),
                         m.flux)


def reference_polynomials(m, m_max, n, source, target):
    """The edge-by-edge rotation loop that the vectorized kernel replaces."""
    exps = caging.phase_exponents(m, n)
    state = np.zeros((m.dimension, n), dtype=np.int64)
    state[source, 0] = 1
    out = np.zeros((m_max, n), dtype=np.int64)
    for k in range(m_max):
        new = np.zeros_like(state)
        for (u, v, _t), c in zip(m.entries, exps):
            new[u] += np.roll(state[v], c)
            new[v] += np.roll(state[u], -c)
        state = new
        out[k] = state[target]
    return out


def permuted(m, perm):
    """``m`` with each vertex u relabelled perm[u], built through
    ``Ccam.from_entries``; an edge whose ends swap order takes the opposite
    phase."""
    entries = [(int(perm[u]), int(perm[v]), t) if perm[u] < perm[v]
               else (int(perm[v]), int(perm[u]), -t) for (u, v, t) in m.entries]
    return gauge.Ccam.from_entries(m.dimension, entries, flux=m.flux)


def dense_exchange_check(m, tol=1e-10):
    """The dense comparison of H with J H J that the edge-array check replaces."""
    h = gauge.dense_matrix(m)
    flipped = h[::-1, ::-1]
    norm = float(np.max(np.abs(h - flipped))) if h.size else 0.0
    return norm < tol, norm


def ccam_text(n, dim, edges):
    """A ccam file whose edge (u, v, c) carries the phase 2*pi*c/n."""
    return "\n".join([f"ccam {dim} 0"] + [f"e {u} {v} {TWO_PI * c / n!r}"
                                          for (u, v, c) in edges]) + "\n"


class TestCrossingAmplitudes:
    def test_pi_flux_rhombus_is_sealed(self):
        m = gauge.canonical_ccam((2,), math.pi)  # phases +-pi/4: multiples of 2*pi/8
        polys = caging.crossing_amplitude_polynomials(m, 20, 8)
        assert caging.cyclotomic_zero_table(polys, 8, [1]).all()
        # Each float amplitude, exactly zero, is within the forward error of
        # k complex128 products: k * ||H||_2^k * eps with ||H||_2 = sqrt(2).
        k = np.arange(1, 21)
        bound = k * math.sqrt(2.0) ** k * np.finfo(float).eps
        assert np.all(np.abs(caging.crossing_amplitudes(m, 20)) <= bound)

    def test_zero_flux_two_paths_add(self):
        amps = caging.crossing_amplitudes(gauge.canonical_ccam((2,), 0.0), 2)
        assert amps[1] == pytest.approx(2.0)

    def test_232_flat_point(self):
        m = gauge.canonical_ccam((2, 3, 2), math.pi / 6)
        amps = caging.crossing_amplitudes(m, 12)
        assert np.max(np.abs(amps)) < 1e-10

    def test_unmarked_roots_need_explicit_vertices(self):
        m = gauge.canonical_ccam((2,), math.pi)
        bare = gauge.Ccam.from_entries(m.dimension, m.entries, flux=m.flux)
        with pytest.raises(InvalidParameterError):
            caging.crossing_amplitudes(bare, 4)
        amps = caging.crossing_amplitudes(bare, 4, source=0, target=3)
        assert np.max(np.abs(amps)) < 1e-12

    @pytest.mark.parametrize("run", [caging.crossing_amplitudes,
                                     lambda m, k: caging.crossing_amplitude_polynomials(m, k, 8)])
    def test_power_count_limit(self, run):
        m = gauge.canonical_ccam((2,), math.pi)
        limit = caging.POWER_COUNT_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"power count {limit + 1} exceeds"):
                run(m, limit + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # refused before the amplitudes are allocated

    @pytest.mark.parametrize("ends", [{"source": -1}, {"target": 9}, {"source": 4}])
    def test_vertex_out_of_range_refused(self, ends):
        m = gauge.canonical_ccam((2,), 1.0)
        with pytest.raises(InvalidParameterError, match="out of range"):
            caging.crossing_amplitudes(m, 4, **ends)

    def test_overflow_refused(self):
        # The (2,) walk at pi passes the complex128 range at power 2050.
        m = gauge.canonical_ccam((2,), math.pi)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ResourceLimitError, match="amplitude 2050 overflows"):
                caging.crossing_amplitudes(m, 3000)
            assert np.isfinite(caging.crossing_amplitudes(m, 2049)).all()

    def test_first_crossing_is_the_pairing_product(self):
        """Every root-to-root walk has at least 2d steps, so A_k = 0 exactly
        below 2d, and A_{2d} is the product of the level pairings, within
        1e-13 of the M shortest walks."""
        for p in range(2, 65):
            for xs in graphs.ordered_factorizations(p)[1]:
                d = len(xs)
                for phi in (0.0, 0.7, TWO_PI / p, -1.3, math.pi / 7):
                    amps = caging.crossing_amplitudes(gauge.canonical_ccam(xs, phi), 2 * d)
                    assert not amps[:-1].any(), (xs, phi)
                    want = np.prod(gauge.level_pairings(xs, phi))
                    assert abs(amps[-1] - want) <= 1e-13 * p, (xs, phi)


def former_walk(m, m_max):
    """Crossing amplitudes as first computed: one ``Ccam.apply`` per power."""
    vec = np.zeros(m.dimension, dtype=complex)
    vec[m.first_vertex] = 1.0
    out = np.zeros(m_max, dtype=complex)
    for k in range(m_max):
        vec = m.apply(vec)
        out[k] = vec[m.last_vertex]
    return out


MIDPOINT_TREES = [xs for n in range(2, 41) for xs in graphs.ordered_factorizations(n)[1]] + [
    (2, 3, 2, 2, 2, 2), (2,) * 8]


def test_amplitudes_equal_the_former_walk_at_every_midpoint():
    for xs in MIDPOINT_TREES:
        for phi in gauge.flat_values(xs).midpoints():
            m = gauge.canonical_ccam(xs, phi)
            assert np.array_equal(caging.crossing_amplitudes(m, 4 * len(xs)),
                                  former_walk(m, 4 * len(xs))), (xs, phi)


class TestExactCrossing:
    def test_polynomials_match_float_evaluation(self):
        base = TWO_PI / 6
        m = gauge.canonical_ccam((2, 3), base)
        polys = caging.crossing_amplitude_polynomials(m, 8, 24)
        for z in range(1, 7):
            ref = caging.crossing_amplitudes(gauge.canonical_ccam((2, 3), z * base), 8)
            ev = caging.evaluate_cyclotomic(polys, z, 24)
            assert np.max(np.abs(ref - ev)) < 1e-9

    def test_exact_zero_detection(self):
        m = gauge.canonical_ccam((2, 2), TWO_PI / 4)
        polys = caging.crossing_amplitude_polynomials(m, 8, 16)
        table = caging.cyclotomic_zero_table(polys, 16)
        for z in (1, 2, 3):
            assert table[:, z - 1].all()
        assert not table[:, 4 - 1].all()  # full turn behaves like zero flux

    def test_incommensurate_phase_rejected(self):
        m = gauge.canonical_ccam((2,), 1.0)
        with pytest.raises(InvalidParameterError):
            caging.phase_exponents(m, 8)
        with pytest.raises(InvalidParameterError, match="finite"):  # refused when built
            gauge.parse_ccam("ccam 2 0\ne 0 1 nan\n")
        huge = gauge.parse_ccam("ccam 2 0\ne 0 1 1.7e308\n")  # phase * 8 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="phase 1.7e[+]308 is not a multiple"):
                caging.phase_exponents(huge, 8)
        # Floats near 1e8 lie 1.5e-8 apart, farther than the flat-value tolerance.
        with pytest.raises(InvalidParameterError, match="phase 100000000.0 is not a multiple"):
            caging.phase_exponents(gauge.parse_ccam("ccam 2 0\ne 0 1 1e8\n"), 8)

    def test_prime_factors_match_sieve_loop(self):
        for n in range(1, 2000):
            want = tuple(p for p in range(2, n + 1)
                         if n % p == 0 and all(p % q for q in range(2, p)))
            got = graphs.prime_factorization(n)
            assert tuple(p for p, _e in got) == want
            assert math.prod(p**e for p, e in got) == n

    def test_kernel_matches_reference_on_random_trees(self):
        # Each tree also runs with its ids permuted, which leaves several
        # trees per component in the gauge's forest.
        rng = random.Random(7)
        family = [xs for p in range(2, 13) for xs in graphs.ordered_factorizations(p)[1]]
        several = 0
        for xs in rng.sample(family, 12):
            m_prod = math.prod(xs)
            for n in (4 * m_prod, 8 * m_prod, 12 * m_prod):
                z = rng.randrange(1, n // 4)
                m = gauge.canonical_ccam(xs, TWO_PI * 4 * z / n)
                kmax = 4 * len(xs)
                got = caging.crossing_amplitude_polynomials(m, kmax, n)
                want = reference_polynomials(m, kmax, n, m.first_vertex, m.last_vertex)
                assert got.dtype == np.int64 and np.array_equal(got, want), (xs, n, z)
                perm = np.random.default_rng(z).permutation(m.dimension)
                pm = permuted(m, perm)
                roots = graphs.hang_forest(pm.dimension, pm.graph.rows, pm.graph.cols,
                                           np.zeros(pm.graph.num_edges), 2)[0]
                several += len(np.unique(roots)) > 1
                got = caging.crossing_amplitude_polynomials(
                    pm, kmax, n, source=perm[m.first_vertex], target=perm[m.last_vertex])
                assert np.array_equal(got, want), (xs, n, z)
        assert several > 18

    @pytest.mark.parametrize("dim, edges, source, target", [
        (5, [(0, 1, 1), (1, 2, 3), (2, 3, 0), (3, 4, 5), (0, 4, 2)], 0, 2),  # odd cycle
        (4, [(0, 1, 1), (1, 2, 2), (0, 2, 6), (2, 3, 3)], 3, 0),  # triangle + pendant
        (4, [(0, 1, 4), (1, 2, 1), (2, 0, 7)], 0, 3),  # isolated target
        (4, [(0, 1, 4), (1, 2, 1), (2, 0, 7)], 3, 3),  # isolated source
        (3, [], 0, 0),  # no edges
        (4, [(2, 0, 1), (2, 1, 7), (0, 3, 7), (1, 3, 1)], 2, 3),  # rhombus, two forest roots
        (6, [(0, 1, 1), (1, 2, 3), (3, 4, 2), (4, 5, 5), (3, 5, 7)], 0, 4),  # two components
        (4, [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)], 0, 3),  # zero flux: g = N
    ])
    def test_kernel_matches_reference_off_trees(self, dim, edges, source, target):
        m = gauge.parse_ccam(ccam_text(8, dim, edges))
        stored = sorted((u, v, c % 8) if u < v else (v, u, -c % 8) for (u, v, c) in edges)
        assert [(u, v, int(c)) for (u, v, _t), c in
                zip(m.entries, caging.phase_exponents(m, 8))] == stored
        got = caging.crossing_amplitude_polynomials(m, 9, 8, source=source, target=target)
        assert np.array_equal(got, reference_polynomials(m, 9, 8, source, target))

    @pytest.mark.parametrize("xs, source, target", [
        ((2, 3, 2), 5, 17),  # neither end is a root
        ((2, 3, 2), 29, 3),  # from the last root back into the tree
        ((3, 2), 7, 7),  # returns to an inner vertex
    ])
    def test_kernel_matches_reference_between_inner_vertices(self, xs, source, target):
        n = 4 * math.prod(xs)
        m = gauge.canonical_ccam(xs, TWO_PI * 4 / n)
        kmax = 4 * len(xs)
        got = caging.crossing_amplitude_polynomials(m, kmax, n, source=source, target=target)
        assert np.array_equal(got, reference_polynomials(m, kmax, n, source, target))

    def test_target_beyond_the_power_count(self):
        # The roots of (2,)*4 are 8 steps apart: every power up to 7 reads zero.
        m = gauge.canonical_ccam((2,) * 4, TWO_PI / 16)
        got = caging.crossing_amplitude_polynomials(m, 7, 64)
        assert got.shape == (7, 64) and not got.any()
        assert np.array_equal(got, reference_polynomials(m, 7, 64, 0, m.dimension - 1))

    @pytest.mark.parametrize("source, target", [(0, 7), (0, 5), (7, 0), (0, 0)])
    def test_odd_cycle_reached_late(self, source, target):
        # A path 0-1-2-3-4 into the triangle 4-5-6, with the pendant 7 at 6:
        # walks change parity only after the triangle, four steps out.
        edges = [(0, 1, 1), (1, 2, 3), (2, 3, 0), (3, 4, 5), (4, 5, 2), (5, 6, 7),
                 (4, 6, 1), (6, 7, 4)]
        m = gauge.parse_ccam(ccam_text(8, 8, edges))
        got = caging.crossing_amplitude_polynomials(m, 14, 8, source=source, target=target)
        assert np.array_equal(got, reference_polynomials(m, 14, 8, source, target))

    def test_overflow_outside_the_light_cone_is_not_computed(self):
        # K_9 on 0..8 with the path 8-9-10-11-12 to the target.  Walks from 0
        # pass 2^60 on the clique from power 22 on, but by then the clique is
        # more than 24 - 22 steps from the target; the target's own values fit.
        clique = [(u, v, 0.0) for u in range(9) for v in range(u + 1, 9)]
        path = [(v, v + 1, 0.0) for v in range(8, 12)]
        m = gauge.Ccam.from_entries(13, clique + path)
        with pytest.raises(InvalidParameterError, match="overflow"):
            caging.crossing_amplitude_polynomials(m, 24, 1, source=0, target=1)
        got = caging.crossing_amplitude_polynomials(m, 24, 1, source=0, target=12)
        want = reference_polynomials(m, 24, 1, 0, 12)
        assert np.array_equal(got, want) and 0 < want.max() < 2**60

    def test_vertex_out_of_range_refused(self):
        m = gauge.canonical_ccam((2,), math.pi)
        with pytest.raises(InvalidParameterError):
            caging.crossing_amplitude_polynomials(m, 4, 8, source=-1)

    def test_coefficient_overflow_refused(self):
        # At zero flux and N = 1 the rhombus coefficients are walk counts:
        # 2^(k-1) walks of length k end on each vertex of the source's parity
        # class, so the state reaches 2^60 at k = 61 and passes it at k = 62.
        m = gauge.canonical_ccam((2,), 0.0)
        assert caging.crossing_amplitude_polynomials(m, 61, 1)[59, 0] == 2**59
        with pytest.raises(InvalidParameterError, match="overflow"):
            caging.crossing_amplitude_polynomials(m, 62, 1)

    def test_nonzero_rows_at_each_root_order(self):
        # 1 + w^12 vanishes at zeta_24^z iff (-1)^z = -1; Phi_12 = 1 - w^2 + w^4
        # vanishes iff zeta_24^z has order 12, i.e. gcd(24, z) = 2.
        polys = np.zeros((2, 24), dtype=np.int64)
        polys[0, [0, 12]] = 1
        polys[1, [0, 2, 4]] = (1, -1, 1)
        table = caging.cyclotomic_zero_table(polys, 24)
        assert [z for z in range(1, 25) if table[0, z - 1]] == list(range(1, 25, 2))
        assert [z for z in range(1, 25) if table[1, z - 1]] == [2, 10, 14, 22]

    def test_table_matches_float_values(self):
        m = gauge.canonical_ccam((2, 3), TWO_PI / 6)
        polys = caging.crossing_amplitude_polynomials(m, 8, 24)
        table = caging.cyclotomic_zero_table(polys, 24)
        for z in range(1, 25):
            values = np.abs(caging.evaluate_cyclotomic(polys, z, 24))
            assert (table[:, z - 1] == (values < 1e-9)).all()
            assert values[~table[:, z - 1]].min(initial=1.0) > 1e-3

    @pytest.mark.parametrize("width, n", [(8, 0), (8, -8), (8, 12), (8, 4)])
    def test_zero_table_refuses_a_non_element(self, width, n):
        with pytest.raises(InvalidParameterError):
            caging.cyclotomic_zero_table(np.zeros((2, width), dtype=np.int64), n, [1])

    def test_reduction_overflow_refused(self):
        with pytest.raises(InvalidParameterError):
            caging.cyclotomic_zero_table(np.full((1, 8), 2**60, dtype=np.int64), 8)

    def test_polynomial_state_limit(self):
        # (2,)*12 would need about 1.5 GiB of state: refused before allocating.
        m = gauge.canonical_ccam((2,) * 12, TWO_PI / 4096)
        with pytest.raises(ResourceLimitError):
            caging.crossing_amplitude_polynomials(m, 48, 4 * 4096)

    def test_polynomial_state_limit_boundary(self):
        # At N = 4M every face winds 4 units, so the gauge's step is g = 4 and
        # a run holds |V| * M values.
        def state_bytes(xs):
            return graphs.tree_vertex_count(xs) * math.prod(xs) * 8
        assert state_bytes((2,) * 10) <= caging.POLY_STATE_LIMIT_BYTES < state_bytes((2,) * 11)
        m = gauge.canonical_ccam((2,) * 11, TWO_PI / 2048)
        with pytest.raises(ResourceLimitError, match="state 6142 x 2048"):
            caging.crossing_amplitude_polynomials(m, 44, 4 * 2048)

    def test_ten_levels_certified(self):
        # (2,)*10 holds 24 MiB in the gauge, where a full-width run would need 96 MiB.
        xs = (2,) * 10
        m = gauge.canonical_ccam(xs, TWO_PI / 1024)
        polys = caging.crossing_amplitude_polynomials(m, 40, 4096)
        certified = caging.cyclotomic_zero_table(polys, 4096, range(1, 1025)).all(axis=0)
        assert certified.tolist() == [caging.is_caged(xs, z) for z in range(1, 1025)]

    def test_polynomial_output_limit(self):
        # At zero flux g = N and each row is one coefficient wide, but the
        # output keeps N columns: refused before it is allocated.
        m = gauge.canonical_ccam((2,), 0.0)
        with pytest.raises(ResourceLimitError, match="output 4 x 1099511627776"):
            caging.crossing_amplitude_polynomials(m, 4, 2**40)
        with pytest.raises(InvalidParameterError, match="at most 2\\^53"):
            caging.crossing_amplitude_polynomials(m, 0, 2**64)


class TestIsCaged:
    @pytest.mark.parametrize("xs", [(2,), (2, 3, 2), (1, 2), (2, 1, 3), (3, 1, 1, 2)])
    def test_matches_certificate_beyond_one_period(self, xs):
        m_prod = math.prod(xs)
        n = 4 * m_prod
        m = gauge.canonical_ccam(xs, TWO_PI / m_prod)
        polys = caging.crossing_amplitude_polynomials(m, 4 * len(xs), n)
        certified = caging.cyclotomic_zero_table(polys, n).all(axis=0)
        assert [caging.is_caged(xs, z) for z in range(1, n + 1)] == list(certified)

    def test_full_turn_crossable(self):
        assert caging.is_caged((2, 3, 2, 2, 2, 2), 1)
        assert not caging.is_caged((2, 3, 2, 2, 2, 2), 96)
        assert not caging.is_caged((2, 3, 2, 2, 2, 2), 0)

    @pytest.mark.parametrize("xs", [(), (2, 0), (2, 1), (-2, 2)])
    def test_bad_sequence_rejected(self, xs):
        with pytest.raises(InvalidParameterError):
            caging.is_caged(xs, 1)


class TestResolventRecurrence:
    @staticmethod
    def oracle_states(xs, phi, lam):
        out = []
        for i in range(1, len(xs) + 1):
            m = gauge.canonical_ccam(xs[:i], phi, _allow_trailing_one=True)
            h = gauge.dense_matrix(m)
            shifted = h - lam * np.eye(len(h))
            det = complex(np.linalg.det(shifted))
            res = np.linalg.inv(shifted)
            nu = caging.recurrence_normalizer(xs, phi, lam, i)
            out.append((det * nu,
                        det * nu * res[m.first_vertex, m.first_vertex],
                        det * nu * res[m.first_vertex, m.last_vertex]))
        return out

    def test_level_one_sealed(self):
        states = caging.resolvent_recurrence((2,), math.pi, 0.3 + 0.7j)
        assert abs(states[0].chi) < 1e-12

    def test_matches_dense_adjugate(self):
        lam = 1j
        rec = caging.resolvent_recurrence((2,), 0.0, lam)
        orc = self.oracle_states((2,), 0.0, lam)
        assert rec[0].delta == pytest.approx(orc[0][0])
        assert rec[0].phi == pytest.approx(orc[0][1])
        assert rec[0].chi == pytest.approx(orc[0][2])

    def test_partial_seal_two_two(self):
        states = caging.resolvent_recurrence((2, 2), math.pi / 2, 0.4 + 0.8j)
        assert abs(states[0].chi) > 1e-3
        assert abs(states[1].chi) < 1e-12
        orc = self.oracle_states((2, 2), math.pi / 2, 0.4 + 0.8j)
        assert states[0].chi == pytest.approx(orc[0][2])

    def test_random_samples_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            xs = tuple(int(v) for v in rng.integers(2, 5, size=d))
            phi = float(rng.uniform(0, TWO_PI))
            lam = complex(rng.normal(), rng.normal() + math.copysign(0.5, rng.normal()))
            rec = caging.resolvent_recurrence(xs, phi, lam)
            orc = self.oracle_states(xs, phi, lam)
            for st_, (dd, pp, cc) in zip(rec, orc):
                scale = max(abs(dd), abs(pp), abs(cc))
                assert abs(st_.delta - dd) < 1e-8 * scale
                assert abs(st_.phi - pp) < 1e-8 * scale
                assert abs(st_.chi - cc) < 1e-8 * scale

    def test_quadratic_identity_holds_for_oracle_values(self):
        lam = 0.2 + 1.1j
        xs, phi = (3, 2), 0.77
        orc = self.oracle_states(xs, phi, lam)
        prev_delta = -lam
        for (dd, pp, cc) in orc:
            assert dd * prev_delta == pytest.approx(pp * pp - cc * cc, rel=1e-8)
            prev_delta = dd

    def test_real_shift_rejected(self):
        with pytest.raises(InvalidParameterError):
            caging.resolvent_recurrence((2,), 0.4, 1.5 + 0j)

    def test_deep_sequence_chi_is_the_pairing_product(self):
        # Products of (2,)*70 pass int64; the pairings take them as floats.
        states = caging.resolvent_recurrence((2,) * 70, 0.7, 0.3 + 0.9j)
        assert len(states) == 70
        assert states[-1].chi == np.prod(gauge.level_pairings((2,) * 70, 0.7))


    def test_product_past_the_float_range_refused(self):
        with pytest.raises(InvalidParameterError, match="not finite or overflows"):
            caging.resolvent_recurrence((2,) * 2000, 1.0, 1j)


class TestExchangeSymmetry:
    @pytest.mark.parametrize("xs,phi", [((2,), 0.3), ((2, 3), 1.1), ((2, 3, 2), 2.7)])
    def test_canonical_gauge_commutes(self, xs, phi):
        ok, norm = caging.exchange_symmetry_check(gauge.canonical_ccam(xs, phi))
        assert ok and norm < 1e-12

    @pytest.mark.parametrize("xs", [(2, 3, 2), (6, 6), (2, 18)])
    @pytest.mark.parametrize("phi", [4e6, -4.4e6, 513221.52821505535])
    def test_canonical_gauge_commutes_within_its_rounding_at_large_flux(self, xs, phi):
        m = gauge.canonical_ccam(xs, phi)
        ok, norm = caging.exchange_symmetry_check(m)
        assert ok and norm < 4 * np.finfo(float).eps * np.abs(m.phases).max()
        assert not caging.exchange_symmetry_check(gauge_transform(m, 5, 0.77))[0]

    def test_generic_gauge_transform_breaks_it(self):
        m = gauge_transform(gauge.canonical_ccam((2, 3, 2), 1.234), 5, 0.77)
        ok, norm = caging.exchange_symmetry_check(m)
        assert not ok and norm > 1e-6

    def test_trivial_matrix(self):
        ok, norm = caging.exchange_symmetry_check(
            gauge.Ccam.from_entries(1, (), flux=0.0))
        assert ok and norm == 0.0

    def test_equals_dense_oracle_on_trees(self):
        family = [xs for p in range(2, 25) for xs in graphs.ordered_factorizations(p)[1]]
        for xs in family:
            for phi in (0.0, 0.7, math.pi / xs[0], 2.9):
                m = gauge.canonical_ccam(xs, phi)
                moved = gauge_transform(m, m.dimension // 3, 0.77)
                for case in (m, moved):
                    got = caging.exchange_symmetry_check(case)
                    assert got == dense_exchange_check(case), (xs, phi)
                    assert got[0] == (case is m), (xs, phi)

    @pytest.mark.parametrize("text", [
        "ccam 4 0\ne 0 1 0.5\n",
        "ccam 4 0\ne 0 1 0.3\n",  # np.abs(np.exp([0.3j])) is 1 - 2^-53, not 1
        "ccam 4 0\ne 0 1 0.5\ne 2 3 0.5\n",  # mirror-closed but not conjugate
        "ccam 4 0\ne 0 1 0.5\ne 2 3 -0.5\n",
        "ccam 5 0\ne 0 4 1.5\ne 1 2 0\n",  # an edge that is its own mirror
        "ccam 3 0\ne 0 1 0\ne 1 2 0\ne 0 2 2.0\n",
        "ccam 6 0\n",
    ])
    def test_equals_dense_oracle_on_files(self, text):
        m = gauge.parse_ccam(text)
        assert caging.exchange_symmetry_check(m) == dense_exchange_check(m)

    def test_equals_dense_oracle_on_chain_and_lotus(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        for m in (gauge.chain_ccam((2, 3, 2), 3, math.pi / 6), gauge.lotus_ccam(patch, math.pi),
                  gauge.lotus_ccam(patch, 0.4)):
            assert caging.exchange_symmetry_check(m) == dense_exchange_check(m)

    def test_empty_matrix(self):
        m = gauge.Ccam.from_entries(0, ())
        assert caging.exchange_symmetry_check(m) == dense_exchange_check(m) == (True, 0.0)

    def test_needs_no_dense_matrix(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        ok, norm = caging.exchange_symmetry_check(gauge.canonical_ccam((2, 3, 2), 1.1))
        assert ok and norm < 1e-12


class TestKrylov:
    def test_rhombic_hub(self):
        m = gauge.chain_ccam((2,), 8, math.pi)
        res = caging.krylov_cls(m, m.graph.cell_bounds[4])
        assert res.closed and res.dimension <= 5
        assert set(round(e, 6) for e in res.eigenvalues) <= {-2.0, 0.0, 2.0}

    def test_rhombic_dispersive_exceeds_cap(self):
        m = gauge.chain_ccam((2,), 40, 0.0)
        res = caging.krylov_cls(m, m.graph.cell_bounds[20], cap=32)
        assert not res.closed and res.dimension == 32 and res.states == ()

    def test_cap_equal_to_the_dimension_closes(self):
        m = gauge.chain_ccam((2,), 8, math.pi)
        hub = m.graph.cell_bounds[4]
        dim = caging.krylov_cls(m, hub).dimension
        for cap, closed in ((dim, True), (dim - 1, False)):
            res = caging.krylov_cls(m, hub, cap=cap)
            assert (res.closed, res.dimension, len(res.states)) == (closed, cap, cap * closed)
            rec, = caging.verify_all_cls(m, 4, seeds=[hub], cap=cap).records
            assert (rec.closed, rec.krylov_dim, len(rec.eigenvalues)) == (closed, cap, cap * closed)

    def test_dice_hub_closes_within_two_rings(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        m = gauge.lotus_ccam(patch, math.pi)
        for hub in graphs.lotus_hubs(patch):
            res = caging.krylov_cls(m, hub)
            assert res.closed and res.support_radius <= 2
            assert max(s.residual for s in res.states) < caging.CLS_RESIDUAL_TOL

    def test_states_are_normalized_eigenvectors(self):
        m = gauge.chain_ccam((2, 3, 2), 2, math.pi / 6)
        h = gauge.dense_matrix(m)
        res = caging.krylov_cls(m, 7)
        assert res.closed
        for s in res.states:
            vec = np.zeros(m.dimension, dtype=complex)
            for v, a in s.amplitudes.items():
                vec[v] = a
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(h @ vec - s.eigenvalue * vec) <= 1e-8


def dice(generations, phi=math.pi):
    spec = graphs.LotusSpec(kind="first", sides=6, generations=generations)
    return gauge.lotus_ccam(graphs.lotus_patch(spec), phi)


def count_eigh(monkeypatch):
    """The shapes of every matrix ``np.linalg.eigh`` sees from now on."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a):
        shapes.append(a.shape)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def summary(rep):
    return (rep.span_rank, rep.covered, rep.radius_ok)


class TestRouteAgreement:
    """With the dense limit lowered below the graph but above its windows,
    the windowed route finds the states of the one-window route."""

    @pytest.mark.parametrize("build, bound", [
        (lambda: gauge.chain_ccam((2, 3, 2), 8, math.pi / 6), 10),
        (lambda: gauge.chain_ccam((2,), 12, math.pi), 10),
        (lambda: dice(2), 4),
    ], ids=["chain-232x8", "chain-2x12", "dice-gen2"])
    def test_same_spans_dimensions_and_radii(self, build, bound, monkeypatch):
        m = build()
        whole = [caging.krylov_cls(m, s) for s in range(m.dimension)]
        whole_rep = caging.verify_all_cls(m, bound)
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, str(m.dimension - 1))
        shapes = count_eigh(monkeypatch)
        windowed = [caging.krylov_cls(m, s) for s in range(m.dimension)]
        windowed_rep = caging.verify_all_cls(m, bound)
        assert shapes and max(shapes) < (m.dimension, m.dimension)
        for a, b in zip(whole, windowed):
            assert (a.closed, a.dimension, a.support_radius) == \
                (b.closed, b.dimension, b.support_radius)
            pa, pb = (q @ q.conj().T for q in (np.array([s.vector for s in r.states]).T
                                                for r in (a, b)))
            assert np.abs(pa - pb).max() <= 1e-8
            assert max(s.residual for s in a.states + b.states) <= 1e-8
        assert [(r.krylov_dim, r.closed, r.support_radius) for r in whole_rep.records] == \
            [(r.krylov_dim, r.closed, r.support_radius) for r in windowed_rep.records]
        assert max(r.residual for r in windowed_rep.records) <= 1e-8
        assert summary(whole_rep) == summary(windowed_rep) == (m.dimension, True, True)


class TestOneVerdict:
    """The report is decided one way at every size: with the dense limit
    just below the dimension the window route gives the same summary and
    per-seed support radii, also on reports that fail."""

    @pytest.mark.parametrize("build, bound, cap", [
        (lambda: gauge.chain_ccam((2, 3, 2), 4, 1.0), 10, caging.DEFAULT_KRYLOV_CAP),
        (lambda: dice(2), 2, caging.DEFAULT_KRYLOV_CAP),
        (lambda: gauge.chain_ccam((2, 3, 2), 4, math.pi / 6), 10, 32),
    ], ids=["chain-232x4-flux1", "dice-gen2-bound2", "chain-232x4-cap32"])
    def test_same_summary_and_radii_on_both_routes(self, build, bound, cap, monkeypatch):
        m = build()
        reports = [caging.verify_all_cls(m, bound, cap=cap)]
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, str(m.dimension - 1))
        shapes = count_eigh(monkeypatch)
        reports.append(caging.verify_all_cls(m, bound, cap=cap))
        assert shapes and max(shapes) < (m.dimension, m.dimension)
        whole, windowed = ((json.loads(r.to_json())["summary"],
                            [s.support_radius for s in r.records]) for r in reports)
        assert whole == windowed
        assert not (reports[0].covered and reports[0].radius_ok)


class TestWindows:
    def test_leaking_seeds_are_the_seeds_past_the_bound(self, monkeypatch):
        m = dice(2)
        radii = np.array([r.support_radius for r in caging.verify_all_cls(m, 4).records])
        assert radii.max() == 4 and (radii == 4).sum() == 36
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, str(m.dimension - 1))
        records, leaks, _ = caging._cover(m, range(m.dimension), 3, caging.DEFAULT_KRYLOV_CAP)
        leaking = np.flatnonzero(leaks > caging.CLS_RESIDUAL_TOL)
        assert leaking.tolist() == np.flatnonzero(radii == 4).tolist()
        assert [r.support_radius for r in records] == radii.tolist()
        rep = caging.verify_all_cls(m, 3)
        assert not rep.covered and not rep.radius_ok
        assert rep.span_rank == int((radii <= 3).sum())

    def test_dispersive_flux_is_neither_covered_nor_within_the_bound(self, monkeypatch):
        m = gauge.chain_ccam((2, 3, 2), 8, 1.0)
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, str(m.dimension - 1))
        rep = caging.verify_all_cls(m, 10)
        assert not rep.covered and not rep.radius_ok
        with pytest.raises(ResourceLimitError, match="dense limit"):
            caging.krylov_cls(m, m.graph.cell_bounds[4])

    def test_window_above_the_limit_is_refused(self, monkeypatch, capsys):
        m = gauge.chain_ccam((2, 3, 2), 8, math.pi / 6)
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "100")
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 100"):
            caging.verify_all_cls(m, 10)
        assert cli.main(["cls", "--x", "2,3,2", "--phi", "pi/6", "--cells", "8",
                         "--radius-bound", "10"]) == 1
        assert "exceeds dense limit 100" in capsys.readouterr().err

    def test_eigh_count_does_not_grow_with_the_chain(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "232")
        counts = []
        for cells in (8, 16):
            shapes = count_eigh(monkeypatch)
            rep = caging.verify_all_cls(gauge.chain_ccam((2, 3, 2), cells, math.pi / 6), 10)
            assert rep.covered and rep.radius_ok
            counts.append(len(shapes))
        assert counts[0] == counts[1] == 5


class TestSharedSpectralData:
    """Within the dense limit the hubs of a patch share one ``eigh``, kept
    only while their matrix lives."""

    def test_hubs_share_one_eigh_freed_with_the_matrix(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        mp = gauge.lotus_ccam(patch, math.pi)
        results = [caging.krylov_cls(mp, hub) for hub in graphs.lotus_hubs(patch)]
        assert len(results) > 1 and all(r.closed for r in results)
        caging.verify_all_cls(mp, 3)
        assert calls == [(mp.dimension, mp.dimension)]
        held = weakref.ref(caging._SPECTRAL_DATA[mp][1])
        del mp
        gc.collect()
        assert held() is None

    def test_repeated_calls_form_one_dense_matrix(self, monkeypatch):
        formed = []
        dense = gauge.dense_matrix

        def counted(m):
            formed.append(m.dimension)
            return dense(m)
        monkeypatch.setattr(gauge, "dense_matrix", counted)
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=6))
        mp = gauge.lotus_ccam(patch, math.pi)
        hub = graphs.lotus_hubs(patch)[0]
        for _ in range(3):
            assert caging.krylov_cls(mp, hub).closed
        assert formed == [mp.dimension]


class TestPerClusterRank:
    """``span_rank`` counts the seeds that close under the cap within the
    radius bound.  On a covered input the union of every seed's states,
    stacked as rows and ranked by one SVD, spans the whole space."""

    @pytest.mark.parametrize("xs, cells, phi, rank", [
        ((2, 3, 2), 4, math.pi / 6, 117),
        ((2, 3, 2), 4, 1.0, 117),
        ((2,), 6, math.pi, 19),
    ])
    def test_union_matches_stacked_svd(self, xs, cells, phi, rank):
        m = gauge.chain_ccam(xs, cells, phi)
        rep = caging.verify_all_cls(m, 100)
        assert rep.covered
        stack = np.array([s.vector for seed in range(m.dimension)
                          for s in caging.krylov_cls(m, seed).states])
        stacked = np.linalg.svd(stack, compute_uv=False)
        assert int(np.sum(stacked > 1e-8 * max(1.0, stacked[0]))) == rep.span_rank == rank
        assert rep.span_rank == m.dimension

    def test_cap_counts_the_closed_seeds_within_the_bound(self):
        m = gauge.chain_ccam((2, 3, 2), 4, math.pi / 6)
        rep = caging.verify_all_cls(m, 10, cap=32)
        within = [s for s in range(m.dimension)
                  if (res := caging.krylov_cls(m, s, cap=32)).closed and res.support_radius <= 10]
        assert not rep.covered and rep.cap_exceeded
        assert rep.span_rank == len(within) == m.dimension - len(rep.cap_exceeded)


class TestClsRefusals:
    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one(self, cap):
        m = gauge.chain_ccam((2,), 3, math.pi)
        with pytest.raises(InvalidParameterError, match="cap"):
            caging.krylov_cls(m, 0, cap=cap)
        with pytest.raises(InvalidParameterError, match="cap"):
            caging.verify_all_cls(m, 4, cap=cap)

    def test_negative_radius_bound(self):
        with pytest.raises(InvalidParameterError, match="radius bound"):
            caging.verify_all_cls(gauge.chain_ccam((2,), 3, math.pi), -1)

    @pytest.mark.parametrize("seed", [-1, 13])
    def test_seed_out_of_range(self, seed):
        m = gauge.chain_ccam((2,), 3, math.pi)
        with pytest.raises(InvalidParameterError, match="seed"):
            caging.verify_all_cls(m, 4, seeds=[0, seed])
        with pytest.raises(InvalidParameterError, match=f"seed {seed} out of range"):
            caging.krylov_cls(m, seed)

    @pytest.mark.parametrize("denominator", [0, -4])
    def test_denominator_below_one(self, denominator):
        with pytest.raises(InvalidParameterError, match="denominator must be positive"):
            caging.phase_exponents(gauge.canonical_ccam((2,), math.pi), denominator)

    def test_negative_power_count(self):
        m = gauge.canonical_ccam((2,), math.pi)
        with pytest.raises(InvalidParameterError, match="power count"):
            caging.crossing_amplitudes(m, -2)
        with pytest.raises(InvalidParameterError, match="power count"):
            caging.crossing_amplitude_polynomials(m, -1, 8)
        assert caging.crossing_amplitudes(m, 0).shape == (0,)
        assert caging.crossing_amplitude_polynomials(m, 0, 8).shape == (0, 8)


class TestLocalCaging:
    def test_heptagon_hubs_caged_at_two_pi_over_three(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=7, shrub_p=3))
        m = gauge.lotus_ccam(patch, TWO_PI / 3)
        for hub in graphs.lotus_hubs(patch):
            assert caging.local_caging_check(m, hub)

    def test_heptagon_uncaged_off_the_point(self):
        patch = graphs.lotus_patch(graphs.LotusSpec(kind="first", sides=7, shrub_p=3))
        m = gauge.lotus_ccam(patch, math.pi / 2)
        assert not caging.local_caging_check(m, graphs.lotus_hubs(patch)[0])

    def test_isolated_vertex_trivially_caged(self):
        m = gauge.Ccam.from_entries(1, (), flux=0.0)
        assert caging.local_caging_check(m, 0)

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_vertex_out_of_range(self, vertex):
        m = gauge.canonical_ccam((2,), math.pi)
        with pytest.raises(InvalidParameterError, match=f"vertex {vertex} out of range"):
            caging.local_caging_check(m, vertex)


class TestVerifyAllCls:
    def test_rhombus_spans(self):
        rep = caging.verify_all_cls(gauge.canonical_ccam((2,), math.pi), 2)
        assert rep.covered and rep.span_rank == 4 and rep.radius_ok

    def test_chain_covers_with_cell_window(self):
        m = gauge.chain_ccam((2, 3, 2), 2, math.pi / 6)
        rep = caging.verify_all_cls(m, 10)
        assert rep.covered and rep.span_rank == rep.dimension
        assert rep.radius_ok
        assert max(r.residual for r in rep.records) < 1e-8
        for rec in rep.records:
            res = caging.krylov_cls(m, rec.seed)
            seed_cell = graphs.chain_cell_of_vertex(m.graph, rec.seed)
            for s in res.states:
                cells = {graphs.chain_cell_of_vertex(m.graph, v) for v in s.amplitudes}
                assert all(abs(c - seed_cell) <= 1 for c in cells)

    def test_dispersive_flux_reports_violations(self, capsys):
        # 117 sites but only 63 distinct eigenvalues, so no Krylov space
        # reaches 64 and the violation at cap 64 is the support radius.
        m = gauge.chain_ccam((2, 3, 2), 4, 1.0)
        rep = caging.verify_all_cls(m, 10, cap=64)
        assert not rep.radius_ok and rep.cap_exceeded == ()
        assert cli.main(["cls", "--x", "2,3,2", "--phi", "1.0", "--cells", "4",
                         "--radius-bound", "10", "--cap", "64"]) == 2
        assert "verification failed" in capsys.readouterr().err
        # At cap 32 the seeds over the cap are those whose projection reaches
        # more than 32 clusters of eigenvalues (gaps of at most 1e-6 merge).
        evals, evecs = np.linalg.eigh(gauge.dense_matrix(m))
        starts = np.flatnonzero(np.r_[True, np.diff(evals) > 1e-6])
        weight = np.sqrt(np.add.reduceat(np.abs(evecs) ** 2, starts, axis=1))
        over = np.flatnonzero((weight > caging.KRYLOV_NOVELTY_TOL).sum(axis=1) > 32)
        rep = caging.verify_all_cls(m, 10, cap=32)
        assert not rep.covered
        assert rep.cap_exceeded == tuple(over.tolist()) and len(over) > 0

    def test_report_json_shape(self):
        rep = caging.verify_all_cls(gauge.canonical_ccam((2,), math.pi), 2)
        payload = json.loads(rep.to_json())
        assert set(payload) == {"states", "summary"}
        assert set(payload["summary"]) == {
            "span_rank", "dimension", "covered", "radius_bound", "radius_ok",
            "cap_exceeded"}
        assert set(payload["states"][0]) == {
            "seed", "krylov_dim", "eigenvalues", "support_radius", "residual"}


def spliced_grid(horizontal_only):
    """The 4 x 4 grid with a (2,) tree spliced into each of its 12 horizontal
    edges, or into all 24 edges, every tree face phased at pi."""
    horizontal = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    vertical = [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    squares = [[4 * r + c, 4 * r + c + 1, 4 * r + c + 5, 4 * r + c + 4]
               for r in range(3) for c in range(3)]
    rows, cols = zip(*(horizontal + vertical))
    grid = graphs.Graph(16, rows, cols, sum(squares, []), [4] * 9)
    marked = horizontal if horizontal_only else horizontal + vertical
    g = graphs.replace_edges(grid, marked, {e: (2,) for e in marked})
    return gauge.ccam_with_plaquette_fluxes(g, [math.pi] * len(g.face_lengths))


class TestSplicedGrid:
    """Glued trees spliced into a grid's edges confine at pi; the radii are
    those the least-squares gauge gave, which a gauge change cannot move."""

    @pytest.mark.parametrize("horizontal_only, size, radius", [(False, 112, 4), (True, 64, 7)])
    def test_covers_within_the_radius(self, horizontal_only, size, radius):
        m = spliced_grid(horizontal_only)
        rep = caging.verify_all_cls(m, radius)
        assert (m.dimension, rep.covered, rep.radius_ok) == (size, True, True)
        assert max(r.support_radius for r in rep.records) == radius
