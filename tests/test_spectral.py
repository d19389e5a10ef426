import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caged import bloch, gauge, graphs, spectral
from caged.errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError


def family(limit):
    out = []
    for m in range(2, limit + 1):
        out.extend(graphs.ordered_factorizations(m)[1])
    return out


def path_matrix(weights):
    """The dense zero-diagonal path with the given off-diagonal weights."""
    w = np.asarray(weights, dtype=float)
    return np.diag(w, 1) + np.diag(w, -1)


def path_eigenvalues(weights):
    """Every eigenvalue of one path: its one prefix that is the whole path."""
    return spectral.prefix_eigenvalues([weights], [(0, len(weights) + 1)])


def pnary_closed_form(p, n):
    """Eigenvalues 2*sqrt(p)*cos(pi*x/(n+1)), x = 1..n, ascending: the size-n
    path with every weight sqrt(p)."""
    return np.sort(2.0 * math.sqrt(p) * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))


def hermitian_eigensolve(m):
    """The eigenvector oracle: the clustered Spectrum of a dense Hermitian
    matrix and its eigenvectors (columns by ascending eigenvalue), from one
    ``eigh``.  Refuses non-finite and visibly non-Hermitian input."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError("matrix must be square")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    if m.size and np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise InvalidParameterError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    return spectral.cluster_eigenvalues(vals.tolist()), vecs


class TestHermitianEigensolve:
    def test_scalar(self):
        spec, vecs = hermitian_eigensolve(np.zeros((1, 1)))
        assert spec.eigenvalues == ((0.0, 1),)
        assert vecs.shape == (1, 1)

    def test_four_cycle(self):
        spec, _ = hermitian_eigensolve(
            gauge.dense_matrix(gauge.canonical_ccam((2,), 0.0)))
        assert [v for (v, _m) in spec.eigenvalues] == pytest.approx([-2.0, 0.0, 2.0])
        assert [m for (_v, m) in spec.eigenvalues] == [1, 2, 1]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
    def test_complete_bipartite(self, p):
        spec, _ = hermitian_eigensolve(
            gauge.dense_matrix(gauge.canonical_ccam((p,), 0.0)))
        top = math.sqrt(2 * p)
        assert [v for (v, _m) in spec.eigenvalues] == pytest.approx([-top, 0.0, top])
        assert spec.multiplicity_at(0.0) == p

    def test_contracts(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = 0.5 * (a + a.conj().T)
        spec, vecs = hermitian_eigensolve(h)
        vals = spec.expand()
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(12))) < 1e-8
        raw = np.linalg.eigvalsh(h)
        assert np.max(np.abs(raw - vals)) < 1e-10
        for i in range(12):
            assert np.linalg.norm(h @ vecs[:, i] - raw[i] * vecs[:, i]) <= 1e-8 * np.linalg.norm(h)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidParameterError):
            hermitian_eigensolve(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            hermitian_eigensolve(np.array([[bad]]))
        with pytest.raises(InvalidParameterError, match="finite"):
            hermitian_eigensolve(np.array([[0.0, bad], [bad, 0.0]]))


class TestDenseOracle:
    """``ccam_spectrum`` takes the singular values of the sublattice block
    only, in real arithmetic when every entry is real, and agrees with the
    eigenvector solve of the whole matrix."""

    def test_matches_eigh_over_family(self):
        for xs in family(64):
            for phi in (0.0, 2 * math.pi / xs[0], 0.7, 2 * math.pi / math.prod(xs)):
                m = gauge.canonical_ccam(xs, phi)
                got = spectral.ccam_spectrum(m).eigenvalues
                want, _vecs = hermitian_eigensolve(gauge.dense_matrix(m))
                assert [c for (_v, c) in got] == [c for (_v, c) in want.eigenvalues], (xs, phi)
                assert max(abs(a - b) for (a, _), (b, _) in zip(got, want.eigenvalues)) < 1e-13

    def test_values_only_and_real_when_real(self, monkeypatch):
        def refuse(name):
            def call(*_args, **_kwargs):
                raise AssertionError(f"{name} called")
            return call

        seen, svd = [], np.linalg.svd

        def record(t, *args, **kwargs):
            seen.append((t.dtype, t.shape, kwargs.get("compute_uv")))
            return svd(t, *args, **kwargs)

        want = spectral.spectrum_fluxless((2, 3)).expand()
        monkeypatch.setattr(np.linalg, "eigh", refuse("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse("eigvalsh"))
        monkeypatch.setattr(gauge, "dense_matrix", refuse("dense_matrix"))
        monkeypatch.setattr(np.linalg, "svd", record)
        flat_m, turned_m = gauge.canonical_ccam((2, 3), 0.0), gauge.canonical_ccam((2, 3), 0.7)
        flat = spectral.ccam_spectrum(flat_m).expand()
        turned = spectral.ccam_spectrum(turned_m)
        odd = int((flat_m.graph.distances(0) % 2).sum())  # B: odd distance from vertex 0
        block = (flat_m.dimension - odd, odd)
        assert seen == [(np.float64, block, False), (np.complex128, block, False)]
        assert np.max(np.abs(flat - want)) < 1e-13
        assert turned.dimension == graphs.tree_vertex_count((2, 3))

    def test_shared_block_keeps_the_former_bits(self):
        """``gauge.sublattice_block`` is the scatter ``ccam_spectrum`` built
        inline before it was shared: the same block, dtype and spectrum bits
        over every sequence of product <= 64 at flux 0 and 2*pi/x_1."""
        def former_spectrum(m):
            nb, slots, flip = m.graph.block_layout
            w = np.exp(1j * m.phases)
            w = w if w.imag.any() else w.real
            t = np.zeros((m.dimension - nb) * nb, dtype=w.dtype)
            t[slots] = np.where(flip, w.conj(), w)
            t = t.reshape(m.dimension - nb, nb)
            s = np.linalg.svd(t, compute_uv=False)
            zeros = np.zeros(m.dimension - 2 * s.size)
            return t, spectral.cluster_eigenvalues(np.concatenate([-s, zeros, s]).tolist())

        for xs in family(64):
            for phi in (0.0, 2 * math.pi / xs[0]):
                m = gauge.canonical_ccam(xs, phi)
                block, spectrum = former_spectrum(m)
                got = gauge.sublattice_block(m)
                assert got.dtype == block.dtype and np.array_equal(got, block), (xs, phi)
                assert spectral.ccam_spectrum(m).eigenvalues == spectrum.eigenvalues, (xs, phi)

    def test_chiral_zeros_over_family(self):
        for xs in family(64):
            for phi in (0.0, 2 * math.pi / xs[0]):
                m = gauge.canonical_ccam(xs, phi)
                gap = abs(m.dimension - 2 * int((m.graph.distances(0) % 2).sum()))
                assert spectral.ccam_spectrum(m).multiplicity_at(0.0) >= gap, (xs, phi)

    def test_odd_cycle_refused_with_the_shared_message(self):
        triangle = gauge.Ccam(graphs.Graph(3, [0, 0, 1], [1, 2, 2]), [0.0, 0.3, 0.0])
        with pytest.raises(InvalidParameterError, match="not bipartite: it has an odd cycle"):
            spectral.ccam_spectrum(triangle)
        with pytest.raises(InvalidParameterError, match="not bipartite: it has an odd cycle"):
            bloch.BlochModel(bands=3, rows=np.array([0, 0, 1]), cols=np.array([1, 2, 2]),
                             flux_factors=np.zeros(3), windings=np.zeros((3, 1), dtype=np.int64),
                             default_flux=0.0)

    def test_refuses_above_dense_limit(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 3"):
            spectral.ccam_spectrum(gauge.canonical_ccam((2,), 0.0))
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "4")
        assert spectral.ccam_spectrum(gauge.canonical_ccam((2,), 0.0)).dimension == 4


class TestTridiagonal:
    """Whole zero-diagonal paths, given as their off-diagonal weights."""

    def test_tiny(self):
        assert path_eigenvalues(()) == pytest.approx([0.0])
        assert path_eigenvalues((math.sqrt(2),)) == pytest.approx([-math.sqrt(2), math.sqrt(2)])

    @pytest.mark.parametrize("n", [3, 8, 33, 64])
    def test_uniform_closed_form(self, n):
        got = path_eigenvalues((math.sqrt(3),) * (n - 1))
        assert np.max(np.abs(got - pnary_closed_form(3, n))) < 1e-12

    @given(st.lists(st.floats(-2, 2), min_size=0, max_size=23))
    @example([4.4922828261102064e-158, 0.8125])  # tiny weights beside a zero diagonal
    @example([1e-158, 1.0, 1e-158, 1.3])
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack(self, weights):
        # A path is bipartite (even rows against odd rows), so its spectrum
        # is +-sigma of that block and, for an odd size, one zero.
        got = path_eigenvalues(weights)
        block = path_matrix(weights)[0::2, 1::2]
        s = np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0)
        want = np.sort(np.concatenate([-s, s, np.zeros(len(weights) + 1 - 2 * s.size)]))
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_cauchy_interlacing(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            weights = tuple(rng.normal(size=n - 1))
            full = path_eigenvalues(weights)
            minor = path_eigenvalues(weights[:-1])
            for i in range(n - 1):
                assert full[i] <= minor[i] + 1e-10
                assert minor[i] <= full[i + 1] + 1e-10

    def test_huge_entries_do_not_overflow(self):
        got = path_eigenvalues((1e300,))
        assert got == pytest.approx([-1e300, 1e300], rel=1e-14)

    def test_tiny_entries_keep_their_scale(self):
        got = path_eigenvalues((1e-300,))
        assert got == pytest.approx([-1e-300, 1e-300], rel=1e-14)


class TestPrefixEigenvalues:
    """Every leading principal submatrix of several paths in one call."""

    def test_every_prefix_matches_lapack(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            paths = [tuple(rng.normal(size=n - 1)) for n in rng.integers(1, 18, size=3)]
            prefixes = [(p, s) for p, w in enumerate(paths) for s in range(len(w) + 2)]
            prefixes = [prefixes[i] for i in rng.permutation(len(prefixes))]
            got = spectral.prefix_eigenvalues(paths, prefixes)
            at = 0
            for p, s in prefixes:
                want = np.linalg.eigvalsh(path_matrix(paths[p])[:s, :s])
                assert np.max(np.abs(got[at:at + s] - want), initial=0.0) < 1e-12, (p, s)
                at += s
            assert at == got.size

    def test_repeated_and_empty_prefixes(self):
        w = (1.0, 0.25)
        got = spectral.prefix_eigenvalues([w], [(0, 2), (0, 0), (0, 2), (0, 1)])
        assert got == pytest.approx([-1.0, 1.0, -1.0, 1.0, 0.0], abs=1e-14)
        assert spectral.prefix_eigenvalues([w], []).size == 0

    @pytest.mark.parametrize("prefix", [(1, 1), (-1, 1), (0, 4), (0, -1)])
    def test_prefix_outside_paths_rejected(self, prefix):
        with pytest.raises(InvalidParameterError):
            spectral.prefix_eigenvalues([(1.0, 1.0)], [prefix])

    def test_prefix_above_dense_limit_refused(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        path = (1.0,) * 3
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 3"):
            path_eigenvalues(path)
        # only the listed prefixes count, not the length of the path
        got = spectral.prefix_eigenvalues([path], [(0, 3), (0, 2)])
        assert got == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2), -1.0, 1.0], abs=1e-14)


def uncached_prefix_eigenvalues(paths, prefixes):
    """The route without the memo: each path zeroed and formed dense once, up
    to its longest listed prefix, and one ``eigvalsh`` of its leading block
    per listed prefix."""
    dense = {}
    for p in {p for (p, _s) in prefixes}:
        w = max(s for (q, s) in prefixes if q == p)
        weights = list(paths[p][:max(w - 1, 0)])
        tiny = spectral.EPS * max(map(abs, weights), default=0.0)
        dense[p] = path_matrix([0.0 if abs(v) <= tiny else v for v in weights])
    values = [np.linalg.eigvalsh(dense[p][:s, :s]) for (p, s) in prefixes]
    return np.concatenate(values) if values else np.array([])


class TestPrefixMemo:
    """``prefix_eigenvalues`` solves each distinct block once and returns the
    bits of one uncached ``eigvalsh`` per block, cold or warm."""

    SEQUENCES = family(64) + [(p,) * d for p in range(2, 7) for d in (9, 11, 13, 15)]

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.delenv(gauge.DENSE_LIMIT_ENV, raising=False)
        spectral._block_eigenvalues.cache_clear()
        yield
        spectral._block_eigenvalues.cache_clear()

    @pytest.mark.parametrize("at_af", [False, True], ids=["fluxless", "flux_af"])
    def test_cold_and_warm_match_uncached_bits(self, at_af, monkeypatch):
        assemble = spectral.spectrum_flux_af if at_af else spectral.spectrum_fluxless
        # The assemblies solve their checked blocks through _solve_prefixes,
        # the part of prefix_eigenvalues after its checks.
        solve, calls = spectral._solve_prefixes, []

        def recorded(paths, prefixes):
            got = solve(paths, prefixes)
            calls.append((paths, prefixes, got))
            return got

        monkeypatch.setattr(spectral, "_solve_prefixes", recorded)
        cold = [assemble(xs) for xs in self.SEQUENCES]
        solved = spectral._block_eigenvalues.cache_info().misses
        warm = [assemble(xs) for xs in self.SEQUENCES]
        assert warm == cold
        assert spectral._block_eigenvalues.cache_info().misses == solved  # nothing solved twice
        distinct = {(tuple(paths[p][:s - 1]), s) for (paths, prefixes, _v) in calls
                    for (p, s) in prefixes if s}
        assert solved == len(distinct) <= spectral.PREFIX_CACHE_SIZE
        for paths, prefixes, got in calls:
            want = uncached_prefix_eigenvalues(paths, prefixes)
            assert got.tobytes() == want.tobytes(), (paths, prefixes)

    def test_key_is_the_zeroed_weights(self):
        path = (1e-17, 1.0)
        alone = spectral.prefix_eigenvalues([path], [(0, 2)])
        longer = spectral.prefix_eigenvalues([path], [(0, 2), (0, 3)])
        again = spectral.prefix_eigenvalues([path], [(0, 2)])
        assert alone.tolist() == [-1e-17, 1e-17] == again.tolist()
        assert longer[:2].tolist() == [0.0, 0.0]
        for got, prefixes in ((alone, [(0, 2)]), (longer, [(0, 2), (0, 3)]), (again, [(0, 2)])):
            assert got.tobytes() == uncached_prefix_eigenvalues([path], prefixes).tobytes()
        # -0.0 is zeroed to 0.0, so it shares the key of 0.0
        assert spectral.prefix_eigenvalues([(-0.0,)], [(0, 2)]).tobytes() == \
            spectral.prefix_eigenvalues([(0.0,)], [(0, 2)]).tobytes()

    def test_dense_limit_refuses_after_a_warm_call(self, monkeypatch):
        path = (1.0,) * 3
        path_eigenvalues(path)
        spectral.spectrum_fluxless((2,) * 5)
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 3"):
            path_eigenvalues(path)
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 3"):
            spectral.spectrum_fluxless((2,) * 5)

    def test_entry_bound_and_read_only_values(self):
        assert spectral._block_eigenvalues.cache_info().maxsize == spectral.PREFIX_CACHE_SIZE
        assert spectral.PREFIX_CACHE_SIZE >= 747  # the distinct blocks of the product <= 64 family
        for k in range(spectral.PREFIX_CACHE_SIZE + 50):
            spectral.prefix_eigenvalues([(1.0 + k / 1024, 0.5)], [(0, 3)])
        info = spectral._block_eigenvalues.cache_info()
        assert info.misses == spectral.PREFIX_CACHE_SIZE + 50
        assert info.currsize == spectral.PREFIX_CACHE_SIZE
        key = np.array([1.0, 0.5]).tobytes()
        cached = spectral._block_eigenvalues(key)
        assert not cached.flags.writeable and spectral._block_eigenvalues(key) is cached
        got = spectral.prefix_eigenvalues([(1.0, 0.5)], [(0, 3)])
        got[:] = 7.0  # a caller's result is its own copy
        assert spectral.prefix_eigenvalues([(1.0, 0.5)], [(0, 3)]).tobytes() == cached.tobytes()


class TestClusterEigenvalues:
    """A value joins a level within ``DEGENERACY_TOL`` of the level's running
    weighted mean, not of its nearest neighbour."""

    def test_equal_gaps_split_at_the_running_mean(self):
        spec = spectral.cluster_eigenvalues([0.0, 0.9e-8, 1.8e-8])
        assert spec.eigenvalues == ((0.45e-8, 2), (1.8e-8, 1))

    def test_one_level_may_span_more_than_the_tolerance(self):
        spec = spectral.cluster_eigenvalues([0.0, 0.9e-8, 1.35e-8])
        assert [m for (_v, m) in spec.eigenvalues] == [3]
        assert spec.eigenvalues[0][0] == pytest.approx(0.75e-8, rel=1e-15)


def continuant(weights, lam, n):
    """det(T_n - lam) of the size-n prefix of a zero-diagonal path, by the
    three-term recurrence gamma_i = -lam*gamma_{i-1} - w_{i-1}^2*gamma_{i-2},
    gamma_0 = 1, gamma_{-1} = 0."""
    prev, cur = 0.0, 1.0
    for i in range(1, n + 1):
        w2 = weights[i - 2] ** 2 if i >= 2 else 0.0
        prev, cur = cur, -lam * cur - w2 * prev
    return cur


class TestContinuant:
    """The characteristic polynomial of each prefix, by the recurrence, at
    the eigenvalues from ``prefix_eigenvalues``."""

    def test_seeds(self):
        assert continuant((1.0, 2.0), 0.37, 0) == 1.0
        assert continuant((1.0, 2.0), 0.37, 1) == pytest.approx(-0.37)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_tridiagonal_characteristic_polynomial(self, n):
        # the doubled-weight ladder (a_1, a_1, a_2, a_2) of (2, 3)
        weights = [math.sqrt(x) for x in (2, 3) for _ in range(2)]
        eigs = spectral.prefix_eigenvalues([weights], [(0, n)])
        for lam in (0.3, -1.7, 2.4):
            det = np.linalg.det(path_matrix(weights)[:n, :n] - lam * np.eye(n))
            assert continuant(weights, lam, n) == pytest.approx(det, rel=1e-10)
            assert np.prod(eigs - lam) == pytest.approx(det, rel=1e-10)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 6), (5, 4)])
    def test_binomial_form(self, p, n):
        weights = (math.sqrt(p),) * (n - 1)
        eigs = path_eigenvalues(weights)
        for lam in (0.21, 1.3, -2.2):
            binom = sum(
                math.comb(n - l, l) * (-p) ** l * lam ** (n - 2 * l)
                for l in range(n // 2 + 1)) * (-1) ** n
            assert continuant(weights, lam, n) == pytest.approx(binom, rel=1e-10)
            assert np.prod(eigs - lam) == pytest.approx(binom, rel=1e-10)


class TestPnaryClosedForm:
    def test_values(self):
        assert pnary_closed_form(2, 1) == pytest.approx([0.0])
        assert pnary_closed_form(2, 2) == pytest.approx([-math.sqrt(2), math.sqrt(2)])
        assert pnary_closed_form(3, 3) == pytest.approx([-math.sqrt(6), 0.0, math.sqrt(6)])

    def test_matches_tridiagonal(self):
        for p in range(2, 7):
            for n in (1, 2, 7, 31, 64):
                got = path_eigenvalues((math.sqrt(p),) * (n - 1))
                assert np.max(np.abs(pnary_closed_form(p, n) - got)) < 1e-12


class TestAssembledSpectra:
    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_fluxless_shrub(self, p):
        spec = spectral.spectrum_fluxless((p,))
        top = math.sqrt(2 * p)
        assert [v for (v, _m) in spec.eigenvalues] == pytest.approx([-top, 0.0, top])
        assert spec.multiplicity_at(0.0) == p

    @pytest.mark.parametrize("xs", [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
    def test_fluxless_matches_oracle(self, xs):
        thm = spectral.spectrum_fluxless(xs).expand()
        orc = spectral.ccam_spectrum(gauge.canonical_ccam(xs, 0.0)).expand()
        assert np.max(np.abs(thm - orc)) < 1e-8

    def test_flux_af_two(self):
        spec = spectral.spectrum_flux_af((2,))
        assert [m for (_v, m) in spec.eigenvalues] == [2, 2]
        assert [v for (v, _m) in spec.eigenvalues] == pytest.approx(
            [-math.sqrt(2), math.sqrt(2)])

    def test_flux_af_three_zero_multiplicity(self):
        # the dense matrix at 2*pi/3 pins the zero multiplicity at one
        spec = spectral.spectrum_flux_af((3,))
        orc = spectral.ccam_spectrum(gauge.canonical_ccam((3,), 2 * math.pi / 3))
        assert spec.multiplicity_at(0.0) == orc.multiplicity_at(0.0) == 1
        assert np.max(np.abs(spec.expand() - orc.expand())) < 1e-8

    @pytest.mark.parametrize("xs", [(2,), (4,), (2, 3), (3, 2), (2, 3, 2)])
    def test_flux_af_matches_oracle(self, xs):
        thm = spectral.spectrum_flux_af(xs).expand()
        orc = spectral.ccam_spectrum(
            gauge.canonical_ccam(xs, 2 * math.pi / xs[0])).expand()
        assert np.max(np.abs(thm - orc)) < 1e-8

    def test_counts_conserved(self):
        for xs in family(24):
            assert spectral.spectrum_fluxless(xs).dimension == graphs.tree_vertex_count(xs)
            assert spectral.spectrum_flux_af(xs).dimension == graphs.tree_vertex_count(xs)

    def test_deep_tree_multiplicities_stay_exact(self):
        # the shallowest blocks appear about 2**69 times, past int64
        xs = (2,) * 70
        for spec in (spectral.spectrum_fluxless(xs), spectral.spectrum_flux_af(xs)):
            assert spec.dimension == graphs.tree_vertex_count(xs)
            assert all(type(m) is int for (_v, m) in spec.eigenvalues)

    def test_bipartite_symmetry(self):
        for xs in [(2, 3), (3, 2), (2, 2, 2)]:
            for spec in (spectral.spectrum_fluxless(xs), spectral.spectrum_flux_af(xs)):
                vals = spec.expand()
                assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) < 1e-8

    def test_unit_entries_rejected(self):
        with pytest.raises(UnsupportedHypothesisError):
            spectral.spectrum_fluxless((1, 2))
        with pytest.raises(UnsupportedHypothesisError):
            spectral.spectrum_flux_af((1, 2))

    def test_zero_fraction_grows_toward_third(self):
        spec = spectral.spectrum_fluxless((2,) * 8)
        frac = spec.multiplicity_at(0.0) / spec.dimension
        assert abs(frac - 1 / 3) < 0.01


def fluxless_multiplicities_by_loops(xs):
    """The nested-loop table the closed form replaced: block d once, block
    i < d (x_{i+1} - 1) * prod_{j>i+1} x_j times."""
    d = len(xs)
    out = [(d, 1)]
    for i in range(d - 1, -1, -1):
        mult = xs[i] - 1
        for v in xs[i + 1:]:
            mult *= v
        out.append((i, mult))
    return out


def flux_af_multiplicities_by_loops(xs):
    """The running-product table the closed form replaced, with Q_i =
    prod_{j=2..i} x_j: block d twice, block i-1 2 * (x_i - 1) * Q_d / Q_i
    times, and the zero block (x_1 - 2) * Q_d times when that is nonzero."""
    d = len(xs)
    q = [1] * (d + 1)
    for i in range(2, d + 1):
        q[i] = q[i - 1] * xs[i - 1]
    out = [(d, 2)]
    for i in range(2, d + 1):
        out.append((i - 1, 2 * (xs[i - 1] - 1) * (q[d] // q[i])))
    zero_mult = (xs[0] - 2) * q[d]
    if zero_mult:
        out.append((0, zero_mult))
    return out


class TestClosedFormMultiplicities:
    SEQUENCES = (family(64) + [(p,) * d for p in range(2, 7) for d in range(1, 16)]
                 + [(3,) * 50, (2, 1, 3), (1, 2)])

    def test_match_the_loops(self):
        for xs in self.SEQUENCES:
            for got, want in ((spectral.fluxless_multiplicities(xs),
                               fluxless_multiplicities_by_loops(xs)),
                              (spectral.flux_af_multiplicities(xs),
                               flux_af_multiplicities_by_loops(xs))):
                assert got == want, xs
                assert all(type(m) is int for (_i, m) in got), xs


class TestAssemblyRefusals:
    """``_assemble`` refuses before any eigensolve: an entry below 2, level
    sums that overflow a float, and solves past one dense solve at the limit."""

    @pytest.fixture(autouse=True)
    def no_eigensolve(self, monkeypatch):
        monkeypatch.delenv(gauge.DENSE_LIMIT_ENV, raising=False)

        def refuse(*_args, **_kwargs):
            raise AssertionError("eigensolve before a refusal")

        # The assemblies solve through _solve_prefixes, as prefix_eigenvalues does.
        monkeypatch.setattr(spectral, "_solve_prefixes", refuse)

    @pytest.mark.parametrize("assemble", [spectral.spectrum_fluxless, spectral.spectrum_flux_af])
    def test_deep_binary_tree_refused_at_once(self, assemble):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 4096"):
            assemble((2,) * 1000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("xs", [(2,) * 1100, (6,) * 400])
    @pytest.mark.parametrize("assemble", [spectral.spectrum_fluxless, spectral.spectrum_flux_af])
    def test_sums_past_the_float_range_refused(self, assemble, xs):
        with pytest.raises(ResourceLimitError, match="eigenvalue sums overflow a float"):
            assemble(xs)

    @pytest.mark.parametrize("assemble", [spectral.spectrum_fluxless, spectral.spectrum_flux_af])
    def test_unit_entry_refused_first(self, assemble):
        with pytest.raises(UnsupportedHypothesisError, match="every growth entry >= 2"):
            assemble((2,) * 1100 + (1, 2))


class TestCheckedOnce:
    """A theorem spectrum checks its sequence once and reads the dense limit
    once; the public helpers still check their own input."""

    @pytest.mark.parametrize("assemble", [spectral.spectrum_fluxless, spectral.spectrum_flux_af])
    def test_one_check_and_one_limit_read(self, assemble, monkeypatch):
        checks, reads = [], []
        check, limit = graphs.check_growth_sequence, gauge.dense_limit

        def counted_check(*args, **kwargs):
            checks.append(args)
            return check(*args, **kwargs)

        def counted_limit():
            reads.append(None)
            return limit()

        monkeypatch.setattr(graphs, "check_growth_sequence", counted_check)
        monkeypatch.setattr(gauge, "dense_limit", counted_limit)
        assert assemble([2, 3, 2]).dimension == 30
        assert (len(checks), len(reads)) == (1, 1)

    @pytest.mark.parametrize("helper", [spectral.fluxless_multiplicities,
                                        spectral.flux_af_multiplicities,
                                        graphs.tree_vertex_count])
    @pytest.mark.parametrize("xs", [(), (2, 0)])
    def test_public_helpers_check(self, helper, xs):
        with pytest.raises(InvalidParameterError, match="growth"):
            helper(xs)

    @pytest.mark.parametrize("helper", [spectral.fluxless_multiplicities,
                                        spectral.flux_af_multiplicities])
    def test_multiplicities_refuse_a_trailing_one(self, helper):
        with pytest.raises(InvalidParameterError, match="last growth entry"):
            helper((2, 1))


@pytest.mark.parametrize("xs", [(3,) * 50, (2,) * 300])
def test_deep_trees_within_the_limits_answer(xs):
    for assemble in (spectral.spectrum_fluxless, spectral.spectrum_flux_af):
        assert assemble(xs).dimension == graphs.tree_vertex_count(xs)


def fluxless_block(xs, i):
    """Weights of fluxless block i: (a_i, ..., a_1, a_1, ..., a_i), size 2i + 1."""
    half = [math.sqrt(v) for v in xs[:i][::-1]]
    return half + half[::-1]


def flux_af_block(xs, i):
    """Weights of block i at flux 2*pi/x_1: (a_1, ..., a_i), size i + 1."""
    return [math.sqrt(v) for v in xs[:i]]


def per_block_spectrum(xs, blocks, block):
    """Reference assembly: each whole block solved on its own by ``eigvalsh``."""
    values, counts = [], []
    for (i, mult) in blocks(xs):
        for v in np.linalg.eigvalsh(path_matrix(block(xs, i))):
            values.append(float(v))
            counts.append(mult)
    return spectral.cluster_eigenvalues(values, counts)


class TestPrefixAssemblyMatchesBlocks:
    """The prefix-path assembly against one solve per whole block."""

    SEQUENCES = family(64) + [(p,) * d for p in range(2, 7) for d in (9, 11, 13, 15)]

    @pytest.mark.parametrize("at_af", [False, True], ids=["fluxless", "flux_af"])
    def test_same_levels_and_multiplicities(self, at_af):
        if at_af:
            assemble = spectral.spectrum_flux_af
            blocks, block = spectral.flux_af_multiplicities, flux_af_block
        else:
            assemble = spectral.spectrum_fluxless
            blocks, block = spectral.fluxless_multiplicities, fluxless_block
        for xs in self.SEQUENCES:
            got = assemble(xs).eigenvalues
            want = per_block_spectrum(xs, blocks, block).eigenvalues
            assert [m for (_v, m) in got] == [m for (_v, m) in want], xs
            assert max(abs(u - v) for ((u, _a), (v, _b)) in zip(got, want)) < 1e-13, xs


@dataclass(frozen=True)
class ShellReduction:
    weights: tuple[float, ...]
    shell_sizes: tuple[int, ...]
    closure_residual: float


def distance_shell_reduction(xs, phi=0.0):
    """Collapse the fluxless tree onto uniform-amplitude distance shells, the
    column-subspace reduction of Childs et al. (STOC 2003).

    Shell i holds the vertices at distance i from the first root; the
    adjacency acts as the (2d+1)-row path with weights (sqrt(x_d), ...,
    sqrt(x_1), sqrt(x_1), ..., sqrt(x_d)) going outward (the first root fans
    into x_d subtrees).  Only the zero-flux matrix closes on these shells;
    interference breaks the permutation symmetry otherwise.
    """
    if phi != 0.0:
        raise UnsupportedHypothesisError("shell reduction applies at zero flux only")
    d = len(xs)
    m = gauge.canonical_ccam(xs, 0.0)
    dist = m.graph.distances(m.first_vertex)
    sizes = np.bincount(dist, minlength=2 * d + 1)
    weights = fluxless_block(xs, d)
    # closure check: A on the normalized shell vectors, one column each
    shells = (dist[:, None] == np.arange(2 * d + 1)) / np.sqrt(sizes)
    resid = np.max(np.abs(m.apply(shells).real - shells @ path_matrix(weights)))
    return ShellReduction(weights=tuple(weights), shell_sizes=tuple(sizes.tolist()),
                          closure_residual=float(resid))


class TestShellReduction:
    def test_rhombus(self):
        sr = distance_shell_reduction((2,))
        assert sr.shell_sizes == (1, 2, 1)
        assert sr.weights == pytest.approx((math.sqrt(2), math.sqrt(2)))
        assert sr.closure_residual < 1e-12

    def test_two_two(self):
        sr = distance_shell_reduction((2, 2))
        assert sr.weights == pytest.approx((math.sqrt(2),) * 4)
        shell_vals = path_eigenvalues(sr.weights)
        full = spectral.spectrum_fluxless((2, 2)).expand()
        for v in shell_vals:
            assert np.min(np.abs(full - v)) < 1e-9

    def test_mixed_ordering_is_outermost_last_entry(self):
        # (2, 3): the first root fans into 3 subtrees, so the outer weight is sqrt(3)
        sr = distance_shell_reduction((2, 3))
        assert sr.shell_sizes == (1, 3, 6, 3, 1)
        assert sr.weights == pytest.approx(
            (math.sqrt(3), math.sqrt(2), math.sqrt(2), math.sqrt(3)))
        assert sr.closure_residual < 1e-12
        shell_vals = path_eigenvalues(sr.weights)
        full = spectral.ccam_spectrum(gauge.canonical_ccam((2, 3), 0.0)).expand()
        for v in shell_vals:
            assert np.min(np.abs(full - v)) < 1e-9

    def test_normalization_matches_shell_sizes(self):
        sr = distance_shell_reduction((2, 3))
        assert sr.shell_sizes[2] == 6  # 1/sqrt(6) amplitude on the middle shell

    def test_flux_unsupported(self):
        with pytest.raises(UnsupportedHypothesisError):
            distance_shell_reduction((2,), phi=0.5)


class TestOracleAgreementSweep:
    """Both assembled spectra against the dense oracle over a product-bounded family."""

    def test_product_up_to_thirty_two(self):
        for xs in family(32):
            orc0 = spectral.ccam_spectrum(gauge.canonical_ccam(xs, 0.0)).expand()
            thm0 = spectral.spectrum_fluxless(xs).expand()
            assert np.max(np.abs(orc0 - thm0)) < 1e-8, xs
            orca = spectral.ccam_spectrum(
                gauge.canonical_ccam(xs, 2 * math.pi / xs[0])).expand()
            thma = spectral.spectrum_flux_af(xs).expand()
            assert np.max(np.abs(orca - thma)) < 1e-8, xs
