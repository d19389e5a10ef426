import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caged import bloch, gauge, graphs, spectral
from caged.errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError


def family(limit):
    out = []
    for m in range(2, limit + 1):
        out.extend(graphs.ordered_factorizations(m)[1])
    return out


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
    def test_tiny(self):
        assert spectral.tridiagonal_eigenvalues(
            spectral.Tridiag((0.0,), ())) == pytest.approx([0.0])
        assert spectral.tridiagonal_eigenvalues(
            spectral.Tridiag((0.0, 0.0), (math.sqrt(2),))) == pytest.approx(
            [-math.sqrt(2), math.sqrt(2)])

    def test_negative_zero_diagonal(self):
        # a -0.0 pivot once read as non-negative but divided as negative
        for diag in [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0, -0.0)]:
            t = spectral.Tridiag(diag, (1.0,) * (len(diag) - 1))
            got = spectral.tridiagonal_eigenvalues(t)
            assert np.max(np.abs(got - np.linalg.eigvalsh(t.dense()))) < 1e-12

    @pytest.mark.parametrize("n", [3, 8, 33, 64])
    def test_uniform_closed_form(self, n):
        p = 3
        t = spectral.Tridiag((0.0,) * n, (math.sqrt(p),) * (n - 1))
        got = spectral.tridiagonal_eigenvalues(t)
        want = 2 * math.sqrt(p) * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        assert np.max(np.abs(got - np.sort(want))) < 1e-12

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=24),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack(self, diag, rnd):
        off = [rnd.uniform(-2, 2) for _ in range(len(diag) - 1)]
        t = spectral.Tridiag(tuple(diag), tuple(off))
        got = spectral.tridiagonal_eigenvalues(t)
        want = np.linalg.eigvalsh(t.dense())
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_cauchy_interlacing(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            t = spectral.Tridiag(tuple(rng.normal(size=n)), tuple(rng.normal(size=n - 1)))
            full = spectral.tridiagonal_eigenvalues(t)
            minor = spectral.tridiagonal_eigenvalues(
                spectral.Tridiag(t.diagonal[:-1], t.offdiagonal[:-1]))
            for i in range(n - 1):
                assert full[i] <= minor[i] + 1e-10
                assert minor[i] <= full[i + 1] + 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            spectral.Tridiag((bad, 0.0), (1.0,))
        with pytest.raises(InvalidParameterError):
            spectral.Tridiag((0.0, 0.0), (bad,))

    def test_huge_entries_do_not_overflow(self):
        got = spectral.tridiagonal_eigenvalues(spectral.Tridiag((1e300, -1e300), (1e300,)))
        want = math.sqrt(2) * 1e300
        assert got == pytest.approx([-want, want], rel=1e-14)

    def test_tiny_entries_keep_their_scale(self):
        got = spectral.tridiagonal_eigenvalues(spectral.Tridiag((0.0, 0.0), (1e-300,)))
        assert got == pytest.approx([-1e-300, 1e-300], rel=1e-14)


class TestPrefixEigenvalues:
    """Every leading principal submatrix of several paths in one call."""

    def test_every_prefix_matches_lapack(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            paths = []
            for n in rng.integers(1, 18, size=3):
                diag = rng.normal(size=n)
                diag[diag == 0.0] = 1.0
                paths.append(spectral.Tridiag(tuple(diag), tuple(rng.normal(size=n - 1))))
            prefixes = [(p, s) for p, t in enumerate(paths)
                        for s in range(len(t.diagonal) + 1)]
            prefixes = [prefixes[i] for i in rng.permutation(len(prefixes))]
            got = spectral.prefix_eigenvalues(paths, prefixes)
            at = 0
            for p, s in prefixes:
                want = np.linalg.eigvalsh(paths[p].dense()[:s, :s])
                assert np.max(np.abs(got[at:at + s] - want), initial=0.0) < 1e-12, (p, s)
                at += s
            assert at == got.size

    def test_repeated_and_empty_prefixes(self):
        t = spectral.Tridiag((0.5, -1.0, 2.0), (1.0, 0.25))
        got = spectral.prefix_eigenvalues([t], [(0, 2), (0, 0), (0, 2), (0, 1)])
        two = np.linalg.eigvalsh(t.dense()[:2, :2])
        assert got == pytest.approx(np.concatenate([two, two, [0.5]]), abs=1e-14)
        assert spectral.prefix_eigenvalues([t], []).size == 0

    @pytest.mark.parametrize("prefix", [(1, 1), (-1, 1), (0, 4), (0, -1)])
    def test_prefix_outside_paths_rejected(self, prefix):
        t = spectral.Tridiag((0.0, 0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            spectral.prefix_eigenvalues([t], [prefix])

    def test_prefix_above_dense_limit_refused(self, monkeypatch):
        monkeypatch.setenv(gauge.DENSE_LIMIT_ENV, "3")
        path = spectral.Tridiag((0.0,) * 4, (1.0,) * 3)
        with pytest.raises(ResourceLimitError, match="exceeds dense limit 3"):
            spectral.tridiagonal_eigenvalues(path)
        # only the listed prefixes count, not the length of the path
        got = spectral.prefix_eigenvalues([path], [(0, 3), (0, 2)])
        assert got == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2), -1.0, 1.0], abs=1e-14)


class TestContinuant:
    def test_seeds(self):
        assert spectral.continuant_eval((2, 3), 0.37, 0) == 1.0
        assert spectral.continuant_eval((2, 3), 0.37, 1) == pytest.approx(-0.37)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_tridiagonal_characteristic_polynomial(self, n):
        # gamma_n is det(T_n - lam) for the doubled-weight tridiagonal ladder
        xs = (2, 3)
        weights = [math.sqrt(xs[(k + 1) // 2 - 1]) for k in range(1, n)]
        t = spectral.Tridiag((0.0,) * n, tuple(weights))
        for lam in (0.3, -1.7, 2.4):
            det = np.linalg.det(t.dense() - lam * np.eye(n))
            assert spectral.continuant_eval(xs, lam, n) == pytest.approx(det, rel=1e-10)

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 6), (5, 4)])
    def test_binomial_form(self, p, n):
        for lam in (0.21, 1.3, -2.2):
            direct = spectral.continuant_eval((p,) * ((n + 1) // 2 + 1), lam, n)
            binom = sum(
                math.comb(n - l, l) * (-p) ** l * lam ** (n - 2 * l)
                for l in range(n // 2 + 1)) * (-1) ** n
            assert direct == pytest.approx(binom, rel=1e-10)


class TestPnaryClosedForm:
    def test_values(self):
        assert spectral.pnary_closed_form(2, 1) == pytest.approx([0.0])
        assert spectral.pnary_closed_form(2, 2) == pytest.approx(
            [-math.sqrt(2), math.sqrt(2)])
        assert spectral.pnary_closed_form(3, 3) == pytest.approx(
            [-math.sqrt(6), 0.0, math.sqrt(6)])

    def test_matches_tridiagonal(self):
        for p in range(2, 7):
            for n in (1, 2, 7, 31, 64):
                t = spectral.Tridiag((0.0,) * n, (math.sqrt(p),) * (n - 1))
                assert np.max(np.abs(spectral.pnary_closed_form(p, n) -
                                     spectral.tridiagonal_eigenvalues(t))) < 1e-12


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


def per_block_spectrum(xs, blocks, block):
    """Reference assembly: each block solved on its own by ``tridiagonal_eigenvalues``."""
    values, counts = [], []
    for (i, mult) in blocks(xs):
        for v in spectral.tridiagonal_eigenvalues(block(xs, i)):
            values.append(float(v))
            counts.append(mult)
    return spectral.cluster_eigenvalues(values, counts)


class TestPrefixAssemblyMatchesBlocks:
    """The prefix-path assembly against one solve per tridiagonal block."""

    SEQUENCES = family(64) + [(p,) * d for p in range(2, 7) for d in (9, 11, 13, 15)]

    @pytest.mark.parametrize("at_af", [False, True], ids=["fluxless", "flux_af"])
    def test_same_levels_and_multiplicities(self, at_af):
        if at_af:
            assemble = spectral.spectrum_flux_af
            blocks, block = spectral.flux_af_multiplicities, spectral.flux_af_block
        else:
            assemble = spectral.spectrum_fluxless
            blocks, block = spectral.fluxless_multiplicities, spectral.fluxless_block
        for xs in self.SEQUENCES:
            got = assemble(xs).eigenvalues
            want = per_block_spectrum(xs, blocks, block).eigenvalues
            assert [m for (_v, m) in got] == [m for (_v, m) in want], xs
            assert max(abs(u - v) for ((u, _a), (v, _b)) in zip(got, want)) < 1e-13, xs


class TestShellReduction:
    def test_rhombus(self):
        sr = spectral.distance_shell_reduction((2,))
        assert sr.shell_sizes == (1, 2, 1)
        assert sr.tridiag.offdiagonal == pytest.approx((math.sqrt(2), math.sqrt(2)))
        assert sr.closure_residual < 1e-12

    def test_two_two(self):
        sr = spectral.distance_shell_reduction((2, 2))
        assert sr.tridiag.offdiagonal == pytest.approx((math.sqrt(2),) * 4)
        shell_vals = spectral.tridiagonal_eigenvalues(sr.tridiag)
        full = spectral.spectrum_fluxless((2, 2)).expand()
        for v in shell_vals:
            assert np.min(np.abs(full - v)) < 1e-9

    def test_mixed_ordering_is_outermost_last_entry(self):
        # (2, 3): the first root fans into 3 subtrees, so the outer weight is sqrt(3)
        sr = spectral.distance_shell_reduction((2, 3))
        assert sr.shell_sizes == (1, 3, 6, 3, 1)
        assert sr.tridiag.offdiagonal == pytest.approx(
            (math.sqrt(3), math.sqrt(2), math.sqrt(2), math.sqrt(3)))
        assert sr.closure_residual < 1e-12
        shell_vals = spectral.tridiagonal_eigenvalues(sr.tridiag)
        full = spectral.ccam_spectrum(gauge.canonical_ccam((2, 3), 0.0)).expand()
        for v in shell_vals:
            assert np.min(np.abs(full - v)) < 1e-9

    def test_normalization_matches_shell_sizes(self):
        sr = spectral.distance_shell_reduction((2, 3))
        import math as _m
        assert sr.shell_sizes[2] == 6  # 1/sqrt(6) amplitude on the middle shell

    def test_flux_unsupported(self):
        with pytest.raises(UnsupportedHypothesisError):
            spectral.distance_shell_reduction((2,), phi=0.5)


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
