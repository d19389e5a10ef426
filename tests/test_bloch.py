import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caged import bloch, cli, gauge, graphs
from caged.errors import InvalidParameterError, ResourceLimitError
from test_gauge import branch_angle

TWO_PI = 2.0 * math.pi


def reference_chain_matrix(xs, k, phi):
    """The per-k chain builder that the folded edge arrays replace: the
    first root, then x_d blocks holding the depth d - 1 tree in its own
    breadth-first order."""
    d, xd = len(xs), xs[-1]
    if d == 1:
        y_sub, f_idx, l_idx, sub_dim = np.zeros((1, 1), dtype=complex), 0, 0, 1
    else:
        sub = gauge.canonical_ccam(xs[:-1], phi, _allow_trailing_one=True)
        y_sub, f_idx, l_idx = gauge.dense_matrix(sub), sub.first_vertex, sub.last_vertex
        sub_dim = sub.dimension
    dim = 1 + xd * sub_dim
    out = np.zeros((dim, dim), dtype=complex)
    wrap = cmath.exp(1j * (k - 0.5 * phi))
    for j in range(xd):
        base = 1 + j * sub_dim
        out[base:base + sub_dim, base:base + sub_dim] = y_sub
        w = cmath.exp(1j * branch_angle(xs, d, j + 1, phi))
        out[0, base + f_idx] += w
        out[0, base + l_idx] += wrap * w.conjugate()
    out[1:, 0] = np.conj(out[0, 1:])
    return out


def reference_block_order(xs):
    """Breadth-first id of the tree vertex at each row of the reference
    chain matrix."""
    full = graphs.growth(xs).perm.tolist()
    sub = graphs.growth(xs[:-1]).perm.tolist() if len(xs) > 1 else [0]
    n = len(sub)
    order = [0] * (1 + xs[-1] * n)
    for j in range(xs[-1]):
        for t in range(n):
            order[1 + j * n + sub[t]] = full[1 + j * n + t]
    return order


def reference_44_matrix(kx, ky, phi):
    """The element-by-element {4,4} builder that the edge table replaces."""
    w = cmath.exp(0.5j * phi)
    wc = w.conjugate()
    ex, ey = cmath.exp(1j * kx), cmath.exp(1j * ky)
    exy = ex * ey
    out = np.zeros((6, 6), dtype=complex)
    out[0, 1] = 1.0 / ex + w
    out[0, 3] = 1.0 / exy + wc / ex
    out[0, 4] = 1.0 + wc / ey
    out[0, 5] = 1.0 / ey + w / exy
    out[1, 2] = w
    out[2, 3] = 1.0
    out[2, 4] = 1.0
    out[2, 5] = wc
    for i in range(6):
        for j in range(i + 1, 6):
            out[j, i] = out[i, j].conjugate()
    return out


def reference_charpoly(x, phi, lam_samples, k_count=8):
    """The per-k determinant loop of ``charpoly_k_independence``."""
    model = bloch.chain_bloch(x, phi)
    ks = [TWO_PI * i / k_count for i in range(k_count)]
    worst = 0.0
    eye = np.eye(model.bands)
    for lam in lam_samples:
        dets = [complex(np.linalg.det(reference_chain_matrix(x, k, phi) - lam * eye))
                for k in ks]
        for i in range(len(dets)):
            for j in range(i + 1, len(dets)):
                worst = max(worst, abs(dets[i] - dets[j]))
    return worst


CHAINS = [(2,), (3,), (2, 2), (2, 3, 2), (3, 2)]
FLUXES = [0.0, 0.3, math.pi / 6, math.pi, TWO_PI, -1.0]


class TestRhombicBands:
    def test_flat_at_pi(self):
        for k in (0.0, 0.6, 2.9):
            assert bloch.rhombic_bands(math.pi, k) == pytest.approx((-2.0, 0.0, 2.0))

    def test_zero_flux_extremes(self):
        assert bloch.rhombic_bands(0.0, 0.0) == pytest.approx(
            (-2 * math.sqrt(2), 0.0, 2 * math.sqrt(2)))
        assert bloch.rhombic_bands(0.0, math.pi) == pytest.approx((0.0, 0.0, 0.0))


class TestChainBloch:
    def test_band_count_rhombus(self):
        assert bloch.chain_bloch((2,), 0.0).bands == 3

    def test_band_count_232_is_tree_minus_root(self):
        model = bloch.chain_bloch((2, 3, 2), 0.0)
        assert model.bands == graphs.tree_vertex_count((2, 3, 2)) - 1 == 29

    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi, 1.0])
    def test_matches_closed_form_pointwise(self, phi):
        model = bloch.chain_bloch((2,), phi)
        for i in range(101):
            k = TWO_PI * i / 101
            got = np.linalg.eigvalsh(model.matrix(k, phi))
            assert got == pytest.approx(np.array(bloch.rhombic_bands(phi, k)), abs=1e-10)

    @given(st.floats(0, TWO_PI), st.floats(-6.0, 6.0))
    @settings(max_examples=32, deadline=None)
    def test_hermitian_and_periodic(self, k, phi):
        model = bloch.chain_bloch((2, 3), phi)
        h = model.matrix(k, phi)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(model.matrix(k + TWO_PI, phi) - h)) < 1e-12

    def test_eigenvalues_are_charpoly_roots(self):
        model = bloch.chain_bloch((2, 2), 0.9)
        k = 1.3
        h = model.matrix(k, 0.9)
        vals = np.linalg.eigvalsh(h)
        scale = np.linalg.norm(h, 2) ** model.bands
        for v in vals:
            assert abs(np.linalg.det(h - v * np.eye(model.bands))) < 1e-6 * scale


class TestAgainstReferenceBuilders:
    @pytest.mark.parametrize("xs", CHAINS)
    @pytest.mark.parametrize("phi", FLUXES)
    def test_chain_matrix(self, xs, phi):
        model = bloch.chain_bloch(xs, phi)
        order = reference_block_order(xs)
        for k in (0.0, 0.4, 2.5, 5.9, 0.4 + TWO_PI):
            got = model.matrix(k, phi)[np.ix_(order, order)]
            assert np.max(np.abs(got - reference_chain_matrix(xs, k, phi))) < 1e-13

    @pytest.mark.parametrize("xs", CHAINS)
    @pytest.mark.parametrize("phi", FLUXES)
    def test_chain_band_sweep(self, xs, phi):
        sweep = bloch.band_sweep(bloch.chain_bloch(xs, phi), phi, 7)
        want = np.array([np.linalg.eigvalsh(reference_chain_matrix(xs, k, phi))
                         for (k,) in sweep.momenta])
        assert np.max(np.abs(sweep.energies - want)) < 1e-13

    @pytest.mark.parametrize("phi", [0.7, math.pi])
    def test_star_lattice(self, phi):
        model = bloch.second_kind_44_bloch(phi)
        sweep = bloch.band_sweep(model, phi, 5)
        assert len(sweep.momenta) == 25
        for (kx, ky), energies in zip(sweep.momenta, sweep.energies):
            want = reference_44_matrix(kx, ky, phi)
            assert np.max(np.abs(model.matrix((kx, ky), phi) - want)) < 1e-13
            assert np.max(np.abs(energies - np.linalg.eigvalsh(want))) < 1e-13

    @pytest.mark.parametrize("xs, phi", [((2,), math.pi), ((2,), 1.0), ((2, 2), math.pi / 2),
                                         ((2, 3), TWO_PI / 6), ((2, 3), 0.3)])
    def test_charpoly(self, xs, phi):
        lams = [0.5, 1.5, 3.0]
        got, want = bloch.charpoly_k_independence(xs, phi, lams), reference_charpoly(xs, phi, lams)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-8)


class TestBlochModelArrays:
    def test_repeated_pairs_accumulate(self):
        model = bloch.BlochModel(bands=2, rows=np.array([0, 1]), cols=np.array([1, 0]),
                                 flux_factors=np.array([0.0, 0.5]),
                                 windings=np.array([[0], [-1]]))
        h = model.matrix(0.3, 1.0)
        assert h[0, 1] == pytest.approx(1.0 + cmath.exp(-1j * (0.5 - 0.3)))
        assert h[1, 0] == pytest.approx(h[0, 1].conjugate())
        assert h[0, 0] == h[1, 1] == 0.0

    def test_wrong_momentum_length_refused(self):
        with pytest.raises(InvalidParameterError):
            bloch.second_kind_44_bloch(0.7).matrix(0.5, 0.7)
        with pytest.raises(InvalidParameterError):
            bloch.chain_bloch((2,), 0.7).matrix((0.1, 0.2), 0.7)

    def test_stack_matches_single_momenta(self):
        model = bloch.chain_bloch((2, 3), 0.9)
        ks = np.array([[0.0], [1.1], [4.0]])
        stack = model.stack(ks, 0.9)
        for k, h in zip(ks, stack):
            assert np.array_equal(model.matrix(k, 0.9), h)

    @pytest.mark.parametrize("grid", [1, 0])
    def test_grid_needs_two_points(self, grid):
        with pytest.raises(InvalidParameterError, match="at least 2 points"):
            bloch.momentum_grid(1, grid)

    @pytest.mark.parametrize("dimensionality", [0, -1])
    def test_grid_needs_a_direction(self, dimensionality):
        with pytest.raises(InvalidParameterError, match="at least one direction"):
            bloch.momentum_grid(dimensionality, 4)

    def test_grid_direction_count_is_an_integer(self):
        with pytest.raises(InvalidParameterError, match="dimensionality must be an integer"):
            bloch.momentum_grid(1.0, 4)
        assert bloch.momentum_grid(np.int64(1), 4).shape == (4, 1)

    def test_grid_orders_first_direction_outermost(self):
        grid = bloch.momentum_grid(2, 3)
        line = [TWO_PI * i / 3 for i in range(3)]
        assert grid.tolist() == [[kx, ky] for kx in line for ky in line]


def fresh_chain_model(xs):
    """The chain cell built anew, as every call built it before cells were
    shared."""
    tree = gauge.canonical_ccam(xs, 1.0)
    wrap = tree.cols == tree.last_vertex
    return bloch.BlochModel(bands=tree.dimension - 1, rows=tree.rows,
                            cols=np.where(wrap, tree.first_vertex, tree.cols),
                            flux_factors=np.where(wrap, tree.phases + 0.5, tree.phases),
                            windings=-wrap.astype(np.int64)[:, None])


def shared_arrays(model):
    a, b = model.sublattices
    square, (static, coupled) = model._square, model._blocks
    return [model.rows, model.cols, model.flux_factors, model.windings, a, b,
            *square[:3], *static[:3], *coupled[:3]]


class TestTemplate:
    """Each periodic builder keeps one read-only, flux-free cell per sequence
    and returns that cell itself; every solve takes its flux."""

    @pytest.fixture
    def cold(self):
        bloch._chain_template.cache_clear()
        yield
        bloch._chain_template.cache_clear()

    def test_every_chain_to_product_64_matches_a_fresh_model(self):
        for m in range(2, 65):
            for xs in graphs.ordered_factorizations(m)[1]:
                want = fresh_chain_model(xs)
                for phi in (0.0, 0.7, TWO_PI / m, math.pi / m):
                    got = bloch.chain_bloch(xs, phi)
                    a, b = bloch.band_sweep(got, phi, 3), bloch.band_sweep(want, phi, 3)
                    assert a.energies.tobytes() == b.energies.tobytes()
                    assert a.total_bandwidth == b.total_bandwidth
                    assert got.stack(a.momenta[:2], phi).tobytes() == want.stack(a.momenta[:2],
                                                                                 phi).tobytes()

    def test_star_lattice_matches_a_fresh_model(self):
        t = bloch._STAR_44_EDGES
        want = bloch.BlochModel(6, t[:, 0].astype(np.int64), t[:, 1].astype(np.int64),
                                t[:, 2], t[:, 3:].astype(np.int64))
        for phi in (0.0, 0.7, math.pi):
            got = bloch.second_kind_44_bloch(phi)
            a, b = bloch.band_sweep(got, phi, 6), bloch.band_sweep(want, phi, 6)
            assert a.energies.tobytes() == b.energies.tobytes()
            assert got.stack(a.momenta, phi).tobytes() == want.stack(a.momenta, phi).tobytes()

    def test_builders_return_their_cached_cell(self):
        assert bloch.chain_bloch((2, 3, 2), 0.3) is bloch.chain_bloch([2, 3, 2], 0.7)
        assert bloch.second_kind_44_bloch(0.3) is bloch.second_kind_44_bloch(math.pi)

    @pytest.mark.parametrize("model", [
        bloch.chain_bloch((2, 3, 2), 0.3), bloch.second_kind_44_bloch(0.3),
        bloch.BlochModel(2, [0, 1], [1, 0], [0.0, 0.5], [[0], [-1]])],
        ids=["chain", "star", "built"])
    def test_every_shared_array_refuses_writes(self, model):
        arrays = shared_arrays(model)
        assert len(arrays) == 15
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_inputs_are_copied_not_shared(self):
        rows, factors = np.array([0, 1]), np.array([0.0, 0.5])
        model = bloch.BlochModel(2, rows, np.array([1, 0]), factors, np.array([[0], [-1]]))
        before = model.matrix(0.3, 1.0)
        rows[:], factors[:] = 1, 9.0
        assert model.matrix(0.3, 1.0).tobytes() == before.tobytes()

    def test_warm_call_builds_nothing(self, monkeypatch):
        cold = bloch.chain_bloch((2, 3, 2), 0.0)

        def unexpected(*args, **kwargs):
            raise AssertionError("the cell was built again")

        for module, name in ((graphs, "two_colouring"), (graphs, "sublattice_slots"),
                             (gauge, "canonical_ccam"), (bloch, "BlochModel")):
            monkeypatch.setattr(module, name, unexpected)
        assert bloch.chain_bloch((2, 3, 2), 1.3) is cold

    def test_cache_holds_the_growth_cache_size(self, cold):
        info = bloch._chain_template.cache_info
        assert info().maxsize == graphs.GROWTH_CACHE_SIZE
        for k in range(2, graphs.GROWTH_CACHE_SIZE + 12):
            bloch.chain_bloch((k,), 0.0)
        assert info().currsize == graphs.GROWTH_CACHE_SIZE
        assert info().misses == graphs.GROWTH_CACHE_SIZE + 10

    @pytest.mark.parametrize("xs", [(), (0,), (2, 1), (2, -3)])
    def test_invalid_sequence_refused_before_caching(self, cold, xs):
        with pytest.raises(InvalidParameterError, match="growth"):
            bloch.chain_bloch(xs, 0.0)
        assert bloch._chain_template.cache_info().currsize == 0


BAD_FLUXES = [math.nan, math.inf, -math.inf, 1e300, gauge.ANGLE_LIMIT, -gauge.ANGLE_LIMIT]


class TestFluxRefusals:
    """Every flux a model reads must be finite and below ``gauge.ANGLE_LIMIT``."""

    @pytest.mark.parametrize("phi", BAD_FLUXES)
    def test_band_sweep(self, phi):
        with pytest.raises(InvalidParameterError, match="flux"):
            bloch.band_sweep(bloch.chain_bloch((2,), 0.3), phi, 4)

    @pytest.mark.parametrize("phi", BAD_FLUXES)
    def test_builders(self, phi):
        with pytest.raises(InvalidParameterError, match="flux"):
            bloch.chain_bloch((2,), phi)
        with pytest.raises(InvalidParameterError, match="flux"):
            bloch.second_kind_44_bloch(phi)

    @pytest.mark.parametrize("phi", BAD_FLUXES)
    def test_model_methods(self, phi):
        model, ks = bloch.chain_bloch((2,), 0.3), np.zeros((2, 1))
        for read in (model.stack, model.singular_values):
            with pytest.raises(InvalidParameterError, match="flux"):
                read(ks, phi)
        with pytest.raises(InvalidParameterError, match="flux"):
            model.matrix(0.0, phi)

    @pytest.mark.parametrize("phi", BAD_FLUXES)
    def test_dos_map_before_the_first_sweep(self, monkeypatch, phi):
        def no_sweep(*args):
            raise AssertionError("band swept")

        monkeypatch.setattr(bloch.BlochModel, "singular_values", no_sweep)
        with pytest.raises(InvalidParameterError, match="flux"):
            bloch.dos_map(bloch.chain_bloch((2,), 0.0), [0.1, phi], 4, 3)

    def test_no_default_flux(self):
        """Every solve takes its flux: ``None`` is refused, and leaving the
        flux out is a call error."""
        model, ks = bloch.chain_bloch((2,), 0.3), np.zeros((2, 1))
        for solve in (lambda: model.stack(ks, None), lambda: model.singular_values(ks, None),
                      lambda: model.matrix(0.0, None), lambda: bloch.band_sweep(model, None, 4),
                      lambda: bloch.chain_bloch((2,), None),
                      lambda: bloch.second_kind_44_bloch(None)):
            with pytest.raises(InvalidParameterError, match="flux None is not a number"):
                solve()
        for solve in (model.stack, model.singular_values, model.matrix):
            with pytest.raises(TypeError):
                solve(ks)

    def test_largest_resolved_flux_answers(self):
        phi = float(np.nextafter(gauge.ANGLE_LIMIT, 0.0))
        assert bloch.band_sweep(bloch.chain_bloch((2,), phi), phi, 4).total_bandwidth > 0.0


class TestMalformedEdges:
    """``BlochModel`` refuses malformed edge arrays at construction."""

    @pytest.mark.parametrize("bands, rows, cols, factors, windings, message", [
        (2, [0], [2], [0.0], [[1]], "edge ends"),
        (2, [-1], [1], [0.0], [[1]], "edge ends"),
        (3, [0, 0], [1, 2], [0.5], [[1], [0]], "must be"),
        (2, [0], [1], [0.0], [1], "must be"),
        (2, [0], [1], [0.0], np.zeros((1, 0), dtype=np.int64), "must be"),
        (2, [0, 0], [1], [0.0, 0.0], [[0], [1]], "must be"),
        (2, [0], [1], [math.nan], [[1]], "finite"),
        (2, [0], [1], [math.inf], [[1]], "finite"),
        (2, [0.0], [1], [0.0], [[1]], "integers"),
        (2, [0], [1], [0.0], [[0.5]], "integers"),
        (0, [], [], [], np.zeros((0, 1), dtype=np.int64), "band count"),
        (2.0, [0], [1], [0.0], [[1]], "band count"),
    ], ids=["col-past-bands", "negative-row", "short-factors", "flat-windings",
            "no-direction", "short-cols", "nan-factor", "inf-factor", "float-rows",
            "float-windings", "no-bands", "float-bands"])
    def test_refused(self, bands, rows, cols, factors, windings, message):
        with pytest.raises(InvalidParameterError, match=message):
            bloch.BlochModel(bands, np.array(rows), np.array(cols), np.array(factors, dtype=float),
                             np.array(windings))


class TestSublattices:
    def cell(self, rows, cols):
        return bloch.BlochModel(bands=3, rows=np.array(rows), cols=np.array(cols),
                                flux_factors=np.zeros(len(rows)),
                                windings=np.zeros((len(rows), 1), dtype=np.int64))

    def test_self_loop_refused(self):
        with pytest.raises(InvalidParameterError):
            self.cell([0, 1], [1, 1])

    def test_triangle_refused(self):
        with pytest.raises(InvalidParameterError):
            self.cell([0, 0, 1], [1, 2, 2])

    def test_every_chain_to_product_64_splits(self):
        count = 0
        for m in range(2, 65):
            for xs in graphs.ordered_factorizations(m)[1]:
                model = bloch.chain_bloch(xs, 0.0)
                a, b = model.sublattices
                side = np.zeros(model.bands, dtype=int)
                side[b] = 1
                assert len(a) + len(b) == model.bands
                assert (side[model.rows] != side[model.cols]).all()
                count += 1
        assert count == 440
        assert [len(s) for s in bloch.chain_bloch((2,) * 6, 0.0).sublattices] == [105, 84]

    def test_star_lattice_splits(self):
        a, b = bloch.second_kind_44_bloch(0.7).sublattices
        assert a.tolist() == [0, 2] and b.tolist() == [1, 3, 4, 5]

    def test_hopping_blocks_are_the_off_diagonal_blocks(self):
        model = bloch.second_kind_44_bloch(0.7)
        ks = bloch.momentum_grid(2, 3)
        a, b = model.sublattices
        full = model.stack(ks, 0.7)
        assert not full[:, a][:, :, a].any() and not full[:, b][:, :, b].any()
        want = np.linalg.svd(full[:, a][:, :, b], compute_uv=False)
        assert np.abs(model.singular_values(ks, 0.7) - want).max() <= 1e-13


class TestChiralRoute:
    """``band_sweep`` reads the energies from singular values of the hopping
    block; the full-matrix ``eigvalsh`` is the reference."""

    @staticmethod
    def deviation(model, phi, grid):
        sweep = bloch.band_sweep(model, phi, grid)
        want = np.linalg.eigvalsh(model.stack(sweep.momenta, phi))
        return float(np.max(np.abs(sweep.energies - want)))

    def test_232_flat_values_and_midpoints(self):
        model = bloch.chain_bloch((2, 3, 2), 0.0)
        fv = gauge.flat_values((2, 3, 2))
        for phi in list(fv.values) + list(fv.midpoints()):
            assert self.deviation(model, phi, 101) < 1e-12

    @pytest.mark.parametrize("xs", [(6,), (2, 3)])
    @pytest.mark.parametrize("phi", [0.3, 2.0])
    def test_small_chains(self, xs, phi):
        assert self.deviation(bloch.chain_bloch(xs, phi), phi, 101) < 1e-12

    @pytest.mark.parametrize("phi", [0.7, math.pi / 2, math.pi])
    def test_star_lattice_grid(self, phi):
        assert self.deviation(bloch.second_kind_44_bloch(phi), phi, 24) < 1e-12

    def test_exact_zeros_and_mirror_symmetry(self):
        energies = bloch.band_sweep(bloch.chain_bloch((2, 3, 2), 0.7), 0.7, 101).energies
        assert ((energies == 0.0).sum(axis=1) == 3).all()
        assert ((energies + energies[:, ::-1]) == 0.0).all()
        assert (np.diff(energies, axis=1) >= 0).all()


def cell_model(a, b, edges, dims=1):
    """A model on A = 0..a-1 and B = a..a+b-1 from (row, col, phase per unit
    flux, windings...) tuples."""
    t = np.array(edges, dtype=float)
    return bloch.BlochModel(bands=a + b, rows=t[:, 0].astype(np.int64),
                            cols=t[:, 1].astype(np.int64), flux_factors=t[:, 2],
                            windings=t[:, 3:3 + dims].astype(np.int64))


class TestStaticSplit:
    """A sweep takes one SVD of the static rows of T(k) per flux and, per
    momentum, one SVD of the small block that couples their clusters to the
    winding rows; the SVD of the whole block T(k) is the oracle."""

    @staticmethod
    def deviation(model, phi, grid):
        pts = bloch.momentum_grid(model.dimensionality, grid)
        a, b = model.sublattices
        want = np.linalg.svd(model.stack(pts, phi)[:, a][:, :, b], compute_uv=False)
        return float(np.max(np.abs(model.singular_values(pts, phi) - want)))

    @staticmethod
    def coupled_shape(model):
        return model._blocks[1].shape

    def test_every_chain_to_product_64(self):
        worst = 0.0
        for m in range(2, 65):
            for xs in graphs.ordered_factorizations(m)[1]:
                model = bloch.chain_bloch(xs, 0.0)
                assert self.coupled_shape(model)[0] == 1
                for phi in (0.0, TWO_PI / m, 0.7):
                    worst = max(worst, self.deviation(model, phi, 7))
        assert worst <= 1e-13

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, math.pi])
    def test_star_lattice(self, phi):
        model = bloch.second_kind_44_bloch(phi)
        assert self.coupled_shape(model) == (1, 4)
        assert self.deviation(model, phi, 16) <= 1e-13

    def test_transposed_side(self):
        # Winding edges meet all six A rows but only B column 6.
        edges = ([(i, 6, 0.1 * i, 1) for i in range(6)] + [(i, 7, 0.0, 0) for i in range(6)]
                 + [(i, 8, 0.2, 0) for i in range(3)])
        model = cell_model(6, 3, edges)
        assert self.coupled_shape(model) == (1, 6)
        for phi in (0.0, 0.7):
            assert self.deviation(model, phi, 31) <= 1e-13

    def test_two_coupled_rows_with_degenerate_clusters(self):
        # Static rows 2 and 3 see every column alike, so the static values
        # are sqrt(12) and five zeros: a cluster wider than r = 2.
        edges = [(i, j, 0.0, 0) for i in (2, 3) for j in range(4, 10)] + [
            (0, 4, 0.3, 1), (0, 5, 0.1, 0), (1, 6, -0.2, -1), (1, 7, 0.5, 0),
            (0, 8, 0.0, 2), (1, 9, 0.25, 1)]
        model = cell_model(4, 6, edges)
        assert self.coupled_shape(model) == (2, 6)
        assert max(model._static_clusters(0.7)[1]) > 2
        for phi in (0.0, 0.7, 2.0):
            assert self.deviation(model, phi, 31) <= 1e-13

    def test_two_coupled_rows_in_two_directions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = (int(v) for v in rng.integers(3, 7, 2))
            edges = [(i, a + j, rng.normal(), 0, 0) for i in range(a) for j in range(b)
                     if rng.random() < 0.5]
            edges += [(i, a + int(rng.integers(b)), rng.normal(), *rng.integers(-1, 2, 2))
                      for i in (0, 1) for _ in range(2)]
            model = cell_model(a, b, edges, dims=2)
            assert self.deviation(model, 0.9, 7) <= 1e-13

    def test_no_static_rows(self):
        model = cell_model(2, 2, [(0, 2, 0.0, 1), (1, 2, 0.3, 0), (1, 3, 0.0, -1),
                                  (0, 3, 0.1, 0)])
        assert model._blocks[0].shape == (0, 2)
        assert self.deviation(model, 0.7, 31) <= 1e-13
        rhombus = bloch.chain_bloch((2,), 0.0)
        assert rhombus._blocks[0].shape == (0, 2)
        assert self.deviation(rhombus, 1.1, 101) <= 1e-13

    def test_decoupled_values_exact_at_232_flat_values(self):
        model = bloch.chain_bloch((2, 3, 2), 0.0)
        pts = bloch.momentum_grid(1, 101)
        r = self.coupled_shape(model)[0]
        for phi in gauge.flat_values((2, 3, 2)).values[:-1]:
            _, sizes, values, _ = model._static_clusters(phi)
            exact = np.repeat(values, sizes - np.minimum(sizes, r))
            assert (exact > 0).sum() >= 6
            sigma = model.singular_values(pts, phi)
            for value in np.unique(exact[exact > 0]):
                assert ((sigma == value).sum(axis=1) >= (exact == value).sum()).all()


class TestSweepLimit:
    def test_refused_before_the_grid_is_built(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("momentum grid built")

        monkeypatch.setattr(bloch, "SWEEP_BLOCK_LIMIT_BYTES", 4096)
        monkeypatch.setattr(bloch, "momentum_grid", no_grid)
        with pytest.raises(ResourceLimitError):
            bloch.band_sweep(bloch.second_kind_44_bloch(math.pi), math.pi, 64)

    def test_cli_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bloch, "SWEEP_BLOCK_LIMIT_BYTES", 4096)
        code = cli.main(["bands", "--model", "lotus44", "--phi", "pi", "--grid", "64"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "MiB" in captured.err

    def test_bounded_by_the_arrays_it_holds(self, capsys):
        # The (2000, 105, 84) block of T(k) would pass the limit; the sweep
        # holds one coupled row per momentum and small blocks.
        code = cli.main(["bands", "--x", "2,2,2,2,2,2", "--phi", "pi", "--grid", "2000"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = np.loadtxt(captured.out.splitlines()[1::97], delimiter=",")
        model = bloch.chain_bloch((2,) * 6, math.pi)
        a, b = model.sublattices
        sigma = np.linalg.svd(model.stack(rows[:, :1], math.pi)[:, a][:, :, b],
                              compute_uv=False)
        energies = np.hstack([-sigma, np.zeros((len(rows), 21)), sigma[:, ::-1]])
        assert np.abs(rows[:, 1:] - energies).max() <= 1e-13

    def test_energies_past_the_limit_refused(self, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("momentum grid built")

        # 2400^2 momenta of six bands hold 276 MB of energies alone.
        monkeypatch.setattr(bloch, "momentum_grid", no_grid)
        code = cli.main(["bands", "--model", "lotus44", "--phi", "pi", "--grid", "2400"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "256 MiB" in captured.err


class TestStarLatticeBloch:
    def test_hermitian_everywhere(self):
        model = bloch.second_kind_44_bloch(0.7)
        for kx, ky in [(0.0, 0.0), (1.1, 2.2), (4.4, 0.3)]:
            h = model.matrix((kx, ky), 0.7)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_bipartite_spectrum_at_zero_flux(self):
        sweep = bloch.band_sweep(bloch.second_kind_44_bloch(0.0), 0.0, 8)
        e = np.sort(sweep.energies, axis=1)
        assert np.max(np.abs(e + e[:, ::-1])) < 1e-10

    def test_flat_at_pi(self):
        sweep = bloch.band_sweep(bloch.second_kind_44_bloch(math.pi), math.pi, 16)
        assert sweep.total_bandwidth < 1e-10

    def test_dispersive_away_from_pi(self):
        # faces wind the full flux angle, so the quarter turn is not flat
        sweep = bloch.band_sweep(bloch.second_kind_44_bloch(math.pi / 2),
                                 math.pi / 2, 8)
        assert sweep.total_bandwidth > 0.1

    def test_row_structure_at_origin(self):
        h = bloch.second_kind_44_bloch(0.0).matrix((0.0, 0.0), 0.0)
        sums = np.abs(h).sum(axis=1)
        assert sums == pytest.approx([8.0, 3.0, 4.0, 3.0, 3.0, 3.0])


class TestBandSweep:
    def test_flat_bandwidth_rhombus(self):
        model = bloch.chain_bloch((2,), math.pi)
        sweep = bloch.band_sweep(model, math.pi, 101)
        assert sweep.total_bandwidth < 1e-10
        assert sweep.energies[0] == pytest.approx([-2.0, 0.0, 2.0])

    def test_dispersive_bandwidth(self):
        model = bloch.chain_bloch((2,), 1.0)
        assert bloch.band_sweep(model, 1.0, 101).total_bandwidth > 0.1

    def test_232_flat_point(self):
        model = bloch.chain_bloch((2, 3, 2), math.pi / 6)
        assert bloch.band_sweep(model, math.pi / 6, 51).total_bandwidth < 1e-8

    @pytest.mark.parametrize("xs", [(2,), (2, 2), (6,), (2, 3)])
    def test_flat_iff_at_small_products(self, xs):
        """Bandwidth collapses at every flat value short of the full turn and
        stays finite halfway between consecutive ones."""
        model = bloch.chain_bloch(xs, 0.0)
        fv = gauge.flat_values(xs)
        for phi in fv.values[:-1]:
            assert bloch.band_sweep(model, phi, 41).total_bandwidth < 1e-8
        for phi in fv.midpoints():
            assert bloch.band_sweep(model, phi, 41).total_bandwidth > 1e-4

    def test_grid_layout(self):
        sweep = bloch.band_sweep(bloch.chain_bloch((2,), 0.0), 0.0, 4)
        assert len(sweep.momenta) == 4
        assert sweep.energies.shape == (4, 3)


class TestDosMap:
    def test_zero_energy_line_and_gap_structure(self):
        model = bloch.chain_bloch((2,), 0.0)
        phis = [TWO_PI * i / 24 for i in range(24)]
        dos = bloch.dos_map(model, phis, 128, 61)
        centers = dos.bin_centers()
        zbin = int(np.argmin(np.abs(centers)))
        assert (dos.counts[:, zbin] > 0).all()

    def test_flat_column_has_three_bins(self):
        model = bloch.chain_bloch((2,), 0.0)
        dos = bloch.dos_map(model, [math.pi], 64, 101)
        assert len(dos.occupied_bins(0)) == 3

    @pytest.mark.parametrize("phis, bins", [([], 11), ([0.5], 0)])
    def test_needs_a_flux_and_a_bin(self, phis, bins):
        with pytest.raises(InvalidParameterError, match="one flux and one bin"):
            bloch.dos_map(bloch.chain_bloch((2,), 0.0), phis, 8, bins)

    def test_refused_before_the_first_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("band swept")

        # each 64-point sweep of the rhombic chain stacks a 2 KiB block; eight
        # fluxes of three bands hold 12 KiB of energies
        monkeypatch.setattr(bloch, "SWEEP_BLOCK_LIMIT_BYTES", 4096)
        monkeypatch.setattr(bloch.BlochModel, "singular_values", no_sweep)
        with pytest.raises(ResourceLimitError):
            bloch.dos_map(bloch.chain_bloch((2,), 0.0), [0.1 * i for i in range(8)], 64, 11)

    def test_cli_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bloch, "SWEEP_BLOCK_LIMIT_BYTES", 4096)
        code = cli.main(["dos", "--x", "2", "--phi-grid", "8", "--k-grid", "64", "--bins", "11"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "MiB" in captured.err


def histogram_dos(model, phis, k_grid, bins):
    """The per-flux route ``dos_map`` replaces: one ``band_sweep`` per flux,
    edges over the global energy range, one ``np.histogram`` per flux."""
    sweeps = [bloch.band_sweep(model, phi, k_grid) for phi in phis]
    lo = min(float(s.energies.min()) for s in sweeps)
    hi = max(float(s.energies.max()) for s in sweeps)
    pad = 1e-9 * max(1.0, abs(hi - lo))
    edges = np.linspace(lo - pad, hi + pad, bins + 1)
    return edges, np.array([np.histogram(s.energies.ravel(), bins=edges)[0] for s in sweeps])


class TestDosMapOnePass:
    """``dos_map`` bins singular values in one pass and adds the zero modes
    analytically; its edges and counts are those of a per-flux histogram of
    the ``band_sweep`` energies, bit for bit."""

    @pytest.mark.parametrize("model, phis, k_grid, bins", [
        # the README figure: caged dos --x 2 --phi-grid 96 --k-grid 256 --bins 201
        (bloch.chain_bloch((2,), 0.0), [TWO_PI * i / 96 for i in range(96)], 256, 201),
        (bloch.chain_bloch((2, 3), 0.0), [0.1 * i for i in range(13)], 33, 64),
        (bloch.chain_bloch((2, 3, 2), 0.0), [math.pi / 6, 0.7, 0.0], 41, 101),
        (bloch.second_kind_44_bloch(0.0), [0.0, 1.1, math.pi], 12, 77),
        # two zero modes per momentum, on the middle edge of 256 bins
        (bloch.chain_bloch((3,), 0.0), [0.3, 2.0, TWO_PI / 3], 16, 256),
        # the largest energy in the one bin, and in the top bin, closed on the right
        (bloch.chain_bloch((2,), 0.0), [0.0, math.pi], 16, 1),
        (bloch.chain_bloch((2,), 0.0), [0.0, math.pi], 16, 2),
    ], ids=["readme", "chain-23", "chain-232", "star44", "zero-modes", "one-bin", "two-bins"])
    def test_matches_the_per_flux_histogram(self, model, phis, k_grid, bins):
        dos = bloch.dos_map(model, phis, k_grid, bins)
        edges, counts = histogram_dos(model, phis, k_grid, bins)
        assert np.array_equal(dos.bin_edges, edges)
        assert np.array_equal(dos.counts, counts)
        assert dos.counts.sum() == len(phis) * k_grid ** model.dimensionality * model.bands

    @pytest.mark.parametrize("bins", [64, 256])
    def test_zero_modes_on_an_edge_fall_above_it(self, bins):
        """With a power-of-two bin count the middle edge is exactly 0.0, and
        ``np.histogram`` counts a value on an edge in the bin above it.  At
        flux pi the rhombic bands are flat at -2, 0 and 2."""
        model = bloch.chain_bloch((2,), 0.0)
        dos = bloch.dos_map(model, [math.pi], 16, bins)
        assert dos.bin_edges[bins // 2] == 0.0
        assert dos.counts[0, bins // 2 - 1:bins // 2 + 1].tolist() == [0, 16]
        assert np.array_equal(dos.counts, histogram_dos(model, [math.pi], 16, bins)[1])

    def test_no_band_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("band_sweep called")

        monkeypatch.setattr(bloch, "band_sweep", no_sweep)
        assert bloch.dos_map(bloch.chain_bloch((2,), 0.0), [0.5], 8, 11).counts.sum() == 24


class TestIntegerCounts:
    """A grid or bin count that is not an integer is refused before any sweep."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("band swept")

        monkeypatch.setattr(bloch.BlochModel, "singular_values", no_sweep)

    @pytest.mark.parametrize("grid", [2.5, 4.0, np.float64(4.0), "4", None])
    def test_band_sweep_and_momentum_grid(self, no_solve, grid):
        with pytest.raises(InvalidParameterError, match="grid must be an integer"):
            bloch.band_sweep(bloch.chain_bloch((2,), 0.3), 0.3, grid)
        with pytest.raises(InvalidParameterError, match="grid must be an integer"):
            bloch.momentum_grid(1, grid)

    @pytest.mark.parametrize("k_grid, bins, what", [
        (4, 2.5, "energy_bins"), (4.0, 3, "k_grid"), (2.5, 3, "k_grid"), (4, np.float64(3), "energy_bins")])
    def test_dos_map(self, no_solve, k_grid, bins, what):
        with pytest.raises(InvalidParameterError, match=f"{what} must be an integer"):
            bloch.dos_map(bloch.chain_bloch((2,), 0.0), [0.1], k_grid, bins)

    def test_numpy_integers_are_counts(self):
        model = bloch.chain_bloch((2,), 0.3)
        sweep = bloch.band_sweep(model, 0.3, np.int64(5))
        assert sweep.energies.tobytes() == bloch.band_sweep(model, 0.3, 5).energies.tobytes()
        dos = bloch.dos_map(model, [0.3], np.int32(5), np.int64(7))
        assert np.array_equal(dos.counts, bloch.dos_map(model, [0.3], 5, 7).counts)


class TestCharpolyIndependence:
    @pytest.mark.parametrize("k_count, message", [
        (1, "at least 2 points"), (0, "at least 2 points"), (-3, "at least 2 points"),
        (2.5, "must be an integer"), (8.0, "must be an integer")])
    def test_needs_two_momenta(self, k_count, message):
        with pytest.raises(InvalidParameterError, match=message):
            bloch.charpoly_k_independence((2,), 1.0, [0.5, 1.5], k_count=k_count)

    def test_two_momenta_see_the_dispersion(self):
        assert bloch.charpoly_k_independence((2,), 1.0, [0.5, 1.5], k_count=2) > 1e-3

    def test_rhombus_flat(self):
        assert bloch.charpoly_k_independence((2,), math.pi, [0.5, 1.5, 3.0]) < 1e-10

    def test_rhombus_dispersive(self):
        assert bloch.charpoly_k_independence((2,), 1.0, [0.5, 1.5, 3.0]) > 1e-3

    def test_two_two_flat_quarter_turn(self):
        assert bloch.charpoly_k_independence((2, 2), math.pi / 2, [0.5, 1.5, 3.0]) < 1e-8

    def test_needs_a_shift(self):
        with pytest.raises(InvalidParameterError, match="sample shift"):
            bloch.charpoly_k_independence((2,), math.pi, [])
