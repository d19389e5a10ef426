"""Momentum-space models for glued-tree chains and the {4,4} star lattice.

A model is one unit cell's edge arrays: edge e joins ``rows[e]`` to
``cols[e]`` with <rows|H(k, phi)|cols> = exp(i*(c[e]*phi + n[e].k)), where
c is the phase per unit flux and n the integer winding into the neighbouring
cell along each momentum direction; the Hermitian conjugate is added the
same way, and repeated (row, col) pairs accumulate.  One broadcast and one
scatter-add build the matrices of a whole momentum list at once.

Nothing but the phases depends on the flux, so a model is checked, coloured
and laid out once, at construction, into read-only arrays, and
``BlochModel.with_default_flux`` shares them at another flux.  Each periodic
builder keeps its cell as such a template, built once per growth sequence
(``chain_bloch``) or once (``second_kind_44_bloch``), and returns it at the
requested flux without array work: a sweep over fluxes pays for its SVDs
alone.  Every flux a model reads must pass ``gauge.check_angle``: finite
and below ``gauge.ANGLE_LIMIT``, the rule ``cli.parse_phi`` applies.

Every cell is bipartite (the glued trees keep their level parity across the
root-to-root chain, and the rhombus tilings have only 4-cycle faces), and a
model refuses a cell that cannot be 2-coloured by ``graphs.two_colouring``.
With the sublattices A and B, H(k) = [[0, T(k)], [T(k)^H, 0]], so its
spectrum is +-sigma(T(k)) plus ||B| - |A|| exact zeros, and a sweep needs
only the singular values of T(k).  The colouring routine, and each edge's
slot in T(k) from ``graphs.sublattice_slots``, are those the dense oracle
uses too, except on a grown tree, whose colouring is read from its
breadth-first layers.

The momentum enters T(k) only through the rows touched by an edge with a
nonzero winding (or the columns, if fewer; a transpose keeps the singular
values): the first root of a chain cell, the corner of the {4,4} cell.  Per
flux a sweep takes one SVD of the other, static rows, T_s = U S V^H; the
singular values of T(k) are then those of [S; T_r(k) V].  Within each
cluster of g equal static values s, a rotation of the cluster's columns
leaves min(g, r) columns coupled to the r momentum rows, and g - min(g, r)
copies of s that are exact, k-independent singular values.  Each momentum
then takes one SVD of a block with a row and a column per kept column, plus
r rows.

The chain keeps one copy of the tree per unit cell, identifying the last
root of each cell with the first root of the next, so its cell is the
canonically gauged tree (``gauge.canonical_ccam`` at unit flux, the gauge
being linear in flux) with every edge at the last root folded onto the first
root with winding -1.  The folded edges also carry c + 1/2: the momentum
origin then sits at k - phi/2, where the single-rhombus chain reproduces the
textbook closed form E(k) = +-sqrt(2)*sqrt(2 + cos k + cos(k - phi))
pointwise in k.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import gauge, graphs
from .errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

# Largest total, over a sweep's momenta, of the r coupled rows of T(k) (twice),
# a small block of at most (n + r) x n values for n swept columns, and the
# energies.  It also bounds the energies of every flux that ``dos_map`` counts
# at once; it holds their signed singular values as floats and as bin indices,
# at most twice those bytes.  The README figures need at most 1,024 points,
# under 5 MiB.
SWEEP_BLOCK_LIMIT_BYTES = 256 * 2**20
# Static singular values within this many ulps of the largest one, chained
# along the sorted values, form one cluster of equal values.
CLUSTER_ULPS = 64


class _Block(NamedTuple):
    """Edges scattered into a fixed block: each adds exp(i*(factors*phi +
    windings.k)) at its flattened slot of a ``shape`` matrix."""

    factors: np.ndarray
    windings: np.ndarray
    slots: np.ndarray
    shape: tuple[int, int]

    def at(self, ks: np.ndarray, phi: float) -> np.ndarray:
        """The blocks at each row of ``ks``, as (K, *shape)."""
        w = np.exp(1j * (phi * self.factors + ks @ self.windings.T))
        out = np.zeros((len(ks), self.shape[0] * self.shape[1]), dtype=complex)
        np.add.at(out, (slice(None), self.slots), w)
        return out.reshape(-1, *self.shape)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as a read-only int64 array, refused unless integer-typed."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidParameterError(f"{what} must be integers, got dtype {arr.dtype}")
    return graphs.read_only(arr, np.int64)


@dataclass(frozen=True, eq=False)
class BlochModel:
    """A momentum- and flux-parametric family of finite Hermitian matrices.

    Edge e contributes exp(i*(flux_factors[e]*phi + windings[e].k)) at
    (rows[e], cols[e]) and its conjugate at (cols[e], rows[e]); ``windings``
    has one column per momentum direction, and ``stack`` scatters both
    directions as one n x n block.  ``sublattices`` (A, B) are the vertex
    ids of the two colour classes, found once at construction by
    ``graphs.two_colouring``.  For sweeps each edge takes its slot in the
    |A| x |B| block T(k) from ``graphs.sublattice_slots``, with its phase
    factors negated where it runs from B to A, so enters the block
    conjugated; the edges are then split into the static rows of T(k) (or
    of its transpose) and the r coupled rows that every winding edge meets.
    ``stack(ks)[:, A][:, :, B]`` is T(k) itself.

    Construction is the one check: it refuses, with
    ``InvalidParameterError``, a band count below 1, edge arrays that are
    not (E,) integer rows and cols in 0..bands-1, (E,) finite flux factors
    and (E, D) integer windings with D >= 1, a cell with an odd cycle, and
    a default flux that ``gauge.check_angle`` refuses.  Every array it
    keeps is read-only, so ``with_default_flux`` shares them all, and every
    flux a method reads passes ``gauge.check_angle``.
    """

    bands: int
    rows: np.ndarray
    cols: np.ndarray
    flux_factors: np.ndarray
    windings: np.ndarray
    default_flux: float
    sublattices: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _square: _Block = field(init=False, repr=False)
    _blocks: tuple[_Block, _Block] = field(init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.bands, (int, np.integer)) and self.bands >= 1):
            raise InvalidParameterError(f"a model needs a positive band count, got {self.bands!r}")
        n = int(self.bands)
        rows, cols = _integers(self.rows, "rows"), _integers(self.cols, "cols")
        factors = graphs.read_only(self.flux_factors, float)
        windings = _integers(self.windings, "windings")
        if not (rows.ndim == 1 and rows.shape == cols.shape == factors.shape
                and windings.ndim == 2 and len(windings) == len(rows) and windings.shape[1] >= 1):
            raise InvalidParameterError(
                f"rows {rows.shape}, cols {cols.shape}, flux_factors {factors.shape} and "
                f"windings {windings.shape} must be (E,), (E,), (E,) and (E, D) with D >= 1")
        if not (((0 <= rows) & (rows < n)).all() and ((0 <= cols) & (cols < n)).all()):
            raise InvalidParameterError(f"edge ends must lie in 0..{n - 1}")
        if not np.isfinite(factors).all():
            raise InvalidParameterError("flux factors must be finite")
        for name, value in (("bands", n), ("rows", rows), ("cols", cols), ("flux_factors", factors),
                            ("windings", windings),
                            ("default_flux", gauge.check_angle(self.default_flux))):
            object.__setattr__(self, name, value)
        side = graphs.two_colouring(n, rows, cols)
        a, b = np.flatnonzero(~side), np.flatnonzero(side)
        # An edge from B to A enters T(k) conjugated: ends swapped, phase negated.
        u, v, flip = graphs.sublattice_slots(side, rows, cols)
        sign = np.where(flip, -1, 1)
        signed, turns = sign * factors, sign[:, None] * windings
        shape = (len(a), len(b))
        moving = turns.any(axis=1)
        coupled = np.bincount(u[moving], minlength=len(a)) > 0
        coupled_cols = np.bincount(v[moving], minlength=len(b)) > 0
        if coupled_cols.sum() < coupled.sum():  # T(k)^T has fewer coupled rows
            u, v, shape, coupled = v, u, shape[::-1], coupled_cols
        r, on = int(coupled.sum()), coupled[u]
        # Each row's index among the coupled rows, or among the static ones.
        slots = (np.where(coupled, np.cumsum(coupled), np.cumsum(~coupled)) - 1)[u] * shape[1] + v
        # The whole matrix: the conjugate half has its ends swapped and its
        # factors and windings negated.
        square = _Block(np.concatenate([factors, -factors]), np.concatenate([windings, -windings]),
                        np.concatenate([rows * n + cols, cols * n + rows]), (n, n))
        blocks = (_Block(signed[~on], turns[~on], slots[~on], (shape[0] - r, shape[1])),
                  _Block(signed[on], turns[on], slots[on], (r, shape[1])))
        for arr in (a, b, *square[:3], *blocks[0][:3], *blocks[1][:3]):
            arr.flags.writeable = False  # shared by every model of this cell
        object.__setattr__(self, "sublattices", (a, b))
        object.__setattr__(self, "_square", square)
        object.__setattr__(self, "_blocks", blocks)

    def with_default_flux(self, phi: float) -> BlochModel:
        """The same cell at default flux ``phi``, sharing every array: no
        array is built or checked again."""
        model = copy.copy(self)
        object.__setattr__(model, "default_flux", gauge.check_angle(phi))
        return model

    def _flux(self, phi: float | None) -> float:
        """``phi`` checked by ``gauge.check_angle``, or the default flux."""
        return self.default_flux if phi is None else gauge.check_angle(phi)

    @property
    def dimensionality(self) -> int:
        return self.windings.shape[1]

    def _momenta(self, momenta) -> np.ndarray:
        ks = np.asarray(momenta, dtype=float)
        if ks.ndim != 2 or ks.shape[1] != self.dimensionality:
            raise InvalidParameterError(
                f"{self.dimensionality} momentum component(s) required, got shape {ks.shape}")
        return ks

    def stack(self, momenta, phi: float | None = None) -> np.ndarray:
        """The matrices at each row of ``momenta`` (K, dimensionality), as (K, n, n)."""
        return self._square.at(self._momenta(momenta), self._flux(phi))

    def _static_clusters(self, phi: float):
        """The static rows' singular values, one per column of the swept
        block, as clusters of equal values: (starts, sizes, values, V).

        One SVD T_s = U S V^H; the values of S, padded with zeros to one per
        column and sorted descending, are cut where neighbours differ by more
        than ``CLUSTER_ULPS`` ulps of the largest, and each cluster reads as
        its mean.  Cluster c spans columns starts[c] : starts[c] + sizes[c]
        of V, and ``sizes - min(sizes, r)`` of its copies are singular values
        of T(k) at every k.
        """
        static, _ = self._blocks
        m_s, n_c = static.shape
        sigma, v = np.zeros(n_c), np.eye(n_c, dtype=complex)
        if m_s and n_c:
            _, s, vh = np.linalg.svd(static.at(np.zeros((1, self.dimensionality)), phi)[0])
            sigma[:len(s)], v = s, vh.conj().T
        tol = CLUSTER_ULPS * np.finfo(float).eps * sigma.max(initial=0.0)
        starts = np.flatnonzero(np.diff(sigma, prepend=np.inf) < -tol)
        sizes = np.diff(starts, append=n_c)
        values = np.add.reduceat(sigma, starts) / sizes if n_c else sigma
        return starts, sizes, values, v

    def singular_values(self, momenta, phi: float | None = None) -> np.ndarray:
        """The singular values of T(k) at each row of ``momenta``, descending,
        as (K, min(|A|, |B|)).

        With the ``_static_clusters`` (s_c, V_c) of the flux, the coupling
        X_c(k) = T_r(k) V_c of each cluster's g columns is reduced to its R
        factor (the column norm when r = 1): min(g, r) columns stay coupled,
        and the other g - min(g, r) values are s_c exactly, at every k.  One
        SVD per momentum of [diag(s_kept); Y(k)], the kept columns' values
        over their couplings, gives the rest.  Of these values, one per
        column, the smallest beyond min(|A|, |B|) are zeros and are dropped.
        """
        phi, ks = self._flux(phi), self._momenta(momenta)
        starts, sizes, values, v = self._static_clusters(phi)
        static, coupled = self._blocks
        (m_s, n_c), r = static.shape, coupled.shape[0]
        kept = np.minimum(sizes, r)
        exact = np.repeat(values, sizes - kept)
        free = np.zeros((len(ks), 0))
        if kept.sum():
            x = coupled.at(ks, phi) @ v
            if r == 1:
                y = np.sqrt(np.add.reduceat(x.real ** 2 + x.imag ** 2, starts, axis=2))
            else:  # X_c^H = Q R, so X_c Q = R^H and the rest of the cluster decouples
                y = np.concatenate([
                    x[:, :, a:a + g] if g == 1 else
                    np.linalg.qr(x[:, :, a:a + g].conj().swapaxes(1, 2), mode="r")
                    .conj().swapaxes(1, 2) for a, g in zip(starts, sizes)], axis=2)
            diag = np.repeat(values, kept)
            small = np.zeros((len(ks), diag.size + r, diag.size), dtype=y.dtype)
            small[:, np.arange(diag.size), np.arange(diag.size)] = diag
            small[:, diag.size:] = y
            free = (np.linalg.norm(small, axis=1) if diag.size == 1  # one column: its norm
                    else np.linalg.svd(small, compute_uv=False))
        out = np.concatenate([np.broadcast_to(exact, (len(ks), exact.size)), free], axis=1)
        return np.sort(out, axis=1)[:, ::-1][:, :min(n_c, m_s + r)]

    def matrix(self, k, phi: float | None = None) -> np.ndarray:
        return self.stack(np.reshape(k, (1, -1)), phi)[0]


@lru_cache(maxsize=graphs.GROWTH_CACHE_SIZE)
def _chain_template(xs: tuple[int, ...]) -> BlochModel:
    """The chain cell of a checked sequence at default flux 0, built once
    per sequence and shared: no part of it depends on the flux."""
    tree = gauge.canonical_ccam(xs, 1.0)
    wrap = tree.cols == tree.last_vertex
    return BlochModel(bands=tree.dimension - 1, rows=tree.rows,
                      cols=np.where(wrap, tree.first_vertex, tree.cols),
                      flux_factors=np.where(wrap, tree.phases + 0.5, tree.phases),
                      windings=-wrap.astype(np.int64)[:, None], default_flux=0.0)


def chain_bloch(x: Sequence[int], phi: float) -> BlochModel:
    """Bloch matrix family of the infinite root-to-root chain of glued trees.

    One unit cell holds the tree minus its last root, so the band count is
    the tree vertex count minus one.  The couplings into the last root wrap
    to the next cell's first root.  The last root has the highest
    breadth-first id, so it is the column of every edge it lies on.  The
    cell is built once per sequence (``_chain_template``, holding the last
    ``graphs.GROWTH_CACHE_SIZE`` sequences used), after the sequence is
    checked; each call returns it at default flux ``phi`` through
    ``with_default_flux``, which builds no array.
    """
    return _chain_template(graphs.check_growth_sequence(x)).with_default_flux(phi)


def rhombic_bands(phi: float, k: float) -> tuple[float, float, float]:
    """Closed-form bands of the single-rhombus chain: 0 and +-sqrt(2)*sqrt(2
    + cos k + cos(k - phi))."""
    val = 2.0 + math.cos(k) + math.cos(k - phi)
    e = math.sqrt(2.0) * math.sqrt(max(val, 0.0))
    return (-e, 0.0, e)


# (row, col, phase per unit flux, x winding, y winding) of the {4,4} cell.
_STAR_44_EDGES = np.array([
    (0, 1, 0.0, -1, 0), (0, 1, 0.5, 0, 0),
    (0, 3, 0.0, -1, -1), (0, 3, -0.5, -1, 0),
    (0, 4, 0.0, 0, 0), (0, 4, -0.5, 0, -1),
    (0, 5, 0.0, 0, -1), (0, 5, 0.5, -1, -1),
    (1, 2, 0.5, 0, 0), (2, 3, 0.0, 0, 0),
    (2, 4, 0.0, 0, 0), (2, 5, -0.5, 0, 0),
])


@lru_cache(maxsize=1)
def _star_44_template() -> BlochModel:
    """The {4,4} cell at default flux 0, built once and shared."""
    t = _STAR_44_EDGES
    return BlochModel(bands=6, rows=t[:, 0].astype(np.int64), cols=t[:, 1].astype(np.int64),
                      flux_factors=t[:, 2], windings=t[:, 3:].astype(np.int64),
                      default_flux=0.0)


def second_kind_44_bloch(phi: float) -> BlochModel:
    """Six-band model of the {4,4} star lattice of 2-shrubs.

    Site order: corner, rim, center, rim, rim, rim.  The phased edge weight
    omega appears on two edges of every rhombic face, so each face winds
    2*arg(omega); omega = exp(i*phi/2) therefore threads the flux phi through
    every face, which the real-space patch check pins down: the bands all
    flatten exactly at the 2-shrub caging point phi = pi.  Like
    ``chain_bloch``, it returns one shared cell at default flux ``phi``.
    """
    return _star_44_template().with_default_flux(phi)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BandSweep:
    momenta: np.ndarray  # (num points, dimensionality)
    energies: np.ndarray  # (num points, bands), ascending per row
    total_bandwidth: float


def momentum_grid(dimensionality: int, grid: int) -> np.ndarray:
    """The points 2*pi*i/grid per direction, first direction outermost."""
    grid = graphs.check_integer(grid, "grid")
    if grid < 2:
        raise InvalidParameterError("grid needs at least 2 points per direction")
    line = TWO_PI * np.arange(grid) / grid
    axes = np.meshgrid(*[line] * dimensionality, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dimensionality)


def _sweep_grid(model: BlochModel, grid: int) -> np.ndarray:
    """The ``momentum_grid`` of a sweep of ``model``, refused before it is
    built when ``grid`` is not an integer, and when the coupled rows, small
    blocks and energies of one sweep would exceed ``SWEEP_BLOCK_LIMIT_BYTES``."""
    grid, (r, n) = graphs.check_integer(grid, "grid"), model._blocks[1].shape
    points = max(grid, 0) ** model.dimensionality
    held = points * (16 * (2 * r * n + (n + r) * n) + 8 * model.bands)
    if held > SWEEP_BLOCK_LIMIT_BYTES:
        raise ResourceLimitError(f"{points} momenta x {held // points} bytes of sweep arrays "
                                 f"exceed {SWEEP_BLOCK_LIMIT_BYTES / 2**20:g} MiB")
    return momentum_grid(model.dimensionality, grid)


def band_sweep(model: BlochModel, phi: float | None, grid: int) -> BandSweep:
    """Energies on a uniform momentum grid over [0, 2*pi) per direction.

    The singular values s_1 >= ... >= s_m of each block T(k), m = min(|A|,
    |B|), from ``BlochModel.singular_values`` (one SVD of the static rows,
    then one small SVD per momentum), give the row (-s_1, ..., -s_m, 0, ...,
    0, s_m, ..., s_1) with n - 2m zeros: ascending, and exactly symmetric
    about zero.  Refuses, before the grid is built, a flux that
    ``gauge.check_angle`` refuses, a grid that is not an integer, and a
    sweep whose coupled rows, small blocks and energies would exceed
    ``SWEEP_BLOCK_LIMIT_BYTES``.
    """
    phi = model._flux(phi)
    pts = _sweep_grid(model, grid)
    sigma = model.singular_values(pts, phi)
    zeros = np.zeros((len(pts), model.bands - 2 * sigma.shape[1]))
    energies = np.hstack([-sigma, zeros, sigma[:, ::-1]])
    width = float(np.max(energies.max(axis=0) - energies.min(axis=0)))
    return BandSweep(momenta=pts, energies=energies, total_bandwidth=width)


@dataclass(frozen=True)
class DosMap:
    flux_values: tuple[float, ...]
    bin_edges: np.ndarray
    counts: np.ndarray  # (num fluxes, num bins)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def occupied_bins(self, flux_index: int) -> np.ndarray:
        return np.nonzero(self.counts[flux_index] > 0)[0]


def dos_map(model: BlochModel, phi_grid: Sequence[float], k_grid: int,
            energy_bins: int) -> DosMap:
    """Histogram of the ``band_sweep`` energies per flux, in one pass over
    singular values.

    The momentum grid is built once, and each flux takes only the singular
    values s of T(k) (``BlochModel.singular_values``): its energies are -s,
    +s and n - 2m exact zeros per momentum.  The bin edges are shared
    across fluxes, so columns are comparable: they span the global energy
    range +-(the largest s, or 0.0 if there is none), padded by 1e-9 of its
    width.  One ``np.searchsorted(edges, ., side="right")`` bins
    every flux's -s and +s, one ``np.bincount`` counts them, and the zero
    modes are added to the bin that holds 0.0: the counts of
    ``np.histogram`` over each sweep's energies, exactly.

    Refuses, before the first solve and in this order: a grid or bin count
    that is not an integer, no flux or no bin, a flux that
    ``gauge.check_angle`` refuses, fluxes whose energies together exceed
    ``SWEEP_BLOCK_LIMIT_BYTES``, and each refusal of one ``band_sweep``.
    """
    k_grid = graphs.check_integer(k_grid, "k_grid")
    bins = graphs.check_integer(energy_bins, "energy_bins")
    if len(phi_grid) == 0 or bins < 1:
        raise InvalidParameterError("need at least one flux and one bin")
    phis = [gauge.check_angle(phi) for phi in phi_grid]
    points = max(k_grid, 0) ** model.dimensionality
    if len(phis) * points * model.bands * 8 > SWEEP_BLOCK_LIMIT_BYTES:
        raise ResourceLimitError(f"{len(phis)} fluxes x {points} momenta x {model.bands} "
                                 f"bands of energies exceed "
                                 f"{SWEEP_BLOCK_LIMIT_BYTES / 2**20:g} MiB")
    pts = _sweep_grid(model, k_grid)
    m = min(map(len, model.sublattices))
    signed = np.empty((len(phis), 2, len(pts) * m))  # -s then +s, per flux
    for i, phi in enumerate(phis):
        sigma = model.singular_values(pts, phi).ravel()
        signed[i, 0], signed[i, 1] = -sigma, sigma
    hi = float(signed[:, 1].max(initial=0.0))
    pad = 1e-9 * max(1.0, 2 * hi)
    edges = np.linspace(-hi - pad, hi + pad, bins + 1)
    # Every energy lies strictly inside the padded edges, so its bin is the
    # index of the last edge at or below it.
    index = np.searchsorted(edges, signed, side="right")
    index += (bins * np.arange(len(phis)) - 1)[:, None, None]
    counts = np.bincount(index.ravel(), minlength=len(phis) * bins).reshape(len(phis), bins)
    if model.bands > 2 * m:
        counts[:, np.searchsorted(edges, 0.0, side="right") - 1] += (model.bands - 2 * m) * len(pts)
    return DosMap(flux_values=tuple(phis), bin_edges=edges, counts=counts)


def charpoly_k_independence(x: Sequence[int], phi: float, lam_samples: Sequence[float],
                            k_count: int = 8) -> float:
    """Worst-case momentum variation of det(F(k) - lam) over sample shifts.

    Zero (to roundoff) exactly when the bands carry no dispersion, which for
    the chain happens at the flat flux values.  The momenta are the
    ``momentum_grid`` of ``k_count`` points, which refuses a count that is
    not an integer of at least 2: one momentum sees no dispersion.
    """
    if len(lam_samples) == 0:
        raise InvalidParameterError("need at least one sample shift")
    ks = momentum_grid(1, k_count)
    model = chain_bloch(x, phi)
    shifts = np.asarray(lam_samples, dtype=float)[:, None, None, None] * np.eye(model.bands)
    dets = np.linalg.det(model.stack(ks, phi) - shifts)  # (shift, k)
    return float(np.max(np.abs(dets[:, :, None] - dets[:, None, :]), initial=0.0))
