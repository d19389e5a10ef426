"""Momentum-space models for glued-tree chains and the {4,4} star lattice.

A model is one unit cell's edge arrays: edge e joins ``rows[e]`` to
``cols[e]`` with <rows|H(k, phi)|cols> = exp(i*(c[e]*phi + n[e].k)), where
c is the phase per unit flux and n the integer winding into the neighbouring
cell along each momentum direction; the Hermitian conjugate is added the
same way, and repeated (row, col) pairs accumulate.  One broadcast and one
scatter-add build the matrices of a whole momentum list at once.

Every cell is bipartite (the glued trees keep their level parity across the
root-to-root chain, and the rhombus tilings have only 4-cycle faces), and a
model refuses a cell that cannot be 2-coloured by ``graphs.two_colouring``.
With the sublattices A and B, H(k) = [[0, T(k)], [T(k)^H, 0]], so its
spectrum is +-sigma(T(k)) plus ||B| - |A|| exact zeros, and a sweep needs
only the singular values of T(k).  The colouring, and each edge's slot in
T(k) from ``graphs.sublattice_slots``, are those the dense oracle uses too.

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

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import gauge, graphs
from .errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

# Largest total, over a sweep's momenta, of the r coupled rows of T(k) (twice),
# a small block of at most (n + r) x n values for n swept columns, and the
# energies.  It also bounds the energies of every flux that ``dos_map`` holds
# at once.  The README figures need at most 1,024 points, under 5 MiB.
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
        side = graphs.two_colouring(self.bands, self.rows, self.cols)
        a, b = np.flatnonzero(~side), np.flatnonzero(side)
        # An edge from B to A enters T(k) conjugated: ends swapped, phase negated.
        u, v, flip = graphs.sublattice_slots(side, self.rows, self.cols)
        sign = np.where(flip, -1, 1)
        factors, windings = sign * self.flux_factors, sign[:, None] * self.windings
        shape = (len(a), len(b))
        moving = windings.any(axis=1)
        coupled = np.bincount(u[moving], minlength=len(a)) > 0
        coupled_cols = np.bincount(v[moving], minlength=len(b)) > 0
        if coupled_cols.sum() < coupled.sum():  # T(k)^T has fewer coupled rows
            u, v, shape, coupled = v, u, shape[::-1], coupled_cols
        r, on = int(coupled.sum()), coupled[u]
        # Each row's index among the coupled rows, or among the static ones.
        slots = (np.where(coupled, np.cumsum(coupled), np.cumsum(~coupled)) - 1)[u] * shape[1] + v
        object.__setattr__(self, "sublattices", (a, b))
        # The whole matrix: the conjugate half has its ends swapped and its
        # factors and windings negated.
        n = self.bands
        object.__setattr__(self, "_square", _Block(
            np.concatenate([self.flux_factors, -self.flux_factors]),
            np.concatenate([self.windings, -self.windings]),
            np.concatenate([self.rows * n + self.cols, self.cols * n + self.rows]), (n, n)))
        object.__setattr__(self, "_blocks", (
            _Block(factors[~on], windings[~on], slots[~on], (shape[0] - r, shape[1])),
            _Block(factors[on], windings[on], slots[on], (r, shape[1]))))

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
        phi = self.default_flux if phi is None else phi
        return self._square.at(self._momenta(momenta), phi)

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
        phi = self.default_flux if phi is None else phi
        ks = self._momenta(momenta)
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


def chain_bloch(x: Sequence[int], phi: float) -> BlochModel:
    """Bloch matrix family of the infinite root-to-root chain of glued trees.

    One unit cell holds the tree minus its last root, so the band count is
    the tree vertex count minus one.  The couplings into the last root wrap
    to the next cell's first root.  The last root has the highest
    breadth-first id, so it is the column of every edge it lies on.
    """
    tree = gauge.canonical_ccam(x, 1.0)
    wrap = tree.cols == tree.last_vertex
    return BlochModel(bands=tree.dimension - 1, rows=tree.rows,
                      cols=np.where(wrap, tree.first_vertex, tree.cols),
                      flux_factors=np.where(wrap, tree.phases + 0.5, tree.phases),
                      windings=-wrap.astype(np.int64)[:, None], default_flux=phi)


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


def second_kind_44_bloch(phi: float) -> BlochModel:
    """Six-band model of the {4,4} star lattice of 2-shrubs.

    Site order: corner, rim, center, rim, rim, rim.  The phased edge weight
    omega appears on two edges of every rhombic face, so each face winds
    2*arg(omega); omega = exp(i*phi/2) therefore threads the flux phi through
    every face, which the real-space patch check pins down: the bands all
    flatten exactly at the 2-shrub caging point phi = pi.
    """
    t = _STAR_44_EDGES
    return BlochModel(bands=6, rows=t[:, 0].astype(np.int64), cols=t[:, 1].astype(np.int64),
                      flux_factors=t[:, 2], windings=t[:, 3:].astype(np.int64),
                      default_flux=phi)


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
    if grid < 2:
        raise InvalidParameterError("grid needs at least 2 points per direction")
    line = TWO_PI * np.arange(grid) / grid
    axes = np.meshgrid(*[line] * dimensionality, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dimensionality)


def band_sweep(model: BlochModel, phi: float | None, grid: int) -> BandSweep:
    """Energies on a uniform momentum grid over [0, 2*pi) per direction.

    The singular values s_1 >= ... >= s_m of each block T(k), m = min(|A|,
    |B|), from ``BlochModel.singular_values`` (one SVD of the static rows,
    then one small SVD per momentum), give the row (-s_1, ..., -s_m, 0, ...,
    0, s_m, ..., s_1) with n - 2m zeros: ascending, and exactly symmetric
    about zero.  Refuses, before the grid is built, when the coupled rows,
    small blocks and energies would exceed ``SWEEP_BLOCK_LIMIT_BYTES``.
    """
    (r, n), points = model._blocks[1].shape, max(grid, 0) ** model.dimensionality
    held = points * (16 * (2 * r * n + (n + r) * n) + 8 * model.bands)
    if held > SWEEP_BLOCK_LIMIT_BYTES:
        raise ResourceLimitError(f"{points} momenta x {held // points} bytes of sweep arrays "
                                 f"exceed {SWEEP_BLOCK_LIMIT_BYTES / 2**20:g} MiB")
    pts = momentum_grid(model.dimensionality, grid)
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
    """Histogram of eigenvalues per flux over a momentum grid.

    Bin edges are shared across fluxes (computed from the global energy
    range) so columns are comparable.  Every flux's energies are held until
    those edges are known, so it refuses, before the first sweep, when they
    would exceed ``SWEEP_BLOCK_LIMIT_BYTES`` together.
    """
    if len(phi_grid) == 0 or energy_bins < 1:
        raise InvalidParameterError("need at least one flux and one bin")
    points = max(k_grid, 0) ** model.dimensionality
    if len(phi_grid) * points * model.bands * 8 > SWEEP_BLOCK_LIMIT_BYTES:
        raise ResourceLimitError(f"{len(phi_grid)} fluxes x {points} momenta x {model.bands} "
                                 f"bands of energies exceed "
                                 f"{SWEEP_BLOCK_LIMIT_BYTES / 2**20:g} MiB")
    sweeps = [band_sweep(model, phi, k_grid) for phi in phi_grid]
    lo = min(float(s.energies.min()) for s in sweeps)
    hi = max(float(s.energies.max()) for s in sweeps)
    pad = 1e-9 * max(1.0, abs(hi - lo))
    edges = np.linspace(lo - pad, hi + pad, energy_bins + 1)
    counts = np.empty((len(phi_grid), energy_bins), dtype=int)
    for i, s in enumerate(sweeps):
        counts[i], _ = np.histogram(s.energies.ravel(), bins=edges)
    return DosMap(flux_values=tuple(float(p) for p in phi_grid), bin_edges=edges,
                  counts=counts)


def charpoly_k_independence(x: Sequence[int], phi: float, lam_samples: Sequence[float],
                            k_count: int = 8) -> float:
    """Worst-case momentum variation of det(F(k) - lam) over sample shifts.

    Zero (to roundoff) exactly when the bands carry no dispersion, which for
    the chain happens at the flat flux values.
    """
    if len(lam_samples) == 0:
        raise InvalidParameterError("need at least one sample shift")
    model = chain_bloch(x, phi)
    ks = TWO_PI * np.arange(k_count)[:, None] / k_count
    shifts = np.asarray(lam_samples, dtype=float)[:, None, None, None] * np.eye(model.bands)
    dets = np.linalg.det(model.stack(ks, phi) - shifts)  # (shift, k)
    return float(np.max(np.abs(dets[:, :, None] - dets[:, None, :]), initial=0.0))
