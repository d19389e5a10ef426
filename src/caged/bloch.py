"""Momentum-space models for glued-tree chains and the {4,4} star lattice.

A model is one unit cell's edge arrays: edge e joins ``rows[e]`` to
``cols[e]`` with <rows|H(k, phi)|cols> = exp(i*(c[e]*phi + n[e].k)), where
c is the phase per unit flux and n the integer winding into the neighbouring
cell along each momentum direction; the Hermitian conjugate is added the
same way, and repeated (row, col) pairs accumulate.  One broadcast and one
scatter-add build the matrices of a whole momentum list at once.

Every cell is bipartite (the glued trees keep their level parity across the
root-to-root chain, and the rhombus tilings have only 4-cycle faces), and a
model refuses a cell that cannot be 2-coloured.  With the sublattices A and
B, H(k) = [[0, T(k)], [T(k)^H, 0]], so its spectrum is +-sigma(T(k)) plus
||B| - |A|| exact zeros: a sweep stacks only the |A| x |B| blocks T(k) and
takes their singular values.

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
from typing import Sequence

import numpy as np

from . import gauge
from .errors import InvalidParameterError, ResourceLimitError

TWO_PI = 2.0 * math.pi

# Largest (points, |A|*|B|) complex block a sweep may stack; its other arrays
# (per-edge phases, energies) are of the same order.  It also bounds the
# energies of every flux that ``dos_map`` holds at once.  The README figures
# need at most 1,024 points, under 1 MiB.
SWEEP_BLOCK_LIMIT_BYTES = 256 * 2**20


def _two_colouring(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sublattice (0 or 1) of each of ``n`` vertices, level by level from the
    lowest uncoloured vertex of each component; refuses an odd cycle."""
    heads, tails = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    colour = np.full(n, -1, dtype=np.int64)
    while (colour < 0).any():
        colour[np.argmax(colour < 0)] = 0
        while True:
            frontier = (colour[heads] >= 0) & (colour[tails] < 0)
            if not frontier.any():
                break
            colour[tails[frontier]] = 1 - colour[heads[frontier]]
    if (colour[rows] == colour[cols]).any():
        raise InvalidParameterError("the cell graph is not bipartite")
    return colour


@dataclass(frozen=True, eq=False)
class BlochModel:
    """A momentum- and flux-parametric family of finite Hermitian matrices.

    Edge e contributes exp(i*(flux_factors[e]*phi + windings[e].k)) at
    (rows[e], cols[e]) and its conjugate at (cols[e], rows[e]); ``windings``
    has one column per momentum direction.  ``sublattices`` (A, B) are the
    vertex ids of the two colour classes, found once at construction; each
    edge also keeps its slot in the flattened |A| x |B| block and its phase
    factors negated where it runs from B to A, so enters the block conjugated.
    """

    bands: int
    rows: np.ndarray
    cols: np.ndarray
    flux_factors: np.ndarray
    windings: np.ndarray
    default_flux: float
    sublattices: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    _block_edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        colour = _two_colouring(self.bands, self.rows, self.cols)
        a, b = np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)
        pos = np.empty(self.bands, dtype=np.int64)
        pos[a], pos[b] = np.arange(len(a)), np.arange(len(b))
        # An edge from B to A enters T(k) conjugated: ends swapped, phase negated.
        flip = colour[self.rows] == 1
        sign = np.where(flip, -1, 1)
        u, v = pos[self.rows], pos[self.cols]
        object.__setattr__(self, "sublattices", (a, b))
        object.__setattr__(self, "_block_edges", (
            sign * self.flux_factors, sign[:, None] * self.windings,
            np.where(flip, v * len(b) + u, u * len(b) + v)))

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
        ks = self._momenta(momenta)
        w = np.exp(1j * (phi * self.flux_factors + ks @ self.windings.T))
        n = self.bands
        out = np.zeros((len(ks), n * n), dtype=complex)
        slots = np.concatenate([self.rows * n + self.cols, self.cols * n + self.rows])
        np.add.at(out, (slice(None), slots), np.concatenate([w, w.conj()], axis=1))
        return out.reshape(-1, n, n)

    def hopping_blocks(self, momenta, phi: float | None = None) -> np.ndarray:
        """The blocks T(k) = <A|H(k, phi)|B> at each row of ``momenta``, as (K, |A|, |B|)."""
        phi = self.default_flux if phi is None else phi
        ks = self._momenta(momenta)
        factors, windings, slots = self._block_edges
        w = np.exp(1j * (phi * factors + ks @ windings.T))
        a, b = (len(s) for s in self.sublattices)
        out = np.zeros((len(ks), a * b), dtype=complex)
        np.add.at(out, (slice(None), slots), w)
        return out.reshape(-1, a, b)

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
    |B|), give the row (-s_1, ..., -s_m, 0, ..., 0, s_m, ..., s_1) with
    n - 2m zeros: ascending, and exactly symmetric about zero.  Refuses,
    before the grid is built, when the block would exceed
    ``SWEEP_BLOCK_LIMIT_BYTES``.
    """
    a, b = (len(s) for s in model.sublattices)
    points = max(grid, 0) ** model.dimensionality
    if points * a * b * 16 > SWEEP_BLOCK_LIMIT_BYTES:
        raise ResourceLimitError(f"{points} momenta x {a} x {b} complex block exceeds "
                                 f"{SWEEP_BLOCK_LIMIT_BYTES / 2**20:g} MiB")
    pts = momentum_grid(model.dimensionality, grid)
    sigma = np.linalg.svd(model.hopping_blocks(pts, phi), compute_uv=False)
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
