"""Eigenvalue engines for glued trees.

Two routes to every spectrum: the brute-force oracle, and block assembly
from small zero-diagonal paths, which covers the fluxless tree and the tree
at flux 2*pi/x_1.  The oracle uses that the graph is bipartite:
with its sublattices A and B (``Graph.colouring``), H = [[0, T], [T^H, 0]],
so the spectrum is +-sigma(T) plus ||B| - |A|| exact zeros, the chiral zero
modes (Sutherland 1986; Lieb 1989).  One values-only LAPACK SVD of the
|A| x |B| block T, built straight from the edge arrays, gives it; the n x n
matrix is never formed.  With a_j = sqrt(x_j), every assembly block is a
leading principal submatrix (a prefix) of one of three paths, each given by
its off-diagonal weights: the fluxless block i splits into the size-(i + 1)
prefix of E = (sqrt(2) a_1, a_2, ..., a_d) and the size-i prefix of
O = (a_2, ..., a_d), and the flux block i is the size-(i + 1) prefix of
F = (a_1, ..., a_d).  ``prefix_eigenvalues`` solves each distinct block
with one LAPACK ``eigvalsh`` of at most d + 1 rows and keeps its values in a
memo of ``PREFIX_CACHE_SIZE`` blocks, keyed by the weights LAPACK receives,
so a depth-d tree's spectrum costs polynomial work in d even though the
matrix itself has roughly x^d rows, and a family sweep solves each block
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gauge, graphs
from .errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError

DEGENERACY_TOL = 1e-8
EPS = float(np.finfo(float).eps)
# Entries in the memo of prefix blocks: more than the 747 distinct blocks
# that the theorem spectra of the product <= 64 family solve.
PREFIX_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with multiplicities; values strictly increasing."""

    eigenvalues: tuple[tuple[float, int], ...]

    @property
    def dimension(self) -> int:
        return sum(m for (_v, m) in self.eigenvalues)

    def expand(self) -> np.ndarray:
        """The full multiset as a sorted array."""
        return np.array([v for (v, m) in self.eigenvalues for _ in range(m)])

    def multiplicity_at(self, value: float) -> int:
        return sum(m for (v, m) in self.eigenvalues if abs(v - value) <= DEGENERACY_TOL)


def cluster_eigenvalues(values: Sequence[float], counts: Sequence[int] | None = None) -> Spectrum:
    """Merge a weighted eigenvalue list into a Spectrum.

    In ascending order, a value joins the current level when it lies within
    ``DEGENERACY_TOL`` of that level's running weighted mean, and otherwise
    starts the next level; each level's value is the weighted mean of its
    members.  Levels are not gap-closed: [0, 0.9e-8, 1.8e-8] gives two
    levels although both gaps are 0.9e-8, and [0, 0.9e-8, 1.35e-8] gives
    one level spanning 1.35e-8.
    """
    if counts is None:
        counts = [1] * len(values)
    pairs = sorted(zip(values, counts))
    merged: list[tuple[float, int]] = []
    acc_val, acc_cnt = None, 0
    for v, c in pairs:
        if acc_val is None or v - acc_val / acc_cnt > DEGENERACY_TOL:
            if acc_val is not None:
                merged.append((acc_val / acc_cnt, acc_cnt))
            acc_val, acc_cnt = v * c, c
        else:
            acc_val += v * c
            acc_cnt += c
    if acc_val is not None:
        merged.append((acc_val / acc_cnt, acc_cnt))
    return Spectrum(eigenvalues=tuple(merged))


# ---------------------------------------------------------------------------
# The chiral oracle
# ---------------------------------------------------------------------------


def ccam_spectrum(m: gauge.Ccam) -> Spectrum:
    """The clustered spectrum of a bipartite Ccam, from the singular values
    of its sublattice block.

    Refuses a matrix of more than ``gauge.dense_limit()`` rows, and a graph
    with an odd cycle (every glued tree, chain and rhombic tiling is
    bipartite).  Edge k enters T = <A|H|B> as exp(i*phases[k]) when its row
    lies in A, conjugated when it lies in B, at the slot the graph's cached
    ``block_layout`` gives it, so every flux on one graph shares the layout.
    One ``svd(T, compute_uv=False)`` gives the min(|A|, |B|) singular values
    s, in real arithmetic when no entry has a nonzero imaginary part (as at
    flux 0, where every phase is +-0.0); the spectrum is -s,
    n - 2*min(|A|, |B|) exact zeros and s.
    """
    gauge.require_dense(m.dimension)
    nb, slots, flip = m.graph.block_layout
    w = np.exp(1j * m.phases)
    w = w if w.imag.any() else w.real
    t = np.zeros((m.dimension - nb) * nb, dtype=w.dtype)
    t[slots] = np.where(flip, w.conj(), w)
    s = np.linalg.svd(t.reshape(m.dimension - nb, nb), compute_uv=False)
    zeros = np.zeros(m.dimension - 2 * s.size)
    return cluster_eigenvalues(np.concatenate([-s, zeros, s]).tolist())


# ---------------------------------------------------------------------------
# Zero-diagonal paths and their prefix eigenvalues
# ---------------------------------------------------------------------------


@lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _block_eigenvalues(weights: bytes) -> np.ndarray:
    """Ascending eigenvalues of the zero-diagonal path whose float64
    off-diagonal weights are ``weights``, read-only: one ``eigvalsh``."""
    w = np.frombuffer(weights)
    values = np.linalg.eigvalsh(np.diag(w, 1) + np.diag(w, -1))
    values.flags.writeable = False  # shared by every caller of this block
    return values


def prefix_eigenvalues(paths: Sequence[Sequence[float]],
                       prefixes: Sequence[tuple[int, int]]) -> np.ndarray:
    """Eigenvalues of leading principal submatrices of zero-diagonal paths.

    Each path is the list of its off-diagonal weights, so a path of n
    weights has n + 1 rows.  ``prefixes`` lists (path index, size) pairs;
    the result concatenates the eigenvalues of each listed prefix,
    ascending, in the listed order.  A prefix longer than
    ``gauge.dense_limit()`` is refused, as every dense matrix is, before
    any block is solved.

    A weight within machine epsilon of the largest one up to the path's
    longest listed prefix is set to zero first (and -0.0 becomes 0.0).
    Beside a zero diagonal, LAPACK's relative split test misses it, and
    once its square is subnormal the eigenvalues drift by far more than
    eps; zeroing it moves each eigenvalue by at most the weight (Weyl).

    A size-s prefix is then one ``eigvalsh`` of its own s x s matrix,
    remembered process-wide: the memo keys each block by the bytes of its
    s - 1 weights after this zeroing, exactly what LAPACK receives, so a
    repeated block returns the same bits without a solve, and the same
    path listed with a longer prefix may zero more and give a different
    key.  It holds the last ``PREFIX_CACHE_SIZE`` blocks used, read-only,
    each about 16 * s bytes (key and values); at the default dense limit
    of 4,096 rows that is about 64 MiB in all.
    """
    for p, s in prefixes:
        if not (0 <= p < len(paths) and 0 <= s <= len(paths[p]) + 1):
            raise InvalidParameterError(f"prefix ({p}, {s}) is not in a listed path")
    gauge.require_dense(max((s for _p, s in prefixes), default=0))
    return _solve_prefixes(paths, prefixes)


def _solve_prefixes(paths: Sequence[Sequence[float]],
                    prefixes: Sequence[tuple[int, int]]) -> np.ndarray:
    """``prefix_eigenvalues`` of prefixes already checked against the paths
    and the dense limit."""
    widths: dict[int, int] = {}
    for p, s in prefixes:
        widths[p] = max(widths.get(p, 0), s)
    zeroed = {}
    for p, w in widths.items():
        weights = paths[p][:max(w - 1, 0)]
        tiny = EPS * max(map(abs, weights), default=0.0)
        zeroed[p] = np.array([0.0 if abs(v) <= tiny else v for v in weights], dtype=float)
    values = [_block_eigenvalues(zeroed[p][:s - 1].tobytes()) for p, s in prefixes if s]
    return np.concatenate(values) if values else np.array([])


# ---------------------------------------------------------------------------
# Spectrum assembly for glued trees
# ---------------------------------------------------------------------------


def _assemble(xs: tuple[int, ...], paths: Sequence[Sequence[float]],
              blocks: Sequence[tuple[int, int, int]], what: str) -> Spectrum:
    """Cluster the eigenvalues of (path, prefix size, multiplicity) blocks
    of the checked sequence ``xs``, checking first, before any eigensolve,
    that every growth entry is >= 2, that each level's sum of count *
    eigenvalue stays a finite float (below the vertex count times twice the
    largest weight, by Gershgorin), and that the solves, sum s^3 over the
    prefix sizes s, cost at most one dense solve at ``gauge.dense_limit()``,
    which bounds every prefix size too."""
    if any(v < 2 for v in xs):
        raise UnsupportedHypothesisError(
            f"{what} requires every growth entry >= 2 (got {xs}); "
            "use the dense oracle instead")
    radius = 2.0 * max((w for path in paths for w in path), default=0.0)
    vertices = graphs._tree_vertex_count(xs)
    if vertices.bit_length() + math.frexp(radius)[1] >= np.finfo(float).maxexp:
        raise ResourceLimitError(f"{what}: its count * eigenvalue sums overflow a float")
    gauge.require_dense(math.ceil(sum(s ** 3 for (_p, s, _m) in blocks) ** (1 / 3)))
    values = _solve_prefixes(paths, [(p, s) for (p, s, _m) in blocks])
    counts = [m for (_p, s, m) in blocks for _ in range(s)]  # exact Python ints
    spec = cluster_eigenvalues(values.tolist(), counts)
    if spec.dimension != vertices:
        raise AssertionError(f"{what} lost eigenvalues")
    return spec


def fluxless_multiplicities(x: Sequence[int]) -> list[tuple[int, int]]:
    """(block index, multiplicity) pairs for the fluxless assembly.

    Block d appears once; block i < d appears (x_{i+1} - 1) * prod_{j>i+1} x_j
    times.  The dimensions sum to the tree's vertex count.
    """
    return _fluxless_multiplicities(graphs.check_growth_sequence(x))


def _fluxless_multiplicities(xs: tuple[int, ...]) -> list[tuple[int, int]]:
    """``fluxless_multiplicities`` of a checked sequence."""
    d = len(xs)
    return [(d, 1)] + [(i, (xs[i] - 1) * math.prod(xs[i + 1:])) for i in range(d - 1, -1, -1)]


def spectrum_fluxless(x: Sequence[int]) -> Spectrum:
    """Spectrum of the unweighted glued tree, assembled from path blocks.

    With a_j = sqrt(x_j), block i is the zero-diagonal path of size 2i + 1
    with weights (a_i, ..., a_1, a_1, ..., a_i): square roots of the
    branching numbers, the normalization the dense oracle fixes.  It is
    mirror-symmetric about its middle row, so it splits into an even sector,
    the size-(i + 1) prefix of the path E = (sqrt(2) a_1, a_2, ..., a_d),
    and an odd sector, the size-i prefix of O = (a_2, ..., a_d).  One
    ``prefix_eigenvalues`` call over both paths solves every block.
    """
    xs = graphs.check_growth_sequence(x)
    a = [math.sqrt(v) for v in xs]
    paths = ([math.sqrt(2 * xs[0])] + a[1:], a[1:])
    blocks = [(p, i + 1 - p, mult) for (i, mult) in _fluxless_multiplicities(xs) for p in (0, 1)]
    return _assemble(xs, paths, blocks, "fluxless assembly")


def flux_af_multiplicities(x: Sequence[int]) -> list[tuple[int, int]]:
    """(block index, multiplicity) pairs at flux 2*pi/x_1.

    Everything except the zero block is doubled: block d appears twice,
    block i-1 appears 2 * (x_i - 1) * prod_{j>i} x_j times for i = 2..d, and
    the 1x1 zero block (x_1 - 2) * prod_{j>1} x_j times, if that is nonzero.
    """
    return _flux_af_multiplicities(graphs.check_growth_sequence(x))


def _flux_af_multiplicities(xs: tuple[int, ...]) -> list[tuple[int, int]]:
    """``flux_af_multiplicities`` of a checked sequence."""
    d = len(xs)
    out = [(d, 2)] + [(i - 1, 2 * (xs[i - 1] - 1) * math.prod(xs[i:])) for i in range(2, d + 1)]
    zero_mult = (xs[0] - 2) * math.prod(xs[1:])
    return out + [(0, zero_mult)] if zero_mult else out


def spectrum_flux_af(x: Sequence[int]) -> Spectrum:
    """Spectrum of the canonically gauged tree at flux 2*pi/x_1: block i is
    the size-(i + 1) prefix of the path F = (a_1, ..., a_d), a_j = sqrt(x_j)."""
    xs = graphs.check_growth_sequence(x)
    paths = ([math.sqrt(v) for v in xs],)
    blocks = [(0, i + 1, mult) for (i, mult) in _flux_af_multiplicities(xs)]
    return _assemble(xs, paths, blocks, "flux assembly")
