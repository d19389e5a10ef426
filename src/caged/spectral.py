"""Eigenvalue engines for glued trees.

Two routes to every spectrum: the brute-force oracle, and block assembly
from small symmetric tridiagonal matrices, which covers the fluxless tree and
the tree at flux 2*pi/x_1.  The oracle uses that the graph is bipartite:
with its sublattices A and B (``Graph.colouring``), H = [[0, T], [T^H, 0]],
so the spectrum is +-sigma(T) plus ||B| - |A|| exact zeros, the chiral zero
modes (Sutherland 1986; Lieb 1989).  One values-only LAPACK SVD of the
|A| x |B| block T, built straight from the edge arrays, gives it; the n x n
matrix is never formed.  With a_j = sqrt(x_j), every assembly block is a
leading principal submatrix (a prefix) of one of three zero-diagonal paths:
the fluxless block i splits into the size-(i + 1) prefix of E = (sqrt(2) a_1,
a_2, ..., a_d) and the size-i prefix of O = (a_2, ..., a_d), and the flux
block i is the size-(i + 1) prefix of F = (a_1, ..., a_d).
``prefix_eigenvalues`` solves each block with one LAPACK ``eigvalsh`` of at
most d + 1 rows, so a depth-d tree's spectrum costs polynomial work in d even
though the matrix itself has roughly x^d rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gauge, graphs
from .errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with multiplicities; values strictly increasing."""

    eigenvalues: tuple[tuple[float, int], ...]

    @property
    def dimension(self) -> int:
        return sum(m for (_v, m) in self.eigenvalues)

    @property
    def distinct(self) -> int:
        return len(self.eigenvalues)

    def expand(self) -> np.ndarray:
        """The full multiset as a sorted array."""
        return np.array([v for (v, m) in self.eigenvalues for _ in range(m)])

    def multiplicity_at(self, value: float) -> int:
        return sum(m for (v, m) in self.eigenvalues if abs(v - value) <= DEGENERACY_TOL)


def cluster_eigenvalues(values: Sequence[float], counts: Sequence[int] | None = None) -> Spectrum:
    """Merge a weighted eigenvalue list into a Spectrum.

    Values closer than ``DEGENERACY_TOL`` are one level; the level's value
    is the weighted mean of its members.
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
    lies in A, conjugated when it lies in B.  One ``svd(T, compute_uv=False)``
    gives the min(|A|, |B|) singular values s, in real arithmetic when no
    entry has a nonzero imaginary part (as at flux 0, where every phase is
    +-0.0); the spectrum is -s, n - 2*min(|A|, |B|) exact zeros and s.
    """
    gauge.require_dense(m.dimension)
    side = m.graph.colouring
    nb = int(side.sum())
    pos = np.where(side, np.cumsum(side), np.cumsum(~side)) - 1
    w = np.exp(1j * m.phases)
    w = w if w.imag.any() else w.real
    flip = side[m.rows]
    t = np.zeros((m.dimension - nb, nb), dtype=w.dtype)
    t[np.where(flip, pos[m.cols], pos[m.rows]),
      np.where(flip, pos[m.rows], pos[m.cols])] = np.where(flip, w.conj(), w)
    s = np.linalg.svd(t, compute_uv=False)
    zeros = np.zeros(m.dimension - 2 * s.size)
    return cluster_eigenvalues(np.concatenate([-s, zeros, s]).tolist())


# ---------------------------------------------------------------------------
# Symmetric tridiagonal paths and their prefix eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tridiag:
    diagonal: tuple[float, ...]
    offdiagonal: tuple[float, ...]

    def __post_init__(self):
        if len(self.offdiagonal) != max(len(self.diagonal) - 1, 0):
            raise InvalidParameterError("offdiagonal length must be n - 1")
        if not all(map(math.isfinite, (*self.diagonal, *self.offdiagonal))):
            raise InvalidParameterError("tridiagonal entries must be finite")

    def dense(self) -> np.ndarray:
        n = len(self.diagonal)
        out = np.diag(np.asarray(self.diagonal, dtype=float))
        for i, b in enumerate(self.offdiagonal):
            out[i, i + 1] = out[i + 1, i] = b
        return out


def prefix_eigenvalues(paths: Sequence[Tridiag],
                       prefixes: Sequence[tuple[int, int]]) -> np.ndarray:
    """Eigenvalues of leading principal submatrices of symmetric tridiagonal paths.

    ``prefixes`` lists (path index, size) pairs; the result concatenates the
    eigenvalues of each listed prefix, ascending, in the listed order.  Each
    path is formed dense once, up to its longest listed prefix, and each
    prefix is one ``eigvalsh`` of that matrix's leading block.  A prefix
    longer than ``gauge.dense_limit()`` is refused, as every dense matrix is.
    """
    widths: dict[int, int] = {}
    for p, s in prefixes:
        if not (0 <= p < len(paths) and 0 <= s <= len(paths[p].diagonal)):
            raise InvalidParameterError(f"prefix ({p}, {s}) is not in a listed path")
        widths[p] = max(widths.get(p, 0), s)
    widest, limit = max(widths.values(), default=0), gauge.dense_limit()
    if widest > limit:
        raise ResourceLimitError(f"prefix of {widest} rows exceeds dense limit {limit} "
                                 f"(override with {gauge.DENSE_LIMIT_ENV})")
    dense = {p: Tridiag(paths[p].diagonal[:w], paths[p].offdiagonal[:max(w - 1, 0)]).dense()
             for p, w in widths.items()}
    values = [np.linalg.eigvalsh(dense[p][:s, :s]) for p, s in prefixes]
    return np.concatenate(values) if values else np.array([])


def tridiagonal_eigenvalues(t: Tridiag) -> np.ndarray:
    """All eigenvalues of a real symmetric tridiagonal matrix, ascending: the
    one prefix of one path that is the whole matrix."""
    return prefix_eigenvalues([t], [(0, len(t.diagonal))])


# ---------------------------------------------------------------------------
# Continuants and closed forms
# ---------------------------------------------------------------------------


def continuant_eval(x: Sequence[int], lam: complex, n: int):
    """Evaluate gamma_n at ``lam`` for gamma_i = -lam*gamma_{i-1} - x_{floor(i/2)}*gamma_{i-2}.

    gamma_0 = 1 and gamma_{-1} = 0; the weights x are 1-based, so gamma_{2j}
    and gamma_{2j+1} both consume x_j.  gamma_n = det(T_n - lam) for the
    size-n zero-diagonal path with weights (a_1, a_1, a_2, a_2, ...),
    a_j = sqrt(x_j).  For a staircase (p,) * d every weight is sqrt(p), so
    gamma_{i+1} is the characteristic polynomial of the size-(i + 1) prefix
    of the flux path F (flux block i) and gamma_{2i+1} that of fluxless
    block i.  For other sequences the assemblies' blocks are prefixes of
    the paths E, O and F in the module docstring, which ``prefix_eigenvalues``
    solves by dense ``eigvalsh``, not from these polynomials.
    """
    if n < -1:
        raise InvalidParameterError("index must be >= -1")
    xs = graphs.check_growth_sequence(x, allow_trailing_one=True)
    if n > 2 * len(xs) + 1:
        raise InvalidParameterError(f"index {n} needs more than {len(xs)} weights")
    prev, cur = 0.0, 1.0  # gamma_{-1}, gamma_0
    for i in range(1, n + 1):
        w = xs[i // 2 - 1] if i >= 2 else 0.0
        prev, cur = cur, -lam * cur - w * prev
    return cur if n >= 0 else 0.0


def pnary_closed_form(p: int, n: int) -> np.ndarray:
    """Eigenvalues 2*sqrt(p)*cos(pi*x/(n+1)), x = 1..n, ascending."""
    if p < 1 or n < 1:
        raise InvalidParameterError("p and n must be positive")
    vals = 2.0 * math.sqrt(p) * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return np.sort(vals)


# ---------------------------------------------------------------------------
# Spectrum assembly for glued trees
# ---------------------------------------------------------------------------


def _require_all_at_least_two(xs: tuple[int, ...], what: str):
    if any(v < 2 for v in xs):
        raise UnsupportedHypothesisError(
            f"{what} requires every growth entry >= 2 (got {xs}); "
            "use the dense oracle instead")


def _path(weights: Sequence[float]) -> Tridiag:
    """The zero-diagonal path with the given off-diagonal weights."""
    return Tridiag(diagonal=(0.0,) * (len(weights) + 1), offdiagonal=tuple(weights))


def _assemble(xs: tuple[int, ...], paths: Sequence[Tridiag],
              blocks: Sequence[tuple[int, int, int]], what: str) -> Spectrum:
    """Cluster the eigenvalues of (path, prefix size, multiplicity) blocks."""
    values = prefix_eigenvalues(paths, [(p, s) for (p, s, _m) in blocks])
    counts = [m for (_p, s, m) in blocks for _ in range(s)]  # exact Python ints
    spec = cluster_eigenvalues(values.tolist(), counts)
    if spec.dimension != graphs.tree_vertex_count(xs):
        raise AssertionError(f"{what} lost eigenvalues")
    return spec


def fluxless_block(x: Sequence[int], i: int) -> Tridiag:
    """Block i of the fluxless tree: zero diagonal, off-diagonal weights
    (sqrt(x_i), ..., sqrt(x_1), sqrt(x_1), ..., sqrt(x_i)), size 2i + 1.

    The weights are square roots of the branching numbers even though the
    raw symmetrized couplings bundle x_i parallel edges; the dense oracle and
    the shell basis both fix this normalization.  ``spectrum_fluxless`` does
    not build these blocks; they are kept for the shell reduction and as the
    per-block reference in tests.
    """
    xs = graphs.check_growth_sequence(x, allow_trailing_one=True)
    if not (0 <= i <= len(xs)):
        raise InvalidParameterError(f"block index {i} out of range")
    half = [math.sqrt(v) for v in xs[:i][::-1]]
    return Tridiag(diagonal=(0.0,) * (2 * i + 1), offdiagonal=tuple(half + half[::-1]))


def fluxless_multiplicities(x: Sequence[int]) -> list[tuple[int, int]]:
    """(block index, multiplicity) pairs for the fluxless assembly.

    Block d appears once; block i < d appears (x_{i+1} - 1) * prod_{j>i+1} x_j
    times.  The dimensions sum to the tree's vertex count.
    """
    xs = graphs.check_growth_sequence(x)
    d = len(xs)
    out = [(d, 1)]
    for i in range(d - 1, -1, -1):
        mult = xs[i] - 1
        for v in xs[i + 1:]:
            mult *= v
        out.append((i, mult))
    return out


def spectrum_fluxless(x: Sequence[int]) -> Spectrum:
    """Spectrum of the unweighted glued tree, assembled from tridiagonal blocks.

    Block i is mirror-symmetric about its middle row, so it splits into an
    even sector, the size-(i + 1) prefix of the path E with weights
    (sqrt(2) a_1, a_2, ..., a_d), and an odd sector, the size-i prefix of
    O = (a_2, ..., a_d), where a_j = sqrt(x_j).  One ``prefix_eigenvalues``
    call over both paths solves every block.
    """
    xs = graphs.check_growth_sequence(x)
    _require_all_at_least_two(xs, "fluxless assembly")
    a = [math.sqrt(v) for v in xs]
    paths = (_path([math.sqrt(2 * xs[0])] + a[1:]), _path(a[1:]))
    blocks = []
    for (i, mult) in fluxless_multiplicities(xs):
        blocks += [(0, i + 1, mult), (1, i, mult)]
    return _assemble(xs, paths, blocks, "fluxless assembly")


def flux_af_block(x: Sequence[int], i: int) -> Tridiag:
    """Open path block for the tree at flux 2*pi/x_1: size i + 1 with
    off-diagonal weights (sqrt(x_1), ..., sqrt(x_i)), the size-(i + 1)
    prefix of the path F = (a_1, ..., a_d) that ``spectrum_flux_af`` solves."""
    xs = graphs.check_growth_sequence(x, allow_trailing_one=True)
    if not (0 <= i <= len(xs)):
        raise InvalidParameterError(f"block index {i} out of range")
    return _path([math.sqrt(v) for v in xs[:i]])


def flux_af_multiplicities(x: Sequence[int]) -> list[tuple[int, int]]:
    """(block index, multiplicity) pairs at flux 2*pi/x_1.

    Everything except the zero block is doubled; with Q_i = prod_{j=2..i} x_j,
    block d appears twice, block i-1 appears 2 * (x_i - 1) * Q_d / Q_i for
    i = 2..d, and the 1x1 zero block appears (x_1 - 2) * Q_d times.
    """
    xs = graphs.check_growth_sequence(x)
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


def spectrum_flux_af(x: Sequence[int]) -> Spectrum:
    """Spectrum of the canonically gauged tree at flux 2*pi/x_1: block i is
    the size-(i + 1) prefix of the path F = (a_1, ..., a_d), a_j = sqrt(x_j)."""
    xs = graphs.check_growth_sequence(x)
    _require_all_at_least_two(xs, "flux assembly")
    paths = (_path([math.sqrt(v) for v in xs]),)
    blocks = [(0, i + 1, mult) for (i, mult) in flux_af_multiplicities(xs)]
    return _assemble(xs, paths, blocks, "flux assembly")


# ---------------------------------------------------------------------------
# Distance-shell reduction (fluxless only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellReduction:
    tridiag: Tridiag
    shell_sizes: tuple[int, ...]
    closure_residual: float


def distance_shell_reduction(x: Sequence[int], phi: float = 0.0) -> ShellReduction:
    """Collapse the fluxless tree onto uniform-amplitude distance shells.

    Shell i holds the vertices at distance i from the first root; the
    adjacency acts as a (2d+1)-dimensional tridiagonal matrix with weights
    (sqrt(x_d), ..., sqrt(x_1), sqrt(x_1), ..., sqrt(x_d)) going outward
    (the first root fans into x_d subtrees).  Only the zero-flux matrix
    closes on these shells; interference breaks the permutation symmetry
    otherwise.
    """
    if phi != 0.0:
        raise UnsupportedHypothesisError("shell reduction applies at zero flux only")
    xs = graphs.check_growth_sequence(x)
    _require_all_at_least_two(xs, "shell reduction")
    d = len(xs)
    m = gauge.canonical_ccam(xs, 0.0)
    dist = m.graph.distances(m.first_vertex)
    sizes = np.bincount(dist, minlength=2 * d + 1)
    tri = fluxless_block(xs, d)

    # closure check: A on the normalized shell vectors, one column each
    shells = (dist[:, None] == np.arange(2 * d + 1)) / np.sqrt(sizes)
    resid = np.max(np.abs(m.apply(shells).real - shells @ tri.dense()))
    return ShellReduction(tridiag=tri, shell_sizes=tuple(sizes.tolist()),
                          closure_residual=float(resid))
