"""Reference computations the benchmark checks the program against.

Everything here is written from the paper's formulas and from plain linear
algebra on edge lists; nothing imports or calls the ``caged`` package, so a
fault in the program cannot hide by also appearing in its own reference.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Sizes and arithmetic of growth sequences
# ---------------------------------------------------------------------------


def vertex_count(xs: Sequence[int]) -> int:
    """N_1 = x_1 + 2, N_i = x_i * N_{i-1} + 2."""
    n = xs[0] + 2
    for x in xs[1:]:
        n = x * n + 2
    return n


def edge_count(xs: Sequence[int]) -> int:
    """E_1 = 2 x_1, E_i = x_i * (E_{i-1} + 2)."""
    e = 2 * xs[0]
    for x in xs[1:]:
        e = x * (e + 2)
    return e


def is_caged(xs: Sequence[int], z: int) -> bool:
    """The paper's arithmetic caging rule at flux 2*pi*z/M.

    Caged iff some level i has z*P_{i-1}/M non-integral while z*P_i/M is an
    integer, with P_i = x_1 ... x_i and P_0 = 1.  The full turn z = M is
    therefore crossable.
    """
    m = math.prod(xs)
    prev = 1
    for x in xs:
        cur = prev * x
        if (z * prev) % m != 0 and (z * cur) % m == 0:
            return True
        prev = cur
    return False


def factorization_counts(limit: int) -> list[int]:
    """Ordered factorizations into parts > 1: N(1) = 1, N(n) = sum of N(d)
    over the proper divisors d of n."""
    counts = [0] * (limit + 1)
    counts[1] = 1
    for d in range(1, limit + 1):
        for multiple in range(2 * d, limit + 1, d):
            counts[multiple] += counts[d]
    return counts


def check_factorizations(m: int, count: int, listed: Sequence[tuple[int, ...]],
                         counts: Sequence[int]) -> str | None:
    """Why an ordered-factorization answer is wrong, or None when it is right.

    The listed tuples must be distinct factorizations of m into parts > 1
    and as many as the divisor recurrence counts, which makes them all.
    """
    if count != counts[m]:
        return f"count {count} != {counts[m]}"
    if len(listed) != count or len(set(listed)) != count:
        return "listed factorizations are not distinct or miscounted"
    for f in listed:
        if math.prod(f) != m or any(v < 2 for v in f):
            return f"{f} is not a factorization of {m} into parts > 1"
    return None


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def spectrum_moments(pairs: Iterable[tuple[float, int]]) -> tuple[int, float, float, float]:
    """(sum mult, sum mult*lam, sum mult*|lam|, sum mult*lam^2)."""
    dim, s1, a1, s2 = 0, 0.0, 0.0, 0.0
    for lam, mult in pairs:
        dim += mult
        s1 += mult * lam
        a1 += mult * abs(lam)
        s2 += mult * lam * lam
    return dim, s1, a1, s2


def trace_identity_error(pairs: Sequence[tuple[float, int]], xs: Sequence[int]) -> str | None:
    """Check sum mult = N, sum mult*lam = 0 and sum mult*lam^2 = 2|E|.

    Any unit-modulus Hermitian adjacency has zero trace and tr H^2 = 2|E|,
    whatever the flux.
    """
    dim, s1, a1, s2 = spectrum_moments(pairs)
    if dim != vertex_count(xs):
        return f"dimension {dim} != {vertex_count(xs)}"
    if abs(s1) > 1e-9 * max(a1, 1.0):
        return f"trace {s1:.3e} != 0"
    want = 2 * edge_count(xs)
    if abs(s2 - want) > 1e-9 * want:
        return f"tr H^2 {s2!r} != {want}"
    return None


def cluster(values: Sequence[float], mults: Sequence[int],
            tol: float = 1e-9) -> list[tuple[float, int]]:
    """Merge sorted (value, multiplicity) pairs closer than ``tol``."""
    order = np.argsort(values, kind="stable")
    out: list[list] = []
    for i in order:
        v, m = float(values[i]), int(mults[i])
        if out and v - out[-1][0] <= tol:
            out[-1][1] += m
        else:
            out.append([v, m])
    return [(v, m) for v, m in out]


def pnary_fluxless_spectrum(p: int, depth: int) -> list[tuple[float, int]]:
    """Spectrum of the fluxless p-nary glued tree from closed forms.

    The tree splits into path blocks: block i (size 2i + 1, every weight
    sqrt(p)) has eigenvalues 2 sqrt(p) cos(pi k / (2i + 2)), k = 1..2i+1.
    Block d appears once and block i < d appears (p - 1) p^(d - i - 1) times.
    """
    values: list[float] = []
    mults: list[int] = []
    for i in range(depth + 1):
        mult = 1 if i == depth else (p - 1) * p ** (depth - i - 1)
        k = np.arange(1, 2 * i + 2)
        values.extend((2.0 * math.sqrt(p) * np.cos(np.pi * k / (2 * i + 2))).tolist())
        mults.extend([mult] * len(k))
    return cluster(values, mults)


# ---------------------------------------------------------------------------
# Dense matrices and walks from a weighted edge list
# ---------------------------------------------------------------------------


def edge_arrays(entries: Sequence[tuple[int, int, float]]):
    arr = np.array(entries, dtype=float).reshape(-1, 3)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]


def dense_from_entries(dim: int, entries: Sequence[tuple[int, int, float]]) -> np.ndarray:
    """<u|H|v> = exp(i theta), <v|H|u> = exp(-i theta) for each (u, v, theta)."""
    us, vs, ts = edge_arrays(entries)
    h = np.zeros((dim, dim), dtype=complex)
    w = np.exp(1j * ts)
    h[us, vs] = w
    h[vs, us] = w.conj()
    return h


def walk_counts(dim: int, entries: Sequence[tuple[int, int, float]], source: int,
                target: int, kmax: int) -> list[int]:
    """Exact number of length-k walks from source to target, k = 1..kmax."""
    us, vs, _ts = edge_arrays(entries)
    vec = np.zeros(dim, dtype=object)
    vec[source] = 1
    out = []
    for _ in range(kmax):
        new = np.zeros(dim, dtype=object)
        np.add.at(new, us, vec[vs])
        np.add.at(new, vs, vec[us])
        vec = new
        out.append(int(vec[target]))
    return out


def crossing_amplitudes(h: np.ndarray, source: int, target: int, kmax: int) -> np.ndarray:
    """<target|H^k|source>, k = 1..kmax, by dense products in complex128."""
    vec = np.zeros(h.shape[0], dtype=complex)
    vec[source] = 1.0
    out = np.empty(kmax, dtype=complex)
    for k in range(kmax):
        vec = h @ vec
        out[k] = vec[target]
    return out


def roundoff_bound(walks: Sequence[int]) -> np.ndarray:
    """Largest |amplitude| that float arithmetic can leave where the exact
    value is zero: a generous 1e-12 of the walk count, which bounds the sum
    of the magnitudes of the interfering terms."""
    return 1e-12 * np.array([float(w) for w in walks]) + 1e-300


def face_winding_error(entries: Sequence[tuple[int, int, float]],
                       faces: Sequence[Sequence[int]], fluxes: Sequence[float]) -> float:
    """Worst distance (mod 2 pi) between each face's phase winding and its flux."""
    phase = {}
    for u, v, t in entries:
        phase[(u, v)] = t
        phase[(v, u)] = -t
    worst = 0.0
    for cyc, flux in zip(faces, fluxes):
        total = sum(phase[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc)))
        r = math.remainder(total - flux, TWO_PI)
        worst = max(worst, abs(r))
    return worst


def bfs_distances(dim: int, entries: Sequence[tuple[int, int, float]], source: int) -> np.ndarray:
    nbrs: list[list[int]] = [[] for _ in range(dim)]
    for u, v, _t in entries:
        nbrs[int(u)].append(int(v))
        nbrs[int(v)].append(int(u))
    dist = np.full(dim, -1)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def span_rank(vectors: Sequence[np.ndarray], tol: float = 1e-8) -> int:
    if len(vectors) == 0:
        return 0
    s = np.linalg.svd(np.array(vectors), compute_uv=False)
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def nearest_gap(values: Iterable[float], spectrum: np.ndarray) -> float:
    """Largest distance from any value to the nearest point of ``spectrum``."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        return 0.0
    return float(np.max(np.min(np.abs(vals[:, None] - spectrum[None, :]), axis=1)))


# ---------------------------------------------------------------------------
# Bloch bands
# ---------------------------------------------------------------------------


def chain_bands(h_tree: np.ndarray, first: int, last: int, phi: float,
                momenta: Sequence[float]) -> np.ndarray:
    """Bands of the root-to-root chain folded from one tree's dense matrix.

    The last root of a cell is the next cell's first root: couplings into the
    last root wrap onto the first root with the momentum phase exp(-i k'),
    where k' = k - phi/2 places the zone origin where the rhombic closed form
    has it.  Returns an array (len(momenta), N - 1), ascending per row.
    """
    keep = [v for v in range(h_tree.shape[0]) if v != last]
    pos = {v: i for i, v in enumerate(keep)}
    base = h_tree[np.ix_(keep, keep)]
    col = h_tree[keep, last]  # <u|H|last>
    stack = np.repeat(base[None, :, :], len(momenta), axis=0)
    f = pos[first]
    for i, k in enumerate(momenta):
        wrap = np.exp(-1j * (k - 0.5 * phi))
        stack[i, :, f] += col * wrap
        stack[i, f, :] += np.conj(col * wrap)
    return np.linalg.eigvalsh(stack)


def rhombic_bands(phi: float, momenta: np.ndarray) -> np.ndarray:
    """Rhombic chain closed form: 0 and +-sqrt(2) sqrt(2 + cos k + cos(k - phi))."""
    e = math.sqrt(2.0) * np.sqrt(np.maximum(2.0 + np.cos(momenta) + np.cos(momenta - phi), 0.0))
    return np.stack([-e, np.zeros_like(e), e], axis=1)


def histogram_mismatch(values: np.ndarray, edges: np.ndarray, counts: np.ndarray) -> int:
    """How many counts differ from histogramming ``values`` beyond what values
    lying within 1e-9 of a bin edge may move between neighbouring bins."""
    want, _ = np.histogram(values, bins=edges)
    near_edge = int(np.sum(np.min(np.abs(values[:, None] - edges[None, :]), axis=1) < 1e-9))
    excess = int(np.sum(np.abs(want - counts))) - 2 * near_edge
    return max(excess, 0)


def lotus_first_vertex_count(sides: int, p: int) -> int:
    """One tile of a first-kind lotus: corners, side midpoints, the hub, the
    ring shared by neighbouring shrubs, and p - 2 more interiors per shrub."""
    return 3 * sides + 1 + 2 * sides * (p - 2)
