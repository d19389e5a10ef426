"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a ``criterion N: PASS/FAIL`` line (run with ``-s`` to see
them) and enforces its runtime budget.

Three criteria quantify over the whole flat-value set, which by definition
includes the full-turn angle 2*pi (the z = M member).  A full turn through
every face is gauge-equivalent to zero flux, where glued trees are provably
crossable and the chains disperse, so the corresponding sub-checks of
criteria 5, 6, and 9 fail at exactly that one angle per sequence and nowhere
else.  The failures are kept (not worked around) because the quantified
statements are part of the contract; the README section "The full-turn member
of the flat set" records the analysis, and TestFluxPeriodicityBoundary in
test_gauge.py pins the endpoint behavior.
"""

import math
import time

import numpy as np
import pytest

from caged import bloch, caging, gauge, graphs, spectral

TWO_PI = 2.0 * math.pi


def family(limit=64):
    out = []
    for m in range(2, limit + 1):
        out.extend(graphs.ordered_factorizations(m)[1])
    return out


def report(n, failures, budget, elapsed, detail=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} sub-checks)"
    print(f"criterion {n}: {status} [{elapsed:.2f}s/{budget:.0f}s]{detail}")


def test_c01_rhombic_closed_form():
    t0 = time.perf_counter()
    failures = []
    model = bloch.chain_bloch((2,), 0.0)
    for phi in (0.0, math.pi / 3, math.pi):
        for i in range(101):
            k = TWO_PI * i / 101
            got = np.linalg.eigvalsh(model.matrix(k, phi))
            want = np.array(bloch.rhombic_bands(phi, k))
            if np.max(np.abs(got - want)) > 1e-10:
                failures.append((phi, k))
    elapsed = time.perf_counter() - t0
    report(1, failures, 1, elapsed)
    assert not failures
    assert elapsed < 1.0


def test_c02_rhombic_flat_bands_and_dos():
    t0 = time.perf_counter()
    failures = []
    model = bloch.chain_bloch((2,), math.pi)

    sweep = bloch.band_sweep(model, math.pi, 101)
    if sweep.total_bandwidth >= 1e-10:
        failures.append("bandwidth at pi")
    if np.max(np.abs(sweep.energies[0] - np.array([-2.0, 0.0, 2.0]))) > 1e-10:
        failures.append("energies at pi")

    phis = [TWO_PI * i / 96 for i in range(96)]  # index 48 is exactly pi
    dos = bloch.dos_map(model, phis, 512, 113)   # bin width 0.05 over +-2*sqrt(2)
    width = float(dos.bin_edges[1] - dos.bin_edges[0])
    if not (0.045 <= width <= 0.055):
        failures.append("bin width")
    occupied = dos.occupied_bins(0)
    if not np.all(np.diff(occupied) == 1):
        failures.append("zero-flux column not gapless")
    centers = dos.bin_centers()
    zero_bin = int(np.argmin(np.abs(centers)))
    if not (dos.counts[:, zero_bin] > 0).all():
        failures.append("zero-energy line")
    gaps = []
    for phi in phis:
        energies = np.sort(bloch.band_sweep(model, phi, 256).energies.ravel())
        gaps.append(float(np.max(np.diff(energies))))
    if int(np.argmax(gaps)) != 48:
        failures.append("largest gap not at pi")
    elapsed = time.perf_counter() - t0
    report(2, failures, 5, elapsed)
    assert not failures
    assert elapsed < 5.0


def test_c03_theorem_vs_oracle_spectra():
    t0 = time.perf_counter()
    failures = []
    fam = family(64)
    required = {(2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)}
    assert required <= set(fam)
    for xs in fam:
        thm0 = spectral.spectrum_fluxless(xs).expand()
        orc0 = spectral.ccam_spectrum(gauge.canonical_ccam(xs, 0.0)).expand()
        if len(thm0) != len(orc0) or np.max(np.abs(thm0 - orc0)) > 1e-8:
            failures.append((xs, "fluxless"))
        thma = spectral.spectrum_flux_af(xs).expand()
        orca = spectral.ccam_spectrum(
            gauge.canonical_ccam(xs, TWO_PI / xs[0])).expand()
        if len(thma) != len(orca) or np.max(np.abs(thma - orca)) > 1e-8:
            failures.append((xs, "flux"))
    elapsed = time.perf_counter() - t0
    report(3, failures, 30, elapsed, f" ({len(fam)} sequences, both flux points)")
    assert not failures
    assert elapsed < 30.0


def test_c04_pnary_asymptotics():
    t0 = time.perf_counter()
    failures = []
    for p in (2, 3, 4, 5):
        spec = spectral.spectrum_fluxless((p,) * 10)
        frac = spec.multiplicity_at(0.0) / spec.dimension
        if abs(frac - (p - 1) / (p + 1)) >= 0.02:
            failures.append((p, "zero fraction", frac))
        top = max(v for (v, _m) in spec.eigenvalues)
        if abs(top - 2 * math.sqrt(p)) >= 0.05:
            failures.append((p, "largest eigenvalue", top))
    elapsed = time.perf_counter() - t0
    report(4, failures, 5, elapsed)
    assert not failures
    assert elapsed < 5.0


def test_c05_caging_sweep():
    """Exact-arithmetic crossing certification over every flat value.

    The z = M member of each flat set is the full turn, where the tree is
    crossable; those sub-checks fail, all others pass.
    """
    t0 = time.perf_counter()
    failures = []
    for xs in family(64):
        m_prod = math.prod(xs)
        n = 4 * m_prod
        kmax = 4 * len(xs)
        base = gauge.canonical_ccam(xs, TWO_PI / m_prod)
        polys = caging.crossing_amplitude_polynomials(base, kmax, n)
        table = caging.cyclotomic_zero_table(polys, n)
        for z in range(1, m_prod + 1):
            if not bool(table[:, z - 1].all()):
                failures.append((xs, z))
        for z in range(m_prod):
            phi = TWO_PI * (z + 0.5) / m_prod
            amps = caging.crossing_amplitudes(gauge.canonical_ccam(xs, phi), kmax)
            if float(np.max(np.abs(amps))) < 1e-6:
                failures.append((xs, "midpoint", z))
    elapsed = time.perf_counter() - t0
    endpoint_only = all(len(f) == 2 and f[1] == math.prod(f[0]) for f in failures)
    report(5, failures, 30, elapsed,
           " - all failures are the full-turn angle z = M" if failures and endpoint_only else "")
    assert elapsed < 30.0
    assert not failures


def test_c06_flat_band_chain():
    """Total bandwidth of the depth-three chain at its twelve flat values.

    The twelfth flat value is the full turn, where the chain disperses; that
    sub-check fails, the other twenty-three pass.
    """
    t0 = time.perf_counter()
    failures = []
    model = bloch.chain_bloch((2, 3, 2), 0.0)
    fv = gauge.flat_values((2, 3, 2))
    for z, phi in enumerate(fv.values, start=1):
        width = bloch.band_sweep(model, phi, 101).total_bandwidth
        if width >= 1e-8:
            failures.append(("flat", z, width))
    for z, phi in enumerate(fv.midpoints()):
        width = bloch.band_sweep(model, phi, 101).total_bandwidth
        if width <= 1e-4:
            failures.append(("midpoint", z, width))
    elapsed = time.perf_counter() - t0
    endpoint_only = failures == [("flat", 12, failures[0][2])] if failures else False
    report(6, failures, 60, elapsed,
           " - the failure is the full-turn angle z = M" if endpoint_only else "")
    assert elapsed < 60.0
    assert not failures


def test_c07_cls_completeness():
    """Full compact-state coverage for the chain and the lotus patches.

    ``support radius <= one unit cell`` is read as confinement to the seed's
    cell and its neighbors: cell window one cell each way, graph radius at
    most (2d-1) to reach a root plus (2d-1) of penetration = 4*depth - 2.
    """
    t0 = time.perf_counter()
    failures = []

    m = gauge.chain_ccam((2, 3, 2), 4, math.pi / 6)
    depth = 3
    rep = caging.verify_all_cls(m, 4 * depth - 2)
    if not rep.covered:
        failures.append("chain span")
    if not rep.radius_ok:
        failures.append("chain radius")
    if max(r.residual for r in rep.records) > 1e-8:
        failures.append("chain residuals")
    for rec in rep.records:
        res = caging.krylov_cls(m, rec.seed)
        seed_cell = graphs.chain_cell_of_vertex(m.graph, rec.seed)
        for s in res.states:
            cells = {graphs.chain_cell_of_vertex(m.graph, v) for v in s.amplitudes}
            if any(abs(c - seed_cell) > 1 for c in cells):
                failures.append(("chain window", rec.seed))

    for spec_args, flat in [
        (graphs.LotusSpec(kind="first", sides=6, shrub_p=2), math.pi),
        (graphs.LotusSpec(kind="first", sides=7, shrub_p=3), TWO_PI / 3),
    ]:
        patch = graphs.lotus_patch(spec_args)
        mp = gauge.lotus_ccam(patch, flat)
        for hub in graphs.lotus_hubs(patch):
            res = caging.krylov_cls(mp, hub)
            if not res.closed or res.support_radius > 2:
                failures.append((spec_args.sides, "closure", hub))
            if not caging.local_caging_check(mp, hub):
                failures.append((spec_args.sides, "square check", hub))
    elapsed = time.perf_counter() - t0
    report(7, failures, 60, elapsed)
    assert not failures
    assert elapsed < 60.0


def test_c08_star_lattice_flat_point():
    """The six-band star-lattice model flattens at pi.

    The phased weight appears on two edges of every face, so it is taken as
    exp(i*phi/2) to make phi the per-face flux; the independent real-space
    check (every hub of the one-tile patch caged at pi, uncaged off it)
    validates the convention.
    """
    t0 = time.perf_counter()
    failures = []
    sweep = bloch.band_sweep(bloch.second_kind_44_bloch(math.pi), math.pi, 32)
    if sweep.total_bandwidth >= 1e-8:
        failures.append(("bandwidth", sweep.total_bandwidth))

    patch = graphs.lotus_patch(graphs.LotusSpec(kind="second", sides=4, tiling_q=4))
    center = patch.roles.index("center")
    if not caging.local_caging_check(gauge.lotus_ccam(patch, math.pi), center):
        failures.append("real-space caging at pi")
    if caging.local_caging_check(gauge.lotus_ccam(patch, 1.0), center):
        failures.append("real-space caging off the flat point")
    elapsed = time.perf_counter() - t0
    report(8, failures, 10, elapsed)
    assert not failures
    assert elapsed < 10.0


def test_c09_corner_recurrences():
    """Corner-recurrence identities against the dense adjugate oracle.

    chi_d vanishes at every flat value except the full turn (z = M), which
    is gauge-equivalent to zero flux; that direction of the equivalence
    fails there and nowhere else.
    """
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        xs = tuple(int(v) for v in rng.integers(2, 5, size=d))
        phi = float(rng.uniform(0.0, TWO_PI))
        lam = complex(rng.normal(), rng.normal() + math.copysign(0.4, rng.normal()))
        states = caging.resolvent_recurrence(xs, phi, lam)
        prev = -lam
        for st in states:
            lhs = st.delta * prev
            rhs = st.phi * st.phi - st.chi * st.chi
            scale = max(abs(lhs), abs(rhs), 1e-30)
            if abs(lhs - rhs) > 1e-8 * scale:
                failures.append((xs, phi, "identity"))
            prev = st.delta
        # independent check of the top level against the dense adjugate
        m = gauge.canonical_ccam(xs, phi)
        h = gauge.dense_matrix(m)
        shifted = h - lam * np.eye(len(h))
        nu = caging.recurrence_normalizer(xs, phi, lam, d)
        delta_oracle = complex(np.linalg.det(shifted)) * nu
        if abs(states[-1].delta - delta_oracle) > 1e-6 * max(1.0, abs(delta_oracle)):
            failures.append((xs, phi, "oracle"))

    lam = 0.3 + 0.9j
    for xs in [(2,), (2, 2), (2, 3), (2, 3, 2)]:
        m_prod = math.prod(xs)
        fv = gauge.flat_values(xs)
        for z in range(1, m_prod + 1):
            chi = caging.resolvent_recurrence(xs, TWO_PI * z / m_prod, lam)[-1].chi
            if abs(chi) > 1e-10:
                failures.append((xs, z, "chi nonzero on flat set"))
        for phi in fv.midpoints():
            chi = caging.resolvent_recurrence(xs, phi, lam)[-1].chi
            if abs(chi) < 1e-10:
                failures.append((xs, phi, "chi zero off flat set"))

    for xs in [(2,), (2, 2), (2, 3)]:
        variation = bloch.charpoly_k_independence(
            xs, TWO_PI / math.prod(xs), [0.5, 1.5, 3.0])
        if variation >= 1e-8:
            failures.append((xs, "charpoly"))
    elapsed = time.perf_counter() - t0
    endpoint_only = all(
        len(f) == 3 and f[2] == "chi nonzero on flat set" and f[1] == math.prod(f[0])
        for f in failures)
    report(9, failures, 30, elapsed,
           " - all failures are the full-turn angle z = M" if failures and endpoint_only else "")
    assert elapsed < 30.0
    assert not failures


def test_c10_ordered_factorizations():
    t0 = time.perf_counter()
    failures = []

    def multiset_oracle(m):
        def rec(value, lo):
            if value == 1:
                return [()]
            out = []
            f = lo
            while f <= value:
                if value % f == 0:
                    out.extend((f,) + rest for rest in rec(value // f, f))
                f += 1
            return out

        import itertools
        ordered = set()
        for ms in rec(m, 2):
            ordered.update(itertools.permutations(ms))
        return ordered

    for m in range(1, 61):
        count, facs = graphs.ordered_factorizations(m)
        want = multiset_oracle(m) if m > 1 else {()}
        if count != len(want) or set(facs) != want:
            failures.append((m, "enumeration"))

    counts = graphs.ordered_factorization_counts(10_000)
    for m in range(1, 10_001):
        if graphs.ordered_factorizations(m)[0] != counts[m]:
            failures.append((m, "recurrence"))
            break
    elapsed = time.perf_counter() - t0
    report(10, failures, 5, elapsed)
    assert not failures
    assert elapsed < 5.0
