"""The benchmark's workloads: inputs built from a seed, the ops, their checks.

An op is one call into the program that answers one question.  ``run``
makes only the program calls (and is what the benchmark times); ``check``
runs afterwards, outside the timing, and compares the answer with the
computations in ``reference.py`` or with a property the method must have.
A check raises ``Mismatch`` for a wrong answer and ``NamedFault`` for the
one known program fault the benchmark keeps as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi

# Every growth sequence with entries >= 2 and product at most this bound: 197
# sequences.  The acceptance gate uses 64 (440 sequences), but a caging round
# over that family takes 20 to 28 s on a 2-core box, and every run must fit
# several rounds so that per-op medians can discard the rounds that a busy
# machine slows down.
FAMILY_BOUND = 40

# The CLI decides caging from floating-point amplitudes against --tol 1e-10.
# On deep trees roundoff alone exceeds that, so the CLI calls caged trees
# crossable.  Those ops stay in the caging workload and count as failed.
FLOAT_VERDICT_FAULT = "float-caging-verdict"


class Mismatch(Exception):
    """The program's answer disagrees with the reference."""


class NamedFault(Exception):
    """The answer is wrong in the way the named program fault predicts."""

    def __init__(self, tag: str, detail: str):
        super().__init__(f"{tag}: {detail}")
        self.tag = tag


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[Any], Any]         # run(tracer) -> answer
    check: Callable[[Any, Any], None]  # check(tracer, answer)


def require(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


def seq_text(xs) -> str:
    return ",".join(str(v) for v in xs)


def run_cli(program, argv: list[str]) -> tuple[int, str, str]:
    """One ``caged`` invocation in this process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


class Context:
    """State shared by one workload's ops: the fresh program and caches of
    reference results, which are computed once per run outside all timing."""

    def __init__(self, program, refcache: dict):
        self.p = program
        self.cache = refcache

    def memo(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def walks(self, xs, kmax):
        def compute():
            m = self.checked_ccam(xs, 0.0)
            return ref.walk_counts(m.dimension, m.entries, m.first_vertex, m.last_vertex, kmax)
        return self.memo(("walks", xs, kmax), compute)

    def checked_ccam(self, xs, phi):
        m = self.p.gauge.canonical_ccam(xs, phi)
        check_tree_ccam(m, xs, phi)
        return m


def check_tree_ccam(m, xs, phi, faces: bool = True):
    require(m.dimension == ref.vertex_count(xs), f"{xs}: |V| {m.dimension}")
    require(len(m.entries) == ref.edge_count(xs), f"{xs}: |E| {len(m.entries)}")
    if faces:
        err = ref.face_winding_error(m.entries, m.graph.plaquettes,
                                     [phi] * len(m.graph.plaquettes))
        require(err < 1e-9, f"{xs}: face flux off by {err:.3e} at phi={phi}")


# ---------------------------------------------------------------------------
# Family enumeration (set-up of every workload)
# ---------------------------------------------------------------------------


def enumerate_family(program, tr) -> dict[int, tuple[int, tuple]]:
    return {m: tr.call("graphs.factorize", program.graphs.ordered_factorizations, m)
            for m in range(2, FAMILY_BOUND + 1)}


def check_family(listing: dict, tr):
    counts = ref.factorization_counts(FAMILY_BOUND)
    for m, (count, facs) in listing.items():
        problem = ref.check_factorizations(m, count, facs, counts)
        require(problem is None, f"family enumeration at m={m}: {problem}")
        tr.count("graphs.factorizations_listed", len(facs))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

STAIRCASE_DEPTHS = (9, 11, 13, 15)
FACTORIZE_RANGE = range(901, 1101)


def build_spectra(ctx: Context, family, rng: random.Random) -> list[Op]:
    P = ctx.p
    ops: list[Op] = []

    def ref_eigs(xs, phi):
        def compute():
            m = ctx.checked_ccam(xs, phi)
            return np.linalg.eigvalsh(ref.dense_from_entries(m.dimension, m.entries))
        return ctx.memo(("eigs", xs, phi), compute)

    def theorem_op(xs, at_af):
        fn = P.spectral.spectrum_flux_af if at_af else P.spectral.spectrum_fluxless
        phi = TWO_PI / xs[0] if at_af else 0.0

        def check(tr, spec):
            problem = ref.trace_identity_error(spec.eigenvalues, xs)
            require(problem is None, f"theorem {xs} phi={phi}: {problem}")
            dev = float(np.max(np.abs(spec.expand() - ref_eigs(xs, phi))))
            require(dev <= 1e-8, f"theorem {xs} phi={phi}: off dense solve by {dev:.3e}")
            tr.count("spectral.max_dev", dev)
            if tr.enabled:
                mults = (P.spectral.flux_af_multiplicities if at_af
                         else P.spectral.fluxless_multiplicities)(xs)
                tr.count("spectral.theorem_blocks", len(mults))

        return Op("theorem", f"{xs}@{phi:.4f}",
                  lambda tr: tr.call("spectral.theorem", fn, xs), check)

    def oracle_op(xs, phi):
        def run(tr):
            m = tr.call("gauge.canonical_ccam", P.gauge.canonical_ccam, xs, phi)
            return m, tr.call("spectral.oracle", P.spectral.ccam_spectrum, m)

        def check(tr, answer):
            m, spec = answer
            check_tree_ccam(m, xs, phi, faces=False)
            problem = ref.trace_identity_error(spec.eigenvalues, xs)
            require(problem is None, f"oracle {xs} phi={phi}: {problem}")
            dev = float(np.max(np.abs(spec.expand() - ref_eigs(xs, phi))))
            require(dev <= 1e-9, f"oracle {xs} phi={phi}: off dense solve by {dev:.3e}")
            tr.count("gauge.edges_built", len(m.entries))
            tr.count("spectral.oracle_flops", float(m.dimension) ** 3)

        return Op("oracle", f"{xs}@{phi:.4f}", run, check)

    def staircase_op(p, depth):
        xs = (p,) * depth
        argv = ["spectrum", "--x", seq_text(xs), "--phi", "0", "--method", "theorem"]

        def check(tr, answer):
            code, out, err = answer
            require(code == 0, f"staircase {xs}: exit {code} {err.strip()}")
            tr.count("cli.bytes_out", len(out))
            lines = out.strip().splitlines()
            require(lines[0] == "eigenvalue,multiplicity", f"staircase {xs}: header")
            got = [(float(v), int(m)) for v, m in (line.split(",") for line in lines[1:])]
            problem = ref.trace_identity_error(got, xs)
            require(problem is None, f"staircase {xs}: {problem}")
            want = ref.pnary_fluxless_spectrum(p, depth)
            require(len(got) == len(want), f"staircase {xs}: {len(got)} levels, want {len(want)}")
            for (gv, gm), (wv, wm) in zip(got, want):
                require(abs(gv - wv) <= 1e-9 and gm == wm,
                        f"staircase {xs}: level ({gv}, {gm}) != closed form ({wv}, {wm})")

        return Op("cli_spectrum", seq_text(xs),
                  lambda tr: tr.call("cli.main", run_cli, P, argv), check)

    def factorize_op(m):
        def check(tr, answer):
            count, facs = answer
            counts = ctx.memo("counts", lambda: ref.factorization_counts(FACTORIZE_RANGE.stop))
            problem = ref.check_factorizations(m, count, facs, counts)
            require(problem is None, f"factorize {m}: {problem}")
            tr.count("graphs.factorizations_listed", len(facs))

        return Op("factorize", str(m),
                  lambda tr: tr.call("graphs.factorize", P.graphs.ordered_factorizations, m),
                  check)

    for xs in family:
        ops += [theorem_op(xs, False), theorem_op(xs, True),
                oracle_op(xs, 0.0), oracle_op(xs, TWO_PI / xs[0])]
    ops.append(staircase_op(2, 12))  # the README staircase figure
    ops += [staircase_op(rng.randint(2, 6), depth) for depth in STAIRCASE_DEPTHS]
    ops += [factorize_op(m) for m in FACTORIZE_RANGE]
    return ops


# ---------------------------------------------------------------------------
# caging
# ---------------------------------------------------------------------------

DEEP_FIXED = ((2, 3, 2, 2, 2, 2), (2,) * 8)
# Orderings of 2,2,2,2,3,3 that start 2,2: within 5% of each other in cost,
# so the seed's pick barely moves the round's length.
DEEP_POOL = tuple(sorted(p for p in set(itertools.permutations((2, 2, 2, 2, 3, 3)))
                         if p[:2] == (2, 2)))
DEEP_PICKS = 2
# Fixed flux indices z for the CLI verdicts: their float failures must not
# depend on the seed.
CLI_CAGING_Z = {(2, 3, 2, 2, 2, 2): range(1, 97), (2,) * 8: range(8, 257, 8)}
VERIFY_Z = {(2, 3, 2, 2, 2, 2): (1, 5, 48, 96), (2,) * 8: (1,)}


def build_caging(ctx: Context, family, rng: random.Random) -> list[Op]:
    P = ctx.p
    ops: list[Op] = []

    def certificate_op(xs):
        mprod = math.prod(xs)
        kmax, n = 4 * len(xs), 4 * mprod

        def run(tr):
            m = tr.call("gauge.canonical_ccam", P.gauge.canonical_ccam, xs, TWO_PI / mprod)
            polys = tr.call("caging.poly", P.caging.crossing_amplitude_polynomials, m, kmax, n)
            table = tr.call("caging.zero_table", P.caging.cyclotomic_zero_table,
                            polys, n, range(1, mprod + 1))
            return m, polys, table

        def check(tr, answer):
            m, polys, table = answer
            check_tree_ccam(m, xs, TWO_PI / mprod)
            require(table.shape == (kmax, mprod), f"certificate {xs}: table {table.shape}")
            got = table.all(axis=0)
            want = np.array([ref.is_caged(xs, z) for z in range(1, mprod + 1)])
            bad = np.nonzero(got != want)[0]
            require(bad.size == 0, f"certificate {xs}: verdict wrong at z={bad[:5] + 1}")
            # At zeta = 1 every phase is a whole turn: the coefficients of A_k
            # must add up to the number of k-step walks between the roots.
            sums = [int(s) for s in polys.sum(axis=1)]
            require(sums == ctx.walks(xs, kmax), f"certificate {xs}: coefficient sums")
            tr.count("gauge.edges_built", len(m.entries))
            tr.count("caging.poly_updates", 2 * len(m.entries) * kmax)
            tr.count("caging.poly_state_mib", m.dimension * n * 8 / 2**20)

        return Op("certificate", seq_text(xs), run, check)

    def midpoint_op(xs, z):
        mprod = math.prod(xs)
        kmax = 4 * len(xs)
        phi = TWO_PI * (z + 0.5) / mprod

        def run(tr):
            m = tr.call("gauge.canonical_ccam", P.gauge.canonical_ccam, xs, phi)
            return m, tr.call("caging.amplitudes", P.caging.crossing_amplitudes, m, kmax)

        def check(tr, answer):
            m, amps = answer
            check_tree_ccam(m, xs, phi, faces=False)
            want = ctx.memo(("amplitudes", xs, z), lambda: ref.crossing_amplitudes(
                ref.dense_from_entries(m.dimension, m.entries),
                m.first_vertex, m.last_vertex, kmax))
            slack = ref.roundoff_bound(ctx.walks(xs, kmax))
            require(bool(np.all(np.abs(amps - want) <= slack)),
                    f"midpoint {xs} z={z}: amplitudes off the dense products")
            # Half-way between flat values no level closes the rule, so the
            # tree must be crossable.
            require(float(np.max(np.abs(amps))) >= 1e-6, f"midpoint {xs} z={z}: caged")
            tr.count("gauge.edges_built", len(m.entries))
            tr.count("caging.matvecs", kmax)

        return Op("midpoint_amplitudes", f"{xs} z={z}", run, check)

    def cli_caging_op(xs, z):
        mprod = math.prod(xs)
        kmax = 4 * len(xs)
        caged = z < mprod
        argv = ["caging", "--x", seq_text(xs), "--phi",
                f"{2 * z}pi/{mprod}" if caged else "2pi",
                "--assert-caged" if caged else "--assert-uncaged"]

        def check(tr, answer):
            code, out, err = answer
            tr.count("cli.bytes_out", len(out))
            require(ref.is_caged(xs, z) == caged, "rule")
            _header, rows = parse_csv(out)
            require(rows.shape == (kmax, 2), f"caging {xs} z={z}: {rows.shape} rows")
            amps = rows[:, 1]
            walks = ctx.walks(xs, kmax)
            if caged:
                require(bool(np.all(amps <= ref.roundoff_bound(walks))),
                        f"caging {xs} z={z}: amplitude above roundoff where the rule says caged")
                if code == 2 and "crossable" in err:
                    raise NamedFault(FLOAT_VERDICT_FAULT,
                                     f"{xs} z={z}: roundoff {amps.max():.2e} read as crossable")
            else:
                # A whole turn is gauge-equivalent to zero flux: |amplitude| = walks.
                walks = np.array([float(v) for v in walks])
                require(bool(np.all(np.abs(amps - walks) <= 1e-9 * walks + 1e-12)),
                        f"caging {xs} full turn: amplitudes are not the walk counts")
            require(code == 0, f"caging {xs} z={z}: exit {code} {err.strip()}")

        return Op("cli_caging", f"{xs} z={z}",
                  lambda tr: tr.call("cli.main", run_cli, P, argv), check)

    def cli_verify_op(xs, z):
        mprod = math.prod(xs)
        argv = ["verify", "--x", seq_text(xs), "--phi",
                f"{2 * z}pi/{mprod}" if z < mprod else "2pi"]

        def check(tr, answer):
            code, out, err = answer
            tr.count("cli.bytes_out", len(out))
            lines = out.strip().splitlines()
            if code == 2 and lines[-1] == "FAIL: caging":
                worst = float(next(ln for ln in lines if ln.startswith("crossing amplitudes"))
                              .rsplit(" ", 1)[1])
                bound = float(ref.roundoff_bound(ctx.walks(xs, 4 * len(xs))).max())
                require(ref.is_caged(xs, z) and worst <= bound,
                        f"verify {xs} z={z}: amplitude {worst:.3e} is not roundoff")
                raise NamedFault(FLOAT_VERDICT_FAULT,
                                 f"verify {xs} z={z}: roundoff {worst:.2e} read as crossable")
            require(code == 0 and lines[-1] == "OK", f"verify {xs} z={z}: {lines[-1]} {err}")

        return Op("cli_verify", f"{xs} z={z}",
                  lambda tr: tr.call("cli.main", run_cli, P, argv), check)

    for xs in family:
        ops.append(certificate_op(xs))
        ops += [midpoint_op(xs, z) for z in range(math.prod(xs))]
    deep = list(DEEP_FIXED) + rng.sample(DEEP_POOL, DEEP_PICKS)
    ops += [certificate_op(xs) for xs in deep]
    for xs in DEEP_FIXED:
        ops += [cli_caging_op(xs, z) for z in CLI_CAGING_Z[xs]]
        ops += [cli_verify_op(xs, z) for z in VERIFY_Z[xs]]
    return ops


# ---------------------------------------------------------------------------
# flat-bands
# ---------------------------------------------------------------------------

CHAIN = (2, 3, 2)
SWEEP_GRID, SWEEP_K = 120, 101
COVERS = (((2, 3, 2), 2), ((2,), 6), ((3,), 6), ((2, 2), 4), ((2, 3), 3), ((3, 2), 3))
LOTUS = ((("first", 6, 2, 3, 1), math.pi), (("first", 7, 3, 3, 1), TWO_PI / 3),
         (("first", 6, 2, 3, 2), math.pi))
DOS_PHI, DOS_K, DOS_BINS = 48, 128, 113
DOS_FIGURE = ["dos", "--x", "2", "--phi-grid", "96", "--k-grid", "256", "--bins", "201"]
BANDS44_FIGURE = ["bands", "--model", "lotus44", "--phi", "pi", "--grid", "32"]
DICE_FIGURE = ["cls", "--lotus", "first,6,2,3", "--phi", "pi", "--radius-bound", "3"]


def rhombic_histograms(phis, k_grid, bins):
    """Closed-form rhombic DOS with the CLI's binning: shared edges over the
    global energy range, padded by 1e-9 of its width."""
    ks = TWO_PI * np.arange(k_grid) / k_grid
    values = [ref.rhombic_bands(phi, ks).ravel() for phi in phis]
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    pad = 1e-9 * max(1.0, hi - lo)
    return values, np.linspace(lo - pad, hi + pad, bins + 1)


def is_flat_value(phi: float) -> bool:
    """Whether phi is 2 pi z / M with 0 < z < M, where the chain's tree cages."""
    mprod = math.prod(CHAIN)
    z = round(phi * mprod / TWO_PI)
    return abs(phi - TWO_PI * z / mprod) < 1e-9 and 0 < z < mprod


def build_flat_bands(ctx: Context, lotus) -> list[Op]:
    P = ctx.p
    ops: list[Op] = []
    momenta = [TWO_PI * i / SWEEP_K for i in range(SWEEP_K)]

    def lotus_dense(idx):
        mp = lotus[idx][2]
        return ctx.memo(("lotus", idx), lambda: ref.dense_from_entries(mp.dimension, mp.entries))

    def sweep_op(phi):
        def run(tr):
            model = tr.call("bloch.chain_bloch", P.bloch.chain_bloch, CHAIN, phi)
            return tr.call("bloch.band_sweep", P.bloch.band_sweep, model, phi, SWEEP_K)

        def check(tr, sweep):
            require(sweep.energies.shape == (SWEEP_K, ref.vertex_count(CHAIN) - 1), "shape")

            def bands():
                m = ctx.checked_ccam(CHAIN, phi)
                h = ref.dense_from_entries(m.dimension, m.entries)
                return ref.chain_bands(h, m.first_vertex, m.last_vertex, phi, momenta)
            want = ctx.memo(("bands", phi), bands)
            dev = float(np.max(np.abs(sweep.energies - want)))
            require(dev <= 1e-9, f"sweep phi={phi}: off the folded tree by {dev:.3e}")
            width = float(np.max(want.max(axis=0) - want.min(axis=0)))
            require(abs(sweep.total_bandwidth - width) <= 1e-9, f"sweep phi={phi}: bandwidth")
            if is_flat_value(phi):
                require(width < 1e-8, f"sweep phi={phi}: bandwidth {width:.3e} at a flat value")
            else:
                require(width > 1e-4, f"sweep phi={phi}: bandwidth {width:.3e} off the flat set")
            tr.count("bloch.k_points", len(sweep.momenta))

        return Op("band_sweep", f"{phi:.6f}", run, check)

    def dos_op():
        phis = [TWO_PI * i / DOS_PHI for i in range(DOS_PHI)]

        def run(tr):
            model = tr.call("bloch.chain_bloch", P.bloch.chain_bloch, (2,), 0.0)
            return tr.call("bloch.dos_map", P.bloch.dos_map, model, phis, DOS_K, DOS_BINS)

        def check(tr, dos):
            values, edges = rhombic_histograms(phis, DOS_K, DOS_BINS)
            require(float(np.max(np.abs(dos.bin_edges - edges))) <= 1e-9, "dos bin edges")
            for i, vals in enumerate(values):
                bad = ref.histogram_mismatch(vals, edges, dos.counts[i])
                require(bad == 0, f"dos_map phi={phis[i]}: {bad} counts off the closed form")
            tr.count("bloch.k_points", DOS_PHI * DOS_K)

        return Op("dos_map", "rhombic", run, check)

    def cli_dos_check(tr, answer):
        code, out, err = answer
        require(code == 0, f"dos figure: exit {code} {err}")
        tr.count("cli.bytes_out", len(out))
        _header, rows = parse_csv(out)
        phis = [TWO_PI * i / 96 for i in range(96)]
        values, edges = rhombic_histograms(phis, 256, 201)
        width = edges[1] - edges[0]
        for i, (phi, vals) in enumerate(zip(phis, values)):
            mine = rows[np.abs(rows[:, 0] - phi) < 1e-12]
            idx = np.rint((mine[:, 1] - edges[0]) / width - 0.5).astype(int)
            require(bool(np.all(np.abs(mine[:, 1] - (edges[idx] + 0.5 * width)) < 1e-9)),
                    f"dos figure phi={phi}: bin centers")
            counts = np.zeros(201, dtype=int)
            counts[idx] = mine[:, 2].astype(int)
            bad = ref.histogram_mismatch(vals, edges, counts)
            require(bad == 0, f"dos figure phi={phi}: {bad} counts off the closed form")

    def cli_bands44_check(tr, answer):
        code, out, err = answer
        require(code == 0, f"lotus44 figure: exit {code} {err}")
        tr.count("cli.bytes_out", len(out))
        header, rows = parse_csv(out)
        require(header[:2] == ["k", "ky"] and rows.shape == (32 * 32, 8), "lotus44 layout")
        energies = rows[:, 2:]
        width = float(np.max(energies.max(axis=0) - energies.min(axis=0)))
        require(width < 1e-9, f"lotus44 at pi: bandwidth {width:.3e}")
        # Six sites and twelve bonds per cell: tr H = 0 and, the bands being
        # flat, sum E^2 equals its momentum average 2 * 12.
        require(float(np.max(np.abs(energies.sum(axis=1)))) < 1e-9, "lotus44 trace")
        require(float(np.max(np.abs((energies ** 2).sum(axis=1) - 24.0))) < 1e-8,
                "lotus44 sum of squares")

    def cli_dice_check(tr, answer):
        code, out, err = answer
        require(code == 0, f"dice figure: exit {code} {err}")
        tr.count("cli.bytes_out", len(out))
        report = json.loads(out)
        summary = report["summary"]
        dim = ref.lotus_first_vertex_count(6, 2)
        require(summary["dimension"] == dim and summary["span_rank"] == dim
                and summary["covered"] and summary["radius_ok"], f"dice summary {summary}")
        spectrum = np.linalg.eigvalsh(lotus_dense(0))
        values = [v for s in report["states"] for v in s["eigenvalues"]]
        require(ref.nearest_gap(values, spectrum) < 1e-8, "dice: state off the spectrum")
        require(max(s["residual"] for s in report["states"]) <= 1e-8, "dice residuals")

    def cover_op(xs, cells):
        phi = TWO_PI / math.prod(xs)
        bound = 4 * len(xs) - 2  # the seed's cell and its neighbours

        def run(tr):
            m = tr.call("gauge.chain_ccam", P.gauge.chain_ccam, xs, cells, phi)
            return m, tr.call("caging.cls_cover", P.caging.verify_all_cls, m, bound)

        def check(tr, answer):
            m, rep = answer
            dim = cells * (ref.vertex_count(xs) - 1) + 1
            require(m.dimension == dim and len(m.entries) == cells * ref.edge_count(xs),
                    f"chain {xs}x{cells}: size")
            err = ref.face_winding_error(m.entries, m.graph.plaquettes,
                                         [phi] * len(m.graph.plaquettes))
            require(err < 1e-9, f"chain {xs}x{cells}: face flux")
            require(rep.covered and rep.span_rank == dim and rep.radius_ok
                    and not rep.cap_exceeded, f"chain {xs}x{cells}: cover incomplete")
            spectrum = np.linalg.eigvalsh(ref.dense_from_entries(m.dimension, m.entries))
            values = [v for r in rep.records for v in r.eigenvalues]
            require(ref.nearest_gap(values, spectrum) < 1e-8, f"chain {xs}x{cells}: spectrum")
            worst = max(r.residual for r in rep.records)
            require(worst <= 1e-8, f"chain {xs}x{cells}: residual {worst:.3e}")
            tr.count("gauge.edges_built", len(m.entries))
            tr.count("caging.cls_states", len(values))
            tr.count("caging.cls_worst_residual", worst)

        return Op("cls_cover", f"{xs}x{cells}", run, check)

    def krylov_op(idx, hub):
        spec, _phi, mp = lotus[idx]

        def check(tr, res):
            require(res.closed and res.dimension == len(res.states),
                    f"krylov {spec} hub {hub}: not closed")
            h = lotus_dense(idx)
            dist = ctx.memo(("dist", idx, hub),
                            lambda: ref.bfs_distances(mp.dimension, mp.entries, hub))
            vecs = []
            for s in res.states:
                v = np.zeros(mp.dimension, dtype=complex)
                for site, amp in s.amplitudes.items():
                    v[site] = amp
                require(abs(np.linalg.norm(v) - 1.0) < 1e-8, f"krylov {spec} hub {hub}: norm")
                resid = float(np.linalg.norm(h @ v - s.eigenvalue * v))
                require(resid <= 1e-8, f"krylov {spec} hub {hub}: residual {resid:.3e}")
                radius = int(max(dist[site] for site in s.amplitudes))
                require(radius == s.support_radius, f"krylov {spec} hub {hub}: radius")
                vecs.append(v)
            require(ref.span_rank(vecs) == len(vecs), f"krylov {spec} hub {hub}: rank")
            if spec[4] == 1:
                require(res.support_radius <= 2, f"krylov {spec} hub {hub}: not compact")
            tr.count("caging.krylov_dim", res.dimension)
            tr.count("caging.cls_states", len(res.states))
            tr.count("caging.cls_worst_residual",
                     max((s.residual for s in res.states), default=0.0))

        return Op("krylov_cls", f"{spec} hub {hub}",
                  lambda tr: tr.call("caging.krylov", P.caging.krylov_cls, mp, hub), check)

    def cli_op(argv, check):
        return Op("cli_figure", argv[0],
                  lambda tr: tr.call("cli.main", run_cli, P, argv), check)

    fv = [TWO_PI * z / math.prod(CHAIN) for z in range(1, math.prod(CHAIN) + 1)]
    grid = sorted(set([TWO_PI * i / SWEEP_GRID for i in range(SWEEP_GRID + 1)] + fv))
    mids = [TWO_PI * (z + 0.5) / math.prod(CHAIN) for z in range(math.prod(CHAIN))]
    ops += [sweep_op(phi) for phi in grid + mids]
    ops.append(dos_op())
    ops += [cli_op(DOS_FIGURE, cli_dos_check), cli_op(BANDS44_FIGURE, cli_bands44_check),
            cli_op(DICE_FIGURE, cli_dice_check)]
    ops += [cover_op(xs, cells) for xs, cells in COVERS]
    for idx, (_spec, _phi, mp) in enumerate(lotus):
        ops += [krylov_op(idx, hub) for hub in P.graphs.lotus_hubs(mp.graph)]
    return ops


def build_lotus(program, tr):
    """Lotus patches and their phases: the inputs of the Krylov ops."""
    out = []
    for (kind, sides, p, q, gens), phi in LOTUS:
        spec = program.graphs.LotusSpec(kind=kind, sides=sides, shrub_p=p, tiling_q=q,
                                        generations=gens)
        patch = tr.call("graphs.lotus_patch", program.graphs.lotus_patch, spec)
        mp = tr.call("gauge.lotus_ccam", program.gauge.lotus_ccam, patch, phi)
        out.append(((kind, sides, p, q, gens), phi, mp))
    return out


def check_lotus(built, tr):
    for spec, phi, mp in built:
        patch = mp.graph
        err = ref.face_winding_error(mp.entries, patch.plaquettes,
                                     [s * phi for s in patch.plaquette_signs])
        require(err < 1e-9, f"lotus {spec}: face flux off by {err:.3e}")
        if spec[4] == 1:
            require(mp.dimension == ref.lotus_first_vertex_count(spec[1], spec[2]),
                    f"lotus {spec}: vertex count")
        tr.count("gauge.edges_built", len(mp.entries))


# ---------------------------------------------------------------------------

WORKLOADS = ("spectra", "caging", "flat-bands")


def setup(name: str, ctx: Context, tr, seed: int):
    """The timed part of set-up: enumerate the family, build the inputs and
    the op list, and shuffle it.  Returns the ops and what check_setup needs."""
    listing = enumerate_family(ctx.p, tr)
    family = [f for m in sorted(listing) for f in listing[m][1]]
    rng = random.Random(seed)
    lotus = None
    if name == "spectra":
        ops = build_spectra(ctx, family, rng)
    elif name == "caging":
        ops = build_caging(ctx, family, rng)
    else:
        lotus = build_lotus(ctx.p, tr)
        ops = build_flat_bands(ctx, lotus)
    rng.shuffle(ops)
    return ops, (listing, lotus)


def check_setup(built, tr):
    listing, lotus = built
    check_family(listing, tr)
    if lotus is not None:
        check_lotus(lotus, tr)
