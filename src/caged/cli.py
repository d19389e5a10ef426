"""Command-line front end.

Every subcommand is deterministic: identical invocations produce
byte-identical files.  Floats are printed with 17 significant digits.
Exit codes: 0 success, 1 invalid input, 2 a requested physical verification
failed (e.g. confinement was asserted but a seed's subspace did not close).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Iterable, Sequence

import numpy as np

from . import bloch, caging, gauge, graphs, spectral
from .errors import InvalidParameterError, ResourceLimitError, UnsupportedHypothesisError

_PI_LITERAL = re.compile(r"^(-?)(\d+)?pi(?:/(\d+))?$")
# Most factorizations `caged factorize --list` prints: each is a tuple held
# in memory until the listing ends.  Every m <= 1100 has at most 2,496.
FACTORIZE_LIST_LIMIT = 100_000


def parse_phi(text: str) -> float:
    """Parse a flux angle: plain decimal or exact 'pi', '2pi/3', '-pi/6' literals.

    Refuses an angle that is not finite (nan, inf, or a literal past the
    float range such as 1e400).
    """
    s = text.strip().replace(" ", "")
    m = _PI_LITERAL.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise InvalidParameterError("zero denominator in flux literal")
        phi = sign * num * math.pi / den
    else:
        try:
            phi = float(s)
        except ValueError:
            raise InvalidParameterError(f"cannot parse flux {text!r}") from None
    if not math.isfinite(phi):
        raise InvalidParameterError(f"flux {text!r} is not a finite angle")
    return phi


def parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidParameterError(f"cannot parse sequence {text!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: str | None, payload: str):
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _rows_to_output(header: list[str], rows: Iterable[Sequence], fmt: str) -> str:
    if fmt == "json":
        objs = [dict(zip(header, row)) for row in rows]
        return json.dumps(objs, indent=2) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_grow(args) -> int:
    g = graphs.grow_tree(parse_sequence(args.x))
    _write(args.out, graphs.format_graph(g))
    return 0


def cmd_lotus(args) -> int:
    spec = graphs.LotusSpec(kind=args.kind, sides=args.sides, shrub_p=args.p,
                            tiling_q=args.q, generations=args.generations)
    patch = graphs.lotus_patch(spec)
    if args.phi is not None:
        m = gauge.lotus_ccam(patch, parse_phi(args.phi))
        _write(args.out, gauge.format_ccam(m))
    else:
        _write(args.out, graphs.format_graph(patch))
    return 0


def _theorem_assembly(xs: tuple[int, ...], phi: float):
    """The theorem's assembly at ``phi`` as (label, builder), or None.

    The theorem covers flux 0 and 2*pi/x1; an angle a whole number of turns
    away is gauge-equivalent and gets the same assembly.
    """
    xs = graphs.check_growth_sequence(xs)
    if abs(gauge.reduce_angle(phi)) < 1e-12:
        return "fluxless", spectral.spectrum_fluxless
    if abs(gauge.reduce_angle(phi - 2.0 * math.pi / xs[0])) < 1e-12:
        return "flux 2pi/x1", spectral.spectrum_flux_af
    return None


def cmd_spectrum(args) -> int:
    xs = parse_sequence(args.x)
    phi = parse_phi(args.phi)
    if args.method == "theorem":
        assembly = _theorem_assembly(xs, phi)
        if assembly is None:
            sys.stderr.write(
                "theorem path covers flux 0 and 2*pi/x1 only; use --method oracle\n")
            return 1
        spec = assembly[1](xs)
    else:
        spec = spectral.ccam_spectrum(gauge.canonical_ccam(xs, phi))
    rows = [[float(v), mult] for (v, mult) in spec.eigenvalues]
    _write(args.out, _rows_to_output(["eigenvalue", "multiplicity"], rows, args.format))
    return 0


def cmd_flat_values(args) -> int:
    fv = gauge.flat_values(parse_sequence(args.x))
    rows = [[z + 1, float(v)] for z, v in enumerate(fv.values)]
    _write(args.out, _rows_to_output(["z", "phi"], rows, args.format))
    return 0


def cmd_bands(args) -> int:
    phi = parse_phi(args.phi)
    if args.model == "chain":
        model = bloch.chain_bloch(parse_sequence(args.x), phi)
    elif args.model == "lotus44":
        model = bloch.second_kind_44_bloch(phi)
    else:
        raise InvalidParameterError(f"unknown model {args.model!r}")
    sweep = bloch.band_sweep(model, phi, args.grid)
    header = ["k", "ky"][:model.dimensionality] + [f"E_{i + 1}" for i in range(model.bands)]
    rows = np.hstack([sweep.momenta, sweep.energies]).tolist()
    _write(args.out, _rows_to_output(header, rows, args.format))
    return 0


def cmd_dos(args) -> int:
    model = bloch.chain_bloch(parse_sequence(args.x), 0.0)
    phis = [2.0 * math.pi * i / args.phi_grid for i in range(args.phi_grid)]
    dos = bloch.dos_map(model, phis, args.k_grid, args.bins)
    flux, bins = np.nonzero(dos.counts)  # row-major: by flux, then by bin
    rows = zip(np.asarray(dos.flux_values)[flux].tolist(), dos.bin_centers()[bins].tolist(),
               dos.counts[flux, bins].tolist())
    _write(args.out, _rows_to_output(["phi", "energy_bin_center", "count"], rows, args.format))
    return 0


def cmd_caging(args) -> int:
    xs = parse_sequence(args.x)
    phi = parse_phi(args.phi)
    m = gauge.canonical_ccam(xs, phi)
    kmax = args.kmax if args.kmax else 4 * len(xs)
    amps = caging.crossing_amplitudes(m, kmax)  # display only
    rows = [[k + 1, float(abs(a))] for k, a in enumerate(amps)]
    _write(args.out, _rows_to_output(["k", "amplitude"], rows, args.format))
    z = gauge.flat_values(xs).index(phi)
    caged = z is not None and caging.is_caged(xs, z)
    if args.assert_caged and not caged:
        sys.stderr.write("confinement assertion failed: the tree is crossable\n")
        return 2
    if args.assert_uncaged and caged:
        sys.stderr.write("dispersion assertion failed: the tree is uncrossable\n")
        return 2
    return 0


def cmd_cls(args) -> int:
    phi = parse_phi(args.phi)
    if args.lotus:
        try:
            kind, sides, p, q = args.lotus.split(",")
            sides, p, q = int(sides), int(p), int(q)
        except ValueError:
            raise InvalidParameterError(
                f"cannot parse lotus {args.lotus!r}; expected kind,sides,p,q") from None
        spec = graphs.LotusSpec(kind=kind, sides=sides, shrub_p=p, tiling_q=q,
                                generations=args.generations)
        patch = graphs.lotus_patch(spec)
        m = gauge.lotus_ccam(patch, phi)
    else:
        m = gauge.chain_ccam(parse_sequence(args.x), args.cells, phi)
    report = caging.verify_all_cls(m, args.radius_bound, cap=args.cap)
    _write(args.out, report.to_json() + "\n")
    if not report.covered or not report.radius_ok:
        sys.stderr.write("compact-state verification failed\n")
        return 2
    return 0


def cmd_factorize(args) -> int:
    count = graphs.ordered_factorization_count(args.m)
    if args.list and count > FACTORIZE_LIST_LIMIT:
        raise ResourceLimitError(f"{count} factorizations exceed the listing limit "
                                 f"{FACTORIZE_LIST_LIMIT}; drop --list for the count")
    factorizations = graphs.ordered_factorizations(args.m)[1] if args.list else ()
    sys.stdout.write(f"{count}\n")
    for f in factorizations:
        sys.stdout.write(",".join(str(v) for v in f) + "\n")
    return 0


def cmd_verify(args) -> int:
    """Cross-check the assembled spectra, fluxes, and symmetry for one tree."""
    xs = parse_sequence(args.x)
    phi = parse_phi(args.phi)
    m = gauge.canonical_ccam(xs, phi)
    failures = []

    fluxes = gauge.all_plaquette_fluxes(m)
    flux_err = max(abs(gauge.reduce_angle(f - phi)) for f in fluxes) if fluxes else 0.0
    print(f"plaquette flux uniformity: max deviation {flux_err:.3e}")
    if flux_err > 1e-10:
        failures.append("flux")

    ok, norm = caging.exchange_symmetry_check(m)
    print(f"exchange symmetry: commutator {norm:.3e}")
    if not ok:
        failures.append("exchange")

    assembly = _theorem_assembly(xs, phi) if all(v >= 2 for v in xs) else None
    if assembly is not None:
        label, build = assembly
        oracle = spectral.ccam_spectrum(m).expand()
        err = float(np.max(np.abs(oracle - build(xs).expand())))
        print(f"assembled vs oracle spectrum ({label}): max deviation {err:.3e}")
        if err > 1e-8:
            failures.append("spectrum")
    else:
        print("assembled spectrum: not applicable at this flux")

    z = gauge.flat_values(xs).index(phi)
    if z is not None:
        verdict = "caged" if caging.is_caged(xs, z) else "crossable (a whole turn is zero flux)"
        print(f"caging at flat value z = {z} of M = {math.prod(xs)}: {verdict}")

    if failures:
        print("FAIL: " + ", ".join(failures))
        return 2
    print("OK")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="caged",
                                 description="glued-tree lattices and their spectra")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, x=True, phi=True):
        if x:
            p.add_argument("--x", required=True, help="growth sequence, e.g. 2,3,2")
        if phi:
            p.add_argument("--phi", required=True, help="flux: decimal or pi literal (pi/6)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("grow", help="emit a glued tree in the text graph format")
    p.add_argument("--x", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicities")
    common(p)
    p.add_argument("--method", choices=("theorem", "oracle"), default="oracle")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flat-values", help="the flat flux angles of a sequence")
    common(p, phi=False)
    p.set_defaults(func=cmd_flat_values)

    p = sub.add_parser("bands", help="band energies over a momentum grid")
    common(p, x=False)
    p.add_argument("--x", required=False, default="2")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--model", choices=("chain", "lotus44"), default="chain")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("dos", help="density-of-states histogram over flux")
    common(p, phi=False)
    p.add_argument("--phi-grid", type=int, default=96)
    p.add_argument("--k-grid", type=int, default=101)
    p.add_argument("--bins", type=int, default=200)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("caging", help="root-to-root crossing amplitudes")
    common(p)
    p.add_argument("--kmax", type=int, default=0)
    p.add_argument("--assert-caged", action="store_true")
    p.add_argument("--assert-uncaged", action="store_true")
    p.set_defaults(func=cmd_caging)

    p = sub.add_parser("cls", help="compact localized state completeness report")
    common(p, x=False)
    p.add_argument("--x", required=False, default="2")
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--lotus", default=None, help="kind,sides,p,q instead of a chain")
    p.add_argument("--generations", type=int, default=1)
    p.add_argument("--radius-bound", type=int, default=16)
    p.add_argument("--cap", type=int, default=caging.DEFAULT_KRYLOV_CAP)
    p.set_defaults(func=cmd_cls)

    p = sub.add_parser("lotus", help="emit a lotus patch (graph or ccam)")
    p.add_argument("--kind", choices=("first", "second"), required=True)
    p.add_argument("--sides", type=int, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--generations", type=int, default=1)
    p.add_argument("--phi", default=None, help="if given, emit phases as a ccam file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lotus)

    p = sub.add_parser("factorize", help="ordered factorizations into parts > 1")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="cross-check spectra, fluxes, and caging")
    common(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (InvalidParameterError, UnsupportedHypothesisError, ResourceLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
