#!/usr/bin/env python3
"""Sorted spectrum of deep p-nary glued trees via the block assembly.

The assembly solves only prefixes of two zero-diagonal paths, each of at
most depth + 1 rows, so depth 50 is as cheap as depth 5 even though the tree
itself has ~p^depth vertices.  Emits the cumulative spectral staircase (eigenvalue versus
cumulative fraction) plus a summary of the zero-eigenvalue weight and the
spectral edge.
"""

import argparse
import math
import sys

from caged import spectral


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    spec = spectral.spectrum_fluxless((args.p,) * args.depth)
    total = spec.dimension
    lines = ["eigenvalue,cumulative_fraction"]
    acc = 0
    for value, mult in spec.eigenvalues:
        acc += mult
        lines.append(f"{value:.17g},{acc / total:.17g}")
    payload = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w") as fh:
            fh.write(payload)

    zero_frac = spec.multiplicity_at(0.0) / total
    top = max(v for (v, _m) in spec.eigenvalues)
    print(f"# vertices {total}  zero fraction {zero_frac:.6f} "
          f"(limit {(args.p - 1) / (args.p + 1):.6f})  top {top:.6f} "
          f"(limit {2 * math.sqrt(args.p):.6f})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
