"""Lotus patches against a recording: vertex ids, edges, faces, roles and face
signs of a grid of specs, and the ``lotus_ccam`` text at pi and at 0.9, pinned
by SHA-256 digests.

The peeled phases are integer multiples of the flux, each one rounded product,
so the ccam text does not depend on the BLAS build.  Rerun this module as a
script (``PYTHONPATH=src python tests/test_lotus_golden.py``) to rewrite the
recording in ``tests/data/lotus_golden.json``.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from caged import gauge, graphs

GOLDEN_PATH = Path(__file__).parent / "data" / "lotus_golden.json"

# First kind: {sides, 3}; second kind: {sides, q}, both even, with a third
# generation only where the patch stays small.
SPECS = (
    [graphs.LotusSpec("first", s, p, 3, gen)
     for s in range(6, 13) for p in (2, 3, 4) for gen in (1, 2, 3)]
    + [graphs.LotusSpec("second", s, p, q, gen)
       for s in range(4, 13, 2) for q in range(4, 13, 2) for p in (2, 3)
       for gen in ((1, 2, 3) if s * q <= 64 else (1, 2))])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def patch_digests(spec):
    g = graphs.lotus_patch(spec)
    return {
        "graph": digest(graphs.format_graph(g)),
        "roles": digest(" ".join(g.roles)),
        "signs": digest(" ".join(map(str, g.plaquette_signs))),
        **{f"ccam {name}": digest(gauge.format_ccam(gauge.lotus_ccam(g, phi)))
           for name, phi in (("pi", math.pi), ("0.9", 0.9))},
    }


def key(spec):
    return f"{spec.kind},{spec.sides},{spec.shrub_p},{spec.tiling_q},{spec.generations}"


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_recording_covers_every_spec():
    assert sorted(GOLDEN) == sorted(map(key, SPECS))


@pytest.mark.parametrize("spec", SPECS, ids=key)
def test_matches_recording(spec):
    assert patch_digests(spec) == GOLDEN[key(spec)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({key(spec): patch_digests(spec) for spec in SPECS},
                                      indent=1, sort_keys=True) + "\n")
