"""Growth against a recording: breadth-first ids, face order and signed-zero
phases of trees, chains and canonical gauges, pinned by digests of their text
formats.

The recording in ``tests/data/growth_golden.json`` was made with the tuple
recursion that grew trees before the array kernel; rerun this module as a
script (``PYTHONPATH=src python tests/test_growth_golden.py``) to rewrite it.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from caged import gauge, graphs

GOLDEN_PATH = Path(__file__).parent / "data" / "growth_golden.json"

SEQUENCES = sorted(
    [xs for m in range(2, 25) for xs in graphs.ordered_factorizations(m)[1]]
    + [(2,) * 9, (1, 2), (2, 1, 2)])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def growth_digests(xs):
    """Digests of the tree, the three-cell chain and the canonical gauge at
    flux 0, 0.7 and 2*pi/M."""
    fluxes = (0.0, 0.7, 2 * math.pi / math.prod(xs))
    return {
        "tree": digest(graphs.format_graph(graphs.grow_tree(xs))),
        "chain": digest(graphs.format_graph(graphs.chain_graph(xs, 3))),
        "ccam": [digest(gauge.format_ccam(gauge.canonical_ccam(xs, phi))) for phi in fluxes],
    }


def key(xs):
    return ",".join(map(str, xs))


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_recording_covers_every_sequence():
    assert sorted(GOLDEN) == sorted(map(key, SEQUENCES))


@pytest.mark.parametrize("xs", SEQUENCES, ids=key)
def test_matches_recording(xs):
    assert growth_digests(xs) == GOLDEN[key(xs)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({key(xs): growth_digests(xs) for xs in SEQUENCES},
                                      indent=1, sort_keys=True) + "\n")
