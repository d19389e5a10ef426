"""The benchmark runs one short round of a workload end to end and checks
every answer.  The spectra round checks every theorem and dense-oracle
spectrum of the family, at flux 0 and 2*pi/x_1, against dense solves, and
the CLI staircases and factorization counts against ``bench/reference.py``.
The flat-bands round guards the program names it reads:
``Ccam.dimension``, ``entries``, ``first_vertex``, ``last_vertex``,
``m.graph.plaquettes``, ``patch.plaquette_signs`` and
``graphs.lotus_hubs(m.graph)``.  The caging round checks every midpoint's
float crossing amplitudes against dense products, and the certificates and
CLI verdicts against the flat-value rule."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def assert_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary


def test_spectra_round_is_correct():
    assert_round_is_correct("spectra")


def test_flat_bands_round_is_correct():
    assert_round_is_correct("flat-bands")


def test_caging_round_is_correct():
    assert_round_is_correct("caging")
