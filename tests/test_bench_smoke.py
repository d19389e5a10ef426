"""The benchmark runs one short flat-bands round end to end and checks every
answer, which guards the program names it reads: ``Ccam.dimension``,
``entries``, ``first_vertex``, ``last_vertex``, ``m.graph.plaquettes``,
``patch.plaquette_signs`` and ``graphs.lotus_hubs(m.graph)``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_flat_bands_round_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "flat-bands",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
