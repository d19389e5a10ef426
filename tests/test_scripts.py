"""Each figure script runs from a checkout (PYTHONPATH=src) and writes its CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("chain_bandwidth.py", ["--x", "2", "--phi-grid", "4", "--k-grid", "5"],
     "phi,total_bandwidth,is_flat_value"),
    ("pnary_spectrum.py", ["--p", "2", "--depth", "3"], "eigenvalue,cumulative_fraction"),
    ("rhombic_dos.py", ["--x", "2", "--phi-grid", "4", "--k-grid", "5", "--bins", "5"],
     "phi,energy_bin_center,count"),
])
def test_script_writes_csv(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header and len(lines) > 1
