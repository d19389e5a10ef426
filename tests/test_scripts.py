"""Each figure script runs from a checkout (PYTHONPATH=src) and writes its
CSV, and the README's library quick tour runs and says what it returns."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from caged import graphs

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("chain_bandwidth.py", ["--x", "2", "--phi-grid", "4", "--k-grid", "5"],
     "phi,total_bandwidth,is_flat_value"),
    ("pnary_spectrum.py", ["--p", "2", "--depth", "3"], "eigenvalue,cumulative_fraction"),
])
def test_script_writes_csv(script, args, header):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header and len(lines) > 1


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_deep_pnary_staircase():
    # 3^50 copies of the shallowest blocks: multiplicities far past 2^63,
    # from prefixes of at most 51 rows.
    proc = run_script("pnary_spectrum.py", ["--p", "3", "--depth", "50"])
    assert proc.returncode == 0, proc.stderr
    assert f"# vertices {graphs.tree_vertex_count((3,) * 50)} " in proc.stderr
    rows = np.loadtxt(proc.stdout.splitlines()[1:], delimiter=",")
    assert (np.diff(rows[:, 0]) > 0).all() and (np.diff(rows[:, 1]) >= 0).all()
    assert rows[-1, 1] == 1.0
    assert rows[:, 0].max() < 2 * math.sqrt(3)


def run_quick_tour():
    """The names the README's library quick tour defines, and the value of
    each of its expression statements by source text, run in order."""
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    names, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, names)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), names)
    return names, values


def test_readme_quick_tour_claims():
    names, values = run_quick_tour()
    g = names["g"]
    assert (g.num_vertices, g.first_vertex, g.last_vertex) == (30, 0, 29)
    fv = names["fv"].values
    assert len(fv) == 12
    assert all(math.isclose(angle, z * math.pi / 6) for z, angle in enumerate(fv, start=1))
    # float amplitudes: zero up to roundoff of about ||H||^k * eps (README, numerical notes)
    assert np.abs(values["crossing_amplitudes(m, 12)"]).max() < 1e-9
    assert values["verify_all_cls(chain_ccam((2, 3, 2), 4, math.pi / 6), 10)"].covered
