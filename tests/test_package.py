"""Package-level entry points: the import itself and the shipped demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy_optimize():
    # scipy.optimize costs most of the package import and only the LP
    # fallback and non-affine branch inverses need it
    proc = _run(["-c", "import sys, oseledets; "
                       "assert 'scipy.optimize' not in sys.modules"])
    assert proc.returncode == 0, proc.stderr


def test_l1_top_splitting_loads_no_scipy_optimize():
    # one-dimensional levels take their ball-constrained distances in
    # closed form, so the top of an l1 Ulam splitting never needs an LP
    code = """
import sys
from fractions import Fraction
import oseledets as ose
driver = ose.BernoulliShift([0.5, 0.5])
system = ose.RandomLYSystem(driver, [ose.full_branch_affine([0, q, 1])
                                     for q in (Fraction(3, 10), Fraction(2, 5))])
orbit = ose.generate_orbit(driver, 7, 65, 130)
gen = ose.random_ulam_cocycle(system, 32)
spec = ose.lyapunov_exponents(gen, orbit, 128, norm="l1")
res = ose.compute_splitting(gen, orbit, spec, 64, norm="l1", levels=2)
assert [Y.dim for Y in res.spaces] == [1, 1]
assert "scipy.optimize" not in sys.modules
"""
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
