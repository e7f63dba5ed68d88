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


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
