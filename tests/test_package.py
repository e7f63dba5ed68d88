"""Package-level entry points: the import itself and the shipped demos."""

import importlib
import importlib.util
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


# importing scipy.linalg or scipy.sparse adds about 26 or 20 MiB of peak
# resident memory to a process that peaks near 30 MiB after the package
# import and near 40 MiB in a 256-bin spectrum, so the QR steps use
# numpy's own LAPACK and no stepping path may load either
NO_SCIPY_LINALG = """
assert "scipy.linalg" not in sys.modules
assert "scipy.sparse" not in sys.modules
"""


def test_import_loads_no_scipy_optimize():
    # scipy.optimize would cost most of the package import
    proc = _run(["-c", "import sys, oseledets\n"
                       "assert 'scipy.optimize' not in sys.modules\n"
                 + NO_SCIPY_LINALG])
    assert proc.returncode == 0, proc.stderr


def test_l1_top_splitting_loads_no_scipy_optimize():
    # one-dimensional levels take their ball-constrained distances from
    # the ends of their one chord
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
    proc = _run(["-c", code + NO_SCIPY_LINALG])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("norm", ["l1", "linf", "l2"])
def test_256_bin_spectrum_loads_no_scipy(norm):
    # the QR pass and the norm chain multiply the Ulam matrices from their
    # stored row-slot forms with numpy alone
    code = f"""
import sys
from fractions import Fraction
import oseledets as ose
driver = ose.BernoulliShift([0.5, 0.5])
system = ose.RandomLYSystem(driver, [ose.full_branch_affine([0, q, 1])
                                     for q in (Fraction(3, 10), Fraction(2, 5))])
gen = ose.random_ulam_cocycle(system, 256)
spec = ose.lyapunov_exponents(gen, ose.generate_orbit(driver, 1, 0, 401),
                              400, norm="{norm}")
assert abs(spec.exponents[0]) < 1e-6
"""
    proc = _run(["-c", code + NO_SCIPY_LINALG])
    assert proc.returncode == 0, proc.stderr


def test_benchmark_counters_read_the_splitting():
    # perfbench/spans.py counts pushforward and filtration steps by binding
    # the ``n`` argument of the wrapped functions; one pushforward walk per
    # depth takes 8 + 16 + 32 + 64 steps at n_max = 64
    from fractions import Fraction

    import oseledets as ose
    spec_ = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec_)
    spec_.loader.exec_module(spans)
    driver = ose.BernoulliShift([0.5, 0.5])
    system = ose.RandomLYSystem(driver, [
        ose.full_branch_affine([0, q, 1])
        for q in (Fraction(3, 10), Fraction(2, 5))])
    orbit = ose.generate_orbit(driver, 7, 65, 130)
    gen = ose.random_ulam_cocycle(system, 32)
    spec = ose.lyapunov_exponents(gen, orbit, 128, norm="l1")
    tracer = spans.Tracer()
    tracer.install()
    try:
        ose.compute_splitting(gen, orbit, spec, 64, norm="l1", levels=2)
    finally:
        tracer.uninstall()
    assert tracer.extra["splitting.pushforward_steps"] == 120
    assert tracer.extra["spectrum.filtration_at_steps"] == 360


def test_every_distance_path_loads_no_scipy():
    # the sinusoidal branch inverses bisect, and every l1/linf distance
    # enumerates: near pairs take chord ends, linf point distances the
    # circuits of W^perp on W's side (k = 2) and on W^perp's (k = 3), the
    # R^60 flag the l1 codimension form
    code = """
import sys
import numpy as np
import oseledets
from oseledets import grassmann
from oseledets.grassmann import Subspace, good_complement, grassmann_distance
from oseledets.transfer import sin_doubling, ulam_matrix
side, codim = grassmann._circuit_side, grassmann._codim_dist_batch
reached = []
grassmann._circuit_side = lambda d, k: reached.append(side(d, k)) or reached[-1]
grassmann._codim_dist_batch = lambda X, B: reached.append("l1") or codim(X, B)
ulam_matrix(sin_doubling(0.04), 32)
rng = np.random.default_rng(0)
for norm in ("l1", "linf"):
    for k in (2, 3):
        B = rng.standard_normal((6, k))
        C = B + 1e-3 * rng.standard_normal((6, k))
        assert 0 < grassmann_distance(Subspace(B, norm), Subspace(C, norm))
G = rng.standard_normal((60, 60))
good_complement([Subspace(G[:, :m], "l1") for m in (60, 59, 58)])
assert set(reached) == {True, False, "l1"}, reached
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_pyproject_names_existing_files():
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert (ROOT / project["readme"]).is_file()
    module, _, attr = project["scripts"]["oseledets"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
