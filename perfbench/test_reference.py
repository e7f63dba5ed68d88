"""Tests of the benchmark's own reference computations and span summaries.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import time

import numpy as np
import pytest

import reference
from spans import Tracer


def _circle_sup(BY, BW, norm, n=720):
    """Sup over a dense sweep of the unit circle of a 2-dim span(BY)."""
    best = 0.0
    for t in np.linspace(0.0, math.pi, n, endpoint=False):
        y = BY @ np.array([math.cos(t), math.sin(t)])
        y = y / reference._norm(y, norm)
        best = max(best, reference.lp_distance(y, BW, norm, ball=True))
    return best


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_lp_distance_closed_forms(norm):
    x = np.array([3.0, -2.0, 0.5])
    e1 = np.array([[1.0], [0.0], [0.0]])
    rest = [2.0, 0.5]
    free = sum(rest) if norm == "l1" else max(rest)
    assert reference.lp_distance(x, e1, norm, ball=False) == pytest.approx(free)
    # inside the ball the first coordinate can only come down to 3 - 1
    assert reference.lp_distance(x, e1, norm, ball=True) == \
        pytest.approx(free + 2.0 if norm == "l1" else 2.0)


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_ball_vertices_are_unit_vectors_of_the_span(norm):
    rng = np.random.default_rng(3)
    B = rng.standard_normal((5, 3))
    verts = reference.ball_vertices(B, norm)
    assert len(verts) >= 6
    for y in verts:
        assert reference._norm(y, norm) == pytest.approx(1.0)
        coef, *_ = np.linalg.lstsq(B, y, rcond=None)
        assert np.allclose(B @ coef, y, atol=1e-12)
        if norm == "l1":
            assert np.sum(np.abs(y) < 1e-12) >= 2
        else:
            assert np.sum(np.abs(np.abs(y) - 1.0) < 1e-9) >= 3


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("near", [True, False])
def test_exact_one_sided_bounds_a_dense_sweep(norm, near):
    rng = np.random.default_rng([7, int(near)])
    BY = rng.standard_normal((4, 2))
    BW = BY + 1e-3 * rng.standard_normal((4, 2)) if near \
        else rng.standard_normal((4, 2))
    exact = reference.exact_one_sided(BY, BW, norm)
    swept = _circle_sup(BY, BW, norm)
    assert swept <= exact + 1e-9
    # the sweep misses the vertex by at most its angular step
    assert swept >= exact * (1.0 - 2e-2)


def test_exact_hausdorff_simple_cases():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    for norm in ("l1", "linf"):
        assert reference.exact_hausdorff(B, B, norm) == pytest.approx(
            0.0, abs=1e-12)
        e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        assert reference.exact_hausdorff(e1, e2, norm) == pytest.approx(1.0)


@pytest.mark.parametrize("q", ["1/2", "3/10", "2/5", "4/9"])
def test_affine_contraction_is_the_eigenvalue_of_x_minus_half(q):
    from fractions import Fraction
    q = Fraction(q)
    c = reference.affine_contraction(q)

    def transfer(f, y):
        # full-branch affine map: branch inverses q*y and q + (1-q)*y
        return q * f(q * y) + (1 - q) * f(q + (1 - q) * y)

    for y in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
        assert transfer(lambda x: x - Fraction(1, 2), y) == \
            c * (y - Fraction(1, 2))
    assert reference.window_mean_log(lambda s: c, [0, 1, 2]) == \
        pytest.approx(math.log(c))


def test_sine_to_constant_resolves_tiny_angles():
    n = 64
    v = np.sin(np.arange(n))
    v -= v.mean()
    v /= np.linalg.norm(v)
    ones = np.ones(n)
    assert reference.sine_to_constant(ones) == 0.0
    for eps in (1e-4, 1e-10, 1e-13):
        y = ones + eps * v
        expected = eps / math.sqrt(n + eps * eps)
        assert reference.sine_to_constant(y) == pytest.approx(expected,
                                                              rel=1e-3)


def test_span_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.03), "inner")

    def body():
        time.sleep(0.02)
        inner()
    outer = tracer.wrap(body, "outer")
    start = tracer.mark()
    outer()
    spans, _ = tracer.summary(start, tracer.mark())
    assert spans["outer"]["calls"] == spans["inner"]["calls"] == 1
    assert spans["outer"]["total_s"] >= 0.05
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"])
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"]


def test_wrap_counts_argument_derived_work():
    tracer = Tracer()
    f = tracer.wrap(lambda n: n, "f", ("f.steps", lambda a, k, out: out))
    start = tracer.mark()
    assert f(5) == 5 and f(7) == 7
    spans, extra = tracer.summary(start, tracer.mark())
    assert spans["f"]["calls"] == 2
    assert extra["f.steps"] == 12
