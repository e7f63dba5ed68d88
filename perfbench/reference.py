"""Reference computations made apart from the package under test.

Nothing here imports ``oseledets``: each value is computed from first
principles with numpy and the benchmark's own ``scipy.optimize.linprog``
models, so a check that compares the package against these functions does
not share code with it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def _norm(x, norm):
    return float(np.abs(x).sum()) if norm == "l1" else float(np.abs(x).max())


def lp_distance(x, C, norm, ball):
    """min ||x - C c|| over coefficients c, with ||C c|| <= 1 when ``ball``.

    l1 variables are (c, t, u) with t >= |x - Cc| and u >= |Cc|; linf
    variables are (c, s) with s >= |x - Cc|.
    """
    x = np.asarray(x, dtype=float)
    C = np.asarray(C, dtype=float)
    d, k = C.shape
    if k == 0:
        return _norm(x, norm)
    eye = np.eye(d)
    if norm == "l1":
        nu = d if ball else 0
        nv = k + d + nu
        cost = np.concatenate([np.zeros(k), np.ones(d), np.zeros(nu)])
        blocks = [np.hstack([-C, -eye, np.zeros((d, nu))]),
                  np.hstack([C, -eye, np.zeros((d, nu))])]
        rhs = [-x, x]
        if ball:
            blocks += [np.hstack([C, np.zeros((d, d)), -eye]),
                       np.hstack([-C, np.zeros((d, d)), -eye]),
                       np.concatenate([np.zeros(k + d), np.ones(d)])[None, :]]
            rhs += [np.zeros(d), np.zeros(d), np.ones(1)]
    elif norm == "linf":
        nv = k + 1
        cost = np.zeros(nv)
        cost[k] = 1.0
        ones = np.ones((d, 1))
        blocks = [np.hstack([-C, -ones]), np.hstack([C, -ones])]
        rhs = [-x, x]
        if ball:
            blocks += [np.hstack([C, np.zeros((d, 1))]),
                       np.hstack([-C, np.zeros((d, 1))])]
            rhs += [np.ones(d), np.ones(d)]
    else:
        raise ValueError(f"lp_distance handles l1 and linf, not {norm!r}")
    res = linprog(cost, A_ub=np.vstack(blocks), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * nv, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def ball_vertices(B, norm):
    """Unit vectors of span(B) that include every vertex of span(B) meet ball.

    l1: a vertex has k-1 zero coordinates, so it spans the null space of a
    (k-1)-row submatrix of B.  linf: a vertex has k coordinates at +-1, so
    it solves a k-row system B_S a = s with s in {-1, 1}^k; only the
    solutions inside the cube are kept.
    """
    B = np.asarray(B, dtype=float)
    d, k = B.shape
    out = []
    if norm == "l1":
        for rows in itertools.combinations(range(d), k - 1):
            if rows:
                _, s, vt = np.linalg.svd(B[list(rows)])
                if k - 1 - (s > 1e-12 * s[0]).sum() > 0:
                    continue
                a = vt[-1]
            else:
                a = np.ones(1)
            y = B @ a
            n = _norm(y, "l1")
            if n > 1e-12:
                out += [y / n, -y / n]
    elif norm == "linf":
        for rows in itertools.combinations(range(d), k):
            M = B[list(rows)]
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                y = B @ np.linalg.solve(M, np.array(signs))
                if _norm(y, "linf") <= 1.0 + 1e-12:
                    out.append(y / _norm(y, "linf"))
    else:
        raise ValueError(f"ball_vertices handles l1 and linf, not {norm!r}")
    return out


def exact_one_sided(BY, BW, norm):
    """sup over unit y in span(BY) of d(y, span(BW) meet ball), exactly.

    The distance to a convex set is convex, so over the polytope
    span(BY) meet ball its maximum sits at a vertex (Rockafellar, Convex
    Analysis, section 32); every vertex lies on the unit sphere.
    """
    return max(lp_distance(y, BW, norm, ball=True)
               for y in ball_vertices(BY, norm))


def exact_hausdorff(BY, BW, norm):
    """Symmetric Hausdorff distance of the unit-ball sections."""
    return max(exact_one_sided(BY, BW, norm), exact_one_sided(BW, BY, norm))


def affine_contraction(q):
    """c = q^2 + (1-q)^2 for the full-branch affine map with breakpoint q.

    Its transfer operator maps x - 1/2 to c (x - 1/2): the branch inverses
    y -> q y and y -> q + (1-q) y carry weights q and 1-q.
    """
    q = Fraction(q)
    return q * q + (1 - q) * (1 - q)


def window_mean_log(cs, states):
    """Mean of log c over the base states of the estimator's window."""
    return float(np.mean([math.log(cs(s)) for s in states]))


def sine_to_constant(y):
    """l2 sine of the angle between y and the constant vector."""
    y = np.asarray(y, dtype=float)
    u = np.full(y.shape, 1.0 / math.sqrt(y.size))
    r = y - (u @ y) * u
    return float(np.linalg.norm(r) / np.linalg.norm(y))
