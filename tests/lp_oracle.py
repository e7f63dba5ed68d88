"""Linear-programming oracle for l1/linf point distances in the tests.

The package solves every l1/linf distance by enumerating basic solutions;
this module solves the same problems with scipy's HiGHS at tight
feasibility tolerances, so the two share no code.  At HiGHS's default
tolerances (1e-7) the ball-constrained model falls short of the exact
distance by up to about 1e-7 for points just outside the ball.
"""

import numpy as np
from scipy import optimize

_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}


def lp_distance(x, B, norm, ball=False):
    """min ||x - B c|| over c in the l1 or linf norm, with ||B c|| <= 1
    when `ball`; returns (distance, c)."""
    d, k = B.shape
    if norm == "l1":
        # vars: c (k), t (d) [, u (d)]
        nv = k + d + (d if ball else 0)
        cost = np.zeros(nv)
        cost[k:k + d] = 1.0
        rows, rhs = [], []
        for sgn in (1.0, -1.0):
            blk = np.zeros((d, nv))
            blk[:, :k] = -sgn * B
            blk[:, k:k + d] = -np.eye(d)
            rows.append(blk)
            rhs.append(-sgn * x)
        if ball:
            for sgn in (1.0, -1.0):
                blk = np.zeros((d, nv))
                blk[:, :k] = sgn * B
                blk[:, k + d:] = -np.eye(d)
                rows.append(blk)
                rhs.append(np.zeros(d))
            blk = np.zeros((1, nv))
            blk[0, k + d:] = 1.0
            rows.append(blk)
            rhs.append(np.ones(1))
    else:
        # vars: c (k), s (1)
        nv = k + 1
        cost = np.zeros(nv)
        cost[k] = 1.0
        rows, rhs = [], []
        for sgn in (1.0, -1.0):
            blk = np.zeros((d, nv))
            blk[:, :k] = -sgn * B
            blk[:, k] = -1.0
            rows.append(blk)
            rhs.append(-sgn * x)
        if ball:
            for sgn in (1.0, -1.0):
                blk = np.zeros((d, nv))
                blk[:, :k] = sgn * B
                rows.append(blk)
                rhs.append(np.ones(d))
    # the dual simplex can end in an unknown status at these tolerances
    # (about 1 in 1,000 random R^19 problems); interior point then solves it
    for method in ("highs", "highs-ipm"):
        res = optimize.linprog(cost, A_ub=np.vstack(rows),
                               b_ub=np.concatenate(rhs),
                               bounds=[(None, None)] * nv, method=method,
                               options=_OPTIONS)
        if res.success:
            break
    else:
        raise RuntimeError(f"linprog distance solve failed: {res.message}")
    # score the solver's point, pulled into the ball, by the true objective:
    # an attained value, where res.fun can sit up to about 1e-11 off it
    c = res.x[:k]
    if ball:
        c = c / max(1.0, _norm(B @ c, norm))
    return _norm(x - B @ c, norm), c


def _norm(v, norm):
    return float(np.abs(v).sum() if norm == "l1" else np.abs(v).max())
