"""The ``geometry`` workload: l1/linf subspace distances and good complements.

Pairs come from a fixed panel, not from the seed.  The polished l1/linf
sup of the package falls more than 1e-6 below the exact sup on 3 of 104
random pairs of this kind, so pairs drawn from the seed would make the
share of failed operations depend on the seed.  The panel holds one such pair on purpose
(its shortfall is counted as a failed operation in every round) and three
pairs the package gets right.  The seed draws the filtrations handed to
``good_complement``, which has no such fault.
"""

import numpy as np

import reference

# (norm, d, k, near, draw): Y has a standard normal d x k basis; a near W
# perturbs it by 1e-3 times another one, a far W is drawn independently.
# In the package's polish the near pairs issue 674 (l1) and 1,334 (linf)
# LP solves per call, the far pairs none; (l1, 6, 3, far, 102) comes out
# 0.38% below the exact sup.
PANEL = (
    ("l1", 4, 2, True, 0),
    ("linf", 6, 2, True, 0),
    ("linf", 6, 2, False, 100),
    ("l1", 6, 3, False, 102),
)
NEAR_SCALE = 1e-3
# a distance above the exact sup by more than EXCESS_TOL is wrong; one
# below it by more than SHORTFALL_REL (relative) is a failed operation
EXCESS_TOL = 1e-9
SHORTFALL_REL = 1e-6
# good_complement inputs: (norm, d, dim V_2, dim V_3); the seed draws the
# frame.  The shapes are fixed because the package's linf enumeration
# arrays, and with them peak memory, grow with d.
COMPLEMENT_SHAPES = (("l1", 6, 4, 2), ("linf", 5, 3, 1))
COMPLEMENT_EPS = 0.9
COMPLEMENT_LP_TOL = 1e-9


def panel_bases(norm, d, k, near, draw):
    rng = np.random.default_rng([draw, d, k, int(near), int(norm == "l1")])
    B = rng.standard_normal((d, k))
    C = B + NEAR_SCALE * rng.standard_normal((d, k)) if near \
        else rng.standard_normal((d, k))
    return B, C


def filtration_bases(seed, norm, d, dim2, dim3):
    """Nested bases of V_1 = R^d > V_2 > V_3 from one random d x d frame."""
    G = np.random.default_rng([seed, int(norm == "l1")]).standard_normal((d, d))
    return [G, G[:, :dim2], G[:, :dim3]]


def build(ose, seed):
    pairs = []
    for norm, d, k, near, draw in PANEL:
        B, C = panel_bases(norm, d, k, near, draw)
        pairs.append((ose.Subspace(B, norm), ose.Subspace(C, norm)))
    filtrations = [[ose.Subspace(F, norm)
                    for F in filtration_bases(seed, norm, *dims)]
                   for norm, *dims in COMPLEMENT_SHAPES]
    return {"pairs": pairs, "filtrations": filtrations}


def run(ose, state):
    return {
        "distances": [ose.grassmann_distance(Y, W) for Y, W in state["pairs"]],
        "complements": [ose.good_complement(F, eps=COMPLEMENT_EPS)
                        for F in state["filtrations"]],
    }


def references(state):
    """Exact symmetric sups of the panel, from the benchmark's own LPs."""
    return [reference.exact_hausdorff(Y.basis, W.basis, Y.norm)
            for Y, W in state["pairs"]]


def _complement_problems(filtration, result):
    """Each chosen vector u is far from its W = V_(j+1) + earlier vectors."""
    norm = filtration[0].norm
    problems = []
    prior = []
    for j, (U, diag) in enumerate(result):
        Vn = filtration[j + 1].basis
        for i in range(U.dim):
            u = U.basis[:, i]
            W = np.column_stack([Vn] + prior + [U.basis[:, :i]])
            mine = reference.lp_distance(u, W, norm, ball=False)
            theirs = diag["distances"][i]
            if not theirs > 1.0 - COMPLEMENT_EPS:
                problems.append(f"{norm} level {j + 1} vector {i + 1}: "
                                f"distance {theirs} <= {1.0 - COMPLEMENT_EPS}")
            if not abs(mine - theirs) <= COMPLEMENT_LP_TOL:
                problems.append(f"{norm} level {j + 1} vector {i + 1}: "
                                f"distance {theirs} against LP {mine}")
        prior.append(U.basis)
    return problems


def check(state, out, refs):
    """(attempted, failed, problems) for one round."""
    problems = []
    failed = 0
    for (Y, W), got, exact in zip(state["pairs"], out["distances"], refs):
        tag = f"{Y.norm} d={Y.ambient_dim} k={Y.dim}"
        if got > exact + EXCESS_TOL:
            problems.append(f"{tag}: distance {got!r} above exact {exact!r}")
        elif got < exact * (1.0 - SHORTFALL_REL):
            failed += 1
    for F, res in zip(state["filtrations"], out["complements"]):
        problems += _complement_problems(F, res)
    return len(out["distances"]) + len(out["complements"]), failed, problems
