"""Randomized invariant batteries for the subspace-geometry layer.

Each battery draws a stream of random instances, checks one quantitative
lemma with its stated constant plus a fixed numerical slack, and returns a
summary dict.  They live in a plain module (not test functions) so the unit
tests and the acceptance suite can run them at different instance counts.

The four invariants:

  coordinate bound      any eps-nice set (eps < 2^-(k+2)) expands a vector of
                        norm <= 1 with coefficients |a_i| <= 2^(k+1-i)
  basis perturbation    moving each nice basis vector of Y by < delta/2^(k+2)
                        keeps sup_{y in Y, ||y||<=1} d(y, W cap ball) < delta
  closeness symmetry    equal-dimension pair with one-sided sup r < 3^-k / 4
                        has symmetric distance < 4 * 3^k * r
  dimension gap         dim Y = j < dim Y' forces distance >= 2^-j / 8
"""

import numpy as np

from oseledets.grassmann import (
    Subspace,
    is_eps_nice,
    nice_basis,
    one_sided_hausdorff,
    vector_norm,
)

SLACK = 1e-6


def _rand_subspace(rng, d, k, norm):
    while True:
        M = rng.standard_normal((d, k))
        if k == 0 or np.linalg.matrix_rank(M) == k:
            return Subspace(M, norm)


def _rand_unit(rng, d, norm):
    v = rng.standard_normal(d)
    return v / vector_norm(v, norm)


def run_coordinate_bound_battery(norm, n_instances=500, seed=0):
    """Coefficient bound |a_i| <= 2^(k+1-i) on eps-nice expansions."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    worst = -np.inf
    while done < n_instances:
        k = int(rng.integers(1, 4))
        d = int(rng.integers(k, k + 3))
        vecs = nice_basis(_rand_subspace(rng, d, k, norm))
        eps_cap = 2.0 ** (-k - 2)
        if rng.random() < 0.5:
            # genuinely eps-nice, not exactly nice
            vecs = [v + rng.uniform(0.0, eps_cap / 4) * _rand_unit(rng, d, norm)
                    for v in vecs]
            if not is_eps_nice(vecs, 0.999 * eps_cap, norm):
                continue
        a = rng.standard_normal(k)
        if rng.random() < 0.3:
            # concentrate weight on one coordinate, where the bound is tight
            a = 0.05 * rng.standard_normal(k)
            a[int(rng.integers(0, k))] += 1.0
        x = np.column_stack(vecs) @ a
        s = vector_norm(x, norm)
        if s < 1e-9:
            continue
        a = a / s
        bound = 2.0 ** (k + 1 - np.arange(1, k + 1))
        excess = float(np.max(np.abs(a) - bound))
        worst = max(worst, excess)
        if excess > SLACK:
            failures += 1
        done += 1
    return {"battery": "coordinate-bound", "norm": norm, "n": done,
            "failures": failures, "worst": worst}


def run_basis_perturbation_battery(norm, n_instances=500, seed=0):
    """One-sided closeness from basis proximity (constant delta / 2^(k+2))."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    worst = -np.inf
    while done < n_instances:
        k = int(rng.integers(1, 3))
        d = int(rng.integers(k + 1, 5))
        Y = _rand_subspace(rng, d, k, norm)
        ys = nice_basis(Y)
        delta = float(np.exp(rng.uniform(np.log(1e-2), np.log(0.8))))
        cap = delta / 2 ** (k + 2)
        ws = [y + rng.uniform(0.2, 0.95) * cap * _rand_unit(rng, d, norm)
              for y in ys]
        W = np.column_stack(ws)
        if np.linalg.matrix_rank(W) < k:
            continue
        rng.integers(2 ** 31)   # unused; keeps the instance stream fixed
        sup = one_sided_hausdorff(Y, Subspace(W, norm))
        margin = sup - delta
        worst = max(worst, margin)
        if margin > SLACK:
            failures += 1
        done += 1
    return {"battery": "basis-perturbation", "norm": norm, "n": done,
            "failures": failures, "worst": worst}


def run_closeness_symmetry_battery(norm, n_instances=500, seed=0):
    """One-sided sup r < 3^-k / 4 implies symmetric distance < 4 * 3^k * r."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    worst = -np.inf
    while done < n_instances:
        k = int(rng.integers(1, 3))
        d = int(rng.integers(k + 1, 5))
        Y = _rand_subspace(rng, d, k, norm)
        ys = nice_basis(Y)
        eta = float(np.exp(rng.uniform(np.log(1e-5), np.log(3.0 ** (-k) / 16))))
        ws = [y + eta * _rand_unit(rng, d, norm) for y in ys]
        W = np.column_stack(ws)
        if np.linalg.matrix_rank(W) < k:
            continue
        W = Subspace(W, norm)
        rng.integers(2 ** 31)   # unused; keeps the instance stream fixed
        r = one_sided_hausdorff(Y, W)
        if r >= 3.0 ** (-k) / 4:
            continue
        back = one_sided_hausdorff(W, Y)
        margin = max(r, back) - 4 * 3.0 ** k * r
        worst = max(worst, margin)
        if margin > SLACK:
            failures += 1
        done += 1
    return {"battery": "closeness-symmetry", "norm": norm, "n": done,
            "failures": failures, "worst": worst}


def run_dimension_gap_battery(norm, n_instances=500, seed=0):
    """Distance between strata: dim Y = j < dim Y' gives d >= 2^-j / 8."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    worst = -np.inf
    while done < n_instances:
        j = int(rng.integers(1, 3))
        jp = int(rng.integers(j + 1, 4))
        d = int(rng.integers(jp, 6))
        Y = _rand_subspace(rng, d, j, norm)
        mode = int(rng.integers(0, 3))
        if mode == 0:
            Yp = _rand_subspace(rng, d, jp, norm)
        else:
            extra = rng.standard_normal((d, jp - j))
            B = np.column_stack([Y.basis, extra])
            if mode == 2:
                # near-containing pair: hardest direction for the bound
                B = B + 1e-3 * rng.standard_normal(B.shape)
            if np.linalg.matrix_rank(B) < jp:
                continue
            Yp = Subspace(B, norm)
        rng.integers(2 ** 31)   # unused; keeps the instance stream fixed
        a = one_sided_hausdorff(Y, Yp)
        b = one_sided_hausdorff(Yp, Y)
        margin = 2.0 ** (-j) / 8 - max(a, b)
        worst = max(worst, margin)
        if margin > SLACK:
            failures += 1
        done += 1
    return {"battery": "dimension-gap", "norm": norm, "n": done,
            "failures": failures, "worst": worst}


ALL_BATTERIES = (
    run_coordinate_bound_battery,
    run_basis_perturbation_battery,
    run_closeness_symmetry_battery,
    run_dimension_gap_battery,
)


def run_all(norms=("l1", "l2", "linf"), n_instances=500, seed=0):
    out = []
    for battery in ALL_BATTERIES:
        for i, norm in enumerate(norms):
            out.append(battery(norm, n_instances=n_instances, seed=seed + 101 * i))
    return out
