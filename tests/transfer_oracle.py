"""The float paths of the transfer map layer one point at a time, as an
oracle for its array forms.

Every evaluation here converts the branch's Fractions to float and calls
math.sin or math.cos on one point; the pre-image of a bin edge is the same
bisection as ``Branch.inverse``.  The Ulam entries of a map whose branches
are all sinusoidal are added up in a dict, piece by piece and domain bin
by domain bin, and ``ly_distance`` samples its grids point by point.  The
package must give the same numbers bit for bit.
"""

import math

import numpy as np

_TWO_PI = 2.0 * math.pi
_METRIC_GRID = 512


def value(br, x):
    xf = float(x)
    return float(br.slope) * xf + float(br.intercept) + \
        br.rho * math.sin(_TWO_PI * xf)


def derivative(br, x):
    return float(br.slope) + br.rho * _TWO_PI * math.cos(_TWO_PI * float(x))


def _image(br):
    va, vb = value(br, br.a), value(br, br.b)
    return (va, vb) if va <= vb else (vb, va)


def _inverse(br, y):
    lo, hi = _image(br)
    if not lo <= y <= hi:
        return None
    af, bf = float(br.a), float(br.b)
    rising = value(br, bf) >= value(br, af)
    while bf - af > 1e-15:
        mid = 0.5 * (af + bf)
        if (value(br, mid) < y) == rising:
            af = mid
        else:
            bf = mid
    return 0.5 * (af + bf)


def _bin_range(lo, hi, n):
    """Indices of bins [j/n, (j+1)/n) meeting the interval (lo, hi)."""
    return max(math.floor(lo * n), 0), min(math.ceil(hi * n), n)


def ulam_nonzeros(T, n):
    """(rows, cols, vals) of the Ulam matrix of T on n bins, row-major."""
    entries = {}
    for br in T.branches:
        lo_img, hi_img = _image(br)
        cuts = [float(br.a), float(br.b)]
        j_lo, j_hi = _bin_range(lo_img, hi_img, n)
        for j in range(j_lo, j_hi + 1):
            y = j / n
            if lo_img < y < hi_img:
                x = _inverse(br, y)
                if x is not None:
                    cuts.append(x)
        cuts = sorted(set(cuts))
        for x0, x1 in zip(cuts, cuts[1:]):
            j = min(max(int(value(br, 0.5 * (x0 + x1)) * n), 0), n - 1)
            for i in range(*_bin_range(x0, x1, n)):
                ov = min(x1, (i + 1) / n) - max(x0, i / n)
                if ov > 0:
                    entries[i, j] = entries.get((i, j), 0.0) + ov * n
    keys = sorted(entries)
    rows, cols = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return rows, cols, np.array([entries[k] for k in keys])


def _branch_norm(br):
    xs = np.linspace(float(br.a), float(br.b), _METRIC_GRID)
    vals = np.array([value(br, x) for x in xs])
    ders = np.array([derivative(br, x) for x in xs])
    return float(np.abs(vals).max() + np.abs(ders).max() + br.d2_bound)


def ly_distance(S, T):
    """``transfer.ly_distance``, one grid point at a time."""
    if S.branch_count != T.branch_count:
        return 1.0
    diff_term = norm_term = dom_term = 0.0
    for bs, bt in zip(S.branches, T.branches):
        lo = max(float(bs.a), float(bt.a))
        hi = min(float(bs.b), float(bt.b))
        if hi <= lo:
            return 1.0
        xs = np.linspace(lo, hi, _METRIC_GRID)
        dv = np.array([value(bs, x) - value(bt, x) for x in xs])
        dd = np.array([derivative(bs, x) - derivative(bt, x) for x in xs])
        d2 = _TWO_PI ** 2 * abs(bs.rho - bt.rho)
        diff_term = max(diff_term,
                        float(np.abs(dv).max() + np.abs(dd).max() + d2))
        norm_term = max(norm_term, abs(_branch_norm(bs) - _branch_norm(bt)))
        dom_term = max(dom_term, abs(float(bs.a) - float(bt.a)),
                       abs(float(bs.b) - float(bt.b)))
    return diff_term + norm_term + dom_term
