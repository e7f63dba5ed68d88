"""Finite-dimensional Grassmannian geometry over configurable norms.

Subspace distance is the Hausdorff distance between intersections of
subspaces with the unit ball of the chosen norm (l1, l2 or linf).  For l2
the one-sided sups have exact singular-value expressions; for l1/linf they
are exact maxima over the vertices of the polytope Y intersect ball, with
the per-point distances to a subspace solved exactly by enumerating the
basic solutions of the corresponding linear program (batched numpy solves)
and a ball-constrained LP where the unconstrained minimizer leaves the ball.

Also provides nice bases (unit vectors each at distance exactly 1 from the
span of the previous ones), oblique projections, and good complements of
nested filtrations.
"""

import itertools
import math
import warnings

import numpy as np

__all__ = [
    "NORM_TAGS",
    "Subspace",
    "ProjectionPair",
    "vector_norm",
    "operator_norm",
    "distance_point_subspace",
    "grassmann_distance",
    "one_sided_hausdorff",
    "nice_basis",
    "is_eps_nice",
    "projection",
    "good_complement",
]

NORM_TAGS = ("l1", "l2", "linf")

RANK_SV_CUTOFF = 1e-10      # smallest singular value of an orthonormalized basis
COMPLEMENT_CONDITION = 1e12  # condition-number cutoff for oblique projections

# enumeration guard: beyond this many index subsets, or beyond the entries
# of that many 4 x 4 systems, point distances fall back to linprog and
# ball-vertex enumeration raises ValueError
_MAX_SUBSETS = 20000
_MAX_ENTRIES = 16 * _MAX_SUBSETS


class DimensionMismatchError(ValueError):
    pass


class DegenerateSubspaceError(ValueError):
    pass


class ComplementarityError(ValueError):
    pass


class FiltrationError(ValueError):
    pass


def _check_tag(norm):
    if norm not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {norm!r}; expected one of {NORM_TAGS}")
    return norm


def vector_norm(x, norm="l2", axis=-1):
    x = np.asarray(x, dtype=float)
    _check_tag(norm)
    if norm == "l1":
        return np.abs(x).sum(axis=axis)
    if norm == "linf":
        return np.abs(x).max(axis=axis)
    return np.sqrt((x * x).sum(axis=axis))


def operator_norm(M, norm="l2"):
    """Induced operator norm: exact column/row-sum formulas for l1/linf,
    largest singular value for l2."""
    M = np.asarray(M, dtype=float)
    _check_tag(norm)
    if norm == "l1":
        return float(np.abs(M).sum(axis=0).max())
    if norm == "linf":
        return float(np.abs(M).sum(axis=1).max())
    if not np.all(np.isfinite(M)):
        return math.inf
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def _orthonormalize(B):
    """Orthonormal basis of the column span with its singular values."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise DimensionMismatchError("basis must be a 2-D array of columns")
    if B.shape[1] == 0:
        return B.copy(), np.zeros(0)
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    return U, s


class Subspace:
    """A k-dimensional subspace of R^d carried by basis columns and a norm tag."""

    def __init__(self, basis, norm="l2"):
        basis = np.array(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        _check_tag(norm)
        d, k = basis.shape
        if k > d:
            raise DegenerateSubspaceError(f"{k} basis vectors in ambient dim {d}")
        if k > 0:
            # the span is invariant under column scaling, so normalize each
            # column before the rank test: mixed-magnitude bases of perfectly
            # transverse directions must pass
            scales = np.sqrt((basis * basis).sum(axis=0))
            if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
                raise DegenerateSubspaceError("basis has a zero or non-finite column")
            onb, s = _orthonormalize(basis / scales[None, :])
            if s[-1] / s[0] <= RANK_SV_CUTOFF:
                raise DegenerateSubspaceError(
                    f"basis has numerical rank below {k} "
                    f"(relative smallest singular value {s[-1] / s[0]:.2e})")
        else:
            onb, _ = _orthonormalize(basis)
        self.basis = basis
        self.norm = norm
        self._onb = onb

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def orthonormal_basis(self):
        return self._onb

    def contains(self, x, tol=1e-8):
        x = np.asarray(x, dtype=float)
        r = x - self._onb @ (self._onb.T @ x)
        nx = np.sqrt((x * x).sum())
        return np.sqrt((r * r).sum()) <= tol * max(1.0, nx)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, norm={self.norm})"


def _as_basis(W):
    if isinstance(W, Subspace):
        return W.basis
    B = np.asarray(W, dtype=float)
    return B[:, None] if B.ndim == 1 else B


# ---------------------------------------------------------------------------
# exact point-to-subspace distances
#
# l1: some minimizer of ||x - Bc||_1 has >= k zero residuals (an LP basic
#     solution), so the optimum is the best candidate over k-subsets.
# linf: some minimizer has k+1 residuals of equal magnitude with fixed
#     signs, enumerated over (k+1)-subsets and sign patterns.
# Every candidate is scored by its true objective, so the minimum over
# candidates is an upper bound that is attained in the generic case.


def _subsets(d, k):
    return list(itertools.combinations(range(d), k))


def _enumerable(count, size):
    """Whether `count` stacked size x size systems are within the guard."""
    return count <= _MAX_SUBSETS and count * size * size <= _MAX_ENTRIES


def _l2_dist_batch(X, B):
    Q, _ = _orthonormalize(B)
    C0 = X @ Q                     # coefficients in the orthonormal basis
    R = X - C0 @ Q.T
    dist = np.sqrt((R * R).sum(axis=1))
    # coefficients w.r.t. the original basis columns
    coef, *_ = np.linalg.lstsq(B, X.T, rcond=None)
    return dist, coef.T


def _l1_dist_batch(X, B):
    m, d = X.shape
    k = B.shape[1]
    # count before materializing: C(d, k) overflows memory long before the
    # list comparison would reject it
    if not _enumerable(math.comb(d, k), k):
        return None
    S = np.array(_subsets(d, k))                         # (ns, k)
    A = B[S, :]                                          # (ns, k, k)
    dets = np.abs(np.linalg.det(A))
    ok = dets > 1e-300
    S, A = S[ok], A[ok]
    # chunk over candidate points: the intermediates are (chunk, ns, d)
    step = max(1, int(4e6 / max(S.shape[0] * (k + d), 1)))
    dist = np.empty(m)
    coef = np.empty((m, k))
    for lo in range(0, m, step):
        Xc = X[lo:lo + step]
        XS = Xc[:, S]                                    # (mc, ns, k)
        with np.errstate(all="ignore"):
            C = np.linalg.solve(A[None], XS[..., None])[..., 0]
            R = Xc[:, None, :] - np.einsum("msk,dk->msd", C, B)
            obj = np.abs(R).sum(axis=2)                  # (mc, ns)
        obj = np.where(np.isfinite(obj), obj, np.inf)
        best = obj.argmin(axis=1)
        rows = np.arange(Xc.shape[0])
        dist[lo:lo + step] = obj[rows, best]
        coef[lo:lo + step] = C[rows, best, :]
    return dist, coef


def _linf_dist_batch(X, B):
    m, d = X.shape
    k = B.shape[1]
    if k + 1 > d:
        # k = d: the span is everything
        coef = np.linalg.solve(B, X.T).T if k == d else None
        return np.zeros(m), coef
    if not _enumerable(math.comb(d, k + 1) * 2 ** k, k + 1):
        return None
    S = np.array(_subsets(d, k + 1))                     # (ns, k+1)
    signs = np.array(list(itertools.product([1.0], *([[-1.0, 1.0]] * k))))
    ns, nsig = S.shape[0], signs.shape[0]
    M = np.empty((ns, nsig, k + 1, k + 1))
    M[:, :, :, :k] = B[S, :][:, None, :, :]
    M[:, :, :, k] = signs[None, :, :]
    M = M.reshape(ns * nsig, k + 1, k + 1)
    # drop singular sign-pattern systems before the batched solve: an exactly
    # singular member raises instead of returning inf
    dets = np.abs(np.linalg.det(M))
    ok = dets > 1e-300
    M = M[ok]
    sub_of = np.repeat(np.arange(ns), nsig)[ok]
    nf = M.shape[0]
    dist = np.full(m, np.inf)
    coef = np.zeros((m, k))
    # chunk over candidate points: the intermediates are (chunk, nf, d)
    step = max(1, int(4e6 / max(nf * (k + 1 + d), 1)))
    for lo in range(0 if nf else m, m, step):
        Xc = X[lo:lo + step]
        with np.errstate(all="ignore"):
            XS = Xc[:, S[sub_of]]                        # (mc, nf, k+1)
            Z = np.linalg.solve(M[None], XS[..., None])[..., 0]
            C = Z[..., :k]                               # (mc, nf, k)
            R = Xc[:, None, :] - np.einsum("mfk,dk->mfd", C, B)
            obj = np.abs(R).max(axis=2)                  # (mc, nf)
        obj = np.where(np.isfinite(obj), obj, np.inf)
        best = obj.argmin(axis=1)
        rows = np.arange(Xc.shape[0])
        dist[lo:lo + step] = obj[rows, best]
        coef[lo:lo + step] = C[rows, best, :]
    # lstsq candidate catches the x-in-span case exactly
    ls, *_ = np.linalg.lstsq(B, X.T, rcond=None)
    ls = ls.T
    with np.errstate(all="ignore"):
        obj_ls = np.abs(X - ls @ B.T).max(axis=1)
    better = obj_ls < dist
    dist = np.where(better, obj_ls, dist)
    coef[better] = ls[better]
    return dist, coef


def _linprog_dist(x, B, norm, ball=False):
    """Exact LP fallback for l1/linf point-subspace distance."""
    from scipy import optimize

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
    res = optimize.linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                           bounds=[(None, None)] * nv, method="highs")
    if not res.success:
        raise RuntimeError(f"linprog distance solve failed: {res.message}")
    return float(res.fun), res.x[:k]


def _dist_batch(X, B, norm):
    """Distances (and coefficients) from rows of X to span(B), exact per norm."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if B.shape[1] == 0:
        return vector_norm(X, norm, axis=1), np.zeros((X.shape[0], 0))
    if norm == "l2":
        return _l2_dist_batch(X, B)
    out = _l1_dist_batch(X, B) if norm == "l1" else _linf_dist_batch(X, B)
    if out is not None:
        return out
    dists = np.empty(X.shape[0])
    coefs = np.empty((X.shape[0], B.shape[1]))
    for i, x in enumerate(X):
        dists[i], coefs[i] = _linprog_dist(x, B, norm)
    return dists, coefs


def distance_point_subspace(x, W, norm=None):
    """min over w in W of ||x - w||, by convex minimization over coefficients.

    The norm defaults to the subspace's tag.
    """
    B = _as_basis(W)
    if norm is None:
        norm = W.norm if isinstance(W, Subspace) else "l2"
    _check_tag(norm)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != B.shape[0]:
        raise DimensionMismatchError("point and subspace ambient dims differ")
    d, _ = _dist_batch(x[None, :], B, norm)
    return float(d[0])


def _ball_sup_batch(X, B, norm):
    """Max over rows of X of the distance to span(B) intersected with the
    unit ball, exact.

    The span distance bounds the ball distance below; rescaling the
    unconstrained minimizer onto the sphere bounds it above.  Only rows whose
    upper bound reaches the running max need the exact ball-constrained LP,
    which prunes almost every call when the two subspaces are close.

    For one column b the upper bound is exact: t -> ||x - t b|| is convex,
    so its minimum over the interval |t| <= 1/||b|| is at the clip of an
    unconstrained minimizer, which is what the rescaling computes.
    """
    dist, coef = _dist_batch(X, B, norm)
    w = coef @ B.T
    wn = vector_norm(w, norm, axis=1)
    bad = wn > 1.0 + 1e-12
    best = float(dist.max())
    if not np.any(bad):
        return best
    ub = vector_norm(X - w / np.maximum(wn, 1.0)[:, None], norm, axis=1)
    if B.shape[1] == 1:
        return max(best, float(ub[bad].max()))
    for i in np.argsort(ub)[::-1]:
        if not bad[i] or ub[i] < best - 1e-15:
            continue
        best = max(best, _linprog_dist(X[i], B, norm, ball=True)[0])
    return best


# ---------------------------------------------------------------------------
# one-sided Hausdorff sups and the Grassmannian metric
#
# For l1/linf, Y intersect ball is a polytope and y -> d(y, W intersect ball)
# is convex, so its sup over the unit sphere of Y is attained at a vertex of
# that polytope (Rockafellar, Convex Analysis, section 32).  The same holds
# for y -> d(y, W), which good_complement maximizes.


def _check_vertex_enumeration(d, k, norm):
    """Raise ValueError when the l1 or linf ball of a dim-k subspace of R^d
    has more vertex candidates than the enumeration guard admits.

    l1 has C(d, k-1) candidates, linf C(d, k) * 2^(k-1); the guard admits at
    most _MAX_SUBSETS of them and at most _MAX_ENTRIES entries in their
    stacked k-column systems.
    """
    count = (math.comb(d, k - 1) if norm == "l1"
             else math.comb(d, k) * 2 ** (k - 1))
    if not _enumerable(count, k):
        raise ValueError(
            f"{norm} ball of a dim-{k} subspace of R^{d}: {count} vertex "
            f"candidates exceed the enumeration limit ({_MAX_SUBSETS} "
            f"candidates, {_MAX_ENTRIES} system entries)")


def _ball_vertices(B, norm):
    """Unit vectors of span(B), one of each +- pair, that include every
    vertex of span(B) intersected with the l1 or linf unit ball.

    l1: a vertex y = Qa has zeros on k-1 rows of Q whose submatrix has
    rank k-1, so a spans that submatrix's null space.
    linf: a vertex solves Q_S a = s on k rows S with Q_S invertible and
    signs s, and lies in the cube.
    Q is an orthonormal basis of span(B).  Raises ValueError past the
    guard of _check_vertex_enumeration.
    """
    Q, _ = _orthonormalize(B)
    d, k = Q.shape
    _check_vertex_enumeration(d, k, norm)
    if norm == "l1":
        A = Q[np.array(_subsets(d, k - 1), dtype=int)]
        _, s, vt = np.linalg.svd(A)
        coef = vt[s.min(axis=1, initial=np.inf) > RANK_SV_CUTOFF, -1]
    else:
        A = Q[np.array(_subsets(d, k))]
        A = A[np.linalg.svd(A, compute_uv=False)[:, -1] > RANK_SV_CUTOFF]
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
        signs = signs[signs[:, 0] > 0]      # s and -s give y and -y
        coef = np.linalg.solve(A[:, None], signs[None, :, :, None])
        coef = coef.reshape(-1, k)
    Y = coef @ Q.T
    nrm = vector_norm(Y, norm, axis=1)
    if norm == "linf":
        inside = nrm <= 1.0 + 1e-9   # solutions outside the cube are not vertices
        Y, nrm = Y[inside], nrm[inside]
    return Y / nrm[:, None]


def one_sided_hausdorff(Y, W):
    """sup over y in Y with ||y||=1 of the distance from y to (W intersect ball).

    Exact: singular values for l2; for l1/linf the max over the vertices of
    Y intersect ball of the ball-constrained distance, which raises
    ValueError past the guard of _check_vertex_enumeration.
    """
    if Y.norm != W.norm or Y.ambient_dim != W.ambient_dim:
        raise DimensionMismatchError("norm tags and ambient dims must match")
    norm = Y.norm
    if Y.dim == 0:
        return 0.0
    if norm == "l2":
        QY = Y.orthonormal_basis()
        QW = W.orthonormal_basis()
        M = QY - QW @ (QW.T @ QY) if W.dim else QY
        s = np.linalg.svd(M, compute_uv=False)
        return float(min(s[0], 1.0)) if s.size else 0.0
    return min(_ball_sup_batch(_ball_vertices(Y.basis, norm), W.basis, norm), 1.0)


def grassmann_distance(Y, Yp):
    """Hausdorff distance between the unit-ball sections of two subspaces:
    the max of the two exact one-sided sups."""
    if not isinstance(Y, Subspace) or not isinstance(Yp, Subspace):
        raise TypeError("grassmann_distance expects Subspace arguments")
    if Y.ambient_dim != Yp.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    if Y.norm != Yp.norm:
        raise DimensionMismatchError("norm tags differ")
    return max(one_sided_hausdorff(Y, Yp), one_sided_hausdorff(Yp, Y))


def principal_angles(Y, Yp):
    """Sines of the principal angles (l2 oracle; largest first)."""
    QY = Y.orthonormal_basis() if isinstance(Y, Subspace) else _orthonormalize(Y)[0]
    QP = Yp.orthonormal_basis() if isinstance(Yp, Subspace) else _orthonormalize(Yp)[0]
    s = np.linalg.svd(QY.T @ QP, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return np.sqrt(np.maximum(0.0, 1.0 - s * s))[::-1]


# ---------------------------------------------------------------------------
# nice bases


class NiceBasisError(RuntimeError):
    pass


def _sign_fix(y):
    i = int(np.argmax(np.abs(y)))
    return y if y[i] >= 0 else -y


def nice_basis(Y, eps=1e-8):
    """Unit vectors y_1..y_k with d(y_i, span(y_1..y_{i-1})) = 1 (up to eps).

    Normalizing the residual x - argmin_w ||x - w|| of each input basis
    column against the span of the previous outputs yields distance exactly
    1 in any norm, so the default eps is far inside the valid regime.
    """
    if not isinstance(Y, Subspace):
        Y = Subspace(Y)
    if Y.dim < 1:
        raise DegenerateSubspaceError("nice_basis needs dim >= 1")
    norm = Y.norm
    out = []
    for i in range(Y.dim):
        x = Y.basis[:, i]
        if out:
            prev = np.column_stack(out)
            _, coef = _dist_batch(x[None, :], prev, norm)
            r = x - prev @ coef[0]
        else:
            r = x.copy()
        nr = vector_norm(r, norm)
        if nr < 1e-12:
            raise NiceBasisError("rank-deficient input basis")
        out.append(_sign_fix(r / nr))
    vecs = out
    for i in range(1, len(vecs)):
        d = distance_point_subspace(vecs[i], Subspace(np.column_stack(vecs[:i]), norm))
        if d < 1.0 - eps:
            raise NiceBasisError(
                f"nice basis construction achieved distance {d} < 1 - {eps}")
    return vecs


def is_eps_nice(vectors, eps, norm="l2"):
    """True iff 1-eps < ||y_i|| < 1+eps and d(y_i, span of previous) > 1-eps."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    k = len(vecs)
    if eps <= 0:
        return False
    if eps >= 2.0 ** (-k - 2):
        warnings.warn(
            f"eps={eps} is not below 2^-(k+2)={2.0 ** (-k - 2)}; "
            "the coordinate-bound lemma does not apply", stacklevel=2)
    for i, y in enumerate(vecs):
        n = vector_norm(y, norm)
        if not (1.0 - eps < n < 1.0 + eps):
            return False
        if i > 0:
            B = np.column_stack(vecs[:i])
            if _orthonormalize(B)[1][-1] <= RANK_SV_CUTOFF:
                return False
            d, _ = _dist_batch(y[None, :], B, norm)
            if d[0] <= 1.0 - eps:
                return False
    return True


# ---------------------------------------------------------------------------
# oblique projections


class ProjectionPair:
    """The projection onto Y along Z, with its basic quality diagnostics."""

    def __init__(self, Y, Z, matrix, condition):
        self.Y = Y
        self.Z = Z
        self.matrix = matrix
        self.condition = condition
        nrm = operator_norm(matrix, Y.norm)
        self.norm_value = nrm
        resid = operator_norm(matrix @ matrix - matrix, Y.norm)
        self.idempotency_error = resid / max(nrm, 1e-300)

    def __repr__(self):
        return (f"ProjectionPair(dim Y={self.Y.dim}, dim Z={self.Z.dim}, "
                f"norm={self.norm_value:.6g})")


def projection(Y, Z):
    """Matrix Pi with Pi y = y on Y and Pi z = 0 on Z (dim Y + dim Z = d)."""
    if Y.ambient_dim != Z.ambient_dim:
        raise DimensionMismatchError("ambient dims differ")
    d = Y.ambient_dim
    if Y.dim + Z.dim != d:
        raise DimensionMismatchError(
            f"dim(Y)+dim(Z) = {Y.dim}+{Z.dim} != ambient {d}")
    B = np.column_stack([Y.basis, Z.basis])
    condition = np.linalg.cond(B)
    if not np.isfinite(condition) or condition > COMPLEMENT_CONDITION:
        raise ComplementarityError(
            f"Y and Z are not numerically complementary (condition {condition:.3e})")
    target = np.column_stack([Y.basis, np.zeros((d, Z.dim))])
    Pi = target @ np.linalg.inv(B)
    pair = ProjectionPair(Y, Z, Pi, condition)
    if pair.idempotency_error > 1e-8:
        raise ComplementarityError(
            f"projection failed idempotency check ({pair.idempotency_error:.3e})")
    return pair


# ---------------------------------------------------------------------------
# good complements


def _argmax_distance_unit(V_basis, K_basis, W_basis, norm):
    """Most-distant unit vector of V = span(V_basis) from W = span(W_basis),
    given K = span(K_basis) = V intersect W.

    d(., W) is constant on each coset c + K, whose least norm d(c, K) is
    reached at c - k*, k* a best approximation of c from K; the unit vector
    (c - k*) / d(c, K) is at distance d(c, W) / d(c, K) <= 1 from W.  If V
    has one direction outside K, or K = W (the ratio is then 1), any c of V
    outside K attains the maximum.  Otherwise the maximum is taken over the
    vertices of V intersect ball, as in one_sided_hausdorff.
    """
    QV, _ = _orthonormalize(V_basis)
    M = QV
    if W_basis.shape[1]:
        QW, _ = _orthonormalize(W_basis)
        M = QV - QW @ (QW.T @ QV)
    _, _, vt = np.linalg.svd(M)
    c = QV @ vt[0]          # the l2 most-distant unit vector, outside K
    if norm == "l2":
        return _sign_fix(c)
    k_dim = K_basis.shape[1]
    if QV.shape[1] - k_dim == 1 or k_dim == W_basis.shape[1]:
        _, coef = _dist_batch(c[None, :], K_basis, norm)
        r = c - K_basis @ coef[0]
        return _sign_fix(r / vector_norm(r, norm))
    cand = _ball_vertices(V_basis, norm)
    return _sign_fix(cand[int(np.argmax(_dist_batch(cand, W_basis, norm)[0]))])


def good_complement(filtration, eps=0.9, rotation_seed=None):
    """Complements U_j with V_{j+1} + U_j = V_j, built one unit vector at a
    time by picking the most-distant unit vector from W = V_{j+1} + U_{<j}
    (plus the vectors already chosen) inside V_j.

    Parameters
    ----------
    filtration : list of Subspace, nested V_1 > V_2 > ... > V_{l+1}
    eps : float
        Acceptance floor: every chosen vector must satisfy d(u, W) > 1-eps.
    rotation_seed : int or None
        If set, each greedy choice is blended with a seeded random direction
        of V_j (largest blend keeping the floor), giving a different
        deterministic valid selection for uniqueness probes.

    Returns a list of (U_j, diagnostics) pairs; diagnostics carry the
    measured distances and the projection norm of Pi_{U_j || V_{j+1}+U_{<j}}
    when the chain spans the ambient space.

    Every choice is exact and needs one point distance, except the first
    m-1 vectors of a level j >= 2 of multiplicity m >= 2 in l1/linf: they
    enumerate the ball vertices of V_j, and raise ValueError past the guard
    of _check_vertex_enumeration.
    """
    if len(filtration) < 1:
        raise FiltrationError("empty filtration")
    norm = filtration[0].norm
    d = filtration[0].ambient_dim
    for V, Vn in zip(filtration, filtration[1:]):
        if Vn.dim > V.dim:
            raise FiltrationError("filtration dimensions must be non-increasing")
        if Vn.dim:
            # nesting is a linear question, so the l2 sup answers it for
            # every norm without enumerating anything
            gap = one_sided_hausdorff(Subspace(Vn.basis), Subspace(V.basis))
            if gap > 1e-8:
                raise FiltrationError(
                    f"nesting violation: l2 one-sided sup {gap:.3e} > 1e-8")
    rng = np.random.default_rng(rotation_seed)
    out = []
    chosen_prior = []   # all U_i basis vectors with i < current level
    for j in range(len(filtration) - 1):
        Vj, Vn = filtration[j], filtration[j + 1]
        m = Vj.dim - Vn.dim
        if m == 0:
            continue
        level_vecs = []
        dists = []
        for _ in range(m):
            # K = V_j intersect W: the earlier levels' vectors lie outside V_j
            K = np.column_stack([Vn.basis] + [v[:, None] for v in level_vecs])
            W = np.column_stack([K] + [v[:, None] for v in chosen_prior])
            u = _argmax_distance_unit(Vj.basis, K, W, norm)
            if rotation_seed is not None:
                u = _blend_direction(u, Vj, W, norm, rng, eps)
            du = distance_point_subspace(u, Subspace(W, norm)) if W.shape[1] else 1.0
            if du <= 1.0 - eps:
                raise FiltrationError(
                    f"good complement floor violated at level {j + 1}: "
                    f"d={du:.3e} <= {1 - eps}")
            level_vecs.append(u)
            dists.append(du)
        U = Subspace(np.column_stack(level_vecs), norm)
        diag = {"distances": dists,
                "per_factor_bound": float(np.prod([1.0 / x for x in dists]))}
        # projection norm is ambient-defined once the chain spans everything
        other = ([Vn.basis] if Vn.dim else []) + [v[:, None] for v in chosen_prior]
        Wfull = np.column_stack(other) if other else np.zeros((d, 0))
        if U.dim + Wfull.shape[1] == d:
            try:
                diag["projection_norm"] = projection(
                    U, Subspace(Wfull, norm)).norm_value
            except ComplementarityError:
                diag["projection_norm"] = math.inf
        out.append((U, diag))
        chosen_prior.extend(level_vecs)
    return out


def _blend_direction(u, Vj, W, norm, rng, eps):
    """Blend the greedy direction with a seeded one, keeping the floor."""
    g = rng.standard_normal(Vj.dim)
    w = Vj.basis @ g
    w = w - u * float(u @ w) / max(float(u @ u), 1e-300)
    nw = vector_norm(w, norm)
    if nw < 1e-12:
        return u
    w = w / nw
    Wsub = Subspace(W, norm) if W.shape[1] else None
    for theta in (0.45, 0.3, 0.15, 0.05, 0.0):
        v = math.cos(theta) * u + math.sin(theta) * w
        v = v / vector_norm(v, norm)
        dv = distance_point_subspace(v, Wsub) if Wsub is not None else 1.0
        if dv > 1.0 - eps:
            return _sign_fix(v)
    return u
