"""Finite-dimensional Grassmannian geometry over configurable norms.

Subspace distance is the Hausdorff distance between intersections of
subspaces with the unit ball of the chosen norm (l1, l2 or linf).  For l2
the one-sided sups have exact singular-value expressions; for l1/linf they
are exact maxima over the vertices of the polytope Y intersect ball, and
every point distance is enumerated in batched numpy solves (ValueError past
the guard): the best basic solution of its LP in l1, the dual optimum over
the circuits of the orthogonal complement in linf.

Also provides nice bases (unit vectors each at distance exactly 1 from the
span of the previous ones) and good complements of nested filtrations
given as lists of Subspace bases.  The one oblique projection is the
private _CoframeProjection, onto span(Y) along F^perp for an orthonormal
co-frame F, as the splitting layer holds filtrations; it holds nothing
d x d.
"""

import itertools
import math
import warnings

import numpy as np

__all__ = [
    "NORM_TAGS",
    "Subspace",
    "vector_norm",
    "operator_norm",
    "distance_point_subspace",
    "grassmann_distance",
    "one_sided_hausdorff",
    "nice_basis",
    "is_eps_nice",
    "good_complement",
]

NORM_TAGS = ("l1", "l2", "linf")

RANK_SV_CUTOFF = 1e-10      # smallest singular value of an orthonormalized basis
COMPLEMENT_CONDITION = 1e12  # condition-number cutoff for oblique projections
IDEMPOTENCY_TOL = 1e-8      # relative ||Pi^2 - Pi|| cutoff for oblique projections

# enumeration guard: beyond this many candidates (index subsets, circuits,
# ball vertices or chord lines), or beyond the entries of that many 4 x 4
# systems, an l1/linf distance raises ValueError
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

    @classmethod
    def _orthonormal(cls, frame, norm="l2"):
        """The span of a frame whose columns are orthonormal already (a QR
        or SVD factor, or a slice of one).  It has full rank, so no rank
        test runs, and the SVD of the constructor's orthonormal basis runs
        only when ``orthonormal_basis`` is first read: many frames (hulls,
        pushed frames) never need it.  The frame itself would serve, but
        it rounds differently from that SVD, and every l2 value read off
        the basis would move."""
        _check_tag(norm)
        self = cls.__new__(cls)
        self.basis = np.array(frame, dtype=float)
        self.norm = norm
        self._onb = None
        return self

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def orthonormal_basis(self):
        if self._onb is None:
            B = self.basis
            self._onb, _ = _orthonormalize(B / np.sqrt((B * B).sum(axis=0)))
        return self._onb

    def contains(self, x, tol=1e-8):
        x = np.asarray(x, dtype=float)
        onb = self.orthonormal_basis()
        r = x - onb @ (onb.T @ x)
        nx = np.sqrt((x * x).sum())
        return np.sqrt((r * r).sum()) <= tol * max(1.0, nx)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, norm={self.norm})"


# ---------------------------------------------------------------------------
# exact point-to-subspace distances
#
# l1: some minimizer of ||x - Bc||_1 has >= k zero residuals (an LP basic
#     solution), so the optimum is the best candidate over k-subsets, or,
#     past the guard for those systems, over (d-k)-subsets on W^perp.
# linf: by LP duality the distance is max |z^T x| over the circuits z of
#     W^perp (its vectors of minimal support) scaled to unit l1 norm, one
#     per (k+1)-subset of rows; complementary slackness gives the residual.
# Every distance is scored at the coefficients it returns, so it is attained.


def _subsets(d, k):
    return list(itertools.combinations(range(d), k))


def _enumerable(count, size):
    """Whether `count` stacked size x size systems are within the guard."""
    return count <= _MAX_SUBSETS and count * size * size <= _MAX_ENTRIES


def _check_count(count, size, what):
    """Raise ValueError, its message led by `what`, past the guard."""
    if not _enumerable(count, size):
        raise ValueError(f"{what} exceed the enumeration limit "
                         f"({_MAX_SUBSETS} candidates, {_MAX_ENTRIES} "
                         "system entries)")


def _primal_form(d, k):
    """Whether l1 distances to a dim-k span in R^d (0 < k < d) enumerate
    its basic solutions as k x k systems (True) or take the codimension
    form (False); ValueError past both guards."""
    count = math.comb(d, k)
    if _enumerable(count, k):
        return True
    _check_count(count, d - k, f"l1 distance to a dim-{k} subspace of R^{d}: "
                 f"{count} basic solutions, as {k} x {k} or {d - k} x {d - k} "
                 "systems,")
    return False


def _circuit_side(d, k):
    """Whether the C(d, k+1) circuits of W^perp, W a dim-k span in R^d
    (0 < k < d), come from the (k+1) x k row blocks of an orthonormal basis
    of W (True) or, where those are larger, from _ball_vertices on one of
    W^perp (False); ValueError past the guard."""
    count = math.comb(d, k + 1)
    _check_count(count, min(k + 1, d - k), f"linf distance to a dim-{k} "
                 f"subspace of R^{d}: {count} circuits")
    return k + 1 <= d - k


def _l2_dist_batch(X, B):
    Q, _ = _orthonormalize(B)
    C0 = X @ Q                     # coefficients in the orthonormal basis
    R = X - C0 @ Q.T
    dist = np.sqrt((R * R).sum(axis=1))
    # coefficients w.r.t. the original basis columns
    coef, *_ = np.linalg.lstsq(B, X.T, rcond=None)
    return dist, coef.T


def _best_solves(X, B, S):
    """The best l1 basic solution per row x of X: for each k-subset S_s of
    rows, c = B_S^-1 x[S_s], scored by ||x - B c||_1.  Systems with
    |det| <= 1e-300 are dropped before the batched solve: an exactly
    singular member raises instead of returning inf.  Rows with no finite
    candidate get dist inf, coef 0."""
    (m, d), k = X.shape, B.shape[1]
    S = S[np.abs(np.linalg.det(B[S])) > 1e-300]
    M, ns = B[S], len(S)
    dist = np.full(m, np.inf)
    coef = np.zeros((m, k))
    # blocks of points and of candidates: the intermediates are (points,
    # candidates, d), about 4e6 floats
    step = max(1, int(4e6 / max(ns * (k + d), 1)))
    width = max(1, int(4e6 / (k + d)))
    for lo, s0 in itertools.product(range(0, m, step), range(0, ns, width)):
        Xc, Sc = X[lo:lo + step], slice(s0, s0 + width)
        with np.errstate(all="ignore"):
            XS = Xc[:, S[Sc]]                            # (mc, nc, k)
            C = np.linalg.solve(M[None, Sc], XS[..., None])[..., 0]
            # the residuals stay a temporary: two blocks are held at most
            obj = np.abs(Xc[:, None, :] - np.einsum("msk,dk->msd", C, B)
                         ).sum(axis=2)                   # (mc, nc)
        obj = np.where(np.isfinite(obj), obj, np.inf)
        best = obj.argmin(axis=1)
        rows = np.arange(Xc.shape[0])
        val, c = obj[rows, best], C[rows, best]
        if s0:      # only a smaller value replaces a best, as in argmin
            new = val < dist[lo:lo + step]
            val = np.where(new, val, dist[lo:lo + step])
            c = np.where(new[:, None], c, coef[lo:lo + step])
        dist[lo:lo + step], coef[lo:lo + step] = val, c
    return dist, coef


def _codim_dist_batch(X, B):
    """The l1 distances of _dist_batch from m x m systems on
    W^perp = span(A), A an orthonormal d x m basis, m = d - k: the
    residuals r = x - Bc are the points of x + W, those with
    A^T r = A^T x, and a basic solution has r supported on m coordinates
    T, with r_T = (A_T^T)^-1 A^T x.  Each distance is scored at the
    coefficients of x - r."""
    d, k = B.shape
    A = np.linalg.svd(B)[0][:, k:]
    AX = X @ A
    R = np.zeros_like(X)
    T = np.array(_subsets(d, d - k))
    M = A[T].transpose(0, 2, 1)                          # A_T^T
    ok = np.abs(np.linalg.det(M)) > 1e-300
    T, M = T[ok], M[ok]
    step = max(1, int(4e6 / (T.shape[0] * (d - k + 1))))
    for lo in range(0, X.shape[0], step):
        with np.errstate(all="ignore"):
            RT = np.linalg.solve(M[None], AX[lo:lo + step, None, :, None])
            obj = np.abs(RT[..., 0]).sum(axis=2)
        best = np.where(np.isfinite(obj), obj, np.inf).argmin(axis=1)
        rows = np.arange(best.shape[0])
        R[(lo + rows)[:, None], T[best]] = RT[rows, best, :, 0]
    coef = np.linalg.lstsq(B, (X - R).T, rcond=None)[0].T
    return vector_norm(X - coef @ B.T, "l1", axis=1), coef


def _circuit_dist_batch(X, B):
    """The linf distances of _dist_batch.  By LP duality the distance
    delta is max |z^T x| over the vertices z of W^perp intersected with
    the l1 ball: the circuits of W^perp (its vectors of minimal support,
    at most k + 1 nonzeros) scaled to unit l1 norm (Rockafellar 1969).
    By complementary slackness r = x - Bc has r_i = delta sign(z_i)
    wherever z_i != 0; a least-norm solve of A^T r = A^T x, A an
    orthonormal basis of W^perp, sets the other coordinates F.  Where some
    end above delta (z has fewer than k + 1 nonzeros), their best values
    are a linf distance in R^F to null(A_F^T).  At delta = 0 (x in W)
    every coordinate is free and the least-norm r is exact.
    """
    d, k = B.shape
    U, sb, Vb = np.linalg.svd(B)
    A = U[:, k:]
    if _circuit_side(d, k):
        S = np.array(_subsets(d, k + 1))
        u, s, _ = np.linalg.svd(U[S, :k])                # Q_S, (k+1) x k
        ok = s[:, -1] > RANK_SV_CUTOFF                   # rank k: one circuit
        S, u = S[ok], u[ok, :, -1]                       # spans null(Q_S^T)
        Z = np.zeros((len(S), d))
        Z[np.arange(len(S))[:, None], S] = u / np.abs(u).sum(axis=1)[:, None]
    else:
        Z = _ball_vertices(A, "l1")
    step = max(1, int(4e6 / Z.shape[0]))
    z = np.concatenate([Z[np.abs(X[lo:lo + step] @ Z.T).argmax(axis=1)]
                        for lo in range(0, X.shape[0], step)])
    delta = np.einsum("nd,nd->n", X, z)
    z *= np.sign(delta)[:, None]
    delta = np.abs(delta)
    free = (np.abs(z) <= 1e-12 * np.abs(z).max(axis=1, keepdims=True)) \
        | (delta == 0.0)[:, None]
    R = np.where(free, 0.0, delta[:, None] * np.sign(z))
    # r_F = pinv(A_F^T) A^T (x - r); A is orthonormal, so singular
    # values of A_F below the cutoff are rounding, whatever their ratio
    P, sv, Vt = np.linalg.svd(A * free[:, :, None], full_matrices=False)
    sv = np.where(sv > RANK_SV_CUTOFF,
                  1.0 / np.maximum(sv, RANK_SV_CUTOFF), 0.0)
    R += (P @ (sv[:, :, None] * (Vt @ (X @ A - R @ A)[:, :, None])))[..., 0]
    over = np.abs(R).max(axis=1) > delta * (1 + 1e-9)
    for i in np.flatnonzero(over & ~free.all(axis=1)):
        F = free[i]
        _, sf, vt = np.linalg.svd(A[F].T)
        N = vt[(sf > RANK_SV_CUTOFF).sum():].T           # null(A_F^T)
        R[i, F] -= N @ _dist_batch(R[i, F][None], N, "linf")[1][0]
    coef = (X - R) @ U[:, :k] / sb @ Vb                 # pinv(B) (x - r)
    return vector_norm(X - coef @ B.T, "linf", axis=1), coef


def _dist_batch(X, B, norm):
    """Distances (and coefficients) from rows of X to span(B), exact per
    norm; ValueError past the guards of _primal_form and _circuit_side."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d, k = B.shape
    if k == 0:
        return vector_norm(X, norm, axis=1), np.zeros((X.shape[0], 0))
    if norm == "l2":
        return _l2_dist_batch(X, B)
    if k == d:
        return np.zeros(X.shape[0]), np.linalg.solve(B, X.T).T
    if norm == "linf":
        return _circuit_dist_batch(X, B)
    if not _primal_form(d, k):
        return _codim_dist_batch(X, B)
    return _best_solves(X, B, np.array(_subsets(d, k)))


def distance_point_subspace(x, W):
    """min over w in W of ||x - w|| in the norm of the Subspace W, exact:
    the orthogonal residual in l2, the l1 LP's best basic solution, linf's
    largest circuit product (ValueError past the enumeration guard)."""
    if not isinstance(W, Subspace):
        raise TypeError("distance_point_subspace expects a Subspace")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != W.ambient_dim:
        raise DimensionMismatchError("point and subspace ambient dims differ")
    d, _ = _dist_batch(x[None, :], W.basis, W.norm)
    return float(d[0])


# ---------------------------------------------------------------------------
# distances to W intersect ball


def _check_chords(d, k, norm):
    count = math.comb(2 * d if norm == "l1" else d * d + d, k - 1)
    _check_count(count, k, f"{norm} ball of a dim-{k} subspace of R^{d}: "
                 f"{count} chord lines")


def _exit(P, q, norm):
    """Largest t with ||p + t q|| <= 1 per row p of P (..., L, d) and line
    direction q, or nan (for linf only where q leaves p outside).  l1:
    phi(t) = ||p + t q||_1, evaluated at its sorted kinks -p_i / q_i by
    running sums, lies above its tangents, so the exit is the least
    crossing of 1 by the tangents at kinks inside the ball."""
    nz = q != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if norm == "linf":
            t = np.where(nz, (np.sign(q) - P) / q, np.inf).min(axis=-1)
            return np.where((~nz & (np.abs(P) > 1.0 + 1e-12)).any(axis=-1),
                            np.nan, t)
        tau = np.where(nz, -P / q, np.inf)
        order = np.argsort(tau, axis=-1)
        tau = np.take_along_axis(tau, order, -1)
        w = np.take_along_axis(np.broadcast_to(np.abs(q), P.shape), order, -1)
        cw = np.cumsum(w, axis=-1)
        ct = np.cumsum(np.where(w > 0, w * tau, 0.0), axis=-1)
        slope = 2 * cw - cw[..., -1:]            # of phi right of tau_j
        phi = (np.where(nz, 0.0, np.abs(P)).sum(axis=-1, keepdims=True)
               + tau * slope - 2 * ct + ct[..., -1:])
        t = np.where((phi <= 1.0) & (slope > 0),
                     tau + (1.0 - phi) / slope, np.inf).min(axis=-1)
    return np.where(np.isfinite(t), t, np.nan)


def _boundary_dist(X, B, norm):
    """Distance from each row x of X to the boundary of W intersected with
    the unit ball, W = span(B) = span(Q), exact.  In the coordinates c of
    w = Q c, ||x - w|| and ||w|| are piecewise linear with kinks on
    hyperplanes: l1 w_i = x_i and w_i = 0; linf the ties
    w_i -+ w_j = x_i -+ x_j and the facets w_i = +-1.  The minimum on the
    boundary sits at a vertex of their arrangement there: an end of the
    chord that a line cut out by k - 1 of them makes with the ball.  A
    dim-1 W is the one chord between +-b / ||b||."""
    d, k = B.shape
    _check_chords(d, k, norm)
    if k == 1:
        u = B[:, 0] / vector_norm(B[:, 0], norm)
        return np.minimum(vector_norm(X - u, norm, axis=1),
                          vector_norm(X + u, norm, axis=1))
    Q, _ = _orthonormalize(B)
    ones = np.ones_like(X)
    if norm == "l1":
        normals, offsets = np.vstack([Q, Q]), np.hstack([X, 0.0 * X])
    else:
        i, j = np.triu_indices(d, 1)
        normals = np.vstack([Q[i] - Q[j], Q[i] + Q[j], Q, Q])
        offsets = np.hstack([X[:, i] - X[:, j], X[:, i] + X[:, j], ones,
                             -ones])
    # the line N_S c = h_S is pinv(N_S) h_S + t e, e spanning null(N_S);
    # dependent hyperplanes cut out none
    S = np.array(_subsets(normals.shape[0], k - 1))
    S = S[np.linalg.svd(normals[S], compute_uv=False)[:, -1] > RANK_SV_CUTOFF]
    N = normals[S]
    q = np.linalg.svd(N)[2][:, -1] @ Q.T
    # a line lies in the hyperplanes that cut it out: zero the rounding in
    # their rows of q, which would tilt the chord
    q[np.abs(q) <= 1e-12 * np.abs(q).max(axis=1, keepdims=True)] = 0.0
    lift = np.einsum("dk,lkj->ldj", Q, np.linalg.pinv(N))
    dist = np.empty(X.shape[0])
    step = max(1, int(2e5 / (S.shape[0] * d)))
    for lo in range(0, X.shape[0], step):
        Xc = X[lo:lo + step]
        P = np.einsum("ldj,nlj->nld", lift, offsets[lo:lo + step][:, S])
        ends = -_exit(P, -q, norm), _exit(P, q, norm)
        f = [vector_norm(Xc[:, None] - P - t[..., None] * q, norm, axis=2)
             for t in ends]
        f = np.where(ends[0] <= ends[1], np.minimum(*f), np.inf)
        dist[lo:lo + step] = f.min(axis=1)
    return dist


def _ball_sup_batch(X, B, norm):
    """Max over rows of X of the distance to span(B) intersected with the
    unit ball, exact: the span distance where its minimizer lies in the
    ball, the distance to the ball's boundary where it leaves it."""
    dist, coef = _dist_batch(X, B, norm)
    out = vector_norm(coef @ B.T, norm, axis=1) > 1.0 + 1e-12
    if np.any(out):
        dist[out] = _boundary_dist(X[out], B, norm)
    return float(dist.max())


# ---------------------------------------------------------------------------
# one-sided Hausdorff sups and the Grassmannian metric
#
# For l1/linf, Y intersect ball is a polytope and y -> d(y, W intersect ball)
# is convex, so its sup over the unit sphere of Y is attained at a vertex of
# that polytope (Rockafellar, Convex Analysis, section 32).  The same holds
# for y -> d(y, W), which good_complement maximizes.


def _check_vertex_enumeration(d, k, norm):
    """Raise ValueError when the l1 or linf ball of a dim-k subspace of R^d
    has more vertex candidates than the enumeration guard admits: l1 has
    C(d, k-1), linf C(d, k) * 2^(k-1), each from a k-column system."""
    count = (math.comb(d, k - 1) if norm == "l1"
             else math.comb(d, k) * 2 ** (k - 1))
    _check_count(count, k, f"{norm} ball of a dim-{k} subspace of R^{d}: "
                 f"{count} vertex candidates")


def _check_sup_enumeration(d, k_y, k_w, norm):
    """Raise ValueError unless the l1/linf sup from a dim-k_y to a dim-k_w
    subspace of R^d is within every guard, in the order of the work: the
    ball vertices of Y, the distances to W and the chords of W's ball (a W
    of dimension 0 or d needs neither)."""
    if k_y:
        _check_vertex_enumeration(d, k_y, norm)
        if 0 < k_w < d:
            (_primal_form if norm == "l1" else _circuit_side)(d, k_w)
            _check_chords(d, k_w, norm)


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
    ValueError past the guard of _check_sup_enumeration before any work.
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
    _check_sup_enumeration(Y.ambient_dim, Y.dim, W.dim, norm)
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
    if Y.norm != "l2":
        # the second side's guard before the first side's work
        _check_sup_enumeration(Y.ambient_dim, Yp.dim, Y.dim, Y.norm)
    return max(one_sided_hausdorff(Y, Yp), one_sided_hausdorff(Yp, Y))


# ---------------------------------------------------------------------------
# nice bases


class NiceBasisError(RuntimeError):
    pass


def _sign_fix(y):
    i = int(np.argmax(np.abs(y)))
    return y if y[i] >= 0 else -y


def nice_basis(Y):
    """Unit vectors y_1..y_k with d(y_i, span(y_1..y_{i-1})) = 1.

    Normalizing the residual x - argmin_w ||x - w|| of each input basis
    column against the span of the previous outputs yields distance exactly
    1 in any norm; NiceBasisError is raised if a check falls below 1 - 1e-8.
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
    for i in range(1, len(out)):
        d = distance_point_subspace(out[i], Subspace(np.column_stack(out[:i]), norm))
        if d < 1.0 - 1e-8:
            raise NiceBasisError(
                f"nice basis construction achieved distance {d} < 1 - 1e-8")
    return out


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


class _CoframeProjection:
    """The projection onto span(Y) along Z = F^perp, for F with orthonormal
    columns and Y with as many: Pi = A F^T with A = Y (F^T Y)^-1, kept as
    its d x k factors so that nothing d x d is decomposed or held.

    It refuses (ComplementarityError) on two checks.  Complementarity:
    in the orthonormal basis [F, Q_Z], [Y, Q_Z] is
    [[F^T Y, 0], [Q_Z^T Y, I]], and Q_Z^T Y has the Gram matrix T^T T of
    the R factor T of (I - F F^T) Y, so its singular values are those of
    the 2k x 2k block [[F^T Y, 0], [T, I]] plus ones; the block maps
    (0, e) to itself, so the ones lie between its extremes and
    cond([Y, Q_Z]) is the block's, refused past COMPLEMENT_CONDITION.
    Idempotency: Pi^2 - Pi = A (F^T A - I) F^T, refused past
    IDEMPOTENCY_TOL relative to ||Pi||.  That residual carries the
    rounding of the k x k inverse of F^T Y only, not of a d x d inverse of
    [Y, Z], so near the condition cutoff it accepts pairs that a d x d
    form would refuse as not idempotent.
    """

    def __init__(self, Y, F, norm):
        k = Y.shape[1]
        G = F.T @ Y
        T = np.linalg.qr(Y - F @ G, mode="r")
        self.condition = np.linalg.cond(
            np.block([[G, np.zeros((k, k))], [T, np.eye(k)]]))
        if not self.condition <= COMPLEMENT_CONDITION:
            raise ComplementarityError(
                "Y and Z are not numerically complementary "
                f"(condition {self.condition:.3e})")
        self.A = Y @ np.linalg.inv(G)
        self.F = F
        self.norm = norm
        self.norm_value = self._norm(self.A)
        error = self._norm(self.A @ (F.T @ self.A - np.eye(k))) \
            / max(self.norm_value, 1e-300)
        if error > IDEMPOTENCY_TOL:
            raise ComplementarityError(
                f"projection failed idempotency check ({error:.3e})")

    def _norm(self, L, shift=0.0):
        """Operator norm of L F^T - shift I: ||L||_2 in l2 (shift 0; F^T is
        a co-isometry), else the largest column sum of |L F^T - shift I|
        (l1) or of its transpose F L^T - shift I (linf), over blocks of
        columns of at most _MAX_ENTRIES entries, so nothing d x d is held."""
        if self.norm == "l2":
            return operator_norm(L, "l2")
        L, F = (L, self.F) if self.norm == "l1" else (self.F, L)
        step = max(1, _MAX_ENTRIES // len(F))
        sums = []
        for i in range(0, len(F), step):
            M = L @ F[i:i + step].T            # columns i.. of L F^T
            M[np.arange(i, i + M.shape[1]), np.arange(M.shape[1])] -= shift
            sums.append(np.abs(M, out=M).sum(axis=0).max())
        return float(np.max(sums))

    def complement_norm(self):
        """||I - Pi||; in l2 it equals ||Pi|| (Pi is neither 0 nor I)."""
        if self.norm == "l2":
            return self.norm_value
        return self._norm(self.A, 1.0)

    def __call__(self, X):
        return self.A @ (self.F.T @ X)


# ---------------------------------------------------------------------------
# good complements


def _argmax_distance_unit(V_basis, K_basis, W_basis, norm):
    """(u, d(u, W)): the most-distant unit vector u of V = span(V_basis)
    from W = span(W_basis), given K = span(K_basis) = V intersect W.

    d(., W) is constant on each coset c + K, whose least norm d(c, K) is
    reached at c - k*, k* a best approximation of c from K; the unit vector
    (c - k*) / d(c, K) is at distance d(c, W) / d(c, K) <= 1 from W.  If V
    has one direction outside K, or K = W (the ratio is then exactly 1),
    any c of V outside K attains the maximum.  Otherwise the maximum is
    taken over the vertices of V intersect ball, as in one_sided_hausdorff.
    """
    QV, _ = _orthonormalize(V_basis)
    M = QV
    if W_basis.shape[1]:
        QW, _ = _orthonormalize(W_basis)
        M = QV - QW @ (QW.T @ QV)
    _, _, vt = np.linalg.svd(M)
    c = QV @ vt[0]          # the l2 most-distant unit vector, outside K
    k_dim = K_basis.shape[1]
    if norm == "l2":
        u = _sign_fix(c)
    elif QV.shape[1] - k_dim == 1 or k_dim == W_basis.shape[1]:
        _, coef = _dist_batch(c[None, :], K_basis, norm)
        r = c - K_basis @ coef[0]
        u = _sign_fix(r / vector_norm(r, norm))
    else:
        cand = _ball_vertices(V_basis, norm)
        dist = _dist_batch(cand, W_basis, norm)[0]
        best = int(np.argmax(dist))
        return _sign_fix(cand[best]), float(dist[best])
    if k_dim == W_basis.shape[1]:
        return u, 1.0
    return u, float(_dist_batch(u[None, :], W_basis, norm)[0][0])


def good_complement(filtration, eps=0.9):
    """Complements U_j with V_{j+1} + U_j = V_j, built one unit vector at a
    time by picking the most-distant unit vector from W = V_{j+1} + U_{<j}
    (plus the vectors already chosen) inside V_j.

    Parameters
    ----------
    filtration : list of Subspace, nested V_1 > V_2 > ... > V_{l+1}
    eps : float
        Acceptance floor: every chosen vector must satisfy d(u, W) > 1-eps.

    Returns a list of (U_j, {"distances": [d(u, W) per chosen u]}) pairs.

    Every choice is exact and needs one point distance (ValueError past
    the guards of _dist_batch), except the first m-1 vectors of a level
    j >= 2 of multiplicity m >= 2 in l1/linf: they enumerate the ball
    vertices of V_j too (ValueError past _check_vertex_enumeration).

    compute_splitting does not call it: the construction accepts any
    complement with a uniform transversality floor, and it takes slices of
    the filtration co-frame, which need no d x (d - c_j) basis of V_{j+1}.
    """
    if len(filtration) < 1:
        raise FiltrationError("empty filtration")
    norm = filtration[0].norm
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
            u, du = _argmax_distance_unit(Vj.basis, K, W, norm)
            if du <= 1.0 - eps:
                raise FiltrationError(
                    f"good complement floor violated at level {j + 1}: "
                    f"d={du:.3e} <= {1 - eps}")
            level_vecs.append(u)
            dists.append(du)
        out.append((Subspace(np.column_stack(level_vecs), norm),
                    {"distances": dists}))
        chosen_prior.extend(level_vecs)
    return out

