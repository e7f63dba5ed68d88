"""Subspace geometry: norms, distances, nice bases, projections, complements."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from guard_thresholds import SUP_THRESHOLDS
from lp_oracle import lp_distance
from oseledets import grassmann
from oseledets.grassmann import (
    NORM_TAGS,
    ComplementarityError,
    DegenerateSubspaceError,
    DimensionMismatchError,
    FiltrationError,
    Subspace,
    _ball_sup_batch,
    _check_sup_enumeration,
    _check_vertex_enumeration,
    _circuit_dist_batch,
    _codim_dist_batch,
    _CoframeProjection,
    distance_point_subspace,
    good_complement,
    grassmann_distance,
    is_eps_nice,
    nice_basis,
    one_sided_hausdorff,
    operator_norm,
    vector_norm,
)
from oseledets.transfer import perturbed_doubling, ulam_matrix


class TestNorms:
    def test_vector_norms(self):
        x = np.array([3.0, -4.0])
        assert vector_norm(x, "l1") == pytest.approx(7.0)
        assert vector_norm(x, "l2") == pytest.approx(5.0)
        assert vector_norm(x, "linf") == pytest.approx(4.0)

    def test_vector_norm_axis(self):
        X = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert np.allclose(vector_norm(X, "l1", axis=1), [2.0, 2.0])

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            vector_norm([1.0], "l3")

    def test_operator_norm_identity_and_permutation(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        for norm in NORM_TAGS:
            assert operator_norm(np.eye(3), norm) == pytest.approx(1.0)
            assert operator_norm(P, norm) == pytest.approx(1.0)

    def test_operator_norm_formulas(self):
        M = np.diag([3.0, -5.0])
        for norm in NORM_TAGS:
            assert operator_norm(M, norm) == pytest.approx(5.0)
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert operator_norm(J, "l1") == pytest.approx(2.0)     # max column sum
        assert operator_norm(J, "linf") == pytest.approx(2.0)   # max row sum
        assert operator_norm(J, "l2") == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_operator_norm_consistency_random(self):
        # ||Mx|| <= ||M|| ||x|| with equality attained for l1/linf at a vertex
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.standard_normal((4, 4))
            x = rng.standard_normal(4)
            for norm in NORM_TAGS:
                assert vector_norm(M @ x, norm) <= \
                    operator_norm(M, norm) * vector_norm(x, norm) + 1e-12


class TestSubspace:
    def test_dims(self):
        S = Subspace(np.eye(4)[:, :2], "l1")
        assert S.dim == 2 and S.ambient_dim == 4 and S.norm == "l1"

    def test_vector_input_promoted(self):
        S = Subspace(np.array([1.0, 2.0, 2.0]))
        assert S.dim == 1

    def test_rank_validation(self):
        with pytest.raises(DegenerateSubspaceError):
            Subspace(np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateSubspaceError):
            Subspace(np.ones((2, 3)))

    def test_badly_scaled_basis_accepted(self):
        B = np.column_stack([1e-9 * np.eye(3)[:, 0], 1e9 * np.eye(3)[:, 1]])
        assert Subspace(B).dim == 2

    def test_contains(self):
        S = Subspace(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
        assert S.contains(np.array([2.0, 3.0, 2.0]))
        assert not S.contains(np.array([0.0, 0.0, 1.0]) + np.array([1.0, 1.0, 0.0])* 0)


    @pytest.mark.parametrize("d, k", [(3, 1), (16, 3), (128, 2)])
    def test_orthonormal_frame_path(self, d, k, monkeypatch):
        # the private path for an orthonormal frame runs no SVD until the
        # orthonormal basis is read, and then the constructor's, bit for bit
        Q = np.linalg.qr(np.random.default_rng(d).standard_normal((d, k)))[0]
        svds = []
        orthonormalize = grassmann._orthonormalize

        def counted(B):
            svds.append(1)
            return orthonormalize(B)

        monkeypatch.setattr(grassmann, "_orthonormalize", counted)
        S = Subspace._orthonormal(Q, "l1")
        assert svds == []
        assert S.dim == k and S.ambient_dim == d and S.norm == "l1"
        assert np.array_equal(S.basis, Q) and S.basis is not Q
        assert S.contains(Q @ np.ones(k)) and len(svds) == 1
        ref = Subspace(Q, "l1")
        assert np.array_equal(S.orthonormal_basis(), ref.orthonormal_basis())
        assert len(svds) == 2


class TestPointDistance:
    def test_member_is_zero(self):
        rng = np.random.default_rng(1)
        for norm in NORM_TAGS:
            B = rng.standard_normal((5, 2))
            x = B @ rng.standard_normal(2)
            assert distance_point_subspace(x, Subspace(B, norm)) < 1e-10

    def test_axis_example_all_norms(self):
        e1 = np.array([1.0, 0.0])
        W = np.array([[0.0], [1.0]])
        for norm in NORM_TAGS:
            assert distance_point_subspace(e1, Subspace(W, norm)) == pytest.approx(1.0)

    def test_diagonal_example_norm_dependent(self):
        # distance from e1 to span(e1+e2) separates the three norms
        e1 = np.array([1.0, 0.0])
        W = np.array([[1.0], [1.0]])
        assert distance_point_subspace(e1, Subspace(W, "l1")) == pytest.approx(1.0)
        assert distance_point_subspace(e1, Subspace(W, "l2")) == pytest.approx(1 / math.sqrt(2))
        assert distance_point_subspace(e1, Subspace(W, "linf")) == pytest.approx(0.5)

    def test_matches_lp_solver(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d))
            B = rng.standard_normal((d, k))
            x = rng.standard_normal(d)
            for norm in ("l1", "linf"):
                fast = distance_point_subspace(x, Subspace(B, norm))
                ref, _ = lp_distance(x, B, norm)
                assert fast == pytest.approx(ref, abs=1e-8)

    def test_matches_grid_search(self):
        # coarse independent oracle: dense search over the coefficient box;
        # the grid min overshoots the true min by at most half a step times
        # the Lipschitz constant ||b||
        rng = np.random.default_rng(3)
        grid = np.linspace(-4.0, 4.0, 801)
        step = grid[1] - grid[0]
        for _ in range(10):
            B = rng.standard_normal((3, 1))
            x = rng.standard_normal(3)
            for norm in ("l1", "linf"):
                vals = vector_norm(x[None, :] - grid[:, None] * B.T, norm, axis=1)
                got = distance_point_subspace(x, Subspace(B, norm))
                slack = 0.5 * step * vector_norm(B[:, 0], norm)
                assert got <= vals.min() + 1e-10
                assert got >= vals.min() - slack

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance_point_subspace(np.ones(3), Subspace(np.eye(2)))

    def test_rejects_raw_array(self):
        # the norm is the subspace's tag, so a bare basis has none
        with pytest.raises(TypeError):
            distance_point_subspace(np.ones(3), np.eye(3)[:, :2])


class TestGrassmannDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        for norm in NORM_TAGS:
            B = rng.standard_normal((4, 2))
            S = Subspace(B, norm)
            S2 = Subspace(B @ rng.standard_normal((2, 2)) + 0.0, norm) \
                if False else Subspace(B[:, ::-1].copy(), norm)
            assert grassmann_distance(S, S2) < 1e-9

    def test_orthogonal_lines(self):
        e1 = Subspace(np.eye(2)[:, :1])
        e2 = Subspace(np.eye(2)[:, 1:])
        assert grassmann_distance(e1, e2) == pytest.approx(1.0)

    def test_l2_matches_principal_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            A = rng.standard_normal((d, k))
            B = rng.standard_normal((d, k))
            S, T = Subspace(A), Subspace(B)
            ref = math.sin(subspace_angles(A, B)[0])
            assert grassmann_distance(S, T) == pytest.approx(ref, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(6)
        for norm in NORM_TAGS:
            A, B, C = (Subspace(rng.standard_normal((4, 2)), norm) for _ in range(3))
            dab = grassmann_distance(A, B)
            dba = grassmann_distance(B, A)
            assert dab == pytest.approx(dba, abs=1e-7)
            dac = grassmann_distance(A, C)
            dcb = grassmann_distance(C, B)
            assert dab <= dac + dcb + 1e-6

    def test_norm_tag_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            grassmann_distance(Subspace(np.eye(2), "l1"), Subspace(np.eye(2), "l2"))

    def test_rotation_angle_small(self):
        th = 0.1
        R = np.array([[math.cos(th)], [math.sin(th)]])
        d = grassmann_distance(Subspace(np.eye(2)[:, :1]), Subspace(R))
        assert d == pytest.approx(math.sin(th), abs=1e-9)


def _oracle_vertices(B, norm):
    """Vertices of span(B) intersected with the l1 or linf unit ball, one
    (k-1)-row null direction or one k-row sign system at a time."""
    d, k = B.shape
    out = []
    if norm == "l1":
        for rows in itertools.combinations(range(d), k - 1):
            A = B[list(rows)]
            if np.linalg.matrix_rank(A) == k - 1:
                y = B @ np.linalg.svd(A)[2][-1]
                out.append(y / np.abs(y).sum())
    else:
        for rows in itertools.combinations(range(d), k):
            A = B[list(rows)]
            if np.linalg.matrix_rank(A) < k:
                continue
            for s in itertools.product([-1.0, 1.0], repeat=k):
                y = B @ np.linalg.solve(A, s)
                if np.abs(y).max() <= 1.0 + 1e-9:
                    out.append(y)
    return out


def _oracle_distance(B, C, norm):
    """Symmetric Hausdorff distance of the unit-ball sections, by LP at
    every vertex of each side."""
    return max(max(lp_distance(y, Z, norm, ball=True)[0]
                   for y in _oracle_vertices(X, norm))
               for X, Z in ((B, C), (C, B)))


class TestExactPolyhedralSup:
    def test_l1_far_pair_matches_vertex_oracle(self):
        rng = np.random.default_rng([102, 6, 3, 0, 1])
        B = rng.standard_normal((6, 3))
        C = rng.standard_normal((6, 3))
        got = grassmann_distance(Subspace(B, "l1"), Subspace(C, "l1"))
        assert got == pytest.approx(_oracle_distance(B, C, "l1"), abs=1e-9)
        assert got == pytest.approx(0.9809470546, abs=1e-9)

    def test_linf_pairs_match_vertex_oracle(self):
        rng = np.random.default_rng(14)
        for d, k, near in ((3, 1, False), (4, 2, False), (5, 2, True),
                           (6, 3, False), (6, 3, True)):
            B = rng.standard_normal((d, k))
            C = B + 1e-3 * rng.standard_normal((d, k)) if near \
                else rng.standard_normal((d, k))
            got = grassmann_distance(Subspace(B, "linf"), Subspace(C, "linf"))
            assert got == pytest.approx(_oracle_distance(B, C, "linf"),
                                        abs=1e-9)

    def test_enumeration_limit_raises(self):
        rng = np.random.default_rng(15)
        Y = Subspace(rng.standard_normal((40, 4)), "linf")
        with pytest.raises(ValueError, match="linf.*R\\^40"):
            one_sided_hausdorff(Y, Subspace(rng.standard_normal((40, 4)), "linf"))

    def test_linf_plane_in_r150_raises(self):
        # the level spaces of a multiplicity-2 linf level at N = 150 bins
        rng = np.random.default_rng(16)
        Y = Subspace(rng.standard_normal((150, 2)), "linf")
        W = Subspace(rng.standard_normal((150, 2)), "linf")
        with pytest.raises(ValueError, match="22350 vertex candidates"):
            grassmann_distance(Y, W)

    @pytest.mark.parametrize("norm, k, d", [
        ("l1", 3, 201), ("l1", 4, 51), ("l1", 5, 26), ("l1", 6, 19),
        ("linf", 2, 142), ("linf", 3, 33), ("linf", 4, 18), ("linf", 5, 13)])
    def test_enumeration_thresholds(self, norm, k, d):
        # the ball-vertex guard alone; _check_sup_enumeration adds the
        # point-distance and chord guards (see test_sup_thresholds)
        _check_vertex_enumeration(d - 1, k, norm)
        with pytest.raises(ValueError):
            _check_vertex_enumeration(d, k, norm)

    @pytest.mark.parametrize("norm, k, d", SUP_THRESHOLDS)
    def test_sup_thresholds(self, norm, k, d):
        # the thresholds listed in the compute_splitting docstring: the
        # first ambient dimension whose level distances raise, and every
        # larger one up to twice it
        _check_sup_enumeration(d - 1, k, k, norm)
        for dd in range(d, 2 * d + 1):
            with pytest.raises(ValueError):
                _check_sup_enumeration(dd, k, k, norm)

    def test_linf_plane_in_r51_raises(self):
        # the vertices are enumerable, the point distances are not
        rng = np.random.default_rng(16)
        Y = Subspace(rng.standard_normal((51, 2)), "linf")
        W = Subspace(rng.standard_normal((51, 2)), "linf")
        with pytest.raises(ValueError, match=r"^linf distance to a dim-2 "
                           r"subspace of R\^51: 20825 circuits"):
            grassmann_distance(Y, W)


def _breakpoint_ball_distance(x, b, norm):
    """min over |t| <= 1/||b|| of ||x - t b||: a piecewise-linear convex
    function of t, so its minimum sits at a breakpoint or an endpoint."""
    r = 1.0 / vector_norm(b, norm)
    ts = [-r, r]
    nz = b != 0
    ts += list(x[nz] / b[nz])
    if norm == "linf":
        # the max of |x_i - t b_i| switches pieces where two of them cross
        for i, j in itertools.combinations(range(len(x)), 2):
            for sgn in (1.0, -1.0):
                den = b[i] - sgn * b[j]
                if den != 0:
                    ts.append((x[i] - sgn * x[j]) / den)
    ts = np.clip(np.array(ts), -r, r)
    return float(min(vector_norm(x - t * b, norm) for t in ts))


class TestDimOneBallDistance:
    """A one-column W is its one chord |t| <= 1/||b||: the ends of the
    chord decide where the unconstrained minimizer leaves it."""

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_clip_matches_breakpoint_oracle(self, norm):
        rng = np.random.default_rng(21)
        for d in (3, 5, 8):
            b = rng.standard_normal(d)
            u = b / vector_norm(b, norm)
            rows = [rng.standard_normal(d) for _ in range(4)]
            # near pairs: just outside the ball along +-u, where the
            # unconstrained minimizer leaves the ball and the clip decides
            for eps in (1e-6, 1e-7, 1e-8):
                for sgn in (1.0, -1.0):
                    x = sgn * (1.0 + eps) * u + eps * rng.standard_normal(d)
                    rows.append(x / vector_norm(x, norm))
            X = np.array(rows)
            oracle = [_breakpoint_ball_distance(x, b, norm) for x in X]
            for x, ref in zip(X, oracle):
                got = _ball_sup_batch(x[None, :], b[:, None], norm)
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-15)
            assert _ball_sup_batch(X, b[:, None], norm) == \
                pytest.approx(max(oracle), rel=1e-9, abs=1e-15)
            near = oracle[4:]
            assert max(near) <= 1e-5 and min(near) > 0.0

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_near_lines_exact(self, norm):
        rng = np.random.default_rng(22)
        b = rng.standard_normal(6)
        c = b + 1e-7 * rng.standard_normal(6)
        got = grassmann_distance(Subspace(b[:, None], norm),
                                 Subspace(c[:, None], norm))
        ref = max(_breakpoint_ball_distance(p / vector_norm(p, norm), q, norm)
                  for p, q in ((b, c), (c, b)))
        assert 0.0 < got <= 1e-6
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-15)


def _polygon_ball_distance(x, B, norm):
    """min of ||x - w|| over w in the polygon span(B) intersected with the
    ball, for a two-column B: the objective is piecewise linear, with kink
    lines where a residual is zero (l1) or two residuals tie (linf), so its
    minimum is at a point where two kink lines cross inside the polygon,
    or on an edge at an end or where a kink line crosses it."""
    Q = np.linalg.qr(B)[0]
    i, j = np.triu_indices(len(x), 1)
    if norm == "l1":
        N, h = Q, x
    else:
        N = np.vstack([Q[i] - Q[j], Q[i] + Q[j]])
        h = np.concatenate([x[i] - x[j], x[i] + x[j]])
    a, b = np.triu_indices(len(h), 1)
    M = np.stack([N[a], N[b]], axis=1)
    ok = np.abs(np.linalg.det(M)) > 1e-12
    rhs = np.stack([h[a], h[b]], axis=1)[ok, :, None]
    W = np.linalg.solve(M[ok], rhs)[..., 0] @ Q.T
    W = W[vector_norm(W, norm, axis=1) <= 1.0]
    best = vector_norm(x - W, norm, axis=1).min(initial=math.inf)
    V = np.array(_oracle_vertices(B, norm))
    V = np.vstack([V, -V])
    a = V @ Q
    V = V[np.argsort(np.arctan2(a[:, 1], a[:, 0]))]
    for va, vb in zip(V, np.roll(V, -1, axis=0)):
        r, e = x - va, vb - va
        num, den = [r], [e]
        if norm == "linf":
            num += [r[i] - r[j], r[i] + r[j]]
            den += [e[i] - e[j], e[i] + e[j]]
        num, den = np.concatenate(num), np.concatenate(den)
        ss = np.clip(num[den != 0] / den[den != 0], 0.0, 1.0)
        ss = np.concatenate([[0.0, 1.0], ss])
        best = min(best, vector_norm(r - ss[:, None] * e, norm, axis=1).min())
    return best


class TestMatchesLPOracle:
    """Enumerated distances against the HiGHS model of lp_oracle at 1e-10
    feasibility tolerances (1,672 points).  The oracle's value is scored at
    its own solution, so it is attained, but its tolerances can leave it
    above the exact minimum: by up to 6.5e-11 for points 1e-8 outside the
    ball (on 1 in 300 of them), 4e-12 on near l1 points with k = 3 and
    1.7e-11 (relative) on linf distances in R^17 and beyond.  The package
    may read lower than the oracle by that much (its own values are
    attained too), never higher."""

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_planes_just_outside_the_ball(self, norm):
        # points 1e-8 to 1e-4 outside W intersect ball, where HiGHS at its
        # default tolerances fell up to 1.5e-7 short of the exact distance;
        # the polygon edges give the exact one
        rng = np.random.default_rng(31)
        for d in (4, 5, 6):
            for _ in range(20):
                B = rng.standard_normal((d, 2))
                w = B @ rng.standard_normal(2)
                w /= vector_norm(w, norm)
                for eps in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
                    x = (1.0 + eps) * w + eps * rng.standard_normal(d)
                    ref, _ = lp_distance(x, B, norm, ball=True)
                    got = _ball_sup_batch(x[None, :], B, norm)
                    assert got <= ref + 1e-12
                    assert got == pytest.approx(
                        _polygon_ball_distance(x, B, norm), rel=0, abs=1e-12)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_ball_distances_near_and_far(self, norm):
        rng = np.random.default_rng(32)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(3, d - 1) + 1))
            B = rng.standard_normal((d, k))
            w = B @ rng.standard_normal(k)
            w /= vector_norm(w, norm)
            for eps in (0.0, 1e-6, 1e-3, None):
                x = rng.standard_normal(d) if eps is None \
                    else (1.0 + eps) * w + eps * rng.standard_normal(d)
                x /= vector_norm(x, norm)
                ref, _ = lp_distance(x, B, norm, ball=True)
                got = _ball_sup_batch(x[None, :], B, norm)
                assert ref - 1e-11 <= got <= ref + 1e-12

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_codimension_form(self, norm):
        # W of codimension 1-3 in R^4..R^24: random, coordinate-aligned,
        # integer with points on a 0.1 grid, and W inside a coordinate
        # hyperplane; the last two give circuits of W^perp fewer than
        # k + 1 nonzeros.  l1 takes its codimension form; linf has one
        # form, here on W^perp's side of the circuits (k + 1 > d - k)
        dist_batch = _codim_dist_batch if norm == "l1" else _circuit_dist_batch
        rng = np.random.default_rng(33)
        dims = list(zip(rng.integers(4, 25, 100), rng.integers(1, 4, 100)))
        cases = [(rng.standard_normal((d, d - m)), False) for d, m in dims[:60]]
        cases += [(np.eye(d)[:, :d - m], False) for d in (5, 20)
                  for m in (1, 2)]
        cases += [(np.round(rng.standard_normal((d, d - m))), True)
                  for d, m in dims[60:80]]
        for d, _ in dims[80:]:
            B = rng.standard_normal((d, d - 3))
            B[rng.integers(d)] = 0.0
            cases.append((B, False))
        for B, grid in cases:
            if np.linalg.matrix_rank(B) < B.shape[1]:
                continue
            X = rng.standard_normal((4, B.shape[0]))
            if grid:
                X = np.round(X, 1)
            dist, coef = dist_batch(X, B)
            for x, got, c in zip(X, dist, coef):
                ref, _ = lp_distance(x, B, norm)
                scale = max(1.0, ref)
                assert ref - 1e-10 * scale <= got <= ref + 1e-12 * scale
                # the distance is attained at the returned coefficients
                assert vector_norm(x - B @ c, norm) == pytest.approx(
                    got, rel=1e-14)


def _assert_linf_oracle(X, B, slack=2e-11):
    """Each linf distance from a row of X to span(B) lies within the LP
    oracle's tolerances of it: at most `slack` (relative) below, where the
    oracle stops short, never above.  It is attained at its coefficients,
    and the point alone reads the value of the batch."""
    dist, coef = grassmann._dist_batch(X, B, "linf")
    for x, got, c in zip(X, dist, coef):
        ref, _ = lp_distance(x, B, "linf")
        scale = max(1.0, ref)
        assert ref - slack * scale <= got <= ref + 1e-12 * scale
        for alone in (distance_point_subspace(x, Subspace(B, "linf")),
                      vector_norm(x - B @ c, "linf")):
            assert alone == pytest.approx(got, rel=1e-14, abs=1e-14 * scale)


class TestLinfCircuits:
    """linf distances from the circuits of W^perp: past the dimensions the
    2^k sign systems reached (d = 142 for k = 1, 33 for k = 2), and on
    the degenerate inputs of Ulam cocycles, whose exact zeros and repeated
    entries tie circuits and residuals."""

    @pytest.mark.parametrize("d, k", [(150, 1), (40, 2)])
    def test_past_the_sign_systems(self, d, k):
        rng = np.random.default_rng(d + k)
        B = rng.standard_normal((d, k))
        _assert_linf_oracle(rng.standard_normal((4, d)), B)

    def test_line_pair_in_r150(self):
        # a multiplicity-1 level of a 150-bin linf splitting
        rng = np.random.default_rng(150)
        b = rng.standard_normal(150)
        c = b + 1e-2 * rng.standard_normal(150)
        got = grassmann_distance(Subspace(b, "linf"), Subspace(c, "linf"))
        ref = max(lp_distance(y / vector_norm(y, "linf"), w[:, None],
                              "linf", ball=True)[0]
                  for y, w in ((b, c), (c, b)))
        assert ref - 2e-11 <= got <= ref + 1e-12
        assert got > 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ulam_density_columns(self, k):
        # W spanned by columns of a 16-bin Ulam density matrix (82% exact
        # zeros, the rest multiples of 1/15; columns 1 and 9 share their
        # support), at rows of that matrix, at integer points and at random
        # ones
        D = ulam_matrix(perturbed_doubling(Fraction(1, 7)), 16) \
            .density_matrix()
        B = D[:, [1, 4, 9, 14][:k]]
        rng = np.random.default_rng(k)
        X = np.vstack([D.T[::3], rng.integers(-2, 3, (4, 16)),
                       rng.standard_normal((4, 16))])
        _assert_linf_oracle(X, B)

    @pytest.mark.parametrize("d, k", [(5, 1), (7, 2), (6, 3), (9, 5)])
    def test_points_in_w(self, d, k):
        # delta = 0 leaves every coordinate free; x = 0 is exactly there
        rng = np.random.default_rng(d * k)
        B = rng.integers(-2, 3, (d, k)).astype(float)
        B[0] = B[1]
        X = np.vstack([np.zeros(d), B.T, (B @ rng.integers(-3, 4, (k, 3))).T,
                       (B @ rng.standard_normal((k, 3))).T])
        dist, coef = grassmann._dist_batch(X, B, "linf")
        assert dist[0] == 0.0 and not coef[0].any()
        assert np.all(dist <= 1e-14 * np.abs(X).max(axis=1))
        assert np.allclose(X, coef @ B.T, rtol=0, atol=1e-14)

    def test_tied_residuals(self):
        # every residual of the optimum ties with the distance: the all-ones
        # line against alternating signs, coordinate planes against points
        # with repeated entries, and a 0/1 basis with its own columns' sums
        alt = np.array([[1.0, -1.0] * 3, [2.0, -2.0, 2.0, 2.0, -2.0, 2.0]])
        _assert_linf_oracle(alt, np.ones((6, 1)))
        E = np.eye(7)[:, [0, 3]]
        _assert_linf_oracle(np.array([[1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0],
                                      [3.0, 0.5, 0.5, 3.0, -0.5, 0.5, 0.0]]),
                            E + np.eye(7)[:, [1, 4]])
        B = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1], [0, 0, 1],
                      [1, 0, 0]], dtype=float)
        _assert_linf_oracle(np.vstack([B.sum(axis=1), B.sum(axis=1) - 1.0,
                                       np.arange(6.0) % 2]), B)


class TestOneSidedHausdorff:
    def test_nested_asymmetry(self):
        line = Subspace(np.eye(3)[:, :1])
        plane = Subspace(np.eye(3)[:, :2])
        assert one_sided_hausdorff(line, plane) < 1e-12
        assert one_sided_hausdorff(plane, line) == pytest.approx(1.0)

    def test_capped_at_one(self):
        rng = np.random.default_rng(7)
        for norm in NORM_TAGS:
            Y = Subspace(rng.standard_normal((5, 2)), norm)
            W = Subspace(rng.standard_normal((5, 2)), norm)
            assert 0.0 <= one_sided_hausdorff(Y, W) <= 1.0

    def test_sampling_is_lower_estimate_of_l2(self):
        # for l2 the exact value is known; the generic estimator applied via
        # l1/linf tags of the same pair cannot wildly disagree in 2-d
        th = 0.3
        R = np.array([[math.cos(th)], [math.sin(th)]])
        for norm in ("l1", "linf"):
            a = one_sided_hausdorff(Subspace(np.eye(2)[:, :1], norm),
                                    Subspace(R, norm))
            assert 0.1 < a <= 1.0


class TestNiceBasis:
    def test_distance_one_property(self):
        rng = np.random.default_rng(8)
        for norm in NORM_TAGS:
            for _ in range(10):
                d = int(rng.integers(2, 6))
                k = int(rng.integers(2, d + 1))
                vecs = nice_basis(Subspace(rng.standard_normal((d, k)), norm))
                for i, v in enumerate(vecs):
                    assert vector_norm(v, norm) == pytest.approx(1.0, abs=1e-9)
                    if i:
                        W = Subspace(np.column_stack(vecs[:i]), norm)
                        assert distance_point_subspace(v, W) == \
                            pytest.approx(1.0, abs=1e-7)

    def test_spans_same_subspace(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((5, 3))
        vecs = nice_basis(Subspace(B, "l1"))
        S = Subspace(B, "l2")
        for v in vecs:
            assert S.contains(v)

    def test_is_eps_nice_accepts_output(self):
        rng = np.random.default_rng(10)
        for norm in NORM_TAGS:
            vecs = nice_basis(Subspace(rng.standard_normal((4, 2)), norm))
            assert is_eps_nice(vecs, 2.0 ** -4 * 0.999, norm)


class TestIsEpsNice:
    def test_orthonormal_true(self):
        assert is_eps_nice([np.eye(3)[:, 0], np.eye(3)[:, 1]], 1e-6)

    def test_norm_violation(self):
        assert not is_eps_nice([2.0 * np.eye(2)[:, 0]], 1e-3)

    def test_distance_violation(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.999, 0.001])
        w = w / np.linalg.norm(w)
        assert not is_eps_nice([v, w], 1e-3)

    def test_nonpositive_eps(self):
        assert not is_eps_nice([np.eye(2)[:, 0]], 0.0)


def _along(Y, Z):
    """The co-frame projection onto span(Y) along span(Z) (columns, with
    as many of Y as Z has codimension): Z^perp from a complete QR of Z."""
    F = np.linalg.qr(Z, mode="complete")[0][:, Z.shape[1]:]
    return _CoframeProjection(Y, F, "l2")


class TestProjection:
    def test_axis_aligned(self):
        pi = _along(np.eye(2)[:, :1], np.eye(2)[:, 1:])
        assert np.allclose(pi(np.eye(2)), np.diag([1.0, 0.0]))
        assert pi.norm_value == pytest.approx(1.0)

    def test_oblique_example(self):
        # project onto span(e1) along span(e1+e2): kills e1+e2, fixes e1
        pi = _along(np.eye(2)[:, :1], np.array([[1.0], [1.0]]))
        assert np.allclose(pi(np.eye(2)), np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_range_and_kernel(self):
        rng = np.random.default_rng(11)
        Y, Z = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        pi = _along(Y, Z)
        P = pi(np.eye(4))
        assert np.allclose(P @ Y, Y)
        assert np.allclose(P @ Z, 0.0, atol=1e-10)
        assert operator_norm(P @ P - P, "l2") / pi.norm_value < 1e-8

    def test_norm_grows_as_spaces_close(self):
        th_wide, th_thin = 0.5, 1e-3
        Y = np.eye(2)[:, :1]
        mk = lambda th: np.array([[math.cos(th)], [math.sin(th)]])
        assert _along(Y, mk(th_thin)).norm_value > \
            _along(Y, mk(th_wide)).norm_value

    def test_non_complementary_raises(self):
        Y = np.eye(3)[:, :1]
        nearly = np.column_stack([np.eye(3)[:, 0] + 1e-15 * np.eye(3)[:, 1],
                                  np.eye(3)[:, 2]])
        with pytest.raises(ComplementarityError, match="complementary"):
            _along(Y, nearly)


class TestGoodComplement:
    def test_orthogonal_filtration(self):
        # V_1 = R^3 > V_2 = span(e2, e3) > V_3 = {0}
        V1 = Subspace(np.eye(3))
        V2 = Subspace(np.eye(3)[:, 1:])
        V3 = Subspace(np.zeros((3, 0)))
        out = good_complement([V1, V2, V3])
        assert len(out) == 2
        U1, diag1 = out[0]
        assert U1.dim == 1
        assert grassmann_distance(U1, Subspace(np.eye(3)[:, :1])) < 1e-6
        assert min(diag1["distances"]) > 0.1
        U2, _ = out[1]
        assert U2.dim == 2

    def test_equal_levels_skipped(self):
        V = Subspace(np.eye(3)[:, :2])
        out = good_complement([V, Subspace(V.basis.copy())])
        assert out == []

    def test_direct_sum_property(self):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((4, 4))
        V1 = Subspace(B)
        V2 = Subspace(B[:, :2])
        V3 = Subspace(np.zeros((4, 0)))
        out = good_complement([V1, V2, V3])
        stack = np.column_stack([U.basis for U, _ in out])
        assert np.linalg.matrix_rank(stack) == 4

    def test_nesting_violation_raises(self):
        V1 = Subspace(np.eye(3)[:, :2])
        bad = Subspace(np.eye(3)[:, 2:])   # not contained in V1
        with pytest.raises(FiltrationError):
            good_complement([V1, bad])

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_choices_attain_vertex_oracle_max(self, norm):
        # level 2 of R^5 > 3 > 1: the first vector maximizes over the ball
        # vertices of V_2, the second by the one-direction coset formula
        rng = np.random.default_rng(17)
        G = rng.standard_normal((5, 5))
        filt = [Subspace(G[:, :m], norm) for m in (5, 3, 1)]
        out = good_complement(filt)
        prior = []
        for j, (U, diag) in enumerate(out):
            for i in range(U.dim):
                W = np.column_stack([filt[j + 1].basis] + prior
                                    + [U.basis[:, :i]])
                best = max(lp_distance(v, W, norm)[0]
                           for v in _oracle_vertices(filt[j].basis, norm))
                assert diag["distances"][i] == pytest.approx(best, abs=1e-9)
            prior.append(U.basis)

    @pytest.mark.parametrize("norm, d, dim2, dim3",
                             [("l1", 6, 4, 2), ("linf", 5, 3, 1)])
    def test_no_point_distance_solved_twice(self, norm, d, dim2, dim3,
                                            monkeypatch):
        # each chosen vector's distance to its W comes out of the solve
        # that chose it, or is exactly 1 where K = W; it used to be solved
        # again from a rebuilt Subspace(W)
        solved = []
        dist_batch = grassmann._dist_batch

        def recorded(X, B, norm):
            B = np.asarray(B, dtype=float)
            for x in np.atleast_2d(X):
                solved.append((grassmann._sign_fix(x).tobytes(),
                               B.tobytes(), B.shape))
            return dist_batch(X, B, norm)

        monkeypatch.setattr(grassmann, "_dist_batch", recorded)
        for seed in range(1, 6):
            G = np.random.default_rng([seed, d]).standard_normal((d, d))
            out = good_complement([Subspace(G[:, :m], norm)
                                   for m in (d, dim2, dim3)])
            assert [U.dim for U, _ in out] == [d - dim2, dim2 - dim3]
        assert len(set(solved)) == len(solved)

    def test_large_flags_need_no_enumeration(self):
        # past the enumeration guard for V_3 (l1) and V_2 (linf); level 1 is
        # at distance exactly 1, the one-direction level 2 above the floor.
        # The point distances to V_3 take the codimension form
        rng = np.random.default_rng(18)
        for norm, d in (("l1", 60), ("linf", 20)):
            G = rng.standard_normal((d, d))
            filt = [Subspace(G[:, :m], norm) for m in (d, d - 1, d - 2)]
            out = good_complement(filt)
            assert [U.dim for U, _ in out] == [1, 1]
            assert out[0][1]["distances"][0] == pytest.approx(1.0)
            assert min(diag["distances"][0] for _, diag in out) > 0.1

    def test_wide_lower_level_past_guard_raises(self):
        # level 2 of multiplicity 2 enumerates the vertices of V_2 in R^20;
        # level 1's point distances to V_2 take the codimension form
        G = np.random.default_rng(19).standard_normal((20, 20))
        filt = [Subspace(G[:, :m], "linf") for m in (20, 19, 17)]
        with pytest.raises(ValueError, match="dim-19 subspace of R\\^20"):
            good_complement(filt)
