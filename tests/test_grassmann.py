"""Subspace geometry: norms, distances, nice bases, projections, complements."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from oseledets import grassmann
from oseledets.grassmann import (
    NORM_TAGS,
    ComplementarityError,
    DegenerateSubspaceError,
    DimensionMismatchError,
    FiltrationError,
    ProjectionPair,
    Subspace,
    _ball_sup_batch,
    _check_vertex_enumeration,
    _linprog_dist,
    distance_point_subspace,
    good_complement,
    grassmann_distance,
    is_eps_nice,
    nice_basis,
    one_sided_hausdorff,
    operator_norm,
    principal_angles,
    projection,
    vector_norm,
)


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
                ref, _ = _linprog_dist(x, B, norm)
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
            got = principal_angles(S, T)
            assert got[0] == pytest.approx(ref, abs=1e-9)
            assert np.all(np.diff(got) <= 1e-12)   # largest first

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
    return max(max(_linprog_dist(y, Z, norm, ball=True)[0]
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
        # the thresholds listed in the compute_splitting docstring
        _check_vertex_enumeration(d - 1, k, norm)
        with pytest.raises(ValueError):
            _check_vertex_enumeration(d, k, norm)


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
    """A one-column W needs no ball-constrained LP: clipping the
    unconstrained minimizer to the interval |t| <= 1/||b|| is exact."""

    @pytest.fixture(autouse=True)
    def no_linprog(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("_linprog_dist called")

        monkeypatch.setattr(grassmann, "_linprog_dist", no_lp)

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


class TestProjection:
    def test_axis_aligned(self):
        Y = Subspace(np.eye(2)[:, :1])
        Z = Subspace(np.eye(2)[:, 1:])
        pair = projection(Y, Z)
        assert np.allclose(pair.matrix, np.diag([1.0, 0.0]))
        assert pair.norm_value == pytest.approx(1.0)

    def test_oblique_example(self):
        # project onto span(e1) along span(e1+e2): kills e1+e2, fixes e1
        Y = Subspace(np.eye(2)[:, :1])
        Z = Subspace(np.array([[1.0], [1.0]]))
        pair = projection(Y, Z)
        assert np.allclose(pair.matrix, np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_range_and_kernel(self):
        rng = np.random.default_rng(11)
        Y = Subspace(rng.standard_normal((4, 2)))
        Z = Subspace(rng.standard_normal((4, 2)))
        pair = projection(Y, Z)
        P = pair.matrix
        assert np.allclose(P @ Y.basis, Y.basis)
        assert np.allclose(P @ Z.basis, 0.0, atol=1e-10)
        assert pair.idempotency_error < 1e-8
        assert isinstance(pair, ProjectionPair)

    def test_norm_grows_as_spaces_close(self):
        th_wide, th_thin = 0.5, 1e-3
        Y = Subspace(np.eye(2)[:, :1])
        mk = lambda th: Subspace(np.array([[math.cos(th)], [math.sin(th)]]))
        assert projection(Y, mk(th_thin)).norm_value > \
            projection(Y, mk(th_wide)).norm_value

    def test_non_complementary_raises(self):
        Y = Subspace(np.eye(3)[:, :1])
        with pytest.raises(DimensionMismatchError):
            projection(Y, Subspace(np.eye(3)[:, :1]))
        nearly = Subspace(np.column_stack([np.eye(3)[:, 0] + 1e-15 * np.eye(3)[:, 1],
                                           np.eye(3)[:, 2]]))
        with pytest.raises(ComplementarityError):
            projection(Y, nearly)


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
                best = max(_linprog_dist(v, W, norm)[0]
                           for v in _oracle_vertices(filt[j].basis, norm))
                assert diag["distances"][i] == pytest.approx(best, abs=1e-9)
            prior.append(U.basis)

    def test_large_flags_need_no_enumeration(self):
        # past the enumeration guard for V_3 (l1) and V_2 (linf); level 1 is
        # at distance exactly 1, the one-direction level 2 above the floor
        rng = np.random.default_rng(18)
        for norm, d in (("l1", 60), ("linf", 20)):
            G = rng.standard_normal((d, d))
            filt = [Subspace(G[:, :m], norm) for m in (d, d - 1, d - 2)]
            for seed in (None, 3):
                out = good_complement(filt, rotation_seed=seed)
                assert [U.dim for U, _ in out] == [1, 1]
                if seed is None:
                    assert out[0][1]["distances"][0] == pytest.approx(1.0)
                assert min(diag["distances"][0] for _, diag in out) > 0.1

    def test_wide_lower_level_past_guard_raises(self):
        # level 2 of multiplicity 2 enumerates the vertices of V_2 in R^20
        G = np.random.default_rng(19).standard_normal((20, 20))
        filt = [Subspace(G[:, :m], "linf") for m in (20, 19, 17)]
        with pytest.raises(ValueError, match="dim-19 subspace of R\\^20"):
            good_complement(filt)

    def test_rotation_seed_changes_choice(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((3, 3))
        filt = [Subspace(B), Subspace(B[:, :1]), Subspace(np.zeros((3, 0)))]
        base = good_complement(filt)
        rot = good_complement(filt, rotation_seed=7)
        d = grassmann_distance(base[0][0], rot[0][0])
        assert base[0][0].dim == rot[0][0].dim == 2
        assert d >= 0.0   # both valid; distances reported finite
        for _, diag in rot:
            assert min(diag["distances"]) > 0.1
