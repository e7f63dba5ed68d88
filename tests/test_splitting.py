"""Equivariant splittings: pushforwards, convergence, checks, temperedness."""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oseledets.base import (
    BernoulliShift,
    FiniteCycle,
    ParameterError,
    generate_orbit,
    shift_view,
)
from oseledets import grassmann, splitting
from oseledets.cocycle import CocycleGenerator
from oseledets.grassmann import (ComplementarityError, Subspace,
                                 _CoframeProjection, grassmann_distance,
                                 operator_norm)
from oseledets.spectrum import FiltrationAt, lyapunov_exponents
from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                random_ulam_cocycle)
from oseledets.splitting import (
    RankCollapseError,
    SplittingResult,
    check_equivariance,
    check_growth,
    compute_splitting,
    pushforward_space,
    temperedness_test,
    uniqueness_probe,
)
from guard_thresholds import SUP_THRESHOLDS
from projection_oracle import projection
from test_spectrum import _ref_flag

A_TRI = np.array([[2.0, 1.0], [0.0, 0.5]])


def _orbit(period=2, n=3000):
    return generate_orbit(FiniteCycle(period), seed=0, n_past=n, n_future=n)


def _alt_pair():
    """Invertible period-2 pair with distinct fast directions per base point.

    B A = [[2,1],[2,3]] has eigenvalues 4 and 1 with top eigenvector (1,2);
    A B = [[3,2],[1,2]] has the same eigenvalues with top eigenvector (2,1).
    """
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [1.0, 2.0]])
    return CocycleGenerator.from_table([A, B])


class TestPushforward:
    def test_zero_steps_copies(self):
        gen = CocycleGenerator.constant(A_TRI)
        U = Subspace(np.eye(2)[:, :1])
        out = pushforward_space(gen, _orbit(), U, 0)
        assert out is not U
        assert grassmann_distance(out, U) < 1e-12

    def test_invariant_line_is_fixed(self):
        gen = CocycleGenerator.constant(A_TRI)
        U = Subspace(np.eye(2)[:, :1])
        out = pushforward_space(gen, _orbit(), U, 7)
        assert grassmann_distance(out, U) < 1e-12

    def test_generic_line_converges_to_fast_direction(self):
        gen = CocycleGenerator.constant(A_TRI)
        U = Subspace(np.eye(2)[:, 1:])
        out = pushforward_space(gen, _orbit(), U, 20)
        assert grassmann_distance(out, Subspace(np.eye(2)[:, :1])) < 1e-5

    def test_rank_collapse(self):
        gen = CocycleGenerator.constant(np.array([[0.0, 0.0], [0.0, 1.0]]))
        U = Subspace(np.eye(2)[:, :1])
        with pytest.raises(RankCollapseError) as exc:
            pushforward_space(gen, _orbit(), U, 3)
        assert exc.value.n == 3

    def test_leading_columns_are_narrow_pushforwards(self):
        # the walk starts from a QR of the basis and keeps the column
        # order, so one walk of [U_1 | U_2 | U_3] holds the pushforwards of
        # U_1 and of U_1 + U_2 in its leading columns
        rng = np.random.default_rng(3)
        gen = CocycleGenerator.from_table(rng.standard_normal((2, 6, 6)))
        orbit = _orbit()
        U = rng.standard_normal((6, 4))
        wide = pushforward_space(gen, orbit, Subspace(U), 40).basis
        for c in (1, 3):
            narrow = pushforward_space(gen, orbit, Subspace(U[:, :c]), 40)
            assert grassmann_distance(Subspace(wide[:, :c]), narrow) < 1e-12

    def test_negative_n_rejected(self):
        gen = CocycleGenerator.constant(A_TRI)
        with pytest.raises(ParameterError):
            pushforward_space(gen, _orbit(), Subspace(np.eye(2)[:, :1]), -1)


class TestComputeSplitting:
    def test_constant_triangular(self):
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        res = compute_splitting(gen, orbit, spec, n_max=256)
        assert res.converged
        assert [Y.dim for Y in res.spaces] == [1, 1]
        assert res.remainder_dim == 0
        assert grassmann_distance(res.spaces[0], Subspace(np.eye(2)[:, :1])) < 1e-8
        assert grassmann_distance(res.spaces[1],
                                  Subspace(np.array([[2.0], [-3.0]]))) < 1e-8

    def test_axis_preserving_levels_in_rate_order(self):
        # a diagonal cocycle never moves the coordinate axes, so a
        # filtration walk started from them keeps coordinate order; from
        # a generic frame its columns sort by rate, and Y_1 is e_3 (log 3)
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5, 3.0]))
        orbit = _orbit(period=1, n=400)
        spec = lyapunov_exponents(gen, orbit, 400)
        assert spec.exponents == pytest.approx(
            [math.log(3), math.log(2), -math.log(2)], abs=1e-12)
        axes = [Subspace(np.eye(3)[:, [i]]) for i in (2, 0, 1)]
        for levels in (1, None):
            res = compute_splitting(gen, orbit, spec, n_max=64, levels=levels)
            assert res.converged and not res.warnings
            assert len(res.spaces) == (levels or 3)
            for Y, axis in zip(res.spaces, axes):
                assert grassmann_distance(Y, axis) < 1e-12

    def test_identity_single_level(self):
        gen = CocycleGenerator.constant(np.eye(3))
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 64)
        res = compute_splitting(gen, orbit, spec, n_max=32)
        assert res.converged
        assert len(res.spaces) == 1 and res.spaces[0].dim == 3
        assert res.remainder_dim == 0

    def test_period_two_fast_spaces(self):
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        res_a = compute_splitting(gen, orbit, spec, n_max=256)
        res_b = compute_splitting(gen, orbit, spec, n_max=256, offset=1)
        assert grassmann_distance(res_a.spaces[0],
                                  Subspace(np.array([[1.0], [2.0]]))) < 1e-6
        assert grassmann_distance(res_b.spaces[0],
                                  Subspace(np.array([[2.0], [1.0]]))) < 1e-6

    def test_direct_sum_spans_ambient(self):
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        res = compute_splitting(gen, orbit, spec, n_max=256)
        stack = np.column_stack([Y.basis for Y in res.spaces])
        assert np.linalg.matrix_rank(stack) == 2
        assert res.transversality_floor > 0.0

    def test_convergence_report_contents(self):
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        res = compute_splitting(gen, orbit, spec, n_max=256)
        rep = res.convergence[0]
        assert rep.converged and rep.stopping_n is not None
        assert list(rep.ns) == sorted(rep.ns)
        # the Cauchy rate must resolve the spectral gap up to the 0.1 slack
        gap = spec.exponents[0] - spec.exponents[1]
        assert rep.alpha_fit >= gap - 0.1
        rows = res.convergence_rows()
        assert all(len(r) == 4 for r in rows)
        assert {r[0] for r in rows} <= {1, 2}

    def test_levels_cap(self):
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        res = compute_splitting(gen, orbit, spec, n_max=256, levels=1)
        assert len(res.spaces) == 1
        assert res.remainder_dim == 1
        full = compute_splitting(gen, orbit, spec, n_max=256)
        assert grassmann_distance(res.spaces[0], full.spaces[0]) < 1e-6
        with pytest.raises(ParameterError):
            compute_splitting(gen, orbit, spec, n_max=256, levels=0)

    def test_nonconvergence_reported_not_raised(self):
        # gap 0.06 with an 8-step budget cannot reach 1e-6
        gen = CocycleGenerator.constant(np.diag([math.exp(0.06), 1.0]))
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        res = compute_splitting(gen, orbit, spec, n_max=8)
        assert isinstance(res, SplittingResult)
        assert not res.converged
        assert res.warnings

    def test_projection_norms_positive(self):
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        res = compute_splitting(gen, orbit, spec, n_max=128)
        assert len(res.projection_norms) == len(res.spaces)
        for entry in res.projection_norms:
            # pi_fast projects onto Y_j along the coarser tail, so its norm
            # is at least 1; pi_slow is the complementary block and hits 0
            # at the last level of an exhaustive splitting
            assert entry["pi_fast"] >= 1.0 - 1e-9
            assert entry["pi_slow"] >= -1e-12
        assert [e["level"] for e in res.projection_norms] == [1, 2]

    def test_no_filtration_computed_twice(self, monkeypatch):
        # with room ahead, the forward filtration of the last depth has the
        # final filtration's offset and length, and is reused for it
        gen, orbit, spec = _ulam_mixture(32, 256)
        real = splitting.filtration_at
        calls = []

        def counted(gen, orbit, offset, n, *args, **kwargs):
            calls.append((offset, n))
            return real(gen, orbit, offset, n, *args, **kwargs)

        monkeypatch.setattr(splitting, "filtration_at", counted)
        res = compute_splitting(gen, orbit, spec, 256, norm="l1", levels=2)
        n_final = max(rep.stopping_n for rep in res.convergence)
        assert (0, n_final) in calls
        assert len(calls) == len(set(calls))

    def test_probe_shares_filtrations(self, monkeypatch):
        # the rotated run of the probe asks for the filtrations the base run
        # made; they do not depend on the complements, so it reuses them and
        # the probe takes half the backward QR steps, with the same value
        gen, orbit, spec = _ulam_mixture(32, 256)
        kw = {"norm": "l1", "levels": 2}
        base = compute_splitting(gen, orbit, spec, 256, **kw)
        alt = compute_splitting(gen, orbit, spec, 256, rotation_seed=1, **kw)
        expected = max(grassmann_distance(Y, Yp)
                       for Y, Yp in zip(base.spaces, alt.spaces))
        real = splitting.filtration_at
        steps = []

        def counted(gen, orbit, offset, n, *args, **kwargs):
            steps.append(n)
            return real(gen, orbit, offset, n, *args, **kwargs)

        monkeypatch.setattr(splitting, "filtration_at", counted)
        compute_splitting(gen, orbit, spec, 256, **kw)
        one_run = sum(steps)
        steps.clear()
        assert uniqueness_probe(gen, orbit, spec, 256, **kw) == expected
        assert sum(steps) == one_run == 1512


class TestChecks:
    def test_equivariance_passes(self):
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        res0 = compute_splitting(gen, orbit, spec, n_max=256, offset=0)
        res1 = compute_splitting(gen, orbit, spec, n_max=256, offset=1)
        out = check_equivariance(gen, orbit, res0, res1)
        assert out["passed"]
        assert max(out["distances"]) < 10 * out["tol"]

    def test_equivariance_negative_control(self):
        # feeding the offset-0 spaces as "next" must fail: L(a) Y(a) = Y(b)
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        res0 = compute_splitting(gen, orbit, spec, n_max=256, offset=0)
        out = check_equivariance(gen, orbit, res0, res0)
        assert not out["passed"]
        assert max(out["distances"]) > 0.05

    def test_growth_rates(self):
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        res = compute_splitting(gen, orbit, spec, n_max=128)
        # n_check must stay below ~36/(lambda_1 - lambda_2) = 26: beyond that
        # the 1e-16 fast-direction contamination of the computed slow space
        # outgrows the true 2^-n decay and bends the measured rate upward
        out = check_growth(res, gen, orbit, n_check=20)
        assert out["passed"]
        assert out["levels"][0]["rates"][0] == pytest.approx(math.log(2), abs=1e-4)
        assert out["levels"][1]["rates"][0] == pytest.approx(-math.log(2), abs=1e-4)
        assert out["remainder_rates"] == []

    def test_uniqueness_probe_small_for_resolved_gap(self):
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        probe = uniqueness_probe(gen, orbit, spec, n_max=256)
        assert probe < 1e-7

    def test_uniqueness_probe_sentinel_when_unconverged(self):
        gen = CocycleGenerator.constant(np.diag([math.exp(0.06), 1.0]))
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        assert uniqueness_probe(gen, orbit, spec, n_max=8) == math.inf


def _ulam_mixture(n_bins, n_max):
    """The 3/10, 2/5 full-branch affine Bernoulli mixture, Ulam at n_bins."""
    driver = BernoulliShift([0.5, 0.5])
    system = RandomLYSystem(driver, [full_branch_affine([0, q, 1]) for q in
                                     (Fraction(3, 10), Fraction(2, 5))])
    orbit = generate_orbit(driver, 7, n_max + 1, 2 * n_max + 2)
    gen = random_ulam_cocycle(system, n_bins)
    return gen, orbit, lyapunov_exponents(gen, orbit, 2 * n_max, norm="l1")


class TestUlamL1:
    def test_rotated_complements_at_64_bins(self):
        # the flag V_1 > V_2 > V_3 has dims 64, 63, 62: the rotated good
        # complements stay exact without enumerating these spaces' vertices
        gen, orbit, spec = _ulam_mixture(64, 128)
        assert list(spec.multiplicities[:2]) == [1, 1]
        base = compute_splitting(gen, orbit, spec, 128, norm="l1", levels=2)
        rot = compute_splitting(gen, orbit, spec, 128, norm="l1", levels=2,
                                rotation_seed=1)
        for Y, Yr in zip(base.spaces, rot.spaces):
            assert grassmann_distance(Y, Yr) < 1e-8

    def test_frames_take_the_orthonormal_path(self, monkeypatch):
        # every Subspace the splitting builds is an orthonormal frame (a
        # hull of co-frame slices, a pushed QR frame, a level cut out of
        # one), so none runs the public constructor's SVD and rank test
        gen, orbit, spec = _ulam_mixture(64, 128)
        built = []
        init = Subspace.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subspace, "__init__", counted)
        res = compute_splitting(gen, orbit, spec, 128, norm="l1", levels=2)
        assert len(res.spaces) == 2 and built == []

    def test_uniqueness_probe_with_levels(self):
        # without levels the probe reaches the multiplicity-54 level and
        # raises at the enumeration guard
        gen, orbit, spec = _ulam_mixture(64, 256)
        probe = uniqueness_probe(gen, orbit, spec, 256, norm="l1", levels=2)
        assert math.isfinite(probe) and probe < 1e-6

    def test_blurred_boundary_warned_once_per_level(self):
        # the 12-bin mixture's spectrum is the full pass, so it reports
        # lambda_3; of the call's 12 filtrations (6 backward, 6 forward)
        # one finds the level-2 boundary rate above the midpoint of
        # lambda_1 and lambda_2, and 4 the level-3 one above the midpoint
        # of lambda_2 and lambda_3, each at its own rate; one warning per
        # level counts them
        driver = BernoulliShift([0.5, 0.5])
        system = RandomLYSystem(driver, [full_branch_affine([0, q, 1]) for q
                                         in (Fraction(3, 10), Fraction(2, 5))])
        orbit = generate_orbit(driver, 2, 257, 802)
        gen = random_ulam_cocycle(system, 12)
        spec = lyapunov_exponents(gen, orbit, 800, norm="l1")
        assert spec.cut == 12 and len(spec.exponents) > 2
        memo = {}
        res = compute_splitting(gen, orbit, spec, 256, 1e-6, norm="l1",
                                levels=2, _filtrations=memo)
        blurred = [w for w in res.warnings if "boundary blurred" in w]
        assert len(memo) == 12 and len(blurred) == 2
        for warning, level, count in zip(blurred, (2, 3), (1, 4)):
            rates = [f.blurred[level] for f in memo.values()
                     if level in f.blurred]
            assert len(rates) == count and len(set(rates)) == count
            assert warning.startswith(
                f"level {level} boundary blurred in {count} of 12 "
                f"filtrations: rate up to {max(rates):.4f} above midpoint ")

    def test_wide_level_fails_before_work(self):
        # the 16-bin mixture's spectrum is the full pass, and its level 3
        # has multiplicity 6 in R^16: its l1 distances are past the vertex
        # enumeration guard
        gen, orbit, spec = _ulam_mixture(16, 16)
        assert spec.cut == 16 and spec.multiplicities[2] == 6
        with pytest.raises(ValueError, match="l1 ball of a dim-"):
            compute_splitting(gen, orbit, spec, 16, norm="l1")


class TestEnumerationGuard:
    @pytest.mark.parametrize("norm, m, d", SUP_THRESHOLDS)
    def test_past_guard_raises_before_first_qr_step(self, monkeypatch, norm,
                                                    m, d):
        # the cases past the guard in the compute_splitting docstring
        def no_work(*args, **kwargs):
            raise AssertionError("a QR step ran before the guard")

        monkeypatch.setattr(splitting, "filtration_at", no_work)
        monkeypatch.setattr(splitting, "_qr_pass", no_work)
        spec = SimpleNamespace(exponents=[0.0, -1.0],
                               multiplicities=[m, d - m])
        gen = CocycleGenerator.constant(np.eye(d))
        with pytest.raises(ValueError, match=rf"^{norm} .*R\^{d}\b"):
            compute_splitting(gen, _orbit(n=40), spec, 16, norm=norm,
                              levels=1)

    def test_docstring_states_every_threshold(self):
        doc = " ".join(compute_splitting.__doc__.split())
        for norm in ("l1", "linf"):
            listed, last = re.search(rf"\b{norm} from d = (.*?) and for "
                                     r"m >= (\d+) at every d > m", doc).groups()
            stated = {(int(m), int(d)) for d, m
                      in re.findall(r"(\d+) \(m = (\d+)\)", listed)}
            stated.add((int(last), int(last) + 1))
            assert stated == {(m, d) for n, m, d in SUP_THRESHOLDS
                              if n == norm}


class TestRankCollapseRetry:
    def test_retry_is_reported(self, monkeypatch):
        real = splitting.pushforward_space
        calls = []

        def collapse_once(*args, **kwargs):
            calls.append(args[3])
            if len(calls) == 1:
                raise RankCollapseError("forced collapse", n=args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(splitting, "pushforward_space", collapse_once)
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        res = compute_splitting(gen, orbit, spec, n_max=64)
        retries = [w for w in res.warnings if "retried" in w]
        assert len(retries) == 1
        # one walk per depth: the retry names the hull's levels
        assert "levels 1-2" in retries[0] and "depth 8" in retries[0]
        assert res.converged


class TestEquivarianceAcrossOffsets:
    def test_pushforward_matches_shifted_splitting(self):
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        results = [compute_splitting(gen, orbit, spec, n_max=256, offset=k)
                   for k in range(3)]
        for k in range(2):
            A = gen.matrix_at(orbit, k)
            for Y, Yn in zip(results[k].spaces, results[k + 1].spaces):
                pushed = Subspace(A @ Y.basis)
                assert grassmann_distance(pushed, Yn) < 1e-5


class TestTemperedness:
    def test_constant_series_tempered(self):
        v = temperedness_test(lambda k: 3.0, 64)
        assert v.verdict == "tempered"
        assert abs(v.forward_slope) < 0.02 and abs(v.backward_slope) < 0.02

    def test_exponential_not_tempered(self):
        v = temperedness_test(lambda k: math.exp(0.5 * abs(k)), 64)
        assert v.verdict == "not_tempered"
        assert v.forward_slope == pytest.approx(0.5, abs=0.05)
        assert v.backward_slope == pytest.approx(0.5, abs=0.05)

    def test_polynomial_tempered(self):
        # subexponential but slowly settling: at n_max=512 the running slope
        # is 2*log(512)/512 = 0.024, still above the 0.02 threshold, so the
        # verdict is the honest "inconclusive"; a longer window resolves it
        v = temperedness_test(lambda k: float(k * k + 1), 512)
        assert v.verdict == "inconclusive"
        v = temperedness_test(lambda k: float(k * k + 1), 2048)
        assert v.verdict == "tempered"

    def test_one_sided_growth_detected(self):
        v = temperedness_test(lambda k: math.exp(0.4 * max(k, 0)) , 64)
        assert v.verdict == "not_tempered"
        assert v.forward_slope > 0.3
        assert abs(v.backward_slope) < 0.05

    def test_positivity_and_length_validation(self):
        with pytest.raises(ParameterError):
            temperedness_test(lambda k: 1.0, 4)
        with pytest.raises(ParameterError):
            temperedness_test(lambda k: 0.0, 16)

    def test_projection_norm_series_tempered_on_cycle(self):
        # projection norms along a periodic orbit form a periodic, hence
        # tempered, series
        gen = _alt_pair()
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        cache = {}

        def proj_norm(k):
            if k not in cache:
                res = compute_splitting(gen, orbit, spec, n_max=64,
                                        offset=k % 2)
                cache[k] = float(res.projection_norms[0]["pi_fast"])
            return cache[k]

        v = temperedness_test(proj_norm, 16)
        assert v.verdict == "tempered"

    def test_agreement_forward_backward_synthetic(self):
        # symmetric series must classify identically in both directions
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(0.0, 0.6))
            f = lambda k: a * math.exp(b * abs(k))
            v = temperedness_test(f, 32)
            fwd = abs(v.forward_slope)
            bwd = abs(v.backward_slope)
            assert fwd == pytest.approx(bwd, abs=1e-9)


# ---------------------------------------------------------------------------
# co-frame formulas against the d x d forms they replace
#
# The references below are the helpers compute_splitting used when every
# filtration level was a d x (d - cut) Subspace: complements, principal
# vectors and separations by d x d SVDs, and the oblique projection by
# projection_oracle.projection, which inverts the d x d matrix [Y, V].


def _ref_orthogonal_complements(flag):
    norm = flag[0].norm
    out = []
    for V, Vn in zip(flag, flag[1:]):
        m = V.dim - Vn.dim
        QJ = V.orthonormal_basis()
        if Vn.dim == 0:
            out.append(Subspace(QJ, norm))
            continue
        QN = Vn.orthonormal_basis()
        U, _, _ = np.linalg.svd(QJ - QN @ (QN.T @ QJ), full_matrices=False)
        out.append(Subspace(U[:, :m], norm))
    return out


def _ref_near_intersection(H, V, m, norm, n):
    QH = H.orthonormal_basis()
    QV = V.orthonormal_basis()
    M = QH.T @ QV
    if m > min(M.shape):
        raise RankCollapseError("frames too small", n=n)
    _, s, Wt = np.linalg.svd(M)
    if s[m - 1] < 0.5:
        raise RankCollapseError("principal cosine too small", n=n)
    return Subspace(QV @ Wt[:m].T, norm)


def _ref_l2_separation(Y, V):
    if V.dim == 0:
        return 1.0
    QY = Y.orthonormal_basis()
    QV = V.orthonormal_basis()
    return float(np.linalg.svd(QY - QV @ (QV.T @ QY), compute_uv=False)[-1])


def _ref_g_ratio(Y, V, U):
    try:
        Pi = projection(U, V)
    except ComplementarityError:
        return math.inf
    QY = Y.orthonormal_basis()
    u_part = Pi.matrix @ QY
    su = np.linalg.svd(u_part, compute_uv=False)
    if su[-1] < 1e-14:
        return math.inf
    return operator_norm((QY - u_part) @ np.linalg.pinv(u_part), "l2")


def _random_filtration(seed, exhaustive=False):
    """A FiltrationAt on a random orthonormal frame: d in 4..40, total
    codimension k in 1..3 split into levels (exhaustive: d = 4, the levels
    fill R^4)."""
    rng = np.random.default_rng(seed)
    if exhaustive:
        d, mult = 4, [1, 1, 2]
    else:
        d, k = int(rng.integers(4, 41)), int(rng.integers(1, 4))
        mult = [1] * k if rng.random() < 0.5 else [k]
    w = min(d, sum(mult) + 1)
    frame, _ = np.linalg.qr(rng.standard_normal((d, w)))
    cuts = [0] + [c for c in np.cumsum(mult).tolist() if c < d]
    return FiltrationAt(0, frame, cuts, np.zeros(w)), mult, rng


def _span_gap(A, B):
    return grassmann_distance(Subspace(A), Subspace(B))


SEEDS = range(40)


class TestCoframeOracle:
    """Frame slices, principal vectors, separations, g-ratios and oblique
    projections from the co-frame agree with the d x d forms within 1e-12
    on 40 random frames each."""

    @staticmethod
    def _cases():
        for seed in SEEDS:
            yield (seed, *_random_filtration(seed))
        yield ("exhaustive", *_random_filtration(0, exhaustive=True))

    def test_complements_are_frame_slices(self):
        for seed, filt, mult, _ in self._cases():
            d = filt.frame.shape[0]
            flag = _ref_flag(filt)
            if seed == "exhaustive":
                flag.append(Subspace(np.zeros((d, 0))))
            refs = _ref_orthogonal_complements(flag)
            assert len(refs) == len(mult), seed
            comps = splitting._complements(filt, len(mult))
            for j, (U, B) in enumerate(zip(refs, comps)):
                assert B.shape[1] == U.dim == mult[j], seed
                assert _span_gap(B, U.basis) < 1e-12, seed

    def test_near_intersection(self):
        for seed, filt, mult, rng in self._cases():
            if seed == "exhaustive":
                continue
            j = len(filt) - 1
            F, V = filt.frame[:, :filt.cuts[j]], _ref_flag(filt)[j]
            QV = V.orthonormal_basis()
            m = int(rng.integers(1, min(3, V.dim) + 1))
            extra = int(rng.integers(0, min(F.shape[1], 3 - m) + 1))
            near = QV @ rng.standard_normal((V.dim, m)) \
                + 0.1 * F @ rng.standard_normal((F.shape[1], m))
            R, _ = np.linalg.qr(rng.standard_normal((F.shape[1], extra)))
            far = F @ R + 0.1 * QV @ rng.standard_normal((V.dim, extra))
            H = Subspace(np.column_stack([near, far]))
            got = splitting._near_intersection(H.orthonormal_basis(), F, m,
                                               "l2", 8)
            ref = _ref_near_intersection(H, V, m, "l2", 8)
            assert got.dim == ref.dim == m, seed
            assert grassmann_distance(got, ref) < 1e-12, seed
            # nearly orthogonal to V, and wider than H: both refuse
            Hfar = Subspace(F[:, :1] + 1e-3 * QV[:, :1])
            for mm in (1, 2):
                with pytest.raises(RankCollapseError):
                    _ref_near_intersection(Hfar, V, mm, "l2", 8)
                with pytest.raises(RankCollapseError):
                    splitting._near_intersection(Hfar.orthonormal_basis(),
                                                 F, mm, "l2", 8)

    def test_l2_separation(self):
        for seed, filt, mult, rng in self._cases():
            d, flag = filt.frame.shape[0], _ref_flag(filt)
            for j in range(1, len(mult) + 1):
                cut = splitting._cut(filt, j)
                V = flag[j] if j < len(filt) else Subspace(np.zeros((d, 0)))
                Y = Subspace(rng.standard_normal((d, min(cut, 3))))
                got = splitting._l2_separation(Y, filt.frame[:, :cut])
                assert abs(got - _ref_l2_separation(Y, V)) < 1e-12, seed

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    def test_projection_and_g_ratio(self, norm, monkeypatch):
        # the l1/linf norms are column (row) sums over blocks of columns;
        # at 64 entries per block every frame here splits into blocks of
        # 1 to 16 columns
        monkeypatch.setattr(grassmann, "_MAX_ENTRIES", 64)
        for seed, filt, mult, rng in self._cases():
            if seed == "exhaustive":
                continue
            d, cut = filt.frame.shape[0], filt.cuts[-1]
            F, V = filt.frame[:, :cut], _ref_flag(filt)[-1]
            QV = V.orthonormal_basis()
            U = Subspace(F @ rng.standard_normal((cut, cut))
                         + 0.3 * QV @ rng.standard_normal((d - cut, cut)),
                         norm)
            pi = _CoframeProjection(U.basis, F, norm)
            ref = projection(U, V)
            assert pi.condition == pytest.approx(ref.condition, rel=1e-9)
            assert abs(pi.norm_value - ref.norm_value) < 1e-12, seed
            assert abs(pi.complement_norm() - operator_norm(
                np.eye(d) - ref.matrix, norm)) < 1e-12, seed
            for m in range(1, cut + 1):
                Y = Subspace(U.basis @ rng.standard_normal((cut, m))
                             + 0.1 * QV @ rng.standard_normal((d - cut, m)),
                             norm)
                assert abs(splitting._g_ratio(Y, pi)
                           - _ref_g_ratio(Y, V, U)) < 1e-12, seed

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_projection_norms_hold_no_square_array(self, norm):
        # a 2048 x 2048 float array is 32 MiB
        d, k = 2048, 2
        rng = np.random.default_rng(0)
        F, _ = np.linalg.qr(rng.standard_normal((d, k)))
        Y = F + 0.3 * rng.standard_normal((d, k))
        tracemalloc.start()
        try:
            _CoframeProjection(Y, F, norm).complement_norm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak

    def test_rotated_complements(self):
        # a rotated complement stays in V_j, leaves V_{j+1} at l2
        # separation cos(theta) (1 where the levels exhaust R^d and nothing
        # turns), and is a function of its seed.  A line V_{j+1} leaves the
        # seed only the sign of its direction (see the next test)
        cos = math.cos(splitting._ROTATION_ANGLE)
        for seed, filt, mult, _ in self._cases():
            d = filt.frame.shape[0]
            rot, again, other = (splitting._complements(filt, len(mult), s)
                                 for s in (1, 1, 2))
            for j, U in enumerate(rot):
                lo = splitting._cut(filt, j)
                hi = splitting._cut(filt, j + 1)
                assert U.shape == (d, mult[j]), seed
                assert np.linalg.norm(filt.frame[:, :lo].T @ U) < 1e-12, seed
                sep = splitting._l2_separation(Subspace(U),
                                               filt.frame[:, :hi])
                assert abs(sep - (1.0 if hi == d else cos)) < 1e-12, seed
                assert np.array_equal(U, again[j]), seed
                if d - hi > 1:
                    assert _span_gap(U, other[j]) > 1e-3, seed

    def test_line_level_keeps_the_seeded_sign(self):
        # seed 27 is d = 4 with three lines, so V_4 is a line: its two
        # rotated complements turn toward +v and -v, and seeds 1 and 2
        # draw directions on opposite sides of it
        filt, mult, _ = _random_filtration(27)
        assert filt.frame.shape[0] == 4 and mult == [1, 1, 1]
        U1, U2 = (splitting._complements(filt, 3, s)[2] for s in (1, 2))
        theta = splitting._ROTATION_ANGLE
        assert _span_gap(U1, U2) == pytest.approx(math.sin(2 * theta),
                                                  abs=1e-12)
        # the two turns cancel: U1 + U2 = 2 cos(theta) C_3
        assert np.allclose(U1 + U2, 2 * math.cos(theta) * filt.frame[:, 2:3],
                           atol=1e-14)

    @staticmethod
    def _tilted(filt, rng, tilt):
        """A Y whose last column is a unit vector of V moved by `tilt`
        toward the frame."""
        d, cut = filt.frame.shape[0], filt.cuts[-1]
        F, V = filt.frame[:, :cut], _ref_flag(filt)[-1]
        v = V.orthonormal_basis() @ rng.standard_normal(d - cut)
        y = v / np.linalg.norm(v) + tilt * F @ rng.standard_normal(cut)
        Y = np.column_stack([F[:, 1:] + rng.standard_normal((d, cut - 1)), y])
        return Y, F, V

    def test_tilted_pair_is_not_complementary(self):
        for seed, filt, mult, rng in self._cases():
            if seed == "exhaustive":
                continue
            Y, F, V = self._tilted(filt, rng, 1e-13)
            with pytest.raises(ComplementarityError, match="complementary"):
                projection(Subspace(Y), V)
            with pytest.raises(ComplementarityError, match="complementary"):
                _CoframeProjection(Y, F, "l2")

    @pytest.mark.parametrize("tilt", [1e-8, 1e-9])
    def test_idempotency_checks_differ_below_the_condition_cutoff(self,
                                                                   tilt):
        # condition numbers near 1 / tilt pass the 1e12 cutoff in both
        # forms, so every refusal here is an idempotency one.  The co-frame
        # residual carries the rounding of a k x k inverse, projection's
        # that of the d x d inverse of [Y, V], so the co-frame form refuses
        # a strict subset: on these 40 frames it refused 11 and 33 where
        # projection refused 17 and 40
        coframe, full = set(), set()
        for seed, filt, mult, rng in self._cases():
            if seed == "exhaustive":
                continue
            Y, F, V = self._tilted(filt, rng, tilt)
            try:
                _CoframeProjection(Y, F, "l2")
            except ComplementarityError as exc:
                assert "idempotency" in str(exc), seed
                coframe.add(seed)
            try:
                projection(Subspace(Y), V)
            except ComplementarityError as exc:
                assert "idempotency" in str(exc), seed
                full.add(seed)
        assert coframe
        assert coframe < full

    def test_compute_splitting_warns_when_not_complementary(
            self, monkeypatch):
        # at n_max = 8 the final filtration is the one at (offset 0, n 8);
        # tilt its frame so that V_2 lies within 1e-13 of the final Y_1
        gen = CocycleGenerator.constant(A_TRI)
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        y = compute_splitting(gen, orbit, spec, n_max=8).spaces[0].basis[:, 0]
        y = y / np.linalg.norm(y)
        y_perp = np.array([-y[1], y[0]])
        frame, _ = np.linalg.qr(np.column_stack([y_perp + 1e-13 * y, y]))
        real = splitting.filtration_at

        def tilted(gen, orbit, offset, n, *args, **kwargs):
            filt = real(gen, orbit, offset, n, *args, **kwargs)
            if (offset, n) == (0, 8):
                filt = FiltrationAt(offset, frame, filt.cuts, filt.rates)
            return filt

        monkeypatch.setattr(splitting, "filtration_at", tilted)
        res = compute_splitting(gen, orbit, spec, n_max=8)
        assert "level 1: fast/slow complementarity failed at the final " \
               "depth" in res.warnings
        assert res.projection_norms[0] == {"level": 1, "pi_fast": None,
                                           "pi_slow": None}
        assert res.convergence[0].g_series == [math.inf]
        assert res.transversality_floor == 1.0


def _spy_linalg(monkeypatch, limit):
    """Wrap every numpy.linalg function and LAPACK routine; record each
    array argument whose two trailing dimensions both exceed `limit`, and
    each complete QR."""
    seen = []

    def wrap(name, fn):
        def spy(*args, **kwargs):
            for a in list(args) + list(kwargs.values()):
                if isinstance(a, np.ndarray) and a.ndim >= 2 \
                        and min(a.shape[-2:]) > limit:
                    seen.append((name, a.shape))
            if kwargs.get("mode") == "complete":
                seen.append((name, "complete"))
            return fn(*args, **kwargs)
        return spy

    for module in (np.linalg, np.linalg.lapack_lite):
        for name in dir(module):
            fn = getattr(module, name)
            if callable(fn) and not isinstance(fn, type) \
                    and not name.startswith("_"):
                monkeypatch.setattr(module, name, wrap(name, fn))
    return seen


class TestCoframeScaling:
    def test_levels_split_without_d_by_d_linear_algebra(self, monkeypatch):
        # levels=2 on the 128-bin mixture tracks w = 3 frame columns; no
        # np.linalg call may see an array with both trailing dimensions
        # above 2w, and no frame is completed to R^d
        gen, orbit, spec = _ulam_mixture(128, 64)
        assert spec.multiplicities[:2] == [1, 1]
        seen = _spy_linalg(monkeypatch, 6)
        for offset in (0, 1):
            res = compute_splitting(gen, orbit, spec, 64, norm="l1",
                                    levels=2, offset=offset)
            out = res.to_dict()
            assert out["dims"] == [1, 1] and out["remainder_dim"] == 126
        assert seen == []

    def test_probe_and_growth_without_d_by_d_linear_algebra(self,
                                                             monkeypatch):
        # the rotated complements of the probe and the remainder vectors of
        # check_growth come from the co-frame as well: nothing large is
        # decomposed, and no distance falls back to a warning linprog
        gen, orbit, spec = _ulam_mixture(128, 256)
        seen = _spy_linalg(monkeypatch, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            probe = uniqueness_probe(gen, orbit, spec, 256, norm="l1",
                                     levels=2)
            res = compute_splitting(gen, orbit, spec, 256, norm="l1",
                                    levels=2)
            growth = check_growth(res, gen, orbit, n_check=18)
        assert seen == []
        assert probe < 1e-6
        assert growth["passed"] and len(growth["remainder_rates"]) == 3
