"""Equivariant splittings: pushforwards, convergence, checks, temperedness."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oseledets.base import (
    BernoulliShift,
    FiniteCycle,
    ParameterError,
    generate_orbit,
    shift_view,
)
from oseledets import splitting
from oseledets.cocycle import CocycleGenerator
from oseledets.grassmann import Subspace, grassmann_distance
from oseledets.spectrum import lyapunov_exponents
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
        assert res.remainder.dim == 0
        assert grassmann_distance(res.spaces[0], Subspace(np.eye(2)[:, :1])) < 1e-8
        assert grassmann_distance(res.spaces[1],
                                  Subspace(np.array([[2.0], [-3.0]]))) < 1e-8

    def test_identity_single_level(self):
        gen = CocycleGenerator.constant(np.eye(3))
        orbit = _orbit()
        spec = lyapunov_exponents(gen, orbit, 64)
        res = compute_splitting(gen, orbit, spec, n_max=32)
        assert res.converged
        assert len(res.spaces) == 1 and res.spaces[0].dim == 3
        assert res.remainder.dim == 0

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
        assert res.remainder.dim == 1
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

    def test_uniqueness_probe_with_levels(self):
        # without levels the probe reaches the multiplicity-54 level and
        # raises at the enumeration guard
        gen, orbit, spec = _ulam_mixture(64, 256)
        probe = uniqueness_probe(gen, orbit, spec, 256, norm="l1", levels=2)
        assert math.isfinite(probe) and probe < 1e-6

    def test_wide_level_fails_before_work(self):
        # level 3 has multiplicity 54 in R^64: its l1 distances are past the
        # vertex enumeration guard
        gen, orbit, spec = _ulam_mixture(64, 16)
        assert spec.multiplicities[2] > 6
        with pytest.raises(ValueError, match="l1 ball of a dim-"):
            compute_splitting(gen, orbit, spec, 16, norm="l1")


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
        assert "level 1" in retries[0] and "depth 8" in retries[0]
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
