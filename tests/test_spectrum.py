"""Lyapunov spectrum estimation, filtrations, growth rates, kappa bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oseledets.base import (
    BernoulliShift,
    FiniteCycle,
    ParameterError,
    birkhoff_average,
    generate_orbit,
    shift_view,
)
from oseledets import spectrum as spectrum_module
from oseledets.cocycle import CocycleGenerator, forward_product
from oseledets.grassmann import Subspace, grassmann_distance, one_sided_hausdorff
from oseledets.spectrum import (
    FiltrationAt,
    filtration_at,
    growth_rate,
    hennion_kappa_bound,
    index_of_compactness_proxy,
    lyapunov_exponents,
)
from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                random_ulam_cocycle)


def _cycle_orbit(period=2, n=2000):
    return generate_orbit(FiniteCycle(period), seed=0, n_past=n, n_future=n)


def _period2_pair(seed=0):
    """Similar pair with known exponents: eigenvalue moduli of B A are exact."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    Pi = np.linalg.inv(P)
    A = P @ np.diag([2.0, 1.0, 0.5]) @ Pi
    B = P @ np.diag([3.0, 1.0, 1 / 3.0]) @ Pi
    gen = CocycleGenerator.from_table([A, B])
    expected = sorted((math.log(x) / 2 for x in (6.0, 1.0, 1 / 6.0)),
                      reverse=True)
    return gen, expected


class TestLyapunovExponents:
    def test_constant_diagonal(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 200)
        assert spec.exponents == pytest.approx([math.log(2), -math.log(2)],
                                               abs=1e-10)
        assert spec.multiplicities == [1, 1]
        assert spec.n_infinite == 0
        assert spec.mle_agreement < 1e-10

    def test_identity_single_cluster(self):
        gen = CocycleGenerator.constant(np.eye(3))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 100)
        assert spec.exponents == pytest.approx([0.0], abs=1e-12)
        assert spec.multiplicities == [3]
        assert spec.total_multiplicity() == 3

    def test_period_two_matches_eigenvalues(self):
        gen, expected = _period2_pair()
        spec = lyapunov_exponents(gen, _cycle_orbit(), 600)
        assert spec.exponents == pytest.approx(expected, abs=1e-8)
        assert spec.multiplicities == [1, 1, 1]

    def test_noninvertible_counts_infinite(self):
        gen = CocycleGenerator.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 100)
        assert spec.exponents == pytest.approx([0.0], abs=1e-12)
        assert spec.n_infinite == 1
        assert np.isneginf(spec.raw_exponents).sum() == 1

    def test_offset_invariance_random_products(self):
        mats = [np.array([[2.0, 1.0], [0.0, 0.6]]),
                np.array([[1.8, 0.0], [0.4, 0.5]])]
        gen = CocycleGenerator.from_table(mats)
        orbit = generate_orbit(BernoulliShift([0.5, 0.5]), seed=3,
                               n_past=0, n_future=4000)
        a = lyapunov_exponents(gen, orbit, 2000)
        b = lyapunov_exponents(gen, shift_view(orbit, 5), 2000)
        assert a.exponents[0] == pytest.approx(b.exponents[0], abs=0.05)
        assert a.exponents[-1] == pytest.approx(b.exponents[-1], abs=0.05)

    def test_volume_conservation_against_determinant(self):
        # sum of all raw QR slopes equals the log-determinant slope exactly
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        gen = CocycleGenerator.from_table(mats)
        orbit = generate_orbit(FiniteCycle(3), seed=0, n_past=60, n_future=60)
        spec = lyapunov_exponents(gen, orbit, 60)
        n, w = spec.n_used, spec.window
        det_sum = sum(math.log(abs(np.linalg.det(gen.matrix_at(orbit, k))))
                      for k in range(n - w, n))
        assert float(spec.raw_exponents.sum()) * w == pytest.approx(det_sum,
                                                                    abs=1e-8)

    def test_partial_volumes_majorized_by_singular_values(self):
        # product of the top-k QR diagonals never exceeds the top-k singular
        # value product of the same matrix product; the svd side carries
        # backward error ||P|| * eps on its small singular values, hence the
        # slack, while the full-volume identity is checked against the exactly
        # multiplicative per-factor determinants
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((5, 5)) for _ in range(4)]
        gen = CocycleGenerator.from_table(mats)
        orbit = generate_orbit(FiniteCycle(4), seed=0, n_past=50, n_future=50)
        n = 12
        Q = np.eye(5)
        logs = np.zeros(5)
        for k in range(n):
            Q, R = np.linalg.qr(gen.matrix_at(orbit, k) @ Q)
            logs += np.log(np.abs(np.diag(R)))
        sv = np.linalg.svd(forward_product(gen, orbit, 0, n), compute_uv=False)
        for k in range(1, 6):
            assert logs[:k].sum() <= np.log(sv[:k]).sum() + 1e-6
        det_sum = sum(np.linalg.slogdet(gen.matrix_at(orbit, k))[1]
                      for k in range(n))
        assert logs.sum() == pytest.approx(det_sum, abs=1e-9)

    def test_small_gap_warning(self):
        gen = CocycleGenerator.constant(np.diag([math.exp(0.06), 1.0]))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 100, gap_threshold=0.05)
        assert len(spec.exponents) == 2
        assert any("gap" in w for w in spec.warnings)

    def test_history_shape(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 64)
        hist_n, hist_vals = spec.convergence_history
        assert list(hist_n) == sorted(hist_n)
        assert all(len(row) == 2 for row in hist_vals)
        assert hist_n[-1] == spec.n_used

    def test_to_dict_roundtrippable(self):
        import json
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        spec = lyapunov_exponents(gen, _cycle_orbit(), 50)
        d = json.loads(json.dumps(spec.to_dict()))
        assert d["exponents"] == pytest.approx(spec.exponents)
        assert d["multiplicities"] == [1, 1]

    def test_n_validation(self):
        gen = CocycleGenerator.constant(np.eye(2))
        with pytest.raises(ParameterError):
            lyapunov_exponents(gen, _cycle_orbit(), 9)


class TestFiltration:
    def test_constant_diagonal_slow_space(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 50, spec)
        assert len(filt) == 2
        assert filt.codimensions() == [0, 1]
        V2 = filt[1]
        assert one_sided_hausdorff(V2, Subspace(np.eye(2)[:, 1:])) < 1e-10

    def test_triangular_slow_space_is_not_axis(self):
        # for [[2,1],[0,1/2]] the slow filtration space is span((1,-3)):
        # the vector whose forward growth is 1/2
        gen = CocycleGenerator.constant(np.array([[2.0, 1.0], [0.0, 0.5]]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 60, spec)
        target = Subspace(np.array([[1.0], [-1.5]]))
        assert one_sided_hausdorff(filt[1], target) < 1e-8

    def test_kernel_direction(self):
        gen = CocycleGenerator.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 30, spec)
        assert one_sided_hausdorff(filt[1], Subspace(np.eye(2)[:, 1:])) < 1e-10
        assert filt.rates[1] < -1.0

    def test_equivariance_one_sided(self):
        gen, _ = _period2_pair()
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        f0 = filtration_at(gen, orbit, 0, 120, spec)
        f1 = filtration_at(gen, orbit, 1, 120, spec)
        A = gen.matrix_at(orbit, 0)
        for j in range(1, len(f0)):
            pushed = Subspace(A @ f0[j].basis)
            assert one_sided_hausdorff(pushed, f1[j]) < 1e-4

    def test_offset_recorded(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 64)
        filt = filtration_at(gen, orbit, 7, 20, spec)
        assert isinstance(filt, FiltrationAt) and filt.offset == 7

    def test_n_validation(self):
        gen = CocycleGenerator.constant(np.eye(2))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 64)
        with pytest.raises(ParameterError):
            filtration_at(gen, orbit, 0, 0, spec)


def _l2_sine(V, W):
    return grassmann_distance(Subspace(V.basis), Subspace(W.basis))


class TestTruncatedFiltration:
    """levels=k carries only m_1 + ... + m_k + 1 directions; the spans and
    the tracked rates agree with the full-width filtration."""

    @pytest.fixture(scope="class")
    def mixture(self):
        # the 3/10, 2/5 full-branch affine mixture at 128 bins: exponents
        # 0 (m=1), -0.60 (m=1), then one wide level
        driver = BernoulliShift([0.5, 0.5])
        system = RandomLYSystem(driver, [full_branch_affine([0, q, 1])
                                         for q in (Fraction(3, 10),
                                                   Fraction(2, 5))])
        orbit = generate_orbit(driver, 7, 65, 130)
        gen = random_ulam_cocycle(system, 128)
        spec = lyapunov_exponents(gen, orbit, 128, norm="l1")
        assert spec.multiplicities[:2] == [1, 1]
        return gen, orbit, spec

    @staticmethod
    def _assert_matches(full, part, w):
        assert len(part) == 3 and len(full) >= 3
        for j in range(3):
            assert part[j].dim == full[j].dim
            assert _l2_sine(full[j], part[j]) < 1e-12
        assert part.rates.shape == (w,)
        assert part.rates == pytest.approx(full.rates[:w], abs=1e-12)
        assert part.warnings == full.warnings

    def test_mixture_levels_match_full_width(self, mixture):
        gen, orbit, spec = mixture
        full = filtration_at(gen, orbit, -64, 64, spec)
        part = filtration_at(gen, orbit, -64, 64, spec, levels=2)
        assert full.rates.shape == (128,)
        self._assert_matches(full, part, 3)

    def test_constant_triangular_matches_full_width(self):
        A = np.triu(np.ones((4, 4))) + np.diag([2.0, 0.0, -0.5, -0.75])
        gen = CocycleGenerator.constant(A)
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        assert spec.multiplicities == [1, 1, 1, 1]
        full = filtration_at(gen, orbit, 0, 60, spec)
        part = filtration_at(gen, orbit, 0, 60, spec, levels=2)
        self._assert_matches(full, part, 3)
        # the slow line of an upper-triangular matrix is not an axis, so
        # the completed frame must carry the tracked directions' complement
        assert one_sided_hausdorff(part[2], Subspace(np.eye(4)[:, 2:])) > 0.1

    def test_qr_sees_only_tracked_columns(self, mixture, monkeypatch):
        gen, orbit, spec = mixture
        shapes = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(spectrum_module.np.linalg, "qr", spy)
        filtration_at(gen, orbit, -16, 16, spec, levels=2)
        assert len(shapes) == 17
        assert set(shapes) == {(128, 3)}

    def test_levels_validation(self, mixture):
        gen, orbit, spec = mixture
        with pytest.raises(ParameterError):
            filtration_at(gen, orbit, 0, 4, spec, levels=0)


class TestGrowthRate:
    def test_diagonal_directions(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        orbit = _cycle_orbit()
        assert growth_rate(gen, orbit, [1.0, 0.0], 40) == \
            pytest.approx(math.log(2), abs=1e-12)
        assert growth_rate(gen, orbit, [0.0, 1.0], 40) == \
            pytest.approx(-math.log(2), abs=1e-12)

    def test_generic_vector_sees_top(self):
        # the finite-n rate carries the -log(sqrt(2))/n normalization bias of
        # the initial vector, and approaches the top exponent from below
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        orbit = _cycle_orbit()
        vals = [growth_rate(gen, orbit, [1.0, 1.0], n) for n in (20, 40, 80)]
        assert vals[0] < vals[1] < vals[2] < math.log(2)
        assert vals[2] == pytest.approx(math.log(2) - math.log(math.sqrt(2)) / 80,
                                        abs=1e-9)

    def test_killed_vector(self):
        gen = CocycleGenerator.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
        orbit = _cycle_orbit()
        assert growth_rate(gen, orbit, [0.0, 1.0], 5) == -math.inf

    def test_validation(self):
        gen = CocycleGenerator.constant(np.eye(2))
        orbit = _cycle_orbit()
        with pytest.raises(ParameterError):
            growth_rate(gen, orbit, [0.0, 0.0], 5)
        with pytest.raises(ParameterError):
            growth_rate(gen, orbit, [1.0, 0.0], 0)


class TestHennionKappa:
    def test_constant_series(self):
        orbit = _cycle_orbit()
        assert hennion_kappa_bound(lambda k: 2.0, orbit, 10) == \
            pytest.approx(math.log(2), abs=1e-14)

    def test_matches_birkhoff_average(self):
        orbit = _cycle_orbit()
        B = lambda k: math.exp(float(orbit.state(k)))
        kappa = hennion_kappa_bound(B, orbit, 8)
        avg = birkhoff_average(orbit, lambda s: float(s), 8)
        assert abs(kappa - avg) < 1e-9

    def test_positive_validation(self):
        orbit = _cycle_orbit()
        with pytest.raises(ParameterError):
            hennion_kappa_bound(lambda k: 0.0, orbit, 4)
        with pytest.raises(ParameterError):
            hennion_kappa_bound(lambda k: 1.0, orbit, 0)


class TestCompactnessProxy:
    def test_diagonal_singular_values(self):
        gen = CocycleGenerator.constant(np.diag([3.0, 2.0, 1.0]))
        orbit = _cycle_orbit()
        for cut, val in ((0, math.log(3)), (1, math.log(2)), (2, 0.0)):
            assert index_of_compactness_proxy(gen, orbit, 20, cut) == \
                pytest.approx(val, abs=1e-10)

    def test_decreasing_in_rank_cut(self):
        rng = np.random.default_rng(4)
        gen = CocycleGenerator.from_table([rng.standard_normal((4, 4))
                                           for _ in range(2)])
        orbit = _cycle_orbit()
        vals = [index_of_compactness_proxy(gen, orbit, 16, c) for c in range(4)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rank_deficient_goes_to_minus_inf(self):
        gen = CocycleGenerator.constant(np.diag([1.0, 0.0]))
        orbit = _cycle_orbit()
        assert index_of_compactness_proxy(gen, orbit, 3, 1) == -math.inf

    def test_below_top_exponent(self):
        gen, expected = _period2_pair()
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 200)
        proxy = index_of_compactness_proxy(gen, orbit, 100, 1)
        assert proxy <= spec.exponents[0] + 1e-9

    def test_validation(self):
        gen = CocycleGenerator.constant(np.eye(2))
        orbit = _cycle_orbit()
        with pytest.raises(ParameterError):
            index_of_compactness_proxy(gen, orbit, 5, 2)
        with pytest.raises(ParameterError):
            index_of_compactness_proxy(gen, orbit, 0, 0)
