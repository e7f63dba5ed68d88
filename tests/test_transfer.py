"""Piecewise expanding maps, Ulam matrices, exact transfer images, and the
Lasota-Yorke diagnostics."""

import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from oseledets import transfer
from oseledets.base import BernoulliShift, FiniteCycle, ParameterError, \
    generate_orbit
from oseledets.spectrum import lyapunov_exponents
from oseledets.transfer import (
    Branch,
    PiecewiseExpandingMap1D,
    PiecewisePolynomial,
    RandomLYSystem,
    UnsupportedFormError,
    buzzi_swap_cocycle,
    complexity_counters,
    continuity_probe,
    discrete_sobolev_norm,
    doubling_map,
    full_branch_affine,
    grid_midpoints,
    kappa_star_bound,
    ly_bound_B,
    ly_distance,
    perturbed_doubling,
    random_ulam_cocycle,
    sin_doubling,
    transfer_apply_exact,
    tripling_map,
    ulam_matrix,
)

HALF = Fraction(1, 2)


def _orbit(n=8):
    return generate_orbit(FiniteCycle(1), seed=0, n_past=n, n_future=n)


def _shear_doubling(delta):
    """Slope 2-delta on both halves, intercepts chosen to stay inside [0,1].

    Against the doubling map the metric has the closed form 3*delta:
    sup |value diff| = delta/2 and |slope diff| = delta on each branch
    (3/2 delta total), plus a branch-norm gap of 3/2 delta on the second
    branch; domains agree exactly.
    """
    d = Fraction(delta)
    return PiecewiseExpandingMap1D([
        Branch(0, HALF, 2 - d, d / 2, index=0),
        Branch(HALF, 1, 2 - d, -1 + d / 2, index=1),
    ])


class TestBranch:
    def test_affine_evaluation(self):
        br = Branch(0, HALF, 2, 0)
        assert br.value(Fraction(1, 3)) == Fraction(2, 3)
        assert br.derivative(0.2) == 2.0
        assert br.image() == (Fraction(0), Fraction(1))
        assert br.inverse(Fraction(1, 2)) == Fraction(1, 4)
        assert br.inverse(Fraction(3, 2)) is None
        assert br.is_affine

    def test_sinusoidal_bounds(self):
        br = Branch(0, HALF, 2, 0, rho=0.05)
        assert not br.is_affine
        assert br.min_expansion == pytest.approx(2 - 0.1 * math.pi)
        assert br.max_derivative == pytest.approx(2 + 0.1 * math.pi)
        assert br.d2_bound == pytest.approx(0.05 * 4 * math.pi ** 2)

    def test_sinusoidal_inverse_solves_branch_equation(self):
        br = Branch(0, HALF, 2, 0, rho=0.03)
        x = br.inverse(0.4)
        assert br.value(x) == pytest.approx(0.4, abs=1e-12)

    def test_rejects_empty_domain(self):
        with pytest.raises(ParameterError):
            Branch(HALF, HALF, 2, 0)

    def test_rejects_non_expanding_slope(self):
        with pytest.raises(ParameterError):
            Branch(0, HALF, 1, 0)

    def test_rejects_image_leaving_unit_interval(self):
        with pytest.raises(ParameterError):
            Branch(0, HALF, 3, 0)


class TestMaps:
    def test_doubling_structure(self):
        T = doubling_map()
        assert T.branch_count == 2
        assert T.is_affine
        assert T.min_expansion == 2.0
        assert T.apply(Fraction(3, 4)) == HALF
        assert T.branch_of(0.3).index == 0
        assert T.branch_of(0.7).index == 1

    def test_tripling_structure(self):
        T = tripling_map()
        assert T.branch_count == 3
        assert all(br.slope == 3 for br in T.branches)
        assert T.apply(Fraction(5, 6)) == HALF

    def test_perturbed_doubling_breakpoint(self):
        T = perturbed_doubling(Fraction(1, 4))
        assert T.branches[0].b == Fraction(4, 9)
        assert T.branches[0].slope == Fraction(9, 4)

    def test_full_branch_validation(self):
        with pytest.raises(ParameterError):
            full_branch_affine([0, HALF])          # does not end at 1
        with pytest.raises(ParameterError):
            full_branch_affine([0, HALF, HALF, 1])  # not increasing

    def test_rejects_domain_gap(self):
        with pytest.raises(ParameterError):
            PiecewiseExpandingMap1D([Branch(0, Fraction(2, 5), 2, 0),
                                     Branch(HALF, 1, 2, -1)])

    def test_rejects_domain_overlap(self):
        with pytest.raises(ParameterError):
            PiecewiseExpandingMap1D([Branch(0, Fraction(3, 5), Fraction(5, 3), 0),
                                     Branch(HALF, 1, 2, -1)])

    def test_sin_doubling_rho_cap(self):
        sin_doubling(0.1)
        with pytest.raises(ParameterError):
            sin_doubling(0.2)


class TestRandomLYSystem:
    def test_table_modes(self):
        maps = [doubling_map(), tripling_map()]
        sys_list = RandomLYSystem(FiniteCycle(2), maps)
        sys_dict = RandomLYSystem(FiniteCycle(2), {0: maps[0], 1: maps[1]})
        assert sys_list.map_at(0) is maps[0]
        assert sys_list.map_at(1) is maps[1]
        assert sys_dict.map_at(1) is maps[1]
        assert sys_list.min_expansion == 2.0
        assert sys_list.holder_bound == 3.0

    def test_parametrized_family(self):
        sysm = RandomLYSystem(FiniteCycle(1),
                              lambda s: perturbed_doubling(Fraction(1, 8)))
        assert sysm.map_at(0).branch_count == 2
        assert sysm.min_expansion is None


class TestUlamMatrix:
    def test_doubling_four_bins_exact_rows(self):
        op = ulam_matrix(doubling_map(), 4)
        assert op.exact
        expected = np.array([[0.5, 0.5, 0.0, 0.0],
                             [0.0, 0.0, 0.5, 0.5],
                             [0.5, 0.5, 0.0, 0.0],
                             [0.0, 0.0, 0.5, 0.5]])
        assert np.array_equal(op.matrix, expected)
        assert op.exact_rows[0] == {0: HALF, 1: HALF}
        assert op.exact_rows[3] == {2: HALF, 3: HALF}

    def test_tripling_three_bins_uniform(self):
        op = ulam_matrix(tripling_map(), 3)
        third = Fraction(1, 3)
        assert all(row == {0: third, 1: third, 2: third}
                   for row in op.exact_rows)

    def test_exact_row_sums_are_one(self):
        # including bin grids that do not align with the branch endpoints
        cases = [(doubling_map(), 32), (doubling_map(), 5),
                 (tripling_map(), 64), (perturbed_doubling(Fraction(1, 3)), 7),
                 (doubling_map(), 128)]
        for T, n in cases:
            op = ulam_matrix(T, n)
            assert op.exact
            assert all(s == 1 for s in op.exact_row_sums())
            assert np.allclose(op.row_sums(), 1.0, atol=1e-15)

    def test_uniform_density_invariant_for_doubling(self):
        op = ulam_matrix(doubling_map(), 32)
        ones = np.ones(32)
        assert np.array_equal(op.density_matrix() @ ones, ones)

    def test_leading_eigenvector_of_doubling_is_uniform(self):
        D = ulam_matrix(doubling_map(), 16).density_matrix()
        vals, vecs = np.linalg.eig(D)
        i = int(np.argmax(np.abs(vals)))
        assert vals[i] == pytest.approx(1.0, abs=1e-12)
        v = np.real(vecs[:, i])
        v /= v.sum() / 16
        assert np.allclose(v, 1.0, atol=1e-10)

    def test_sinusoidal_rows_quadrature(self):
        op = ulam_matrix(sin_doubling(0.04), 32)
        assert not op.exact
        assert op.exact_rows is None
        assert np.all(op.matrix >= 0)
        assert np.allclose(op.row_sums(), 1.0, atol=1e-10)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            ulam_matrix(doubling_map(), 1)


def _oracle_rows(T, n):
    """Ulam rows of an affine map by per-bin interval intersection in
    Fraction arithmetic, sharing no code with ``ulam_matrix``.

    Bin ranges use exact floor and ceil: a float bin range drops the
    slivers next to bin edges that breakpoints with large denominators
    leave (see ``test_no_sliver_lost_at_large_denominators``).
    """
    def bins(lo, hi):
        return max(math.floor(lo * n), 0), min(math.ceil(hi * n), n)

    rows = [dict() for _ in range(n)]
    for br in T.branches:
        for i in range(*bins(br.a, br.b)):
            lo = max(br.a, Fraction(i, n))
            hi = min(br.b, Fraction(i + 1, n))
            if hi <= lo:
                continue
            u, v = sorted((br.slope * lo + br.intercept,
                           br.slope * hi + br.intercept))
            for j in range(*bins(u, v)):
                ov = min(v, Fraction(j + 1, n)) - max(u, Fraction(j, n))
                if ov > 0:
                    rows[i][j] = rows[i].get(j, 0) + ov / abs(br.slope) * n
    return rows


def _random_affine_map(rng):
    """Three affine branches on rational breakpoints, each increasing or
    decreasing, with images of random length and position."""
    qs = sorted({Fraction(rng.randint(1, 96), 97),
                 Fraction(rng.randint(1, 60), 61)})
    pts = [Fraction(0)] + qs + [Fraction(1)]
    branches = []
    for a, b in zip(pts, pts[1:]):
        ell = (b - a) + (1 - (b - a)) * Fraction(rng.randint(1, 100), 100)
        lo = (1 - ell) * Fraction(rng.randint(0, 100), 100)
        s = ell / (b - a)
        if rng.random() < 0.5:
            branches.append(Branch(a, b, s, lo - s * a))
        else:
            branches.append(Branch(a, b, -s, lo + ell + s * a))
    return PiecewiseExpandingMap1D(branches)


def _sweep_panel():
    panel = [("doubling", doubling_map()), ("tripling", tripling_map()),
             ("3/10", full_branch_affine([0, Fraction(3, 10), 1])),
             ("2/5", full_branch_affine([0, Fraction(2, 5), 1])),
             ("tent", PiecewiseExpandingMap1D([
                 Branch(0, HALF, 2, 0), Branch(HALF, 1, -2, 2)])),
             ("decreasing-nonfull", PiecewiseExpandingMap1D([
                 Branch(0, Fraction(2, 5), -2, Fraction(9, 10)),
                 Branch(Fraction(2, 5), 1, Fraction(3, 2),
                        Fraction(-3, 5))]))]
    # golden-rotation states as floats: breakpoint denominators near 2^54
    for k in range(20):
        theta = (0.1 + k * 0.6180339887498949) % 1.0
        panel.append((f"continuum-{k}",
                      perturbed_doubling(Fraction(theta) / 2)))
    rng = random.Random(5)
    for k in range(10):
        panel.append((f"random-{k}", _random_affine_map(rng)))
    return panel


_PANEL = _sweep_panel()


class TestUlamSweepOracle:
    @pytest.mark.parametrize("T", [T for _, T in _PANEL],
                             ids=[name for name, _ in _PANEL])
    def test_matches_fraction_oracle(self, T):
        for n in (2, 3, 4, 7, 16, 64, 128, 257):
            rows = _oracle_rows(T, n)
            op = ulam_matrix(T, n)
            M = np.zeros((n, n))
            for i, row in enumerate(rows):
                for j, val in row.items():
                    M[i, j] = float(val)
            assert op.exact_rows == rows
            assert np.array_equal(op.matrix, M)
            assert np.array_equal(op.density_matrix(), M.T)

    def test_no_sliver_lost_at_large_denominators(self):
        # the breakpoint 1/(2 + 0.05) puts image endpoints within 1e-16 of
        # the bin edges 41/64 and 23/64; float rounding there used to drop
        # entries (19, 41) and (42, 23), 2.7e-17 each
        op = ulam_matrix(perturbed_doubling(Fraction(0.1) / 2), 64)
        assert all(s == 1 for s in op.exact_row_sums())
        assert 0 < op.matrix[19, 41] < 1e-16
        assert 0 < op.matrix[42, 23] < 1e-16

    def test_entries_share_one_denominator(self):
        op = ulam_matrix(perturbed_doubling(Fraction(1, 3)), 7)
        L, nums = op.entries
        assert all(isinstance(v, int) and v > 0 for v in nums.values())
        assert op.exact_rows[0] == {j: Fraction(v, L)
                                    for (i, j), v in nums.items() if i == 0}


class TestRandomUlamCocycle:
    def test_constant_system_matches_density_matrix(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        gen = random_ulam_cocycle(sysm, 16)
        assert gen.dim == 16
        assert np.array_equal(gen(0),
                              ulam_matrix(doubling_map(), 16).matrix.T)

    def test_matrices_cached_and_frozen(self):
        sysm = RandomLYSystem(BernoulliShift([0.5, 0.5]),
                              [doubling_map(), tripling_map()])
        gen = random_ulam_cocycle(sysm, 16)
        a, b = gen(0), gen(0)
        assert a is b
        assert not a.flags.writeable

    def test_cache_stays_within_byte_budget(self):
        n = 1024
        nbytes = 8 * n * n
        held = transfer._CACHE_BYTES // nbytes
        sysm = RandomLYSystem(
            FiniteCycle(1), lambda th: perturbed_doubling(Fraction(th) / 2))
        gen = random_ulam_cocycle(sysm, n)
        states = [(0.3 + k * 0.6180339887498949) % 1.0
                  for k in range(held + 3)]
        first = gen(states[0]).copy()
        refs = [weakref.ref(gen(s)) for s in states]
        gc.collect()
        alive = [r() is not None for r in refs]
        assert sum(alive) * nbytes <= transfer._CACHE_BYTES
        assert alive[-held:] == [True] * held
        assert gen(states[-1]) is refs[-1]()
        again = gen(states[0])       # evicted: assembled anew
        assert again is not first and np.array_equal(again, first)
        assert not again.flags.writeable

    def test_latest_matrix_kept_past_budget(self, monkeypatch):
        monkeypatch.setattr(transfer, "_CACHE_BYTES", 1)
        sysm = RandomLYSystem(FiniteCycle(2),
                              [doubling_map(), tripling_map()])
        gen = random_ulam_cocycle(sysm, 16)
        a = gen(0)
        assert gen(0) is a
        gen(1)
        b = gen(0)
        assert b is not a and np.array_equal(a, b)

    def test_two_state_cycle_alternates(self):
        sysm = RandomLYSystem(FiniteCycle(2),
                              [doubling_map(), tripling_map()])
        gen = random_ulam_cocycle(sysm, 12)
        D = ulam_matrix(doubling_map(), 12).matrix.T
        R = ulam_matrix(tripling_map(), 12).matrix.T
        assert np.array_equal(gen(0), D)
        assert np.array_equal(gen(1), R)

    def test_mixture_top_exponent_vanishes(self):
        # row-stochastic structure pins the top exponent at 0
        driver = BernoulliShift([0.5, 0.5])
        sysm = RandomLYSystem(driver, [doubling_map(), tripling_map()])
        gen = random_ulam_cocycle(sysm, 32)
        orbit = generate_orbit(driver, seed=11, n_past=400, n_future=400)
        spec = lyapunov_exponents(gen, orbit, 400)
        assert abs(spec.exponents[0]) <= 1e-6


class TestBuzziSwapCocycle:
    def test_block_structure(self):
        n = 8
        gen = buzzi_swap_cocycle(n)
        L = gen(0)
        assert gen.dim == 2 * n
        D = ulam_matrix(doubling_map(), n).matrix.T
        assert np.array_equal(L[:n, n:], D)
        assert np.array_equal(L[n:, :n], D)
        assert not L[:n, :n].any()
        assert not L[n:, n:].any()
        assert np.array_equal(L.sum(axis=0), np.ones(2 * n))

    def test_swap_eigenvectors(self):
        n = 8
        L = buzzi_swap_cocycle(n)(0)
        u = np.ones(n)
        plus = np.concatenate([u, u])
        minus = np.concatenate([u, -u])
        assert np.array_equal(L @ plus, plus)
        assert np.array_equal(L @ minus, -minus)

    def test_top_exponent_zero_with_multiplicity_two(self):
        gen = buzzi_swap_cocycle(8)
        orbit = _orbit(400)
        spec = lyapunov_exponents(gen, orbit, 400)
        assert spec.exponents[0] == pytest.approx(0.0, abs=1e-9)
        assert spec.multiplicities[0] == 2


class TestLyDistance:
    def test_identity(self):
        T = doubling_map()
        assert ly_distance(T, T) == 0.0

    def test_branch_count_mismatch(self):
        assert ly_distance(doubling_map(), tripling_map()) == 1.0

    def test_disjoint_matching_branch(self):
        S = full_branch_affine([0, Fraction(1, 10), Fraction(1, 5), 1])
        T = full_branch_affine([0, Fraction(1, 4), HALF, 1])
        # second branches (1/10, 1/5) and (1/4, 1/2) do not meet
        assert ly_distance(S, T) == 1.0

    def test_shear_closed_form(self):
        T = doubling_map()
        for d in (Fraction(1, 10), Fraction(1, 100)):
            got = ly_distance(_shear_doubling(d), T)
            assert got == pytest.approx(3 * float(d), rel=1e-9)

    def test_symmetry(self):
        S = _shear_doubling(Fraction(1, 10))
        T = doubling_map()
        assert ly_distance(S, T) == pytest.approx(ly_distance(T, S), rel=1e-12)

    def test_breakpoint_perturbation_trend(self):
        T = doubling_map()
        ds = [ly_distance(perturbed_doubling(Fraction(1, 2 ** k)), T)
              for k in (2, 4, 6)]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 0.05


class TestComplexityCounters:
    def test_single_doubling(self):
        assert complexity_counters([doubling_map()]) == (2, 2)

    def test_doubling_squared(self):
        assert complexity_counters([doubling_map()] * 2) == (2, 4)

    def test_mixed_composition(self):
        assert complexity_counters([doubling_map(), tripling_map()]) == (2, 6)

    def test_boundary_multiplicity_always_two(self):
        compositions = [
            [tripling_map()],
            [perturbed_doubling(Fraction(1, 5))],
            [sin_doubling(0.03)],
            [doubling_map(), perturbed_doubling(Fraction(1, 7)),
             tripling_map()],
        ]
        for maps in compositions:
            C_b, _ = complexity_counters(maps)
            assert C_b == 2

    def test_empty_composition(self):
        with pytest.raises(ParameterError):
            complexity_counters([])


class TestPiecewisePolynomial:
    def test_constant_and_ramp(self):
        c = PiecewisePolynomial.constant(Fraction(2, 3))
        r = PiecewisePolynomial.ramp()
        assert c(Fraction(1, 7)) == Fraction(2, 3)
        assert r(Fraction(3, 8)) == Fraction(3, 8)
        assert c.integral() == Fraction(2, 3)
        assert r.integral() == HALF

    def test_piece_lookup_and_horner(self):
        f = PiecewisePolynomial([0, HALF, 1],
                                [[1, 2], [0, 0, 4]])
        assert f.piece_index(Fraction(1, 4)) == 0
        assert f.piece_index(HALF) == 1
        assert f(Fraction(1, 4)) == Fraction(3, 2)
        assert f(Fraction(3, 4)) == Fraction(9, 4)

    def test_sample_midpoints(self):
        r = PiecewisePolynomial.ramp()
        assert np.array_equal(r.sample_midpoints(4),
                              np.array([0.125, 0.375, 0.625, 0.875]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            PiecewisePolynomial([0, 1], [[1], [2]])
        with pytest.raises(ParameterError):
            PiecewisePolynomial([0, HALF, HALF, 1], [[1], [2], [3]])


class TestTransferApplyExact:
    def test_doubling_preserves_constants(self):
        g = transfer_apply_exact(doubling_map(), PiecewisePolynomial.constant(1))
        for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
            assert g(x) == 1
        assert g.integral() == 1

    def test_doubling_ramp_closed_form(self):
        # (1/2)[f(x/2) + f((x+1)/2)] with f(x) = x gives x/2 + 1/4
        g = transfer_apply_exact(doubling_map(), PiecewisePolynomial.ramp())
        for x in (Fraction(0), Fraction(1, 3), Fraction(4, 5), Fraction(1)):
            assert g(x) == x / 2 + Fraction(1, 4)

    def test_tripling_preserves_constants(self):
        g = transfer_apply_exact(tripling_map(), PiecewisePolynomial.constant(3))
        assert g(Fraction(1, 7)) == 3
        assert g.integral() == 3

    def test_breakpoint_images_recorded(self):
        f = PiecewisePolynomial([0, Fraction(1, 3), 1], [[1], [2]])
        g = transfer_apply_exact(doubling_map(), f)
        assert Fraction(2, 3) in g.breakpoints

    def test_mass_conserved_exactly(self):
        rng = np.random.default_rng(5)
        maps = [doubling_map(), tripling_map(),
                perturbed_doubling(Fraction(1, 5))]
        for _ in range(3):
            coeffs = [[Fraction(int(rng.integers(-5, 6)),
                                int(rng.integers(1, 7)))
                       for _ in range(3)] for _ in range(3)]
            f = PiecewisePolynomial([0, Fraction(1, 3), Fraction(3, 4), 1],
                                    coeffs)
            for T in maps:
                assert transfer_apply_exact(T, f).integral() == f.integral()

    def test_rejects_non_affine(self):
        with pytest.raises(UnsupportedFormError):
            transfer_apply_exact(sin_doubling(0.05),
                                 PiecewisePolynomial.constant(1))


class TestLyBoundB:
    def test_doubling_one_step(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        got = ly_bound_B(sysm, _orbit(), 1, p=2.0, t=0.25)
        assert got == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_tripling_one_step(self):
        sysm = RandomLYSystem(FiniteCycle(1), [tripling_map()])
        got = ly_bound_B(sysm, _orbit(), 1, p=2.0, t=0.25)
        assert got == pytest.approx(3 ** 0.5 * 2 ** 0.5 * 3 ** -0.75,
                                    rel=1e-12)

    def test_doubling_two_steps(self):
        # 2 * 2^(1/2) * 4^(1/2) * 4^(-3/4) = 2
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        got = ly_bound_B(sysm, _orbit(), 2, p=2.0, t=0.25)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_scaling_knob(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        assert ly_bound_B(sysm, _orbit(), 1, p=2.0, t=0.25, C_R=0.0) == 0.0

    def test_parameter_validation(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        with pytest.raises(ParameterError):
            ly_bound_B(sysm, _orbit(), 1, p=1.0, t=0.25)
        with pytest.raises(ParameterError):
            ly_bound_B(sysm, _orbit(), 1, p=2.0, t=0.6)
        with pytest.raises(ParameterError):
            ly_bound_B(sysm, _orbit(), 0, p=2.0, t=0.25)


class TestKappaStarBound:
    def test_doubling_certificate_exact(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        for n in (1, 2, 4):
            kb = kappa_star_bound(sysm, _orbit(), n, p=2.0, t=0.25)
            assert kb.bound == -0.25 * math.log(2)
            assert kb.certified
            assert kb.log_chi == pytest.approx(-math.log(2), rel=1e-12)

    def test_tripling_certificate(self):
        sysm = RandomLYSystem(FiniteCycle(1), [tripling_map()])
        kb = kappa_star_bound(sysm, _orbit(), 1, p=2.0, t=0.25)
        assert kb.bound == pytest.approx(-0.25 * math.log(3), rel=1e-12)
        assert kb.certified
        assert kb.log_Ce_star == pytest.approx(math.log(3), rel=1e-12)

    def test_crowded_branches_fail_certificate(self):
        # three branches whose images pile up faster than the weakest
        # expansion can pay for: the bound turns positive
        crowded = full_branch_affine([0, Fraction(49, 100),
                                      Fraction(51, 100), 1])
        sysm = RandomLYSystem(FiniteCycle(1), [crowded])
        kb = kappa_star_bound(sysm, _orbit(), 1, p=2.0, t=0.25)
        assert kb.bound > 0
        assert not kb.certified
        assert kb.log_Ce_star == pytest.approx(math.log(3), rel=1e-12)
        assert kb.log_chi == pytest.approx(-math.log(100 / 49), rel=1e-12)

    def test_bound_vanishes_with_t(self):
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        for t in (1e-2, 1e-4, 1e-6):
            kb = kappa_star_bound(sysm, _orbit(), 1, p=2.0, t=t)
            assert kb.bound == pytest.approx(-t * math.log(2), rel=1e-12)

    def test_to_dict_round_trip(self):
        import json
        sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        kb = kappa_star_bound(sysm, _orbit(), 2, p=2.0, t=0.25)
        d = json.loads(json.dumps(kb.to_dict()))
        assert d["certified"] is True
        assert d["n"] == 2


@pytest.mark.parametrize("bound", [
    lambda sysm: ly_bound_B(sysm, _orbit(), 3, p=2.0, t=0.25),
    lambda sysm: kappa_star_bound(sysm, _orbit(), 3, p=2.0, t=0.25),
], ids=["ly_bound_B", "kappa_star_bound"])
def test_one_partition_per_bound(bound, monkeypatch):
    # C_b, C_e and the smallest slope come from one composition partition
    calls = []
    pieces = transfer._composition_pieces

    def counted(maps):
        calls.append(len(maps))
        return pieces(maps)

    monkeypatch.setattr(transfer, "_composition_pieces", counted)
    bound(RandomLYSystem(FiniteCycle(1), [doubling_map()]))
    assert calls == [3]


class TestDiscreteSobolevNorm:
    def test_t_zero_is_lp_norm(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=64)
        for p in (2.0, 3.0):
            assert discrete_sobolev_norm(f, 0.0, p) == pytest.approx(
                (np.abs(f) ** p).mean() ** (1 / p), rel=1e-12)

    def test_zero_function(self):
        assert discrete_sobolev_norm(np.zeros(32), 0.5, 2.0) == 0.0

    def test_constant_one(self):
        for t in (0.0, 0.25, 0.7):
            for p in (2.0, 3.0):
                got = discrete_sobolev_norm(np.ones(64), t, p)
                assert got == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_smoothness_order(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=128)
        vals = [discrete_sobolev_norm(f, t, 2.0)
                for t in (0.0, 0.1, 0.25, 0.4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_grid_midpoints(self):
        assert np.array_equal(grid_midpoints(4),
                              np.array([0.125, 0.375, 0.625, 0.875]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            discrete_sobolev_norm(np.ones(6), 0.25, 2.0)
        with pytest.raises(ParameterError):
            discrete_sobolev_norm(np.ones(1), 0.25, 2.0)
        with pytest.raises(ParameterError):
            discrete_sobolev_norm(np.ones(8), 0.25, 1.0)
        with pytest.raises(ParameterError):
            discrete_sobolev_norm(np.ones(8), -0.1, 2.0)


class TestIndicatorMultiplication:
    # cutting a function to an interval is bounded on the discrete norm,
    # with one constant covering every dyadic interval

    def test_ratio_bounded_over_random_pairs(self):
        n, p, t = 256, 2.0, 0.25
        cap = 1.5   # measured max over this seed: 0.90
        xs = grid_midpoints(n)
        rng = np.random.default_rng(7)
        worst_by_scale = {}
        for _ in range(200):
            coef = rng.normal(size=9)
            f = np.zeros(n)
            for m, c in enumerate(coef):
                f += c * np.cos(2 * math.pi * m * xs
                                + rng.uniform(0, 2 * math.pi))
            k = int(rng.integers(1, 7))
            j = int(rng.integers(0, 2 ** k))
            ind = ((xs >= j / 2 ** k) & (xs < (j + 1) / 2 ** k)).astype(float)
            ratio = discrete_sobolev_norm(f * ind, t, p) / \
                discrete_sobolev_norm(f, t, p)
            worst_by_scale[k] = max(worst_by_scale.get(k, 0.0), ratio)
        assert len(worst_by_scale) == 6
        assert all(v < cap for v in worst_by_scale.values())

    def test_small_support_vanishes(self):
        n, p, t = 256, 2.0, 0.25
        xs = grid_midpoints(n)
        f = 1.0 + 0.3 * np.sin(2 * math.pi * xs) \
            + 0.2 * np.cos(4 * math.pi * xs)
        vals = []
        for k in range(1, 7):
            half = 2.0 ** (-k - 1)
            ind = ((xs >= 0.5 - half) & (xs < 0.5 + half)).astype(float)
            vals.append(discrete_sobolev_norm(f * ind, t, p))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5 * vals[0]


class TestContinuityProbe:
    def test_exact_probe_at_base_point(self):
        out = continuity_probe(doubling_map(), [doubling_map()],
                               PiecewisePolynomial.ramp(), p=2.0, t=0.25)
        assert out == [(0.0, 0.0)]

    def test_breakpoint_ladder_norms_shrink(self):
        perts = [perturbed_doubling(Fraction(1, 2 ** k)) for k in (2, 4, 6)]
        out = continuity_probe(doubling_map(), perts,
                               PiecewisePolynomial.ramp(), p=2.0, t=0.25)
        dists = [d for d, _ in out]
        norms = [v for _, v in out]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0] / 50

    def test_branch_count_negative_control(self):
        out = continuity_probe(doubling_map(), [tripling_map()],
                               PiecewisePolynomial.ramp(), p=2.0, t=0.25)
        (dist, norm), = out
        assert dist == 1.0
        assert norm > 0.03

    def test_validation(self):
        with pytest.raises(ParameterError):
            continuity_probe(doubling_map(), [], np.ones(64), p=2.0, t=0.25)
