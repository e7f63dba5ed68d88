"""End-to-end acceptance suite.

One test per headline guarantee; each prints a single PASS/FAIL line with
the measured value and runtime against the budget, then asserts both.
"""

import math
import time
from fractions import Fraction

import numpy as np

import geometry_batteries as gb
from oseledets.base import (BernoulliShift, FiniteCycle, birkhoff_average,
                            generate_orbit)
from oseledets.cocycle import CocycleGenerator
from oseledets.grassmann import Subspace, grassmann_distance
from oseledets.spectrum import hennion_kappa_bound, lyapunov_exponents
from oseledets.splitting import compute_splitting, temperedness_test
from oseledets.transfer import (PiecewisePolynomial, RandomLYSystem,
                                buzzi_swap_cocycle, continuity_probe,
                                doubling_map, full_branch_affine,
                                kappa_star_bound, perturbed_doubling,
                                random_ulam_cocycle, sin_doubling,
                                transfer_apply_exact, tripling_map,
                                ulam_matrix)


def _finish(capsys, num, label, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {num:2d}. {label}: {detail} "
              f"[{elapsed:.2f}s / {budget:g}s]")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label} ran {elapsed:.2f}s, budget {budget}s"


def test_01_constant_triangular_splitting(capsys):
    t0 = time.perf_counter()
    A = np.array([[2.0, 1.0], [0.0, 0.5]])
    gen = CocycleGenerator.constant(A)
    orbit = generate_orbit(FiniteCycle(1), seed=0, n_past=70, n_future=2100)
    spec = lyapunov_exponents(gen, orbit, 2000)
    err_exp = max(abs(spec.exponents[0] - math.log(2)),
                  abs(spec.exponents[1] + math.log(2)))
    res = compute_splitting(gen, orbit, spec, n_max=64, tol=1e-8)
    d1 = grassmann_distance(res.spaces[0],
                            Subspace(np.array([[1.0], [0.0]])))
    d2 = grassmann_distance(res.spaces[1],
                            Subspace(np.array([[2.0], [-3.0]])))
    elapsed = time.perf_counter() - t0
    ok = err_exp <= 1e-8 and d1 <= 1e-8 and d2 <= 1e-8
    _finish(capsys, 1, "constant triangular exponents and eigen-splitting",
            ok, elapsed, 1.0,
            f"exp_err={err_exp:.1e} d(Y1)={d1:.1e} d(Y2)={d2:.1e}")


def test_02_period2_noninvertible_fast_space(capsys):
    t0 = time.perf_counter()
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    B = np.array([[1.0, 0.0], [1.0, 0.0]])
    gen = CocycleGenerator.from_table([A, B])
    orbit = generate_orbit(FiniteCycle(2), seed=0, n_past=70, n_future=140)
    spec = lyapunov_exponents(gen, orbit, 120)
    worst = 0.0
    for offset, period_product in ((0, B @ A), (1, A @ B)):
        res = compute_splitting(gen, orbit, spec, n_max=64, tol=1e-8,
                                offset=offset, levels=1)
        w, V = np.linalg.eig(period_product)
        top = np.real(V[:, np.argmax(np.abs(w))]).reshape(2, 1)
        worst = max(worst, grassmann_distance(res.spaces[0], Subspace(top)))
    elapsed = time.perf_counter() - t0
    _finish(capsys, 2, "period-2 singular pair recovers product eigenvector",
            worst <= 1e-6, elapsed, 1.0, f"max_dist={worst:.1e}")


def test_03_ulam_top_exponent_zero_across_resolutions(capsys):
    t0 = time.perf_counter()
    systems = [
        (FiniteCycle(1), [doubling_map()]),
        (FiniteCycle(1), [tripling_map()]),
        (FiniteCycle(1), [perturbed_doubling(Fraction(1, 5))]),
        (FiniteCycle(1), [sin_doubling(0.03)]),
        (BernoulliShift([0.5, 0.5]), [doubling_map(), tripling_map()]),
    ]
    worst = 0.0
    for driver, maps in systems:
        sysm = RandomLYSystem(driver, maps)
        for n_bins in (32, 64, 128):
            gen = random_ulam_cocycle(sysm, n_bins)
            orbit = generate_orbit(driver, seed=3, n_past=0, n_future=260)
            spec = lyapunov_exponents(gen, orbit, 256, norm="l1")
            worst = max(worst, abs(spec.exponents[0]))
    elapsed = time.perf_counter() - t0
    _finish(capsys, 3, "Ulam cocycles report top exponent 0 at 32/64/128",
            worst <= 1e-6, elapsed, 30.0,
            f"max|lambda_1|={worst:.1e} over 15 runs")


def test_04_two_interval_swap_multiplicity_two(capsys):
    t0 = time.perf_counter()
    n = 128
    gen = buzzi_swap_cocycle(n)
    orbit = generate_orbit(FiniteCycle(1), seed=0, n_past=64, n_future=500)
    spec = lyapunov_exponents(gen, orbit, 400)
    top_zero = abs(spec.exponents[0]) <= 1e-9
    mult_two = spec.multiplicities[0] == 2
    res = compute_splitting(gen, orbit, spec, n_max=32, tol=1e-6, levels=1)
    target = Subspace(np.stack(
        [np.ones(2 * n), np.concatenate([np.ones(n), -np.ones(n)])], axis=1))
    dist = grassmann_distance(res.spaces[0], target)
    elapsed = time.perf_counter() - t0
    ok = top_zero and mult_two and dist <= 1e-3
    _finish(capsys, 4, "doubling-and-swap top space has multiplicity 2",
            ok, elapsed, 120.0,
            f"lambda_1={spec.exponents[0]:.1e} "
            f"mult={spec.multiplicities[0]} d(Y1)={dist:.1e}")


def test_05_mixture_cauchy_rate_matches_gap(capsys):
    t0 = time.perf_counter()
    driver = BernoulliShift([0.5, 0.5])
    maps = [full_branch_affine([0, Fraction(3, 10), 1]),
            full_branch_affine([0, Fraction(2, 5), 1])]
    sysm = RandomLYSystem(driver, maps)
    gen = random_ulam_cocycle(sysm, 32)
    orbit = generate_orbit(driver, seed=7, n_past=257, n_future=802)
    spec = lyapunov_exponents(gen, orbit, 800, norm="l1")
    gap = spec.exponents[0] - spec.exponents[1]
    res = compute_splitting(gen, orbit, spec, n_max=256, tol=1e-6,
                            norm="l1", levels=2)
    rep = res.convergence[0]
    in_window = rep.ns[0] >= 8 and rep.ns[-1] <= 256
    elapsed = time.perf_counter() - t0
    ok = gap >= 0.2 and in_window and rep.alpha_fit >= gap - 0.1
    _finish(capsys, 5, "mixture pullback Cauchy rate tracks the gap",
            ok, elapsed, 120.0,
            f"gap={gap:.3f} alpha_fit={rep.alpha_fit:.3f} "
            f"n in [{rep.ns[0]}, {rep.ns[-1]}]")


def test_06_doubling_quasi_compactness_certificate(capsys):
    t0 = time.perf_counter()
    sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
    orbit = generate_orbit(FiniteCycle(1), seed=0, n_past=8, n_future=8)
    expected = -0.25 * math.log(2)
    ok = True
    for n in (1, 2, 4):
        kb = kappa_star_bound(sysm, orbit, n, p=2.0, t=0.25)
        ok = ok and kb.bound == expected and kb.certified
    elapsed = time.perf_counter() - t0
    _finish(capsys, 6, "doubling kappa* bound is exactly -log(2)/4",
            ok, elapsed, 1.0, f"bound={expected!r} certified")


def test_07_subspace_geometry_batteries(capsys):
    t0 = time.perf_counter()
    results = gb.run_all(norms=("l1", "l2", "linf"), n_instances=500, seed=0)
    failures = sum(r["failures"] for r in results)
    total = sum(r["n"] for r in results)
    elapsed = time.perf_counter() - t0
    _finish(capsys, 7, "subspace-metric batteries at 500 instances per norm",
            failures == 0 and total == 500 * len(results), elapsed, 60.0,
            f"{total} instances, {failures} failures")


def test_08_temperedness_reversal_and_hennion_average(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    n_max = 64
    mismatches = 0
    slope_err = 0.0
    for i in range(100):
        base = np.exp(rng.uniform(-1.0, 1.0, size=2 * n_max + 1))
        kind = i % 4
        rate = float(rng.uniform(0.1, 0.6))
        power = float(rng.uniform(0.5, 2.0))

        def series(k, base=base, kind=kind, rate=rate, power=power):
            v = base[k + n_max]
            if kind == 1:
                v *= math.exp(rate * abs(k))
            elif kind == 2:
                v *= math.exp(rate * max(k, 0))
            elif kind == 3:
                v *= (1.0 + abs(k)) ** power
            return v

        fwd = temperedness_test(series, n_max)
        bwd = temperedness_test(lambda k: series(-k), n_max)
        if fwd.verdict != bwd.verdict:
            mismatches += 1
        slope_err = max(slope_err,
                        abs(fwd.forward_slope - bwd.backward_slope),
                        abs(fwd.backward_slope - bwd.forward_slope))

    # Birkhoff average of log B reproduces the averaged bound on cycles
    hennion_err = 0.0
    for period, maps in ((2, [doubling_map(), tripling_map()]),
                         (3, [doubling_map(),
                              full_branch_affine([0, Fraction(3, 10), 1]),
                              tripling_map()])):
        from oseledets.transfer import ly_bound_B
        one_step = generate_orbit(FiniteCycle(1), seed=0, n_past=2,
                                  n_future=2)
        b_table = [ly_bound_B(RandomLYSystem(FiniteCycle(1), [m]),
                              one_step, 1, p=2.0, t=0.25) for m in maps]
        orbit = generate_orbit(FiniteCycle(period), seed=0, n_past=0,
                               n_future=70)
        kappa = hennion_kappa_bound(lambda k: b_table[orbit.state(k)], 60)
        avg = birkhoff_average(orbit, lambda s: math.log(b_table[s]), 60)
        hennion_err = max(hennion_err, abs(kappa - avg))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and slope_err <= 1e-9 and hennion_err <= 1e-9
    _finish(capsys, 8, "temperedness is reversal-stable; Hennion bound "
            "averages log B", ok, elapsed, 30.0,
            f"mismatches={mismatches} slope_err={slope_err:.1e} "
            f"hennion_err={hennion_err:.1e}")


def test_09_transfer_continuity_probe_vanishes(capsys):
    t0 = time.perf_counter()
    perts = [perturbed_doubling(Fraction(1, 2 ** k)) for k in range(1, 11)]
    pairs = continuity_probe(doubling_map(), perts,
                             PiecewisePolynomial.ramp(), p=2.0, t=0.5,
                             n_grid=256)
    norms = [nrm for _, nrm in pairs]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    vanished = norms[-1] < 1e-3 * norms[0]
    elapsed = time.perf_counter() - t0
    _finish(capsys, 9, "transfer image error vanishes along dyadic "
            "perturbations", decreasing and vanished, elapsed, 30.0,
            f"first={norms[0]:.2e} last={norms[-1]:.2e} "
            f"ratio={norms[-1] / norms[0]:.1e}")


def test_10_exact_rational_mass_accounting(capsys):
    t0 = time.perf_counter()
    stochastic = True
    for T, n_bins in ((doubling_map(), 4), (doubling_map(), 32),
                      (doubling_map(), 128), (tripling_map(), 3),
                      (tripling_map(), 27),
                      (perturbed_doubling(Fraction(1, 3)), 7)):
        op = ulam_matrix(T, n_bins)
        stochastic = stochastic and op.exact \
            and all(s == 1 for s in op.exact_row_sums())
    f = PiecewisePolynomial([0, Fraction(1, 3), 1],
                            [[Fraction(1, 2), 2], [Fraction(5, 7)]])
    conserved = all(
        transfer_apply_exact(T, g).integral() == g.integral()
        for T in (doubling_map(), tripling_map())
        for g in (PiecewisePolynomial.ramp(), f))
    elapsed = time.perf_counter() - t0
    _finish(capsys, 10, "rational Ulam rows and transfer images conserve "
            "mass exactly", stochastic and conserved, elapsed, 1.0,
            "all row sums == 1, all integrals preserved")
