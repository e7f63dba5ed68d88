"""Lyapunov spectrum estimation, filtrations, growth rates, kappa bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oseledets.base import (
    BernoulliShift,
    FiniteCycle,
    IrrationalRotation,
    ParameterError,
    birkhoff_average,
    generate_orbit,
    shift_view,
)
from oseledets import transfer
from oseledets.cocycle import (CocycleGenerator, _QRStepper, forward_product,
                               scaled_forward_product)
from oseledets.grassmann import Subspace, grassmann_distance, one_sided_hausdorff
from oseledets.splitting import pushforward_space
from oseledets.spectrum import (
    FiltrationAt,
    filtration_at,
    growth_rate,
    hennion_kappa_bound,
    lyapunov_exponents,
)
from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                perturbed_doubling, random_ulam_cocycle)


def _cycle_orbit(period=2, n=2000):
    return generate_orbit(FiniteCycle(period), seed=0, n_past=n, n_future=n)


def _ref_flag(filt):
    """V_1 > V_2 > ... of a FiltrationAt as d x (d - c_j) Subspaces, the
    frame completed to an orthonormal basis of R^d by a complete QR: the
    d x d reference that co-frame results are checked against."""
    d, w = filt.frame.shape
    Q = filt.frame
    if w < d:
        Q, _ = np.linalg.qr(Q, mode="complete")
    return [Subspace(np.eye(d), filt.norm)] + [
        Subspace(Q[:, c:].copy(), filt.norm) for c in filt.cuts[1:]]


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


def _mixture(n_bins, seed=7, n=400, scale=1.0):
    """The 3/10, 2/5 full-branch affine Bernoulli mixture at n_bins."""
    driver = BernoulliShift([0.5, 0.5])
    system = RandomLYSystem(driver, [full_branch_affine([0, q, 1])
                                     for q in (Fraction(3, 10),
                                               Fraction(2, 5))])
    gen = random_ulam_cocycle(system, n_bins)
    if scale != 1.0:
        gen = CocycleGenerator.from_table([scale * gen(0), scale * gen(1)])
    return gen, generate_orbit(driver, seed, 0, n + 1)


def _signed_table():
    rng = np.random.default_rng(3)
    gen = CocycleGenerator.from_table(
        [rng.standard_normal((5, 5)) for _ in range(3)])
    driver = BernoulliShift([0.5, 0.25, 0.25])
    return gen, generate_orbit(driver, 11, 0, 401)


def _rank_one_pair():
    gen = CocycleGenerator.from_table([[[1.0, 1.0], [0.0, 0.0]],
                                       [[1.0, 0.0], [1.0, 0.0]]])
    return gen, _cycle_orbit()


def _per_step_diags(gen, orbit, stop, start=0, Q=None):
    """|diag R| of each step of a per-step np.linalg.qr loop over offsets
    start..stop-1, and the frame after it; Q is the frame at start (the
    identity at 0)."""
    Q = np.eye(gen.dim) if Q is None else Q
    diags = []
    for k in range(start, stop):
        Q, R = np.linalg.qr(gen.matrix_at(orbit, k) @ Q)
        diags.append(np.abs(np.diag(R)))
    return diags, Q


def _reference_qr_pass(gen, orbit, n_eff, n_half, diags=None):
    """The QR pass as a per-step np.linalg.qr loop: raw windowed slopes and
    the history, with the same dead-column rule.  ``diags`` are the loop's
    per-step |diag R| when already known (at least n_eff of them)."""
    if diags is None:
        diags, _ = _per_step_diags(gen, orbit, n_eff)
    d = gen.dim
    S, S_half = np.zeros(d), None
    dead = np.zeros(d, dtype=bool)
    stride = max(1, n_eff // 64)
    hist_n, hist_vals = [], []
    for k, diag in enumerate(diags[:n_eff], start=1):
        with np.errstate(divide="ignore"):
            S = S + np.log(diag)
        if k > n_half:
            dead |= diag <= 1e-8 * max(float(diag.max()), 1e-300)
        if k == n_half:
            S_half = S.copy()
        if k % stride == 0 or k == n_eff:
            hist_n.append(k)
            hist_vals.append(S / k)
    with np.errstate(invalid="ignore"):
        raw = (S - S_half) / (n_eff - n_half)
    return np.where(np.isnan(raw) | dead, -math.inf, raw), hist_n, hist_vals


def _reference_slope(gen, orbit, spec, norm):
    """Windowed slope of log ||P_k|| from the ScaledMatrix product."""
    n_half = spec.n_used - spec.window
    full = scaled_forward_product(gen, orbit, 0, spec.n_used).log_norm(norm)
    half = scaled_forward_product(gen, orbit, 0, n_half).log_norm(norm)
    return (full - half) / spec.window


def _constant(A):
    return CocycleGenerator.constant(A), _cycle_orbit()


def _spy_steps(monkeypatch, shapes=None):
    """Counts _QRStepper.step calls (one per QR factorization) and
    _QRStepper.product calls (one per step chained into a block); adds the
    shape of each product A @ Q to the set ``shapes`` if one is given."""
    calls = {"step": 0, "product": 0}

    def spy(name):
        method = getattr(_QRStepper, name)

        def counted(self, A, Q):
            calls[name] += 1
            if shapes is not None:
                shapes.add((A.shape[0], Q.shape[1]))
            return method(self, A, Q)
        monkeypatch.setattr(_QRStepper, name, counted)

    spy("step")
    spy("product")
    return calls


class TestSteppedSpectra:
    """The blocked QR pass against a per-step np.linalg.qr loop.

    No block spans a history point, so none forms while n_eff < 128 (a
    history point every step), and zero or noise-level pivots keep the
    block length at one on rank-deficient cocycles: there the pass is the
    per-step loop bit for bit.  Where blocks form, the raw exponents agree
    to 1e-10.  The 32-bin mixture's deep cluster is rounding-sensitive in
    the per-step loop itself (a 1e-15 change of the start frame moves its
    raw exponents by 1e-2), so only its top two levels are compared.
    """

    # build, n, norm, and how the result must match the reference
    CASES = {
        "mixture-32": (lambda: _mixture(32), 200, "l1", "top-two"),
        "mixture-128": (lambda: _mixture(128), 100, "l1", "bitwise"),
        "mixture-256": (lambda: _mixture(256), 40, "l1", "bitwise"),
        "rank-one-pair": (_rank_one_pair, 200, "l2", "bitwise"),
        "noninvertible": (lambda: _constant([[1.0, 0.0], [0.0, 0.0]]), 200,
                          "l2", "bitwise"),
        "signed-5x5": (_signed_table, 300, "l2", "close"),
        "period-2": (lambda: (_period2_pair()[0], _cycle_orbit()), 600, "l2",
                     "close"),
        "mixture-128-n400": (lambda: _mixture(128, n=400), 400, "l1", "close"),
        "mixture-128-n800": (lambda: _mixture(128, n=800), 800, "l1", "close"),
        "mixture-256-n400": (lambda: _mixture(256, n=400), 400, "l1", "close"),
        "mixture-256-n800": (lambda: _mixture(256, n=800), 800, "l1", "close"),
        # a tight pair (gap 0.017) deep in the wide level
        "mixture-256-seed3": (lambda: _mixture(256, seed=3), 400, "l1",
                              "close"),
    }

    @staticmethod
    def _levels(raw, spec):
        """Exponents and multiplicities the clustering gives for raw."""
        finite = np.sort(raw)[::-1]
        finite = finite[finite > spec.floor]
        cuts = np.flatnonzero(-np.diff(finite) > spec.gap_threshold) + 1
        bounds = np.r_[0, cuts, finite.size]
        return ([float(np.mean(finite[a:b])) for a, b in zip(bounds, bounds[1:])],
                np.diff(bounds).tolist(), raw.size - finite.size)

    @pytest.fixture(scope="class")
    def mixture_steps(self):
        """Per-step reference loops of the _mixture cases by (bins, seed).
        _mixture draws state k from the seed and k alone, so the loop of a
        shorter case is a prefix of a longer one's: each loop is run once,
        extended when a case needs more steps."""
        return {}

    def _reference(self, gen, orbit, spec, mixture_steps):
        n_eff = spec.n_used
        diags = None
        if gen.name.startswith("ulam"):       # only _mixture builds these
            diags, Q = mixture_steps.get((gen.name, orbit.seed), ([], None))
            if len(diags) < n_eff:
                more, Q = _per_step_diags(gen, orbit, n_eff, len(diags), Q)
                diags = diags + more
                mixture_steps[gen.name, orbit.seed] = (diags, Q)
        return _reference_qr_pass(gen, orbit, n_eff, n_eff - spec.window,
                                  diags)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_numpy_qr_loop(self, case, mixture_steps):
        build, n, norm, match = self.CASES[case]
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, n, norm=norm)
        raw, hist_n, hist_vals = self._reference(gen, orbit, spec,
                                                 mixture_steps)
        exps, mult, n_inf = self._levels(raw, spec)
        assert spec.convergence_history[0] == hist_n
        hist = spec.convergence_history[1]
        assert len(hist) == len(hist_vals)
        if match == "bitwise":
            assert np.array_equal(spec.raw_exponents, raw)
            assert all(np.array_equal(a, b) for a, b in
                       zip(hist, hist_vals, strict=True))
        elif match == "close":
            assert np.array_equal(np.isfinite(spec.raw_exponents),
                                  np.isfinite(raw))
            fin = np.isfinite(raw)
            assert np.abs(spec.raw_exponents[fin] - raw[fin]).max() <= 1e-10
            assert np.allclose(hist, hist_vals, rtol=0, atol=1e-10)
        else:
            top = np.sort(raw)[::-1][:2]
            assert np.abs(np.sort(spec.raw_exponents)[::-1][:2] - top).max() \
                <= 1e-10
            assert spec.multiplicities[:2] == mult[:2] == [1, 1]
            assert spec.exponents[1] == pytest.approx(exps[1], abs=1e-10)
            return
        assert spec.multiplicities == mult
        assert spec.n_infinite == n_inf
        assert spec.exponents[1:] == pytest.approx(exps[1:], abs=1e-10)
        if case in ("rank-one-pair", "noninvertible"):
            assert spec.n_infinite == 1

    def test_blocks_cut_factorizations(self, monkeypatch):
        # the 256-bin mixture's pivots spread by 1.7-2.6 in log per step, so
        # two blocks per history stride of 6 steps replace most steps
        gen, orbit = _mixture(256, n=400)
        calls = _spy_steps(monkeypatch)
        spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
        assert spec.n_used == 400
        assert calls["step"] <= 134

    @pytest.mark.parametrize("table, period, n, redone", [
        ([1e60 * np.eye(3)], 1, 200, False),
        ([1e-200 * np.eye(3)], 1, 200, False),
        ([np.diag([1.0, 1e-6, 1e-12])], 1, 200, False),
        ([1e60 * np.eye(3), np.eye(3)], 2, 200, True),
        ([1e-200 * np.eye(3), np.eye(3)], 2, 200, True),
        ([[[1e60]], [[1.0]]], 2, 2000, True),
    ], ids=["overflow", "underflow", "graded", "overflow-switch",
            "underflow-switch", "overflow-switch-1x1"])
    def test_redo_keeps_per_step_result(self, table, period, n, redone,
                                        monkeypatch):
        # a constant 1e60 I or 1e-200 I leaves the rescaling range within
        # two steps and the graded diagonal spreads its pivots by 27.6 in
        # log per step, so no block forms on them.  Alternated with I, a
        # block of 1e-200 I and I leaves the range at once, and blocks grow
        # until they take in 1e60 I twice and leave it; each such block is
        # redone step by step.  Over 2000 steps the history stride of 31
        # lets a 1 x 1 block take in 1e60 six times or more, so its product
        # overflows on the way to the redo, which must not warn
        gen = CocycleGenerator.from_table(table)
        orbit = _cycle_orbit(period)
        calls = _spy_steps(monkeypatch)
        spec = lyapunov_exponents(gen, orbit, n)
        raw, hist_n, hist_vals = _reference_qr_pass(
            gen, orbit, spec.n_used, spec.n_used - spec.window)
        assert np.array_equal(spec.raw_exponents, raw)
        assert spec.convergence_history[0] == hist_n
        assert all(np.array_equal(a, b) for a, b in
                   zip(spec.convergence_history[1], hist_vals, strict=True))
        # every step is either factored or chained into a block, and a
        # redone block's steps are factored once more
        redos = calls["step"] + calls["product"] - spec.n_used
        assert (redos > 0) == redone
        if period == 1:
            assert calls == {"step": spec.n_used, "product": 0}


class TestNormSlope:
    """The operator-norm slope: a backward vector sweep for nonnegative l1
    cocycles, the ScaledMatrix product otherwise."""

    @pytest.mark.parametrize("build", [
        lambda: _mixture(64, scale=3.0),
        lambda: (CocycleGenerator.from_table(
            [np.random.default_rng(1).uniform(0.1, 2.0, (4, 4)),
             np.random.default_rng(2).uniform(0.1, 2.0, (4, 4))]),
            generate_orbit(BernoulliShift([0.5, 0.5]), 5, 0, 401)),
    ], ids=["mixture-64-times-3", "positive-4x4"])
    def test_sweep_matches_product_on_nonnegative(self, build):
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
        assert spec.mle_estimate > 0.5
        assert abs(spec.mle_estimate
                   - _reference_slope(gen, orbit, spec, "l1")) < 1e-12

    @pytest.mark.parametrize("build, norm", [
        (_signed_table, "l1"), (_signed_table, "l2"),
        (lambda: _mixture(32), "l2"), (_rank_one_pair, "l2"),
    ], ids=["signed-l1", "signed-l2", "mixture-l2", "rank-one-l2"])
    def test_product_slope_unchanged(self, build, norm):
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, 200, norm=norm)
        assert spec.mle_estimate == _reference_slope(gen, orbit, spec, norm)

    def test_sweep_reevaluates_evicted_states(self, monkeypatch):
        # a continuum of states, so every step is a new matrix; a cache of
        # 8 matrices makes the sweep assemble evicted states again
        driver = IrrationalRotation()
        system = RandomLYSystem(
            driver, lambda th: perturbed_doubling(Fraction(float(th)) / 2))
        orbit = generate_orbit(driver, 3, 0, 401)
        n_bins = 32
        calls = []
        ulam_matrix = transfer.ulam_matrix

        def counted(T, n):
            calls.append(1)
            return ulam_matrix(T, n)

        monkeypatch.setattr(transfer, "ulam_matrix", counted)
        spectra = []
        for budget in (8 * 8 * n_bins ** 2, 2 ** 40):
            monkeypatch.setattr(transfer, "_CACHE_BYTES", budget)
            calls.clear()
            gen = random_ulam_cocycle(system, n_bins)
            spectra.append(lyapunov_exponents(gen, orbit, 400, norm="l1"))
            # the backward sweep finds only the last 8 states still cached
            assert len(calls) == (800 - 8 if budget < 2 ** 40 else 400)
        assert spectra[0].to_dict() == spectra[1].to_dict()
        assert np.isfinite(spectra[0].mle_estimate)


class TestFiltration:
    def test_constant_diagonal_slow_space(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 50, spec)
        assert len(filt) == 2
        assert filt.cuts == [0, 1]
        V2 = _ref_flag(filt)[1]
        assert one_sided_hausdorff(V2, Subspace(np.eye(2)[:, 1:])) < 1e-10

    def test_triangular_slow_space_is_not_axis(self):
        # for [[2,1],[0,1/2]] the slow filtration space is span((1,-3)):
        # the vector whose forward growth is 1/2
        gen = CocycleGenerator.constant(np.array([[2.0, 1.0], [0.0, 0.5]]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 60, spec)
        target = Subspace(np.array([[1.0], [-1.5]]))
        assert one_sided_hausdorff(_ref_flag(filt)[1], target) < 1e-8

    def test_kernel_direction(self):
        gen = CocycleGenerator.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 100)
        filt = filtration_at(gen, orbit, 0, 30, spec)
        assert one_sided_hausdorff(_ref_flag(filt)[1],
                                   Subspace(np.eye(2)[:, 1:])) < 1e-10
        assert filt.rates[1] < -1.0

    def test_equivariance_one_sided(self):
        gen, _ = _period2_pair()
        orbit = _cycle_orbit()
        spec = lyapunov_exponents(gen, orbit, 400)
        f0 = filtration_at(gen, orbit, 0, 120, spec)
        f1 = filtration_at(gen, orbit, 1, 120, spec)
        A = gen.matrix_at(orbit, 0)
        flag0, flag1 = _ref_flag(f0), _ref_flag(f1)
        for j in range(1, len(f0)):
            pushed = Subspace(A @ flag0[j].basis)
            assert one_sided_hausdorff(pushed, flag1[j]) < 1e-4

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
        full_flag, part_flag = _ref_flag(full), _ref_flag(part)
        for j in range(3):
            assert part_flag[j].dim == full_flag[j].dim
            assert _l2_sine(full_flag[j], part_flag[j]) < 1e-12
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
        assert one_sided_hausdorff(_ref_flag(part)[2],
                                   Subspace(np.eye(4)[:, 2:])) > 0.1

    def test_qr_sees_only_tracked_columns(self, mixture, monkeypatch):
        # every product and factorization of the QR pass is 128 x 3, and
        # together they take each of the 16 backward steps once
        gen, orbit, spec = mixture
        shapes = set()
        calls = _spy_steps(monkeypatch, shapes)
        filtration_at(gen, orbit, -16, 16, spec, levels=2)
        assert shapes == {(128, 3)}
        assert calls["step"] + calls["product"] == 16

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


def _frame_sine(A, B):
    """l2 sine between the spans of the orthonormal frames A and B."""
    return float(np.linalg.norm(A - B @ (B.T @ A), 2))


class TestSteppedWalks:
    """The filtration, pushforward and growth-rate walks of the blocked QR
    pass against per-step np.linalg.qr loops, on Ulam mixtures where blocks
    form and on the extreme-scale tables whose blocks are redone."""

    BUILDS = {
        "mixture-64": lambda: _mixture(64),
        "mixture-128": lambda: _mixture(128),
        "overflow": lambda: _constant(1e60 * np.eye(3)),
        "underflow": lambda: _constant(1e-200 * np.eye(3)),
        "graded": lambda: _constant(np.diag([1.0, 1e-6, 1e-12])),
        "overflow-switch": lambda: (CocycleGenerator.from_table(
            [1e60 * np.eye(3), np.eye(3)]), _cycle_orbit()),
        "underflow-switch": lambda: (CocycleGenerator.from_table(
            [1e-200 * np.eye(3), np.eye(3)]), _cycle_orbit()),
    }
    CASES = [(b, n) for b in sorted(BUILDS) for n in (32, 128, 256)]

    @pytest.fixture(scope="class")
    def built(self):
        """(gen, orbit, spectrum) by build name, made once."""
        cache = {}

        def get(name):
            if name not in cache:
                gen, orbit = self.BUILDS[name]()
                mixture = name.startswith("mixture")
                spec = lyapunov_exponents(gen, orbit, 400 if mixture else 200,
                                          norm="l1" if mixture else "l2")
                cache[name] = gen, orbit, spec
            return cache[name]
        return get

    @staticmethod
    def _factors(gen, orbit, n):
        """The factors at offsets 0..n-1, the walks' common window."""
        return [gen.matrix_at(orbit, k) for k in range(n)]

    @pytest.mark.parametrize("name, n", CASES)
    def test_filtration(self, name, n, built):
        gen, orbit, spec = built(name)
        levels = 2 if name.startswith("mixture") else None
        filt = filtration_at(gen, orbit, 0, n, spec, levels=levels)
        w = filt.frame.shape[1]
        Q, logs = np.eye(gen.dim, w), np.zeros(w)
        for A in reversed(self._factors(gen, orbit, n)):
            Q, R = np.linalg.qr(A.T @ Q)
            logs += np.log(np.abs(np.diag(R)))
        assert np.abs(filt.rates - logs / n).max() <= 1e-12
        for c in filt.cuts[1:]:
            assert _frame_sine(filt.frame[:, :c], Q[:, :c]) <= 1e-10

    @pytest.mark.parametrize("name, n", CASES)
    def test_pushforward(self, name, n, built):
        gen, orbit, _ = built(name)
        rng = np.random.default_rng(n)
        for k in (1, 2, 3):
            B0 = np.linalg.qr(rng.standard_normal((gen.dim, k)))[0]
            got = pushforward_space(gen, orbit, Subspace(B0), n, base_offset=n)
            B = B0
            for A in self._factors(gen, orbit, n):
                B, _ = np.linalg.qr(A @ B)
            assert _frame_sine(got.orthonormal_basis(), B) <= 1e-8

    @pytest.mark.parametrize("name, n", CASES)
    def test_growth_rate(self, name, n, built):
        gen, orbit, _ = built(name)
        v = np.random.default_rng(n).standard_normal(gen.dim)
        w, log_acc = (v / np.linalg.norm(v))[:, None], 0.0
        for A in self._factors(gen, orbit, n):
            w, r = np.linalg.qr(A @ w)
            log_acc += math.log(abs(r[0, 0]))
        assert growth_rate(gen, orbit, v, n) == pytest.approx(log_acc / n,
                                                              abs=1e-12)


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
