"""Lyapunov spectrum estimation, filtrations, growth rates, kappa bounds."""

import copy
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
from oseledets import spectrum as spectrum_module
from oseledets import transfer
from oseledets.cocycle import CocycleGenerator, _QRStepper
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
from product_oracle import factors, log_norm, scaled_product


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
    return [Subspace(np.eye(d))] + [
        Subspace(Q[:, c:].copy()) for c in filt.cuts[1:]]


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
        P, log_scale = scaled_product(factors(gen, orbit, 0, n), np.eye(5))
        sv = np.linalg.svd(P * math.exp(log_scale), compute_uv=False)
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
    identity at 0, or its leading columns).  Each product is the
    generator's own (its product hook, as in the QR pass), so a bitwise
    match shows that blocking equals stepping."""
    Q = np.eye(gen.dim) if Q is None else Q
    diags = []
    for k in range(start, stop):
        Q, R = np.linalg.qr(gen._factor(orbit.state(k), Q.shape[1]) @ Q)
        diags.append(np.abs(np.diag(R)))
    return diags, Q


def _reference_qr_pass(gen, orbit, n_eff, n_half, diags=None):
    """The QR pass as a per-step np.linalg.qr loop: raw windowed slopes and
    the history, with the same dead-column rule.  ``diags`` are the loop's
    per-step |diag R| when already known (at least n_eff of them, of the
    frame's leading columns); the full frame is stepped otherwise."""
    if diags is None:
        diags, _ = _per_step_diags(gen, orbit, n_eff)
    d = diags[0].size
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
    """Windowed slope of log ||P_k|| from the oracle's d x d products."""
    full, half = (log_norm(scaled_product(factors(gen, orbit, 0, n),
                                          np.eye(gen.dim)), norm)
                  for n in (spec.n_used, spec.n_used - spec.window))
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
    to 1e-10.  The loop steps the frame the pass kept, ``spec.cut``
    columns from the same start frame (8 on the Ulam mixtures), and its
    levels are clustered by the same rule.  The 32-bin mixture's deep
    cluster is rounding-sensitive in the per-step loop itself (a 1e-15
    change of the start frame moves its raw exponents by 1e-2), so only
    its top two levels are compared.
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
        """Exponents, multiplicities and n_infinite the clustering gives
        for the raw exponents of the leading spec.cut columns: every level
        when the frame is full or ends dead, else those above the bottom
        one."""
        finite = np.sort(raw)[::-1]
        finite = finite[finite > spec.floor]
        cuts = np.flatnonzero(-np.diff(finite) > spec.gap_threshold) + 1
        bounds = np.r_[0, cuts, finite.size]
        closed = raw.size == spec.ambient_dim or finite.size < raw.size
        if not closed:
            bounds = bounds[:-1]
        return ([float(np.mean(finite[a:b])) for a, b in zip(bounds, bounds[1:])],
                np.diff(bounds).tolist(),
                spec.ambient_dim - finite.size if closed else 0)

    @pytest.fixture(scope="class")
    def mixture_steps(self):
        """Per-step reference loops of the _mixture cases by (bins, seed,
        columns).  _mixture draws state k from the seed and k alone, so the
        loop of a shorter case is a prefix of a longer one's: each loop is
        run once, extended when a case needs more steps."""
        return {}

    def _reference(self, gen, orbit, spec, mixture_steps):
        n_eff = spec.n_used
        diags = None
        if gen.name.startswith("ulam"):       # only _mixture builds these
            key = gen.name, orbit.seed, spec.cut
            diags, Q = mixture_steps.get(
                key, ([], spectrum_module._lead_frame(gen.dim, spec.cut)))
            if len(diags) < n_eff:
                more, Q = _per_step_diags(gen, orbit, n_eff, len(diags), Q)
                diags = diags + more
                mixture_steps[key] = (diags, Q)
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

    @pytest.mark.parametrize("n_bins, n, seed", [
        (128, 400, 7), (128, 800, 7), (256, 400, 7), (256, 800, 7),
        (256, 400, 3)], ids=["mixture-128-n400", "mixture-128-n800",
                             "mixture-256-n400", "mixture-256-n800",
                             "mixture-256-seed3"])
    def test_slot_products_match_dense_twin(self, n_bins, n, seed):
        # the same pass on the same matrices, multiplied from the stored
        # row-slot forms and by gemm on a dense table
        gen, orbit = _mixture(n_bins, seed=seed, n=n)
        twin = CocycleGenerator.from_table([gen(0), gen(1)])
        spec = lyapunov_exponents(gen, orbit, n, norm="l1")
        ref = lyapunov_exponents(twin, orbit, n, norm="l1")
        fin = np.isfinite(ref.raw_exponents)
        assert np.array_equal(np.isfinite(spec.raw_exponents), fin)
        assert np.abs(spec.raw_exponents[fin]
                      - ref.raw_exponents[fin]).max() <= 1e-10
        assert spec.multiplicities == ref.multiplicities
        assert spec.n_infinite == ref.n_infinite
        assert spec.exponents == pytest.approx(ref.exponents, rel=0,
                                               abs=1e-10)

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


def _continuum(n_bins=128, seed=1, n=400):
    """perturbed_doubling(theta / 2) over the golden rotation at n_bins:
    every state is new."""
    driver = IrrationalRotation()
    system = RandomLYSystem(
        driver, lambda th: perturbed_doubling(Fraction(float(th)) / 2))
    return (random_ulam_cocycle(system, n_bins),
            generate_orbit(driver, seed, 0, n + 1))


def _full_pass(gen, orbit, n, monkeypatch, **kw):
    """The spectrum of the pass that starts from every column of R^d."""
    with monkeypatch.context() as m:
        m.setattr(spectrum_module, "_LEAD_COLUMNS", gen.dim)
        return lyapunov_exponents(gen, orbit, n, **kw)


class TestLeadingColumns:
    """The pass carries as many columns as it needs: 8, doubled while the
    kept spectrum may go on below them."""

    BUILDS = {
        "mixture-64": lambda: _mixture(64),
        "mixture-128": lambda: _mixture(128),
        "mixture-256": lambda: _mixture(256),
        "continuum-128": _continuum,
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_reported_levels_match_full_pass(self, name, monkeypatch):
        # the 8 columns of a generic frame track the 8 fastest directions,
        # so the reported levels' raw exponents are those of the full pass
        # (1.2e-15 apart on these inputs) and the norm slope is the same
        # computation
        gen, orbit = self.BUILDS[name]()
        spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
        full = _full_pass(gen, orbit, 400, monkeypatch, norm="l1")
        assert full.cut == gen.dim and full.below_cut is None
        assert spec.cut == 8 and spec.raw_exponents.shape == (8,)
        assert spec.ambient_dim == gen.dim
        c = sum(spec.multiplicities)
        ours = np.sort(spec.raw_exponents)[::-1]
        theirs = np.sort(full.raw_exponents)[::-1]
        assert np.abs(ours[:c] - theirs[:c]).max() <= 1e-12
        assert spec.multiplicities == full.multiplicities[:2] == [1, 1]
        assert spec.exponents == pytest.approx(full.exponents[:2], rel=0,
                                               abs=1e-12)
        assert spec.mle_estimate == full.mle_estimate
        # the open cluster's top estimates the largest exponent below the
        # reported levels, as well as the full pass resolves that cluster:
        # its rates move by up to 7e-3 with the start frame on these inputs
        assert spec.below_cut == pytest.approx(theirs[c], rel=0, abs=0.01)
        assert spec.n_infinite == full.n_infinite == 0

    @pytest.mark.parametrize("build, n, cut, mult, n_inf", [
        (lambda: _mixture(64), 400, 8, [1, 1], 0),
        (lambda: _mixture(128), 400, 8, [1, 1], 0),
        (lambda: _mixture(256), 400, 8, [1, 1], 0),
        (_continuum, 400, 8, [1, 1], 0),
        # a dead tail: every exponent past the top one is -inf
        (lambda: (random_ulam_cocycle(RandomLYSystem(
            FiniteCycle(1), [transfer.doubling_map()]), 64),
          _cycle_orbit(1)),
         400, 8, [1], 63),
        # the bottom cluster of the 8 kept columns holds 2: all 16 columns
        (lambda: _mixture(16, n=800), 800, 16, [1, 1, 4, 2] + [1] * 8, 0),
        # a separated spectrum doubles to the full frame
        (lambda: _constant(np.diag(np.exp(-0.2 * np.arange(12)))), 200,
         12, [1] * 12, 0),
        # cocycles that keep the coordinate axes: the first 8 identity
        # columns would miss log 3 and log 4, report 0 seven times with
        # n_infinite 5, and see nothing but dead columns
        (lambda: _constant(np.diag([2.0] + [0.5] * 7 + [3.0, 4.0])), 200,
         8, [1, 1, 1], 0),
        (lambda: _constant(np.diag([0.0] + [1.0] * 11)), 200, 12, [11], 1),
        (lambda: _constant(np.diag([0.0] * 8 + [1.0] * 4)), 200, 8, [4],
         8),
    ], ids=["mixture-64", "mixture-128", "mixture-256", "continuum-128",
            "doubling-64", "mixture-16", "separated-12", "axes-missed",
            "axis-killed", "axes-killed"])
    def test_stop_rule(self, build, n, cut, mult, n_inf):
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, n, norm="l1")
        assert spec.cut == cut and spec.raw_exponents.shape == (cut,)
        assert spec.multiplicities == mult
        assert spec.n_infinite == n_inf
        assert (spec.below_cut is None) == (cut == gen.dim or n_inf > 0)
        if spec.below_cut is None:
            assert spec.total_multiplicity() + n_inf == gen.dim
        else:
            # an open bottom cluster of at least half the kept columns
            rest = np.sort(spec.raw_exponents)[::-1][sum(mult):]
            assert rest[0] == spec.below_cut and 2 * rest.size >= cut
            assert spec.exponents[-1] - spec.below_cut > spec.gap_threshold
        assert spec.to_dict()["cut"] == cut
        assert spec.to_dict()["below_cut"] == spec.below_cut

    def test_full_pass_when_the_cut_reaches_d(self, monkeypatch):
        # at k = d the stop rule's pass is the full one, bit for bit
        gen, orbit = _mixture(16, n=800)
        spec = lyapunov_exponents(gen, orbit, 800, norm="l1")
        full = _full_pass(gen, orbit, 800, monkeypatch, norm="l1")
        assert spec.to_dict() == full.to_dict()

    def test_no_frame_wider_than_eight(self, monkeypatch):
        # the default 256-bin spectrum steps 256 x 8 frames only
        widths = []
        init = _QRStepper.__init__

        def spy(self, m, n):
            widths.append(n)
            init(self, m, n)

        monkeypatch.setattr(_QRStepper, "__init__", spy)
        gen, orbit = _mixture(256)
        spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
        assert spec.multiplicities == [1, 1]
        assert widths == [8]

    def test_below_cut_is_labelled_an_estimate(self):
        # nothing certifies that the unreported exponents lie below
        # below_cut, so neither the report nor the repr calls it a bound
        gen, orbit = _mixture(64)
        cut = lyapunov_exponents(gen, orbit, 400, norm="l1")
        assert cut.below_cut is not None
        assert cut.to_dict()["below_cut_label"] == "estimate"
        assert "<=" not in repr(cut)
        assert f"~{cut.below_cut:.4f} (estimate)" in repr(cut)
        gen, orbit = _constant(np.diag(np.exp(-0.2 * np.arange(12))))
        full = lyapunov_exponents(gen, orbit, 200, norm="l1")
        assert full.below_cut is None
        assert full.to_dict()["below_cut_label"] is None
        assert "estimate" not in repr(full)


def _positive_4x4():
    return (CocycleGenerator.from_table(
        [np.random.default_rng(1).uniform(0.1, 2.0, (4, 4)),
         np.random.default_rng(2).uniform(0.1, 2.0, (4, 4))]),
        generate_orbit(BernoulliShift([0.5, 0.5]), 5, 0, 401))


class TestNormSlope:
    """The operator-norm slope: a chain of one vector, the row 1^T P swept
    backward in l1 and the column P 1 run forward in linf and l2; None
    when a factor has a negative entry."""

    @pytest.mark.parametrize("build, norm", [
        (lambda: _mixture(64, scale=3.0), "l1"),
        (_positive_4x4, "l1"),
        (lambda: _mixture(64, scale=3.0), "linf"),
        (_positive_4x4, "linf"),
    ], ids=["mixture-64-times-3", "positive-4x4", "mixture-64-times-3-linf",
            "positive-4x4-linf"])
    def test_sweep_matches_product_on_nonnegative(self, build, norm):
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, 400, norm=norm)
        assert spec.mle_estimate > 0.5
        assert abs(spec.mle_estimate
                   - _reference_slope(gen, orbit, spec, norm)) <= 1e-12

    @pytest.mark.parametrize("build, bitwise", [
        (lambda: _mixture(64, scale=3.0), True),
        (_positive_4x4, True),
        (lambda: _mixture(128), False),
    ], ids=["mixture-64-times-3", "positive-4x4", "ulam-128"])
    def test_sweep_rows_are_scaled_vectors(self, build, bitwise):
        # the two rows of one array, each with its own log scale, are the
        # oracle's two log-scaled d x 1 products: bit for bit with gemv
        # products; from row slots np.bincount sums each entry in the same
        # order without a fused multiply-add
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
        n_half = spec.n_used - spec.window
        ones = np.ones((gen.dim, 1))
        full, half = (scaled_product((gen(orbit.state(k - 1)).T
                                      for k in range(n, 0, -1)), ones)
                      for n in (spec.n_used, n_half))
        ref = (log_norm(full, "linf") - log_norm(half, "linf")) / spec.window
        if bitwise:
            assert spec.mle_estimate == ref
        else:
            assert abs(spec.mle_estimate - ref) <= 1e-15

    @pytest.mark.parametrize("norm", ["l1", "l2"],
                             ids=["signed-l1", "signed-l2"])
    def test_signed_factor_gives_no_slope(self, norm):
        # a chain of one vector gives no norm of a product with negative
        # entries: the top level keeps its QR mean
        gen, orbit = _signed_table()
        spec = lyapunov_exponents(gen, orbit, 200, norm=norm)
        assert spec.mle_estimate is None and spec.mle_agreement is None
        assert spec.to_dict()["mle_estimate"] is None
        raw = np.sort(spec.raw_exponents)[::-1]
        top = spectrum_module._cluster(raw[raw > spec.floor],
                                       spec.gap_threshold)[0]
        assert spec.exponents[0] == float(np.mean(top))

    @pytest.mark.parametrize("build", [lambda: _mixture(32), _rank_one_pair],
                             ids=["mixture-l2", "rank-one-l2"])
    def test_l2_slope_within_log_d_of_product(self, build):
        # l2 takes the linf chain; ||P||_inf / sqrt(d) <= ||P||_2 <= sqrt(d)
        # ||P||_inf bounds the two windowed slopes' distance by log(d) / window
        gen, orbit = build()
        spec = lyapunov_exponents(gen, orbit, 200, norm="l2")
        linf = lyapunov_exponents(gen, orbit, 200, norm="linf")
        assert spec.mle_estimate == linf.mle_estimate
        assert abs(spec.mle_estimate - _reference_slope(
            gen, orbit, spec, "l2")) <= math.log(gen.dim) / spec.window

    @pytest.mark.parametrize("transpose, norm, ends", [
        (False, "linf", (2.0, 4.0)), (True, "l1", (2.0, 5.0))],
        ids=["column", "row"])
    def test_chain_multiplies_in_orbit_order(self, transpose, norm, ends):
        # offset 0 is state 0 (A) and offset 1 state 1 (B), so P_2 = B A:
        # ||B A||_inf = 4 and ||B A||_1 = 5, where A B would give 5 and 6
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[2.0, 0.0], [0.0, 3.0]])
        gen, orbit = CocycleGenerator.from_table([A, B]), _cycle_orbit()
        got = spectrum_module._log_norm_ends(gen, orbit, 1, 2, transpose)
        assert got == tuple(math.log(x) for x in ends)
        assert got[1] == log_norm(
            scaled_product(factors(gen, orbit, 0, 2), np.eye(2)), norm)

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["column", "row"])
    def test_chain_rescales_past_overflow(self, transpose):
        # the 400-step product reaches 1e1200; the chain's log scale keeps
        # it finite
        gen = CocycleGenerator.constant(np.diag([1e3, 1e-3]))
        half, full = spectrum_module._log_norm_ends(gen, _cycle_orbit(), 200,
                                                    400, transpose)
        assert math.isclose(half, 200 * math.log(1e3), rel_tol=1e-12)
        assert math.isclose(full, 400 * math.log(1e3), rel_tol=1e-12)

    @pytest.mark.parametrize("norm", ["l1", "linf", "l2"])
    def test_nilpotent_slope_is_minus_infinity(self, norm):
        # N 1 = (1, 0) and 1^T N = (0, 1), but N^2 = 0
        gen = CocycleGenerator.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert spectrum_module._log_norm_ends(
            gen, _cycle_orbit(), 1, 2, norm == "l1") == (0.0, -math.inf)
        spec = lyapunov_exponents(gen, _cycle_orbit(), 100, norm=norm)
        assert spec.mle_estimate == -math.inf

    def test_1024_bin_spectrum_memory(self):
        # every norm takes a chain of one vector: the d x d products that
        # the linf and l2 slopes formed peaked at 24 MiB
        import tracemalloc
        gen, orbit = _mixture(1024, n=200)
        gen(0), gen(1)    # both states assembled before tracing
        spectra = []
        for norm in ("l1", "linf", "l2"):
            tracemalloc.start()
            try:
                spectra.append(lyapunov_exponents(gen, orbit, 200, norm=norm))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20, norm
        for spec in spectra[1:]:
            assert spec.multiplicities == spectra[0].multiplicities == [1, 1]
            assert spec.exponents == pytest.approx(spectra[0].exponents,
                                                   rel=0, abs=1e-12)

    def test_sweep_assembles_each_state_once(self, monkeypatch):
        # a continuum of states, so every step is a new matrix; with room
        # for one dense matrix the backward sweep rebuilds the others from
        # their stored nonzeros and assembles none again
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
        for dense_budget in (8 * n_bins ** 2, 2 ** 40):
            monkeypatch.setattr(transfer, "_DENSE_BYTES", dense_budget)
            calls.clear()
            gen = random_ulam_cocycle(system, n_bins)
            spectra.append(lyapunov_exponents(gen, orbit, 400, norm="l1"))
            assert len(calls) == 400
        assert spectra[0].to_dict() == spectra[1].to_dict()
        assert np.isfinite(spectra[0].mle_estimate)

    def test_continuum_spectrum_memory(self):
        # the generator keeps 400 states as nonzeros, about 6 KB each at
        # 128 bins, and at most 4 MiB of dense matrices; dense storage of
        # every state within the 32 MiB budget peaked at about 33 MiB
        import tracemalloc
        driver = IrrationalRotation()
        system = RandomLYSystem(
            driver, lambda th: perturbed_doubling(Fraction(float(th)) / 2))
        orbit = generate_orbit(driver, 1, 0, 401)
        tracemalloc.start()
        try:
            gen = random_ulam_cocycle(system, 128)
            spec = lyapunov_exponents(gen, orbit, 400, norm="l1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(spec.mle_estimate)
        assert peak <= 12 * 2 ** 20


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
        assert part.blurred == full.blurred

    def test_mixture_levels_match_full_width(self, mixture):
        # the spectrum reports levels [1, 1] above an open cluster, and its
        # flag is those levels' (three tracked directions); a full-width
        # flag takes the rest of R^128 as a third level at the cluster's
        # top rate
        gen, orbit, spec = mixture
        assert filtration_at(gen, orbit, -64, 64, spec).rates.shape == (3,)
        wide = copy.copy(spec)
        wide.exponents = spec.exponents + [spec.below_cut]
        wide.multiplicities = spec.multiplicities + [128 - 2]
        full = filtration_at(gen, orbit, -64, 64, wide)
        part = filtration_at(gen, orbit, -64, 64, wide, levels=2)
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
        Q, logs = spectrum_module._lead_frame(gen.dim, w), np.zeros(w)
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
        assert hennion_kappa_bound(lambda k: 2.0, 10) == \
            pytest.approx(math.log(2), abs=1e-14)

    def test_matches_birkhoff_average(self):
        orbit = _cycle_orbit()
        B = lambda k: math.exp(float(orbit.state(k)))
        kappa = hennion_kappa_bound(B, 8)
        avg = birkhoff_average(orbit, lambda s: float(s), 8)
        assert abs(kappa - avg) < 1e-9

    def test_positive_validation(self):
        with pytest.raises(ParameterError):
            hennion_kappa_bound(lambda k: 0.0, 4)
        with pytest.raises(ParameterError):
            hennion_kappa_bound(lambda k: 1.0, 0)
