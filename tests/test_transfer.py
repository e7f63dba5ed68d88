"""Piecewise expanding maps, Ulam matrices, exact transfer images, and the
Lasota-Yorke diagnostics."""

import gc
import math
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseledets import cocycle, transfer
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
README = Path(__file__).resolve().parents[1] / "README.md"


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
        Branch(0, HALF, 2 - d, d / 2),
        Branch(HALF, 1, 2 - d, -1 + d / 2),
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
        assert T.branch_of(0.3) is T.branches[0]
        assert T.branch_of(0.7) is T.branches[1]

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
        L, nums = op._exact
        rows, cols, _ = op._nonzeros
        assert all(isinstance(v, int) and v > 0 for v in nums.tolist())
        assert op.exact_rows[0] == {j: Fraction(v, L) for i, j, v in zip(
            rows.tolist(), cols.tolist(), nums.tolist()) if i == 0}


def _continuum_map(theta):
    return perturbed_doubling(Fraction(float(theta)) / 2)


def _golden_states(count):
    return [(0.3 + k * 0.6180339887498949) % 1.0 for k in range(count)]


# breakpoints and image shapes drawn as floats: their exact binary
# fractions have denominators of 2^53 to 2^59, so L runs to hundreds of
# bits
_POINT = st.floats(min_value=1 / 64, max_value=63 / 64)
_SHARE = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _float_affine_maps(draw):
    """2 to 4 affine branches (one branch on (0, 1) cannot expand inside
    [0, 1]), each rising or falling, with an image of random length and
    position inside [0, 1]."""
    cuts = draw(st.lists(_POINT, min_size=1, max_size=3, unique=True))
    pts = [Fraction(0)] + sorted(Fraction(x) for x in cuts) + [Fraction(1)]
    branches = []
    for a, b in zip(pts, pts[1:]):
        w = b - a
        ell = w + (1 - w) * Fraction(draw(st.floats(0.01, 1.0)))
        lo = (1 - ell) * Fraction(draw(_SHARE))
        s = ell / w
        if draw(st.booleans()):
            branches.append(Branch(a, b, s, lo - s * a))
        else:
            branches.append(Branch(a, b, -s, lo + ell + s * a))
    return PiecewiseExpandingMap1D(branches)


def _assert_matches_oracle(T, n):
    rows = _oracle_rows(T, n)
    op = ulam_matrix(T, n)
    M = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, val in row.items():
            M[i, j] = float(val)
    assert op.exact_rows == rows
    assert all(s == 1 for s in op.exact_row_sums())
    assert np.array_equal(op.matrix, M)
    assert np.array_equal(op.density_matrix(), M.T)


class TestSinusoidalAssembly:
    def test_allocates_no_square_array(self):
        # the entries are added up per nonzero: an n x n float array at
        # 2048 bins would be 32 MiB
        tracemalloc.start()
        try:
            op = ulam_matrix(sin_doubling(0.03), 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert op._nonzeros[2].size == 6142
        assert np.abs(op.row_sums() - 1.0).max() <= 1e-12


class TestUlamSweepRandomMaps:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(T=_float_affine_maps(), n=st.integers(2, 300))
    def test_matches_fraction_oracle(self, T, n):
        _assert_matches_oracle(T, n)

    @pytest.mark.parametrize("theta", [0.1, 0.7180339887498949])
    def test_continuum_map_at_1024_bins(self, theta):
        _assert_matches_oracle(_continuum_map(theta), 1024)

    def test_least_common_denominator(self):
        # the grid spacing G = L / n is the least one in which every cut
        # point is an integer: n = 5 bins of the 3/10 map cut at 3/10,
        # the grid and the preimages k/5 * 3/10, all tenths or fiftieths
        op = ulam_matrix(full_branch_affine([0, Fraction(3, 10), 1]), 5)
        G, nums = op._exact
        assert G == 10
        assert math.gcd(G, *nums.tolist()) == 1


def _count_assemblies(monkeypatch):
    calls = []
    ulam = transfer.ulam_matrix

    def counted(T, n):
        calls.append(1)
        return ulam(T, n)

    monkeypatch.setattr(transfer, "ulam_matrix", counted)
    return calls


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

    def test_dense_window_stays_within_byte_budget(self):
        n = 256
        nbytes = 8 * n * n
        held = transfer._DENSE_BYTES // nbytes
        sysm = RandomLYSystem(FiniteCycle(1), _continuum_map)
        gen = random_ulam_cocycle(sysm, n)
        states = _golden_states(held + 3)
        refs = [weakref.ref(gen(s)) for s in states]
        gc.collect()
        alive = [r() is not None for r in refs]
        assert sum(alive) * nbytes <= transfer._DENSE_BYTES
        assert alive[-held:] == [True] * held
        assert gen(states[-1]) is refs[-1]()

    def test_nonzero_store_stays_within_byte_budget(self, monkeypatch):
        n = 64
        states = _golden_states(12)
        sizes = [sum(a.nbytes for a in transfer._slot_form(
                     ulam_matrix(_continuum_map(s), n)))
                 for s in states]
        held = 5
        monkeypatch.setattr(transfer, "_CACHE_BYTES", sum(sizes[-held:]))
        monkeypatch.setattr(transfer, "_DENSE_BYTES", 1)
        calls = _count_assemblies(monkeypatch)
        gen = random_ulam_cocycle(RandomLYSystem(FiniteCycle(1),
                                                 _continuum_map), n)
        for s in states:
            gen(s)
        assert len(calls) == len(states)
        # newest first: the held states need no assembly; the first one
        # evicted costs one, and every older one was evicted too
        for s in reversed(states):
            gen(s)
        assert len(calls) == 2 * len(states) - held

    @pytest.mark.parametrize("T", [perturbed_doubling(Fraction(1, 7)),
                                   sin_doubling(0.03)],
                             ids=["affine", "sinusoidal"])
    def test_dense_rebuild_needs_no_assembly(self, T, monkeypatch):
        monkeypatch.setattr(transfer, "_DENSE_BYTES", 1)
        calls = _count_assemblies(monkeypatch)
        sysm = RandomLYSystem(FiniteCycle(2), [T, tripling_map()])
        gen = random_ulam_cocycle(sysm, 48)
        a = gen(0)
        assert gen(0) is a
        gen(1)
        b = gen(0)
        assert b is not a and np.array_equal(a, b)
        assert np.array_equal(b, ulam_matrix(T, 48).density_matrix())
        assert not b.flags.writeable
        assert len(calls) == 2

    def test_latest_entry_kept_past_budgets(self, monkeypatch):
        monkeypatch.setattr(transfer, "_CACHE_BYTES", 1)
        monkeypatch.setattr(transfer, "_DENSE_BYTES", 1)
        calls = _count_assemblies(monkeypatch)
        sysm = RandomLYSystem(FiniteCycle(2),
                              [doubling_map(), tripling_map()])
        gen = random_ulam_cocycle(sysm, 16)
        a = gen(0)
        assert gen(0) is a
        gen(1)
        b = gen(0)
        assert b is not a and np.array_equal(a, b)
        assert len(calls) == 3

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


def _missed_bins_map():
    """Two slope-3/2 branches onto [0, 3/4): no bin of [3/4, 1) receives
    mass, so the density-side matrix has empty rows."""
    return PiecewiseExpandingMap1D([
        Branch(0, HALF, Fraction(3, 2), 0),
        Branch(HALF, 1, Fraction(3, 2), Fraction(-3, 4))])


class TestProductHook:
    """Products from the stored row-slot forms against the dense matrix."""

    MAPS = {
        "affine-mixture": lambda: full_branch_affine([0, Fraction(3, 10), 1]),
        "sinusoidal": lambda: sin_doubling(0.03),
        "missed-bins": _missed_bins_map,
    }

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["A", "A-transposed"])
    @pytest.mark.parametrize("cols", [1, 2, 8, 256])
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_products_match_dense(self, name, cols, transpose):
        # 256 bins: one and eight columns and the full frame take the slot
        # kernel, two columns the dense matrix
        T = self.MAPS[name]()
        gen = random_ulam_cocycle(RandomLYSystem(FiniteCycle(1), [T]), 256)
        A = gen(0).T if transpose else gen(0)
        if name == "missed-bins" and not transpose:
            assert not A[192:].any()
            assert not gen._factor(0, 1).vals[192:].any()
        rng = np.random.default_rng(cols)
        Q = np.linalg.qr(rng.standard_normal((256, cols)))[0]
        F = gen._factor(0, cols, transpose)
        assert F.shape == (256, 256)
        assert isinstance(F, np.ndarray) == (cols == 2)
        assert np.abs(F @ Q - A @ Q).max() <= 1e-15
        # into a buffer, from an F-ordered frame, into an F-ordered result
        out = np.empty((cols, 256)).T
        assert cocycle._product(F, np.asfortranarray(Q), out) is out
        assert np.abs(out - A @ Q).max() <= 1e-15

    def test_readme_states_the_policy(self):
        # the README's sentence on Ulam products against the forms the
        # generators give: dense on a map table for 2 <= n <= the stated
        # width, the row-slot kernels otherwise
        text = " ".join(README.read_text().split())
        low, power = re.search(r"Over a map table, a frame of n ≥ (\d+) "
                               r"columns uses the dense matrix and BLAS "
                               r"instead while N²·n < 2\^(\d+)", text).groups()
        assert 2 ** int(power) == transfer._DENSE_WORK
        widths = {int(N): int(top) for top, N
                  in re.findall(r"n ≤ (\d+) at N = (\d+)", text)}
        sparse_from = int(re.search(r"From N = (\d+) on, every product uses "
                                    r"the nonzeros", text).group(1))
        assert "So does every product over a continuum of maps" in text
        assert widths == {128: 31, 256: 7} and sparse_from == 512

        def dense_widths(system, N, top):
            gen = random_ulam_cocycle(system, N)
            return [n for n in range(1, top + 2) for t in (False, True)
                    if isinstance(gen._factor(0, n, t), np.ndarray)]

        table = RandomLYSystem(FiniteCycle(1), [doubling_map()])
        family = RandomLYSystem(FiniteCycle(1), lambda s: doubling_map())
        for N, top in widths.items():
            assert dense_widths(table, N, top) == [
                n for n in range(int(low), top + 1) for _ in range(2)]
            assert dense_widths(family, N, top) == []
        assert dense_widths(table, sparse_from, 8) == []

    def test_products_after_eviction(self, monkeypatch):
        # with room for one state in each store, state 1 evicts state 0's
        # dense matrix and its row-slot forms before every product of
        # state 0, which assembles it again (one assembly of each state per
        # product) and still matches
        monkeypatch.setattr(transfer, "_CACHE_BYTES", 1)
        monkeypatch.setattr(transfer, "_DENSE_BYTES", 1)
        calls = _count_assemblies(monkeypatch)
        T = sin_doubling(0.03)
        gen = random_ulam_cocycle(
            RandomLYSystem(FiniteCycle(2), [T, _missed_bins_map()]), 256)
        A = ulam_matrix(T, 256).density_matrix()
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal(
            (256, 256)))[0]
        for transpose in (False, True):
            B = A.T if transpose else A
            for cols in (1, 2, 256):
                gen._factor(1, 256)     # state 0's forms out
                gen(1)                  # and its dense matrix
                assert np.abs(gen._factor(0, cols, transpose) @ Q[:, :cols]
                              - B @ Q[:, :cols]).max() <= 1e-15
        assert len(calls) == 12

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["A", "A-transposed"])
    def test_continuum_takes_kernels_at_every_width(self, transpose):
        # over a map family no state repeats, so a scatter to a dense
        # matrix would be paid per step: every width takes the slot
        # kernels.  A table generator keeps gemm for 1 < cols and d^2 cols
        # < 2^19 (cols <= 31 at 128 bins)
        table = random_ulam_cocycle(RandomLYSystem(FiniteCycle(1), [
            full_branch_affine([0, Fraction(3, 10), 1])]), 128)
        gen = random_ulam_cocycle(RandomLYSystem(FiniteCycle(1),
                                                 _continuum_map), 128)
        state = 0.3
        A = ulam_matrix(_continuum_map(state), 128).density_matrix()
        A = A.T if transpose else A
        rng = np.random.default_rng(4)
        for cols in (1, 2, 3, 8, 31, 128):
            assert isinstance(table._factor(0, cols, transpose),
                              np.ndarray) == (1 < cols < 32)
            F = gen._factor(state, cols, transpose)
            assert not isinstance(F, np.ndarray)
            Q = np.linalg.qr(rng.standard_normal((128, cols)))[0]
            assert np.abs(F @ Q - A @ Q).max() <= 1e-15
            # chained in the stepper's buffer, as a block of the QR pass
            stepper = cocycle._QRStepper(128, cols)
            Q1, diag = stepper.step(F, stepper.product(F, Q))
            Q_ref, R = np.linalg.qr(A @ (A @ Q))
            assert np.abs(np.abs(Q1.T @ Q_ref) - np.eye(cols)).max() <= 1e-12
            assert np.abs(diag - np.abs(np.diag(R))).max() <= 1e-14

    def test_transposed_products_build_no_second_form(self, monkeypatch):
        # a state is stored in one row-slot form, built once; transposed
        # products of every width multiply from it, as the l1 sweep's
        # one-column products do
        from oseledets.base import IrrationalRotation
        forms = []
        row_slots = transfer._row_slots

        def counted(*args):
            forms.append(1)
            return row_slots(*args)

        monkeypatch.setattr(transfer, "_row_slots", counted)
        driver = IrrationalRotation()
        gen = random_ulam_cocycle(RandomLYSystem(driver, _continuum_map), 128)
        orbit = generate_orbit(driver, 1, 0, 401)
        lyapunov_exponents(gen, orbit, 400, norm="l1")
        assert len(forms) == 400
        state = orbit.state(5)
        for cols in (3, 128):
            gen._factor(state, cols, transpose=True) @ np.eye(128, cols)
        assert len(forms) == 400

    def test_continuum_spectrum_scatters_nothing(self, monkeypatch):
        # the QR pass and the l1 norm sweep multiply from the row-slot
        # forms; the dense per-step products scattered 768 matrices here
        from oseledets.base import IrrationalRotation
        scatters = []
        scatter = transfer._scatter

        def counted(n, slots):
            scatters.append(1)
            return scatter(n, slots)

        monkeypatch.setattr(transfer, "_scatter", counted)
        driver = IrrationalRotation()
        system = RandomLYSystem(driver, _continuum_map)
        gen = random_ulam_cocycle(system, 128)
        spec = lyapunov_exponents(gen, generate_orbit(driver, 1, 0, 401),
                                  400, norm="l1")
        assert np.isfinite(spec.mle_estimate)
        assert scatters == []


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


def _quadratic_multiplicity(intervals):
    """Reference count: every endpoint and every midpoint between
    consecutive endpoints, tested against every closed interval."""
    pts = sorted({x for iv in intervals for x in iv}, key=float)
    candidates = pts + [(u + v) / 2 for u, v in zip(pts, pts[1:])]
    return max(sum(1 for lo, hi in intervals
                   if float(lo) - 1e-12 <= float(c) <= float(hi) + 1e-12)
               for c in candidates)


_MULTIPLICITY_COMPOSITIONS = {
    "doubling^1..4": [[doubling_map()] * n for n in range(1, 5)],
    "tripling": [[tripling_map()]],
    "doubling-tripling": [[doubling_map(), tripling_map()]],
    "perturbed": [[perturbed_doubling(Fraction(1, 5))]],
    "sin": [[sin_doubling(0.03)], [sin_doubling(0.03)] * 2],
    "chain": [[doubling_map(), perturbed_doubling(Fraction(1, 7)),
               tripling_map()]],
    "crowded": [[full_branch_affine([0, Fraction(49, 100),
                                     Fraction(51, 100), 1])]],
    "acceptance-8": [[doubling_map()],
                     [full_branch_affine([0, Fraction(3, 10), 1])],
                     [tripling_map()]],
    "mixture": [[full_branch_affine([0, Fraction(3, 10), 1]),
                 full_branch_affine([0, Fraction(2, 5), 1])] * 2],
    "tent-nonfull": [[PiecewiseExpandingMap1D([
        Branch(0, HALF, 2, 0), Branch(HALF, 1, -2, 2)]),
        PiecewiseExpandingMap1D([
            Branch(0, Fraction(2, 5), -2, Fraction(9, 10)),
            Branch(Fraction(2, 5), 1, Fraction(3, 2), Fraction(-3, 5))])]],
}


class TestClosureMultiplicity:
    @pytest.mark.parametrize("name", sorted(_MULTIPLICITY_COMPOSITIONS))
    def test_sweep_matches_quadratic_count(self, name):
        for maps in _MULTIPLICITY_COMPOSITIONS[name]:
            pieces, _ = transfer._composition_pieces(maps)
            for key in ("dom", "img"):
                intervals = [p[key] for p in pieces]
                assert transfer._max_closure_multiplicity(intervals) == \
                    _quadratic_multiplicity(intervals)

    def test_random_touching_intervals(self):
        # endpoints drawn from a coarse grid, so many intervals touch
        # exactly, some are points, and exact and float forms must agree
        rng = random.Random(34)
        for _ in range(300):
            grid = [Fraction(rng.randint(0, 12), 12) for _ in range(6)]
            intervals = []
            for _ in range(rng.randint(1, 9)):
                u, v = rng.sample(grid, 2) if rng.random() < 0.9 else \
                    [rng.choice(grid)] * 2
                intervals.append((min(u, v), max(u, v)))
            want = _quadratic_multiplicity(intervals)
            assert transfer._max_closure_multiplicity(intervals) == want
            floats = [(float(u), float(v)) for u, v in intervals]
            assert transfer._max_closure_multiplicity(floats) == want


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


@pytest.mark.parametrize("bound, counters", [
    (lambda sysm: ly_bound_B(sysm, _orbit(), 3, p=2.0, t=0.25), 2),
    (lambda sysm: kappa_star_bound(sysm, _orbit(), 3, p=2.0, t=0.25), 1),
], ids=["ly_bound_B", "kappa_star_bound"])
def test_one_partition_per_bound(bound, counters, monkeypatch):
    # C_b, C_e and the smallest slope come from one composition partition;
    # kappa* needs no C_b
    calls = []
    multiplicities = []
    pieces = transfer._composition_pieces
    multiplicity = transfer._max_closure_multiplicity

    def counted(maps):
        calls.append(len(maps))
        return pieces(maps)

    def counted_multiplicity(intervals):
        multiplicities.append(1)
        return multiplicity(intervals)

    monkeypatch.setattr(transfer, "_composition_pieces", counted)
    monkeypatch.setattr(transfer, "_max_closure_multiplicity",
                        counted_multiplicity)
    bound(RandomLYSystem(FiniteCycle(1), [doubling_map()]))
    assert calls == [3]
    assert len(multiplicities) == counters


def test_affine_pieces_pull_back_without_branch_inverses(monkeypatch):
    # each piece of an all-affine chain carries its composed map, so the
    # partition at n = 9 (1,020 pull-backs) inverts no branch; walking the
    # chain took 14,344 Branch.inverse calls per bound.  The bounds are
    # exact in the Fractions, so they stay bit for bit
    calls = []
    inverse = Branch.inverse

    def counted(self, y):
        calls.append(1)
        return inverse(self, y)

    monkeypatch.setattr(Branch, "inverse", counted)
    sysm = RandomLYSystem(FiniteCycle(1), [doubling_map()])
    orbit = _orbit(16)
    assert ly_bound_B(sysm, orbit, 9, p=2.0, t=0.25) == 2.675716008756123
    assert kappa_star_bound(sysm, orbit, 9, p=2.0,
                            t=0.25).bound == -0.17328679513998632
    assert not calls


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
