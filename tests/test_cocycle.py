"""Matrix cocycles: generators, products, scaling."""

import math

import numpy as np
import pytest

from oseledets.base import FiniteCycle, ParameterError, generate_orbit
from oseledets.cocycle import (
    CocycleGenerator,
    ScaledMatrix,
    _QRStepper,
    cocycle_norm_series,
    forward_product,
    scaled_forward_product,
)
from oseledets.grassmann import Subspace, operator_norm
from oseledets.splitting import pushforward_space

A2 = np.array([[2.0, 1.0], [0.0, 0.5]])


def _orbit(period=2, n=64):
    return generate_orbit(FiniteCycle(period), seed=0, n_past=n, n_future=n)


class TestGenerators:
    def test_constant(self):
        gen = CocycleGenerator.constant(A2)
        orbit = _orbit()
        assert gen.dim == 2
        assert np.array_equal(gen.matrix_at(orbit, 3), A2)
        assert np.array_equal(gen.matrix_at(orbit, -5), A2)

    def test_table_dict_and_sequence(self):
        A = np.eye(2)
        B = 2.0 * np.eye(2)
        orbit = _orbit()
        for gen in (CocycleGenerator.from_table({0: A, 1: B}),
                    CocycleGenerator.from_table([A, B])):
            assert np.array_equal(gen.matrix_at(orbit, 0), A)
            assert np.array_equal(gen.matrix_at(orbit, 1), B)

    def test_table_returns_readonly(self):
        gen = CocycleGenerator.from_table([np.eye(2), 2 * np.eye(2)])
        M = gen(0)
        with pytest.raises(ValueError):
            M[0, 0] = 7.0

    def test_table_shape_validation(self):
        with pytest.raises(ParameterError):
            CocycleGenerator.from_table([np.eye(2), np.eye(3)])
        with pytest.raises(ParameterError):
            CocycleGenerator.from_table([np.ones((2, 3))])

    def test_callable_shape_check(self):
        gen = CocycleGenerator(lambda s: np.ones((3, 3)), dim=2)
        with pytest.raises(ParameterError):
            gen(0)

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], [1.0, 2.0], 3.0],
                             ids=["row", "vector", "scalar"])
    def test_constant_rejects_non_square(self, bad):
        # rejected when built, not at the first evaluation
        with pytest.raises(ParameterError, match="square"):
            CocycleGenerator.constant(bad)

    def test_state_function_bitwise(self):
        gen = CocycleGenerator.from_table([A2, A2.T])
        assert np.array_equal(gen(0), gen(0.0))


class TestProducts:
    def test_zero_length_is_identity(self):
        gen = CocycleGenerator.constant(A2)
        assert np.array_equal(forward_product(gen, _orbit(), 0, 0), np.eye(2))

    def test_constant_cube(self):
        gen = CocycleGenerator.constant(A2)
        got = forward_product(gen, _orbit(), 0, 3)
        assert np.allclose(got, A2 @ A2 @ A2, rtol=0, atol=1e-14)

    def test_pullback_order_alternating(self):
        # base point is state 0; the 2-step product from offset -2 (the
        # order pushforward_space relies on) multiplies the matrix at offset
        # -1 (state 1) on the LEFT of the matrix at offset -2 (state 0)
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[2.0, 0.0], [0.0, 3.0]])
        gen = CocycleGenerator.from_table([A, B])
        got = forward_product(gen, _orbit(), -2, 2)
        assert np.allclose(got, B @ A, atol=1e-14)
        assert not np.allclose(got, A @ B)

    def test_cocycle_property(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        gen = CocycleGenerator.from_table(mats)
        orbit = generate_orbit(FiniteCycle(4), seed=0, n_past=20, n_future=20)
        for start in (-6, 0, 2):
            for n in (0, 1, 3):
                for m in (0, 2, 5):
                    whole = forward_product(gen, orbit, start, n + m)
                    split = forward_product(gen, orbit, start + n, m) @ \
                        forward_product(gen, orbit, start, n)
                    scale = max(np.abs(whole).max(), 1.0)
                    assert np.allclose(whole, split, atol=1e-12 * scale)

    def test_log_norm_subadditive(self):
        rng = np.random.default_rng(4)
        gen = CocycleGenerator.from_table([rng.standard_normal((2, 2))
                                           for _ in range(3)])
        orbit = generate_orbit(FiniteCycle(3), seed=0, n_past=12, n_future=12)
        for norm in ("l1", "l2", "linf"):
            for n in (1, 2, 4):
                for m in (1, 3):
                    a = scaled_forward_product(gen, orbit, 0, n + m).log_norm(norm)
                    b = scaled_forward_product(gen, orbit, 0, n).log_norm(norm)
                    c = scaled_forward_product(gen, orbit, n, m).log_norm(norm)
                    assert a <= b + c + 1e-9

    def test_negative_length_rejected(self):
        gen = CocycleGenerator.constant(A2)
        with pytest.raises(ParameterError):
            forward_product(gen, _orbit(), 0, -1)


class TestScaledMatrix:
    def test_long_product_no_overflow(self):
        gen = CocycleGenerator.constant(np.diag([1e3, 1e-3]))
        acc = scaled_forward_product(gen, _orbit(n=500), 0, 400)
        got = acc.log_norm("l2")
        assert math.isclose(got, 400 * math.log(1e3), rel_tol=1e-12)
        assert np.all(np.isfinite(acc.matrix))

    def test_dense_matches_plain_product(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((2, 2))
        gen = CocycleGenerator.constant(M)
        dense = forward_product(gen, _orbit(), 0, 6)
        assert np.allclose(dense, np.linalg.matrix_power(M, 6), rtol=1e-12)

    def test_dense_overflows_to_inf(self):
        # 2^1500 exceeds the float range: the product reads inf, not an error
        gen = CocycleGenerator.constant(np.array([[2.0]]))
        dense = forward_product(gen, _orbit(n=1600), 0, 1500)
        assert dense.shape == (1, 1) and dense[0, 0] == math.inf

    def test_zero_matrix_log_norm(self):
        assert ScaledMatrix(np.zeros((2, 2))).log_norm() == -math.inf


class TestNormSeries:
    def test_identity_is_zero(self):
        gen = CocycleGenerator.constant(np.eye(3))
        assert np.allclose(cocycle_norm_series(gen, _orbit(), 10), 0.0)

    def test_diagonal_rate(self):
        gen = CocycleGenerator.constant(np.diag([2.0, 0.5]))
        series = cocycle_norm_series(gen, _orbit(), 12)
        assert np.allclose(series, math.log(2.0), atol=1e-12)

    def test_nilpotent_hits_minus_infinity(self):
        gen = CocycleGenerator.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        series = cocycle_norm_series(gen, _orbit(), 5)
        assert series[0] == pytest.approx(0.0)
        assert np.all(np.isneginf(series[1:]))

    def test_norm_tag_passthrough(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        gen = CocycleGenerator.constant(M)
        s = cocycle_norm_series(gen, _orbit(), 1, norm="linf")
        assert s[0] == pytest.approx(math.log(operator_norm(M, "linf")))


def _numpy_qr_steps(factors, Q):
    """Reference loop: the per-step np.linalg.qr the stepper replaces."""
    out = []
    for A in factors:
        Q, R = np.linalg.qr(A @ Q)
        out.append((Q, np.abs(np.diag(R))))
    return out


class TestQRStepper:
    """One LAPACK workspace reproduces a np.linalg.qr stepping loop bit for
    bit."""

    @staticmethod
    def _assert_bitwise(factors, Q0):
        stepper = _QRStepper(*Q0.shape)
        Q = Q0
        for A, (Q_ref, diag_ref) in zip(factors,
                                        _numpy_qr_steps(factors, Q0)):
            Q, diag = stepper.step(A, Q)
            assert Q.flags.c_contiguous
            assert np.array_equal(Q, Q_ref)
            assert np.array_equal(diag, diag_ref)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 1), (32, 32),
                                      (128, 3), (256, 256)])
    def test_matches_numpy_loop(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        factors = [rng.standard_normal((m, m)) for _ in range(4)]
        self._assert_bitwise(factors, np.eye(m, n))

    def test_dead_column(self):
        # a zero column of the product gives |diag R| = 0 at that position
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        A[:, 2] = 0.0
        factors = [A, rng.standard_normal((6, 6)), A]
        self._assert_bitwise(factors, np.eye(6))
        _, diag = _QRStepper(6, 6).step(A, np.eye(6))
        assert diag[2] == 0.0

    def test_read_only_and_transposed_factors(self):
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((40, 40)) for _ in range(3)]
        for M in mats:
            M.setflags(write=False)
        self._assert_bitwise(mats, np.eye(40, 3))
        self._assert_bitwise([M.T for M in mats], np.eye(40, 3))
        self._assert_bitwise([M.T for M in mats], np.eye(40))

    def test_one_column_frame_survives_product(self):
        # the transpose of an n = 1 buffer is already C-contiguous, so a
        # frame that is not copied out of it is overwritten by the next
        # product, the one a block redo would restart from
        rng = np.random.default_rng(7)
        A, B = rng.standard_normal((2, 5, 5))
        stepper = _QRStepper(5, 1)
        Q, _ = stepper.step(A, np.eye(5, 1))
        kept = Q.copy()
        stepper.product(B, Q)
        assert not np.shares_memory(Q, stepper._a)
        assert np.array_equal(Q, kept)

    def test_redone_line_pushforward_matches_numpy_loop(self, monkeypatch):
        # blocks that take in the 1e60-scaled factor twice leave the
        # rescaling range and are redone step by step from the saved line
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((2, 3, 3))
        gen = CocycleGenerator.from_table([1e60 * A, B])
        orbit = _orbit(n=200)
        u = rng.standard_normal((3, 1))
        calls = {"step": 0}
        step = _QRStepper.step

        def counted(self, M, Q):
            calls["step"] += 1
            return step(self, M, Q)

        monkeypatch.setattr(_QRStepper, "step", counted)
        got = pushforward_space(gen, orbit, Subspace(u), 100, base_offset=100)
        assert calls["step"] > 50        # most blocks were redone
        Q_ref, _ = _numpy_qr_steps(
            [gen.matrix_at(orbit, k) for k in range(100)],
            u / np.linalg.norm(u))[-1]
        y = got.orthonormal_basis()
        assert np.linalg.norm(y - Q_ref @ (Q_ref.T @ y)) <= 1e-12
