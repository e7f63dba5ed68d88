"""Matrix cocycles: generators, products, QR steps."""

import numpy as np
import pytest

from oseledets.base import FiniteCycle, ParameterError, generate_orbit
from oseledets.cocycle import CocycleGenerator, _QRStepper
from oseledets.grassmann import Subspace
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

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 1), (40, 3), (128, 128),
                                      (256, 256)])
    def test_buffer_on_64_byte_boundary(self, m, n):
        buf = _QRStepper(m, n)._a
        assert buf.ctypes.data % 64 == 0
        assert buf.shape == (n, m) and buf.flags.c_contiguous

    def test_chained_slot_products_read_before_writing(self):
        # the row-slot kernel writes the buffer in row chunks, so a product
        # of the product held there must read a copy of it
        from fractions import Fraction

        from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                        random_ulam_cocycle)
        gen = random_ulam_cocycle(RandomLYSystem(FiniteCycle(1), [
            full_branch_affine([0, Fraction(3, 10), 1])]), 128)
        F, G = gen._factor(0, 128), gen._factor(0, 128, transpose=True)
        Q = np.linalg.qr(np.random.default_rng(9).standard_normal(
            (128, 128)))[0]
        stepper = _QRStepper(128, 128)
        P = stepper.product(G, stepper.product(F, Q))
        assert np.array_equal(P, G @ (F @ Q))
        Q1, diag = stepper.step(F, stepper.product(G, Q))
        Q_ref, R = np.linalg.qr(F @ (G @ Q))
        assert np.array_equal(Q1, Q_ref)
        assert np.array_equal(diag, np.abs(np.diag(R)))

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


def test_narrow_frame_blocks_grow_at_most_geometrically(monkeypatch):
    # a 2-column frame's first one-step block barely spreads its pivots;
    # without the doubling cap the second block spanned the rest of the
    # walk, collapsed and was redone step by step (257 factorizations plus
    # 254 chained products for 256 steps)
    from fractions import Fraction

    from oseledets.base import BernoulliShift
    from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                    random_ulam_cocycle)
    driver = BernoulliShift([0.5, 0.5])
    system = RandomLYSystem(driver, [full_branch_affine([0, q, 1])
                                     for q in (Fraction(3, 10),
                                               Fraction(2, 5))])
    gen = random_ulam_cocycle(system, 128)
    orbit = generate_orbit(driver, 1, 257, 2)
    U = Subspace(np.random.default_rng(0).standard_normal((128, 2)))
    calls = {"step": 0, "product": 0}
    for name in calls:
        real = getattr(_QRStepper, name)

        def counted(self, A, Q, real=real, name=name):
            calls[name] += 1
            return real(self, A, Q)

        monkeypatch.setattr(_QRStepper, name, counted)
    Y = pushforward_space(gen, orbit, U, 256)
    assert Y.dim == 2
    assert calls["step"] + calls["product"] <= 300, calls
