"""Matrix cocycles over a driven base: products, scaling, block components.

A generator maps base states to d x d matrices (not necessarily
invertible).  Products are accumulated newest-factor-on-the-left; long
products are renormalized through a log-scale accumulator so only the
scale, never the entries, can overflow.
"""

import math

import numpy as np

from .base import OrbitWindow, ParameterError
from .grassmann import Subspace, operator_norm, projection

__all__ = [
    "CocycleGenerator",
    "ScaledMatrix",
    "BlockDecomposition",
    "forward_product",
    "scaled_forward_product",
    "pullback_product",
    "block_components",
    "l10_identity_residual",
    "cocycle_norm_series",
    "log_plus_norm_average",
]

# running products are rescaled once their max entry leaves this range
_RENORM_HI = 1e100
_RENORM_LO = 1e-100


class CocycleGenerator:
    """State -> matrix evaluator with a fixed ambient dimension.

    Equal states must give bitwise-equal matrices; tabulated generators
    guarantee this by returning stored (read-only) arrays.
    """

    def __init__(self, evaluator, dim, name="cocycle"):
        if dim < 1:
            raise ParameterError("ambient dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = int(dim)
        self.name = name

    @classmethod
    def constant(cls, A, name="constant"):
        A = np.array(A, dtype=float)
        A.setflags(write=False)
        return cls(lambda s: A, A.shape[0], name=name)

    @classmethod
    def from_table(cls, table, name="tabulated"):
        """table: mapping from integer states (or a sequence indexed by
        state) to matrices."""
        if isinstance(table, dict):
            mats = {k: np.array(v, dtype=float) for k, v in table.items()}
        else:
            mats = {i: np.array(v, dtype=float) for i, v in enumerate(table)}
        dims = {m.shape for m in mats.values()}
        if len(dims) != 1 or any(a != b for a, b in dims):
            raise ParameterError("all table matrices must be square and equal-sized")
        for m in mats.values():
            m.setflags(write=False)
        d = next(iter(mats.values())).shape[0]
        return cls(lambda s: mats[int(round(float(s)))], d, name=name)

    @classmethod
    def from_callable(cls, fn, dim, name="callback"):
        return cls(fn, dim, name=name)

    def __call__(self, state):
        A = np.asarray(self._evaluator(state), dtype=float)
        if A.shape != (self.dim, self.dim):
            raise ParameterError(
                f"generator returned shape {A.shape}, expected {(self.dim,) * 2}")
        return A

    def matrix_at(self, orbit: OrbitWindow, offset):
        return self(orbit.state(offset))

    def __repr__(self):
        return f"CocycleGenerator(dim={self.dim}, name={self.name!r})"


class ScaledMatrix:
    """A matrix stored as mantissa * exp(log_scale)."""

    __slots__ = ("matrix", "log_scale")

    def __init__(self, matrix, log_scale=0.0):
        self.matrix = np.asarray(matrix, dtype=float)
        self.log_scale = float(log_scale)

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d), 0.0)

    def _rescaled(self):
        peak = np.abs(self.matrix).max() if self.matrix.size else 0.0
        if peak == 0.0 or not np.isfinite(peak):
            return self
        if _RENORM_LO < peak < _RENORM_HI:
            return self
        return ScaledMatrix(self.matrix / peak, self.log_scale + math.log(peak))

    def left_multiplied(self, A):
        return ScaledMatrix(A @ self.matrix, self.log_scale)._rescaled()

    def dense(self):
        """Plain array; overflows to inf if the scale is extreme."""
        with np.errstate(over="ignore"):
            return self.matrix * np.exp(self.log_scale)

    def log_norm(self, norm="l2"):
        n = operator_norm(self.matrix, norm)
        if n == 0.0:
            return -math.inf
        return math.log(n) + self.log_scale

    def apply(self, v):
        """Returns (w, log_scale) with the true image = w * exp(log_scale)."""
        return self.matrix @ np.asarray(v, dtype=float), self.log_scale

    def __repr__(self):
        return f"ScaledMatrix(log_scale={self.log_scale:.6g})"


def scaled_forward_product(gen, orbit, start, n):
    """L(sigma^(start+n-1) w) ... L(sigma^start w) as a ScaledMatrix."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    acc = ScaledMatrix.identity(gen.dim)
    for i in range(start, start + n):
        acc = acc.left_multiplied(gen.matrix_at(orbit, i))
    return acc


def forward_product(gen, orbit, start, n):
    """Dense left-to-right product over offsets start..start+n-1.

    n=0 gives the identity.  For very long products prefer
    scaled_forward_product to avoid overflow.
    """
    return scaled_forward_product(gen, orbit, start, n).dense()


def pullback_product(gen, orbit, n):
    """Product pushed forward from sigma^(-n) w to w: offsets -n..-1."""
    return forward_product(gen, orbit, -n, n)


class BlockDecomposition:
    """Projection-sandwiched components of one generator matrix.

    With Pi_V = projection onto V_plus along U + U_minus and Pi_U the
    projection onto U along V_plus + U_minus, evaluated at the current
    state (input side) and the shifted state (output side):

        L00 = Pi_V' L Pi_V     L01 = Pi_U' L Pi_V
        L10 = Pi_V' L Pi_U     L11 = Pi_U' L Pi_U

    L01 vanishes exactly when V_plus is equivariant; its relative size is
    recorded, not assumed.
    """

    def __init__(self, L00, L01, L10, L11, l01_relative):
        self.L00 = L00
        self.L01 = L01
        self.L10 = L10
        self.L11 = L11
        self.l01_relative = l01_relative

    def l01_vanishes(self, tol=1e-8):
        return self.l01_relative < tol


def _frame_projections(V_plus, U, U_minus):
    """(Pi_V, Pi_U) for the three-part frame; U_minus may be None/empty."""
    d = V_plus.ambient_dim
    parts = [U.basis]
    if U_minus is not None and U_minus.dim > 0:
        parts.append(U_minus.basis)
    rest_for_V = Subspace(np.column_stack(parts), V_plus.norm)
    Pi_V = projection(V_plus, rest_for_V).matrix
    parts = [V_plus.basis]
    if U_minus is not None and U_minus.dim > 0:
        parts.append(U_minus.basis)
    rest_for_U = Subspace(np.column_stack(parts), U.norm)
    Pi_U = projection(U, rest_for_U).matrix
    return Pi_V, Pi_U


def block_components(gen, orbit, offset, V_plus, U, U_minus=None,
                     next_frame=None):
    """Block components of L(sigma^offset w) for the frame (V_plus, U, U_minus).

    next_frame optionally gives the (V_plus, U, U_minus) triple at the
    shifted state; by default the same frame is used on both sides (exact
    for constant frames).
    """
    A = gen.matrix_at(orbit, offset)
    Pi_V, Pi_U = _frame_projections(V_plus, U, U_minus)
    if next_frame is None:
        Pi_Vn, Pi_Un = Pi_V, Pi_U
    else:
        Vn, Un = next_frame[0], next_frame[1]
        Umn = next_frame[2] if len(next_frame) > 2 else None
        Pi_Vn, Pi_Un = _frame_projections(Vn, Un, Umn)
    L00 = Pi_Vn @ A @ Pi_V
    L01 = Pi_Un @ A @ Pi_V
    L10 = Pi_Vn @ A @ Pi_U
    L11 = Pi_Un @ A @ Pi_U
    norm = V_plus.norm
    scale = operator_norm(A, norm)
    rel = operator_norm(L01, norm) / scale if scale > 0 else 0.0
    return BlockDecomposition(L00, L01, L10, L11, rel)


def l10_identity_residual(gen, orbit, frames, n):
    """Relative residual of the triangular composition identity

        L10^(n)(w) = sum_i L00^(i)(sigma^(n-i) w) L10(sigma^(n-i-1) w)
                     L11^(n-i-1)(w)

    against the directly sandwiched product.  frames(offset) must return
    the (V_plus, U, U_minus) triple at sigma^offset w.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    d = gen.dim
    blocks = []
    for i in range(n):
        fr_now = frames(i)
        fr_next = frames(i + 1)
        blocks.append(block_components(
            gen, orbit, i, fr_now[0], fr_now[1],
            fr_now[2] if len(fr_now) > 2 else None, next_frame=fr_next))
    # right-to-left accumulations of the diagonal blocks
    L11_acc = [np.eye(d)]
    for b in blocks:
        L11_acc.append(b.L11 @ L11_acc[-1])      # L11^(m)(w)
    L00_acc = [np.eye(d)]
    for b in reversed(blocks):
        L00_acc.append(L00_acc[-1] @ b.L00)      # L00^(i)(sigma^(n-i) w)
    rhs = np.zeros((d, d))
    for i in range(n):
        rhs += L00_acc[i] @ blocks[n - i - 1].L10 @ L11_acc[n - i - 1]
    fr0, frn = frames(0), frames(n)
    Pi_V0, Pi_U0 = _frame_projections(
        fr0[0], fr0[1], fr0[2] if len(fr0) > 2 else None)
    Pi_Vn, _ = _frame_projections(
        frn[0], frn[1], frn[2] if len(frn) > 2 else None)
    direct = Pi_Vn @ forward_product(gen, orbit, 0, n) @ Pi_U0
    norm = fr0[0].norm
    scale = max(operator_norm(direct, norm), operator_norm(rhs, norm), 1e-300)
    return operator_norm(direct - rhs, norm) / scale


def cocycle_norm_series(gen, orbit, n_max, norm="l2"):
    """(1/n) log ||L^(n)(w)|| for n = 1..n_max; -inf where the product
    vanishes (nilpotent directions)."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    out = np.empty(n_max)
    acc = ScaledMatrix.identity(gen.dim)
    for n in range(1, n_max + 1):
        acc = acc.left_multiplied(gen.matrix_at(orbit, n - 1))
        ln = acc.log_norm(norm)
        out[n - 1] = ln / n if np.isfinite(ln) else -math.inf
    return out


def log_plus_norm_average(gen, orbit, n, norm="l2"):
    """Birkhoff average of log+ ||L(sigma^k w)||, a (non-certifying)
    integrability diagnostic."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    total = 0.0
    for k in range(n):
        total += max(0.0, math.log(max(operator_norm(
            gen.matrix_at(orbit, k), norm), 1e-300)))
    return total / n
