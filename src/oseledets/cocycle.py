"""Matrix cocycles over a driven base: products and overflow-safe scaling.

A generator maps base states to d x d matrices (not necessarily
invertible).  Products are accumulated newest-factor-on-the-left; long
products are renormalized through a log-scale accumulator so only the
scale, never the entries, can overflow.  ``_QRStepper`` runs the stepped
QR loops of the spectrum, the filtrations and the pushforwards through
one LAPACK workspace.
"""

import math

import numpy as np
from numpy.linalg import lapack_lite

from .base import OrbitWindow, ParameterError
from .grassmann import operator_norm

__all__ = [
    "CocycleGenerator",
    "ScaledMatrix",
    "forward_product",
    "scaled_forward_product",
    "cocycle_norm_series",
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
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ParameterError(
                f"constant matrix must be square, got shape {A.shape}")
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
        if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
            raise ParameterError("all table matrices must be square and equal-sized")
        for m in mats.values():
            m.setflags(write=False)
        d = next(iter(mats.values())).shape[0]
        return cls(lambda s: mats[int(round(float(s)))], d, name=name)

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

    def __repr__(self):
        return f"ScaledMatrix(log_scale={self.log_scale:.6g})"


class _QRStepper:
    """Thin QR steps Q, R = qr(A @ Q) of m x n products through one
    LAPACK workspace.

    ``step`` forms the product exactly as ``np.linalg.qr(A @ Q)`` would see
    it and runs the same ``dgeqrf``/``dorgqr`` pair from numpy's bundled
    LAPACK, with a workspace at least as large as either routine's query
    asks for (so both take the blocked path ``np.linalg.qr`` takes); its Q
    and |diag R| are bitwise those of ``np.linalg.qr``.  The
    Fortran-ordered buffers are allocated once, not once per step.  Q is returned C-contiguous because the next product
    ``A @ Q`` rounds differently for a Fortran-ordered Q.  Requires
    m >= n >= 1.
    """

    def __init__(self, m, n):
        self.m, self.n = int(m), int(n)
        # C-ordered n x m is column-major m x n, the layout LAPACK reads
        self._a = np.empty((n, m))
        self._tau = np.empty(n)
        query = np.empty(1)
        lapack_lite.dgeqrf(m, n, self._a, m, self._tau, query, -1, 0)
        lwork = int(query[0])
        lapack_lite.dorgqr(m, n, n, self._a, m, self._tau, query, -1, 0)
        self._lwork = max(1, lwork, int(query[0]))
        self._work = np.empty(self._lwork)

    def product(self, A, Q):
        """A @ Q written into the factorization buffer, so a block of steps
        needs no m x n array beyond those of one step.  The result is valid
        until the next ``step``, which reads it before it overwrites the
        buffer; Q may be the result of the previous ``product``."""
        M = self._a.reshape(self.m, self.n)
        M[...] = A @ Q
        return M

    def step(self, A, Q):
        """(Q', |diag R|) of the QR factorization of A @ Q."""
        a = self._a.T
        a[...] = A @ Q
        lapack_lite.dgeqrf(self.m, self.n, self._a, self.m, self._tau,
                           self._work, self._lwork, 0)
        diag = np.abs(a.diagonal())
        lapack_lite.dorgqr(self.m, self.n, self.n, self._a, self.m,
                           self._tau, self._work, self._lwork, 0)
        return np.ascontiguousarray(a), diag


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
