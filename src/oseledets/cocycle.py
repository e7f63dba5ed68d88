"""Matrix cocycles over a driven base: generators and the QR walk.

A generator maps base states to d x d matrices (not necessarily
invertible).  Products along the orbit put the newest factor on the
left, and no d x d product is ever formed: every product is one of a
matrix into a frame of a few columns.  ``_qr_pass`` is the one blocked
QR walk of an orthonormal frame along the orbit: the Lyapunov spectrum,
the backward filtration steps, the pushforwards and the growth rates all
run through it, and it alone uses the LAPACK workspace of ``_QRStepper``.

Every product of a generator's matrix into a frame or a vector (the QR
walk, the spectrum's norm chain, the equivariance check) takes the matrix
from one hook, ``CocycleGenerator._factor``.  A dense generator gives its
array, so those products are numpy's gemm, bit for bit.  A generator with
``forms`` chooses the form of each product itself: ``random_ulam_cocycle``
(in ``transfer``, which owns the row-slot format and its policy) gives
kernels that multiply from the stored nonzeros.
"""

import math

import numpy as np
from numpy.linalg import lapack_lite

from .base import OrbitWindow, ParameterError

__all__ = ["CocycleGenerator"]

# the spectrum's norm chain rescales its vector once the max entry leaves
# this range, and the QR pass keeps its block pivots inside it
_RENORM_HI = 1e100
_RENORM_LO = 1e-100
# one-step image below this fraction of the frame's dominant factor counts
# as numerical annihilation.  Measured on rank-deficient Ulam cocycles,
# recycled-noise dips stay below 1e-9 while genuine per-step factors of
# resolvable exponents stay above 1e-2; the midpoint leaves seven orders of
# margin each way
_DEATH_REL = 1e-8
# the QR pass factors a block of steps at once and sizes the next block so
# that its pivots spread over about e^10 (the last block's spread per step
# times the length): Householder QR of the block product then loses about
# e^10 eps = 5e-12 in the log of its smallest pivot, and the spread stays
# e^8 short of the _DEATH_REL collapse test (1e-8 = e^-18.4).  At e^12 a
# tight pair of raw exponents on the 256-bin Ulam mixture moved by 2.6e-10
# against the per-step loop; at e^10 by 2.2e-11
_BLOCK_LOG_SPREAD = 10.0
# the next block's largest pivot, at the last block's scale per step, also
# stays inside [_RENORM_LO, _RENORM_HI], which a block that grows or
# shrinks by more than e^230 leaves and is then redone
_LOG_RENORM = min(math.log(_RENORM_HI), -math.log(_RENORM_LO))


def _product(A, Q, out):
    """Write A @ Q into ``out``: numpy's gemm for an array, so the product
    is bitwise ``A @ Q``; otherwise A's own ``product(Q, out)``, as a
    generator's ``forms`` give it."""
    if isinstance(A, np.ndarray):
        out[...] = A @ Q
        return out
    return A.product(Q, out)


class CocycleGenerator:
    """State -> matrix evaluator with a fixed ambient dimension.

    Equal states must give bitwise-equal matrices; tabulated generators
    guarantee this by returning stored (read-only) arrays.  ``forms``, if
    given, is the generator's product policy: ``forms(state, cols,
    transpose)`` is the matrix at ``state``, or its transpose, in the form
    a product with a frame of ``cols`` columns takes (see ``_factor``).
    """

    def __init__(self, evaluator, dim, name="cocycle", forms=None):
        if dim < 1:
            raise ParameterError("ambient dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = int(dim)
        self.name = name
        self._forms = forms

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

    def _factor(self, state, cols, transpose=False):
        """The product hook: the matrix at ``state``, or its transpose, in
        the form every product with a frame of ``cols`` columns takes,
        ``F @ Q`` or ``_product(F, Q, out)``.  That is ``forms(state, cols,
        transpose)`` for a generator with ``forms`` (an array or a row-slot
        kernel, see transfer.random_ulam_cocycle) and the array itself
        otherwise."""
        if self._forms is not None:
            return self._forms(state, cols, transpose)
        A = self(state)
        return A.T if transpose else A

    def __repr__(self):
        return f"CocycleGenerator(dim={self.dim}, name={self.name!r})"


def _aligned_empty(shape):
    """An uninitialized C-ordered float array whose data starts on a
    64-byte boundary.  The heap may place a numpy buffer at 16 or 48 mod
    64, and four timings of 256 x 256 QR steps suggested that this costs
    about 2%."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + size].reshape(shape)


class _QRStepper:
    """Thin QR steps Q, R = qr(A @ Q) of m x n products through one
    LAPACK workspace.

    ``step`` forms the product A @ Q through ``_product`` (for an array A,
    exactly as ``np.linalg.qr(A @ Q)`` would see it) and runs the same
    ``dgeqrf``/``dorgqr`` pair from numpy's bundled LAPACK, with a
    workspace at least as large as either routine's query asks for (so
    both take the blocked path ``np.linalg.qr`` takes); its Q and |diag R|
    are bitwise those of ``np.linalg.qr`` of the same product.  The
    Fortran-ordered buffers are allocated once, not once per step, on a
    64-byte boundary.  Q is returned C-contiguous because the next product
    ``A @ Q`` rounds differently for a Fortran-ordered Q.  A is an array or
    a row-slot kernel (``CocycleGenerator._factor``), which writes the
    product straight into the buffer.
    Requires m >= n >= 1.
    """

    def __init__(self, m, n):
        self.m, self.n = int(m), int(n)
        # C-ordered n x m is column-major m x n, the layout LAPACK reads
        self._a = _aligned_empty((n, m))
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
        return _product(A, Q, self._a.reshape(self.m, self.n))

    def step(self, A, Q):
        """(Q', |diag R|) of the QR factorization of A @ Q."""
        a = _product(A, Q, self._a.T)
        lapack_lite.dgeqrf(self.m, self.n, self._a, self.m, self._tau,
                           self._work, self._lwork, 0)
        diag = np.abs(a.diagonal())
        lapack_lite.dorgqr(self.m, self.n, self.n, self._a, self.m,
                           self._tau, self._work, self._lwork, 0)
        # a copy even for n = 1, where the buffer's transpose is already
        # C-contiguous: the next ``product`` overwrites the buffer
        return a.copy(), diag


def _qr_pass(factor, Q, stops):
    """Walk the orthonormal frame Q through factor(0) .. factor(N - 1),
    N = stops[-1], with one QR per block of steps (Benettin, Galgani,
    Giorgilli and Strelcyn 1980); yields (k, Q, diags) at each block end k:
    the frame after step k and the |diag R| of the block's factorizations.
    Each factor is an array or a row-slot kernel, as the generator's
    product hook ``CocycleGenerator._factor`` gives it, and every product
    of the walk goes through ``_product``: gemm for arrays, the kernel's
    own product (O(nnz) per column) otherwise.

    Blocks end at every stop.  A block of b steps factors the plain product
    A_{k+b} ... A_{k+1} Q once; in exact arithmetic its R-diagonal is the
    product of the per-step ones, and Householder QR resolves its smallest
    pivot to about (largest / smallest) eps.  So at the last block's rates
    per step, b is the largest length whose pivots spread over about
    e^_BLOCK_LOG_SPREAD and whose largest pivot stays in [_RENORM_LO,
    _RENORM_HI]; the first block, and any after zero or noise-level
    pivots, is one step.  A frame with fewer columns than rows grows its
    blocks at most twofold: before it settles, a short block can barely
    spread its pivots and size a next block that collapses.  A block with
    b > 1 whose product has a pivot at or below _DEATH_REL times the
    largest, or a largest pivot out of that range or not finite, is redone
    step by step (``factor`` must give the same matrices again), yields the
    per-step diagonals and resets b to 1; it is formed with overflow
    warnings off, since the redo handles them.  A one-step collapse that
    later steps of its block offset is not seen.
    """
    stepper = _QRStepper(*Q.shape)
    n = stops[-1]
    k, b, s = 0, 1, 0
    while k < n:
        end = min(k + b, stops[s])
        M = Q
        quiet = {"over": "ignore", "invalid": "ignore"} if end - k > 1 else {}
        with np.errstate(**quiet):
            for i in range(k, end - 1):
                M = stepper.product(factor(i), M)
            Q_block, diag = stepper.step(factor(end - 1), M)
        top = float(diag.max())
        if end - k > 1 and (not _RENORM_LO <= top <= _RENORM_HI or (
                diag <= _DEATH_REL * top).any()):
            diags = []
            for i in range(k, end):
                Q, diag = stepper.step(factor(i), Q)
                diags.append(diag)
            b = 1
        else:
            Q, diags = Q_block, [diag]
            low = float(diag.min())
            if low > 0 and math.isfinite(top):
                rate = max(math.log(top / low) / _BLOCK_LOG_SPREAD,
                           abs(math.log(top)) / _LOG_RENORM)
                b = max(1, int((end - k) / rate)) if rate else n
                if Q.shape[1] < Q.shape[0]:
                    b = min(b, 2 * (end - k))
            else:
                b = 1
        k = end
        if k == stops[s]:
            s += 1
        yield k, Q, diags
