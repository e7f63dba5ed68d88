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
array, so those products are numpy's gemm, bit for bit.  A generator that stores its states sparsely (``random_ulam_cocycle``)
gives a ``_SlotMatrix``, which multiplies from the stored nonzeros, except
to narrow frames at small d, where gemm on the dense matrix is faster
(unless no state repeats, see ``CocycleGenerator._factor``).
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
# a generator with row slots gives its dense matrix for a product with a
# frame of 1 < n columns while d^2 n stays below this (see _SlotMatrix),
# unless it sets its own bound (CocycleGenerator._dense_work)
_DENSE_WORK = 2 ** 19
# floats (128 KiB) one gather of the _SlotMatrix kernel holds at most
_GATHER_FLOATS = 2 ** 14


class _SlotMatrix:
    """A d x d matrix in row-slot (ELL) form: row i holds vals[i, s] at
    column idx[i, s] for s < w, w the largest nonzero count of a row, and
    shorter rows are padded with zeros at column 0.

    ``A @ x`` multiplies a vector, one sum of vals[i, s] x[idx[i, s]] over
    each row's slots.  ``A @ Q`` and ``product(Q, out)`` multiply a d x n
    frame: the kernel gathers, for a chunk of rows, the w rows of Q that
    each meets and contracts them with one batched ``np.matmul``: O(d w
    n), against O(d^2 n) for gemm.  Each gather holds at most 2^14 floats (128 KiB),
    no more than the d x n array a full-frame product allocates from
    d = 128 on.  Q is copied first when it shares memory with ``out``, as
    a chained product in the QR stepper's buffer does; the copy is the
    d x n temporary the gemm path makes for every product.  The batched
    matmul has a fixed cost of 10-20 us, so for a frame of 1 < n columns
    with d^2 n < 2^19 ``CocycleGenerator._factor`` gives the dense matrix,
    which gemm multiplies, instead.  Medians on a 2-core VM with one BLAS
    thread, 3/10 mixture matrices (w = 4):

    ======  =====  =========  ===========
    d       n      gemm       slot kernel
    ======  =====  =========  ===========
    128     3      9 us       20 us
    128     32     19 us      19 us
    128     128    96 us      54 us
    256     3      19 us      23 us
    256     8      27 us      22 us
    256     256    0.85 ms    0.29 ms
    512     2      86 us      52 us
    512     512    5.5 ms     0.85 ms
    1024    1024   52 ms      6.2 ms
    ======  =====  =========  ===========

    A single column (n = 1) always takes the kernel, O(nnz): 12 us at
    d = 128 against 7 us for gemv, 9 against 12 at 256 and 24 against 84
    at 512, and a generator that has to scatter the dense matrix first
    pays more than the difference.
    """

    __slots__ = ("idx", "vals")

    def __init__(self, idx, vals):
        self.idx, self.vals = idx, vals

    @property
    def shape(self):
        d = self.idx.shape[0]
        return d, d

    def min(self):
        """The least entry (0 where a row is padded)."""
        return self.vals.min()

    def __matmul__(self, Q):
        if Q.ndim == 1:
            return (self.vals * Q[self.idx]).sum(axis=1)
        return self.product(Q)

    def product(self, Q, out=None):
        """A @ Q, written into ``out`` when given."""
        d, n = Q.shape
        if out is None:
            out = np.empty((d, n))
        elif np.may_share_memory(Q, out):
            Q = Q.copy()
        idx, vals = self.idx, self.vals
        w = idx.shape[1]
        rows = max(1, _GATHER_FLOATS // (w * n))
        for r in range(0, d, rows):
            # one expression, so a chunk's gather is freed before the next
            out[r:r + rows] = np.matmul(
                vals[r:r + rows, None, :],
                Q.take(idx[r:r + rows].ravel(), axis=0).reshape(-1, w, n)
            )[:, 0]
        return out


class _SlotTranspose:
    """The transpose of the matrix whose row-slot form is (idx, vals),
    multiplied from that form without a transposed one: column by column,
    (A^T x)[j] is the sum of vals[i, s] x[i] over the slots with idx[i, s]
    = j, one ``np.bincount``, O(nnz).  ``CocycleGenerator._factor`` gives it
    for transposed products with one or two columns, the l1 norm chain's
    rows 1^T P among them; wider ones take a _SlotMatrix over the
    transposed form.
    """

    __slots__ = ("idx", "vals")

    def __init__(self, idx, vals):
        self.idx, self.vals = idx, vals

    @property
    def shape(self):
        d = self.idx.shape[0]
        return d, d

    def min(self):
        """The least entry (0 where a row is padded)."""
        return self.vals.min()

    def __matmul__(self, x):
        if x.ndim == 1:
            return np.bincount(self.idx.ravel(),
                               weights=(self.vals * x[:, None]).ravel(),
                               minlength=self.idx.shape[0])
        return self.product(x)

    def product(self, Q, out=None):
        """A^T @ Q, written into ``out`` when given."""
        if out is None:
            out = np.empty(Q.shape)
        elif np.may_share_memory(Q, out):
            Q = Q.copy()
        for c in range(Q.shape[1]):
            out[:, c] = self @ Q[:, c]
        return out


def _product(A, Q, out):
    """Write A @ Q into ``out``: numpy's gemm for an array, so the product
    is bitwise ``A @ Q``; the row-slot kernel for a _SlotMatrix or a
    _SlotTranspose."""
    if isinstance(A, np.ndarray):
        out[...] = A @ Q
        return out
    return A.product(Q, out)


class CocycleGenerator:
    """State -> matrix evaluator with a fixed ambient dimension.

    Equal states must give bitwise-equal matrices; tabulated generators
    guarantee this by returning stored (read-only) arrays.  ``slots``, if
    given, maps a state to the row-slot form (idx, vals) of its matrix,
    and ``slots(state, True)`` to that of the transpose (see _SlotMatrix);
    products then use them.
    """

    # a generator with slots gives its dense matrix for a product with
    # 1 < cols and d^2 cols below this; 0 always takes the slot kernels
    _dense_work = _DENSE_WORK

    def __init__(self, evaluator, dim, name="cocycle", slots=None):
        if dim < 1:
            raise ParameterError("ambient dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = int(dim)
        self.name = name
        self._slots = slots

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
        ``F @ Q`` or ``_product(F, Q, out)``.  That is the array itself
        without ``slots``, and with them for 1 < cols and d^2 cols <
        ``_dense_work`` (_DENSE_WORK unless the generator sets it), where
        gemm beats the row-slot kernel; otherwise a _SlotMatrix over the
        stored form, or a _SlotTranspose of it for a transposed product
        with at most two columns (see _SlotMatrix)."""
        d = self.dim
        if self._slots is None or 1 < cols and d * d * cols < self._dense_work:
            A = self(state)
            return A.T if transpose else A
        if transpose and cols <= 2:
            return _SlotTranspose(*self._slots(state))
        return _SlotMatrix(*self._slots(state, transpose))

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
    a generator's _SlotMatrix (``CocycleGenerator._factor``); the slot
    kernel writes the product in row chunks straight into the buffer.
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
    Each factor is an array or a _SlotMatrix, as the generator's product
    hook ``CocycleGenerator._factor`` gives it, and every product of the
    walk goes through ``_product``: gemm for arrays, the row-slot kernel
    (O(nnz) per column) for sparse generators' factors.

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
