"""1-D piecewise expanding maps and their transfer operators.

Branches are affine (exact rational arithmetic end to end) or affine plus
a sinusoidal perturbation with certified derivative bounds.  A branch
keeps doubles of its Fractions, taken once, and evaluates arrays of
points in floats.  Ulam matrices for affine maps are assembled by one
vectorized exact sweep over the cut points (branch ends, grid points and
preimages of grid points), all integers over their least common
denominator, so row sums are exactly 1 and several downstream checks are
exact rather than approximate; a sinusoidal map's come from one float
sweep over each branch's sorted cut points.  Every Ulam matrix is held by
its float nonzeros; the Fraction rows are built only when read.  Cocycle
generators act on density vectors, i.e. they are transposes of the
row-stochastic bin-transition matrices.  This module owns how their
products multiply: the row-slot format each state is stored in, its
kernels, and when a product takes the dense matrix instead
(``random_ulam_cocycle``).  A two-branch map's state, slot form included,
takes about 0.2 / 0.75 / 2.8 ms at N = 128 / 1024 / 4096 on a 2-core VM.
"""

import functools
import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np

from .base import ParameterError
from .cocycle import CocycleGenerator

__all__ = [
    "Branch",
    "PiecewiseExpandingMap1D",
    "RandomLYSystem",
    "UlamOperator",
    "PiecewisePolynomial",
    "UnsupportedFormError",
    "doubling_map",
    "tripling_map",
    "full_branch_affine",
    "perturbed_doubling",
    "sin_doubling",
    "ly_distance",
    "transfer_apply_exact",
    "ulam_matrix",
    "random_ulam_cocycle",
    "buzzi_swap_cocycle",
    "complexity_counters",
    "ly_bound_B",
    "kappa_star_bound",
    "discrete_sobolev_norm",
    "continuity_probe",
    "grid_midpoints",
]

_TWO_PI = 2.0 * math.pi
_LENGTH_TOL = 1e-12
# sample points per branch of the sups in ly_distance
_METRIC_GRID = 512


class UnsupportedFormError(ValueError):
    pass


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    return Fraction(x)   # floats convert exactly (binary rationals)


class Branch:
    """One monotone branch T(x) = slope*x + intercept + rho*sin(2 pi x)
    on the open interval (a, b); rho = 0 is the affine (exact) form.
    Float evaluation reads doubles of the Fractions a, b, slope and
    intercept, taken once; ``value`` and ``derivative`` take arrays, and
    an affine branch's ``value`` of a Fraction or int is exact."""

    def __init__(self, a, b, slope, intercept, rho=0.0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.slope = _frac(slope)
        self.intercept = _frac(intercept)
        self.rho = float(rho)
        self._af, self._bf = float(self.a), float(self.b)
        self._sf, self._cf = float(self.slope), float(self.intercept)
        if not self.a < self.b:
            raise ParameterError(f"branch domain ({a}, {b}) is empty")
        if self.min_expansion <= 1.0:
            raise ParameterError(
                f"branch is not uniformly expanding: inf |T'| = "
                f"{self.min_expansion:.6g} <= 1")
        lo, hi = sorted((self.value(self._af), self.value(self._bf)))
        if lo < -_LENGTH_TOL or hi > 1.0 + _LENGTH_TOL:
            raise ParameterError(
                f"branch image ({lo:.6g}, {hi:.6g}) leaves [0,1]")

    @property
    def is_affine(self):
        return self.rho == 0.0

    @property
    def min_expansion(self):
        return abs(self._sf) - _TWO_PI * abs(self.rho)

    @property
    def max_derivative(self):
        return abs(self._sf) + _TWO_PI * abs(self.rho)

    @property
    def d2_bound(self):
        return _TWO_PI ** 2 * abs(self.rho)

    def value(self, x):
        if not self.is_affine:
            return self._sf * x + self._cf + self.rho * np.sin(_TWO_PI * x)
        if isinstance(x, (Fraction, int)):
            return self.slope * x + self.intercept
        return self._sf * x + self._cf

    def derivative(self, x):
        return self._sf + self.rho * _TWO_PI * np.cos(_TWO_PI * x)

    def image(self):
        """The image's ends in increasing order, exact if affine."""
        ends = (self.a, self.b) if self.is_affine else (self._af, self._bf)
        va, vb = (self.value(x) for x in ends)
        return (va, vb) if va <= vb else (vb, va)

    def inverse(self, y):
        """Pre-image of y under this branch (None if y is outside the image)."""
        if self.is_affine:
            y = _frac(y)
            x = (y - self.intercept) / self.slope
            if self.a <= x <= self.b:
                return x
            return None
        lo, hi = self.image()
        yf = float(y)
        if not lo <= yf <= hi:
            return None
        # min_expansion > 1 makes the branch strictly monotone, rising with
        # its slope: bisect the domain down to 1e-15, comparing Python
        # floats (numpy scalars compare several times slower)
        af, bf = self._af, self._bf
        rising = self._sf > 0
        while bf - af > 1e-15:
            mid = 0.5 * (af + bf)
            if (float(self.value(mid)) < yf) == rising:
                af = mid
            else:
                bf = mid
        return 0.5 * (af + bf)

    def __repr__(self):
        form = "affine" if self.is_affine else f"sin(rho={self.rho})"
        return (f"Branch(({self._af:.4g}, {self._bf:.4g}), "
                f"slope={self._sf:.4g}, {form})")


class PiecewiseExpandingMap1D:
    def __init__(self, branches, name=""):
        if not branches:
            raise ParameterError("a map needs at least one branch")
        self.branches = sorted(branches, key=lambda br: br.a)
        self.name = name
        for u, v in zip(self.branches, self.branches[1:]):
            if v.a < u.b:
                raise ParameterError(
                    f"branch domains overlap near x={float(v.a):.6g}")
        total = sum(br._bf - br._af for br in self.branches)
        if abs(total - 1.0) > _LENGTH_TOL:
            raise ParameterError(
                f"branch domains cover total length {total}, expected 1")

    @property
    def branch_count(self):
        return len(self.branches)

    @property
    def min_expansion(self):
        return min(br.min_expansion for br in self.branches)

    @property
    def holder_bound(self):
        return max(br.max_derivative + br.d2_bound for br in self.branches)

    @property
    def is_affine(self):
        return all(br.is_affine for br in self.branches)

    def __repr__(self):
        tag = self.name or f"{self.branch_count}-branch"
        return f"PiecewiseExpandingMap1D({tag}, min_expansion=" \
               f"{self.min_expansion:.4g})"


def full_branch_affine(breakpoints, name=""):
    """Affine map whose branch on (q_i, q_{i+1}) covers (0,1) increasingly."""
    qs = [_frac(q) for q in breakpoints]
    if qs[0] != 0 or qs[-1] != 1 or any(u >= v for u, v in zip(qs, qs[1:])):
        raise ParameterError("breakpoints must increase from 0 to 1")
    branches = []
    for u, v in zip(qs, qs[1:]):
        c = 1 / (v - u)
        branches.append(Branch(u, v, c, -u * c))
    return PiecewiseExpandingMap1D(branches, name=name)


def doubling_map():
    return full_branch_affine([0, Fraction(1, 2), 1], name="doubling")


def tripling_map():
    return full_branch_affine([0, Fraction(1, 3), Fraction(2, 3), 1],
                              name="tripling")


def perturbed_doubling(delta):
    """Full-branch 2-branch affine map with breakpoint 1/(2+delta)."""
    return full_branch_affine([0, 1 / (2 + _frac(delta)), 1],
                              name=f"perturbed_doubling({float(delta):g})")


def sin_doubling(rho):
    """Doubling with a sinusoidal bend; |rho| < 1/(2 pi) keeps expansion > 1."""
    if abs(rho) * _TWO_PI >= 1.0:
        raise ParameterError("|rho| too large for uniform expansion")
    half = Fraction(1, 2)
    return PiecewiseExpandingMap1D(
        [Branch(0, half, 2, 0, rho=rho),
         Branch(half, 1, 2, -1, rho=rho)],
        name=f"sin_doubling({rho:g})")


class RandomLYSystem:
    """Driver plus a state -> map table (finite or parametrized family)."""

    def __init__(self, driver, map_table):
        self.driver = driver
        if isinstance(map_table, dict):
            self._maps = dict(map_table)
            self._fn = None
        elif isinstance(map_table, (list, tuple)):
            self._maps = {i: m for i, m in enumerate(map_table)}
            self._fn = None
        else:
            self._maps = None
            self._fn = map_table
        if self._maps is not None:
            exp = min(m.min_expansion for m in self._maps.values())
            if exp <= 1.0:
                raise ParameterError(
                    f"table violates uniform expansion: inf = {exp:.6g}")
            hb = max(m.holder_bound for m in self._maps.values())
            if not math.isfinite(hb):
                raise ParameterError("table violates uniform C^2 bound")
            self.min_expansion = exp
            self.holder_bound = hb
        else:
            self.min_expansion = None
            self.holder_bound = None

    def map_at(self, state):
        if self._maps is not None:
            return self._maps[int(round(float(state)))]
        return self._fn(state)


class UlamOperator:
    """Row-stochastic bin-transition matrix at a fixed resolution.

    Every operator holds its nonzeros P[i, j] as index arrays and float64
    values, in row-major order (``_nonzeros``); ``matrix`` and
    ``density_matrix()`` are scattered from them.  An affine map's
    operator also keeps them exactly, as ``_exact = (G, nums)``:
    Python-int numerators over the least common denominator G of every
    cut point (see ``_affine_sweep``), P[i, j] = num / G, whose floats are
    the doubles nearest the exact entries.  ``exact_rows`` (one ``{j:
    Fraction}`` dict per row) and ``exact_row_sums()`` are built from them
    only when read; both are None for other maps.
    """

    def __init__(self, n_bins, rows, cols, vals, exact=None):
        self.n_bins = n_bins
        self._nonzeros = rows, cols, vals
        self._exact = exact

    @property
    def exact(self):
        return self._exact is not None

    @functools.cached_property
    def matrix(self):
        return _dense(self.n_bins, *self._nonzeros)

    @functools.cached_property
    def exact_rows(self):
        if self._exact is None:
            return None
        G, nums = self._exact
        rows, cols, _ = self._nonzeros
        out = [dict() for _ in range(self.n_bins)]
        for i, j, num in zip(rows.tolist(), cols.tolist(), nums.tolist()):
            out[i][j] = Fraction(num, G)
        return out

    def row_sums(self):
        i, _, vals = self._nonzeros
        return np.bincount(i, weights=vals, minlength=self.n_bins)

    def exact_row_sums(self):
        if self._exact is None:
            return None
        G, nums = self._exact
        sums = [0] * self.n_bins
        for i, num in zip(self._nonzeros[0].tolist(), nums.tolist()):
            sums[i] += num
        return [Fraction(s, G) for s in sums]

    def density_matrix(self):
        """Transpose acting on density column vectors (a new array)."""
        i, j, vals = self._nonzeros
        return _dense(self.n_bins, j, i, vals)

    def __repr__(self):
        return f"UlamOperator(n_bins={self.n_bins}, exact={self.exact})"


# a map table's generator gives its dense matrix for a product with a
# frame of 1 < n columns while d^2 n stays below this (see _SlotMatrix)
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
    n), against O(d^2 n) for gemm.  Each gather holds at most 2^14 floats
    (128 KiB), no more than the d x n array a full-frame product allocates
    from d = 128 on.  Q is copied first when it shares memory with
    ``out``, as a chained product in the QR stepper's buffer does; the
    copy is the d x n temporary the gemm path makes for every product.
    The batched matmul has a fixed cost of 10-20 us, so for a frame of 1 <
    n columns with d^2 n < 2^19 a map table's generator
    (``random_ulam_cocycle``) gives the dense matrix, which gemm
    multiplies, instead.  Medians on a 2-core VM with one BLAS thread, 3/10
    mixture matrices (w = 4):

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


class _SlotTranspose(_SlotMatrix):
    """The transpose of the matrix whose row-slot form is (idx, vals),
    multiplied from that form without a transposed one: column by column,
    (A^T x)[j] is the sum of vals[i, s] x[i] over the slots with idx[i, s]
    = j, one ``np.bincount``, O(nnz).  ``random_ulam_cocycle`` gives it for
    every transposed product it does not give a dense matrix for, the l1
    norm chain's rows 1^T P among them.

    Per column it is about as fast as a _SlotMatrix over a stored
    transposed form (same VM, at 3 and 5 columns: 32/53 us against 31/34
    at d = 512, 180/292 against 227/234 at 4096), which would cost a
    second store and one sort per state (77 us at d = 256).  A full-width transposed
    product is slower: 3.0 ms against 0.24 at d = 256.  Only a filtration
    that carries every direction of an Ulam cocycle takes one.
    """

    __slots__ = ()

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


def _row_slots(n, rows, cols, vals):
    """Row-slot form (idx, vals) of the n×n matrix with the given nonzeros
    (see _SlotMatrix): each row's entries in ascending column order, then
    zeros at column 0."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    idx = np.zeros((n, max(1, int(counts.max()))), dtype=np.int32)
    out = np.zeros(idx.shape)
    idx[rows, slot] = cols
    out[rows, slot] = vals
    return idx, out


def _slot_form(op):
    """Row-slot form of op's density-side matrix P^T, the entry
    ``random_ulam_cocycle`` stores for every state."""
    i, j, vals = op._nonzeros
    return _row_slots(op.n_bins, j, i, vals)


def _dense(n, rows, cols, vals):
    """The n×n matrix with the given nonzeros."""
    M = np.zeros((n, n))
    M[rows, cols] = vals
    return M


def _scatter(n, slots):
    """The n×n matrix of a row-slot form, bit for bit the matrix whose
    nonzeros it holds."""
    idx, vals = slots
    rows, s = np.nonzero(vals)
    return _dense(n, rows, idx[rows, s], vals[rows, s])


def _affine_sweep(branches, n):
    """Exact Ulam entries of affine branches as arrays over the least
    common denominator: (G, rows, cols, nums, spacing, spacings), with
    P[rows[e], cols[e]] = nums[e] / G, one entry per nonzero.

    In units of 1/L every cut point of a branch (a, b) with T(x) = s x + c,
    s = p/q, is an integer: its ends, the grid points i/n and the
    preimages x0 + k H / L of the grid points k/n, where x0 = -c/s and H =
    L q / (n |p|).  L is the least common multiple of n, den(a), den(b),
    den(x0) and n |p| / gcd(q, n) over the branches: the least L in which
    the grid, every branch end, x0 and preimage spacing H are integers.
    With G = L / n a piece of length len (in 1/L) adds n len / L = len / G
    to its entry.

    Only a branch's row boundaries (its clipped ends and the grid points
    between them) need big-integer arithmetic: an object-array floor
    division and remainder by H give each boundary's preimage index t and
    offset r past that preimage.  A row from boundary (t0, r0) to (t1, r1)
    then holds pieces mapping into bins t0 .. t1 (mirrored, n - 1 - t, on
    a decreasing branch): the first has numerator H - r0, the interior
    ones H and the last r1, none when r1 = 0; a row of one piece has
    r1 - r0.  int64 arrays lay out the pieces of every row at once, and
    an (i, j) two branches share is summed exactly.  ``spacing[e]`` is
    the index in ``spacings`` of the branch whose H is nums[e], or -1
    where nums[e] is not a whole H.  Clipping keeps the sweep within
    [0, 1] and the preimage of [0, 1].

    A map costs a few big-integer operations per row and branch and O(nnz)
    int64 work.
    """
    x0s = [-br.intercept / br.slope for br in branches]
    L = n
    for br, x0 in zip(branches, x0s):
        p, q = br.slope.numerator, br.slope.denominator
        L = math.lcm(L, br.a.denominator, br.b.denominator, x0.denominator,
                     n * abs(p) // math.gcd(q, n))
    G = L // n                      # grid spacing
    spacings, rising, parts = [], [], []
    for br, x0 in zip(branches, x0s):
        p, q = br.slope.numerator, br.slope.denominator
        H = G * q // abs(p)         # the preimages of k/n lie H apart
        X0 = x0.numerator * (L // x0.denominator)
        Xn = X0 + (n * H if p > 0 else -n * H)
        base = min(X0, Xn)          # the preimage of bin edge 0 or of n
        lo = max(br.a.numerator * (L // br.a.denominator), 0, base)
        hi = min(br.b.numerator * (L // br.b.denominator), L, max(X0, Xn))
        if hi <= lo:
            continue
        i0, i1 = lo // G, (hi - 1) // G
        d = np.array([lo - base, *range((i0 + 1) * G - base,
                                        i1 * G - base + 1, G), hi - base],
                     dtype=object)
        t = (d // H).astype(np.int64)
        r = d % H
        t0, t1, r0, r1 = t[:-1], t[1:], r[:-1], r[1:]
        tail = r1 != 0
        count = t1 - t0 + tail
        parts.append((np.arange(i0, i1 + 1), count,
                      t0 if p > 0 else n - t0 - count,     # lowest column
                      np.where(t1 > t0, H, r1) - r0, r1, (t1 > t0) & tail))
        spacings.append(H)
        rising.append(p > 0)
    row, count, col_lo, first, last, has_last = (
        np.concatenate(a) for a in zip(*parts))
    branch = np.repeat(np.arange(len(parts)), [a[0].size for a in parts])
    # each row's pieces in ascending column order: a rising branch's first
    # piece is its row's leftmost, a falling branch's the rightmost
    ends = np.cumsum(count)
    starts = ends - count
    owner = np.repeat(np.arange(row.size), count)
    rows = row[owner]
    cols = col_lo[owner] + np.arange(ends[-1]) - starts[owner]
    spacing = branch[owner]
    nums = np.array(spacings, dtype=object)[spacing]
    up = np.array(rising)[branch]
    at_first = np.where(up, starts, ends - 1)
    at_last = np.where(up, ends - 1, starts)[has_last]
    nums[at_first] = first
    nums[at_last] = last[has_last]
    spacing[at_first] = -1
    spacing[at_last] = -1
    # rows ascend, so only a row that two branches share can break the
    # row-major order; its shared pairs are summed before any rounding
    key = rows * n + cols
    if (key[1:] <= key[:-1]).any():
        order = np.argsort(key, kind="stable")
        key, rows, cols, nums, spacing = (
            a[order] for a in (key, rows, cols, nums, spacing))
        fresh = np.ones(key.size + 1, dtype=bool)
        fresh[1:-1] = key[1:] != key[:-1]
        at = np.flatnonzero(fresh[:-1])
        nums = np.add.reduceat(nums, at)
        rows, cols, spacing = rows[at], cols[at], spacing[at]
        spacing[~fresh[at + 1]] = -1
    return G, rows, cols, nums, spacing, spacings


def ulam_matrix(T, n_bins):
    """P[i, j] = m(B_i meet T^{-1} B_j) / m(B_i) on the uniform n_bins grid.

    Affine maps are assembled exactly by one vectorized integer sweep
    over the cut points of every branch (``_affine_sweep``; exactness flag
    set), into index arrays and integer numerators over the least common
    denominator of the cut points, at O(n) big-integer operations and
    O(nnz) int64 work per map; here they become floats.  Other maps are
    cut at the branch ends and the pre-images of the bin edges (monotone
    root bracketing to 1e-15, well inside the 1e-10 documented
    tolerance); in array operations each piece maps into the bin of its
    midpoint's image and is split at the domain grid, and an entry that
    pieces share sums them in piece order.  Nothing is n x n.
    """
    if n_bins < 2:
        raise ParameterError("need n_bins >= 2")
    n = n_bins
    if T.is_affine:
        G, rows, cols, nums, spacing, spacings = _affine_sweep(T.branches, n)
        # int true division rounds correctly.  A whole preimage spacing is
        # one numerator per branch: divide it once; every other numerator
        # (spacing -1, which picks a value overwritten here) is divided in
        # one object-array pass
        vals = np.array([h / G for h in spacings])[spacing]
        cut = spacing < 0
        vals[cut] = (nums[cut] / G).astype(np.float64)
        return UlamOperator(n, rows, cols, vals, exact=(G, nums))
    edges = np.arange(n + 1) / n
    pieces = []
    for br in T.branches:
        lo, hi = map(float, br.image())
        # cut at the branch ends and the pre-images of the bin edges
        # strictly inside the image
        cuts = np.unique(np.array([br._af, br._bf, *(
            br.inverse(y) for y in edges[(lo < edges) & (edges < hi)])],
            dtype=float))
        x0, x1 = cuts[:-1], cuts[1:]
        j = (br.value(0.5 * (x0 + x1)) * n).astype(np.int64)
        pieces.append((x0, x1, np.clip(j, 0, n - 1)))
    x0, x1, j = (np.concatenate(a) for a in zip(*pieces))
    # piece p meets domain bins floor(x0 n) .. ceil(x1 n) - 1
    i_lo = np.maximum(np.floor(x0 * n), 0).astype(np.int64)
    count = np.minimum(np.ceil(x1 * n), n).astype(np.int64) - i_lo
    p = np.repeat(np.arange(x0.size), count)
    i = i_lo[p] + np.arange(p.size) - (np.cumsum(count) - count)[p]
    ov = np.minimum(x1[p], (i + 1) / n) - np.maximum(x0[p], i / n)
    kept = ov > 0
    # an (i, j) that pieces share adds their overlaps in piece order
    keys, at = np.unique(i[kept] * n + j[p][kept], return_inverse=True)
    vals = np.zeros(keys.size)
    np.add.at(vals, at, ov[kept] * n)
    return UlamOperator(n, keys // n, keys % n, vals)


# bytes a random_ulam_cocycle generator keeps: the row-slot form of every
# state's density matrix (12 B per slot, 6 KB at 128 bins and 4 slots) and
# a small window of recent dense matrices.  Each store keeps its latest
# entry even when that alone is larger.
_CACHE_BYTES = 32 * 2 ** 20
_DENSE_BYTES = 4 * 2 ** 20


class _ByteLRU:
    """Least recently used values within a byte budget."""

    def __init__(self, budget):
        self.budget = budget
        self.held = 0
        self._items = OrderedDict()

    def get(self, key):
        item = self._items.get(key)
        if item is None:
            return None
        self._items.move_to_end(key)
        return item[0]

    def put(self, key, value, nbytes):
        self._items[key] = value, nbytes
        self.held += nbytes
        while self.held > self.budget and len(self._items) > 1:
            self.held -= self._items.popitem(last=False)[1][1]


def random_ulam_cocycle(system, n_bins):
    """Generator of density-side Ulam matrices, one assembly per state.

    An affine state is assembled by ``ulam_matrix``'s exact sweep, about
    0.2 ms at 128 bins and 2.8 ms at 4096 (two branches, slot form
    included, 2-core VM); over a continuum of maps that is most of a
    spectrum's time.

    One store, least recently used first out within ``_CACHE_BYTES``, keeps
    each assembled state in one form: the row-slot form of its density-side
    matrix (``_slot_form``).  The generator's ``forms`` choose how each
    product multiplies: from that form, O(nnz) per column, by a _SlotMatrix
    or, for a transposed product, a _SlotTranspose; on a map table, whose
    states repeat, a product with 1 < cols and n_bins^2 cols < _DENSE_WORK
    takes the dense matrix and gemm instead.  A dense matrix is scattered
    from the store only for a caller that needs one, ``gen(state)`` or such
    a narrow product, and the latest ones are kept read-only within
    ``_DENSE_BYTES``; the scatter gives the same matrix bit for bit.  Over
    a map family given as a function (a continuum of states, which never
    repeat) every product takes the slot kernels, so nothing is scattered.
    Only a state whose slots were evicted is assembled again.
    """
    store = _ByteLRU(_CACHE_BYTES)
    dense = _ByteLRU(_DENSE_BYTES)
    dense_work = 0 if system._maps is None else _DENSE_WORK

    # no function here calls itself: a closure that did would hold itself
    # in a reference cycle, and the stores would outlive the generator
    # until the cycle collector ran
    def assembled(state):
        key = float(state)
        form = store.get(key)
        if form is None:
            form = _slot_form(ulam_matrix(system.map_at(state), n_bins))
            store.put(key, form, form[0].nbytes + form[1].nbytes)
        return form

    def evaluator(state):
        key = float(state)
        mat = dense.get(key)
        if mat is None:
            mat = _scatter(n_bins, assembled(state))
            mat.setflags(write=False)
            dense.put(key, mat, mat.nbytes)
        return mat

    def forms(state, cols, transpose):
        if 1 < cols and n_bins * n_bins * cols < dense_work:
            mat = evaluator(state)
            return mat.T if transpose else mat
        return (_SlotTranspose if transpose else _SlotMatrix)(
            *assembled(state))

    return CocycleGenerator(evaluator, n_bins, name=f"ulam[{n_bins}]",
                            forms=forms)


def buzzi_swap_cocycle(n_bins):
    """Doubling on each of two unit intervals, then swap the intervals.

    Modeled on [0,1] u [1,2] by a 2*n_bins block matrix [[0, D], [D, 0]]
    with D the density-side doubling Ulam matrix; the top exponent is 0
    with multiplicity 2.
    """
    D = ulam_matrix(doubling_map(), n_bins).density_matrix()
    Z = np.zeros_like(D)
    L = np.block([[Z, D], [D, Z]])
    return CocycleGenerator.constant(L, name=f"buzzi_swap[{n_bins}]")


# ---------------------------------------------------------------------------
# the map metric


def _branch_norm(br):
    xs = np.linspace(br._af, br._bf, _METRIC_GRID)
    return float(np.abs(br.value(xs)).max() + np.abs(br.derivative(xs)).max()
                 + br.d2_bound)


def ly_distance(S, T):
    """Distance between two maps: 1 on structural mismatch, otherwise the sum
    of the branchwise C^2 difference on domain overlaps, the difference of
    branch norms, and the Hausdorff distance of domains, each sup taken on
    _METRIC_GRID equally spaced points."""
    if S.branch_count != T.branch_count:
        return 1.0
    diff_term = 0.0
    norm_term = 0.0
    dom_term = 0.0
    for bs, bt in zip(S.branches, T.branches):
        lo, hi = max(bs._af, bt._af), min(bs._bf, bt._bf)
        if hi <= lo:
            return 1.0
        xs = np.linspace(lo, hi, _METRIC_GRID)
        dv = bs.value(xs) - bt.value(xs)
        dd = bs.derivative(xs) - bt.derivative(xs)
        d2 = _TWO_PI ** 2 * abs(bs.rho - bt.rho)
        diff_term = max(diff_term,
                        float(np.abs(dv).max() + np.abs(dd).max() + d2))
        norm_term = max(norm_term, abs(_branch_norm(bs) - _branch_norm(bt)))
        dom_term = max(dom_term, abs(bs._af - bt._af), abs(bs._bf - bt._bf))
    return diff_term + norm_term + dom_term


# ---------------------------------------------------------------------------
# exact transfer on piecewise polynomials


class PiecewisePolynomial:
    """Rational piecewise polynomial on [0,1]: breakpoints q_0=0<...<q_r=1
    and ascending coefficient lists per piece."""

    def __init__(self, breakpoints, coeffs):
        self.breakpoints = [_frac(q) for q in breakpoints]
        self.coeffs = [[_frac(c) for c in piece] for piece in coeffs]
        if len(self.coeffs) != len(self.breakpoints) - 1:
            raise ParameterError("need one coefficient list per piece")
        if any(u >= v for u, v in
               zip(self.breakpoints, self.breakpoints[1:])):
            raise ParameterError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, c):
        return cls([0, 1], [[c]])

    @classmethod
    def ramp(cls):
        return cls([0, 1], [[0, 1]])

    def piece_index(self, x):
        x = _frac(x)
        lo, hi = 0, len(self.coeffs) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.breakpoints[mid] <= x:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def __call__(self, x):
        x = _frac(x)
        cs = self.coeffs[self.piece_index(x)]
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def integral(self):
        total = Fraction(0)
        for (u, v), cs in zip(zip(self.breakpoints, self.breakpoints[1:]),
                              self.coeffs):
            for m, c in enumerate(cs):
                total += c * (v ** (m + 1) - u ** (m + 1)) / (m + 1)
        return total

    def sample_midpoints(self, n):
        return np.array([float(self(Fraction(2 * j + 1, 2 * n)))
                         for j in range(n)])


def _compose_affine(coeffs, alpha, beta):
    """Coefficients of p(alpha*x + beta) for ascending-coefficient p."""
    out = [Fraction(0)]
    # Horner: p = c_k + y*(...), with y = alpha*x + beta
    for c in reversed(coeffs):
        # out = out * (alpha x + beta) + c
        shifted = [Fraction(0)] * (len(out) + 1)
        for m, cm in enumerate(out):
            shifted[m] += cm * beta
            shifted[m + 1] += cm * alpha
        shifted[0] += c
        out = shifted
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def transfer_apply_exact(T, f):
    """(L_T f)(x) = sum over branches of f(xi_i(x)) |xi_i'(x)| on the branch
    images; exact rational output for affine maps."""
    if not T.is_affine:
        raise UnsupportedFormError(
            "exact transfer requires affine branches; use the Ulam path")
    breaks = {Fraction(0), Fraction(1)}
    per_branch = []
    for br in T.branches:
        u, v = br.value(br.a), br.value(br.b)
        lo, hi = (u, v) if u <= v else (v, u)
        breaks.update((lo, hi))
        for q in f.breakpoints:
            if br.a < q < br.b:
                breaks.add(br.value(q))
        per_branch.append((br, lo, hi))
    pts = sorted(breaks)
    pieces = []
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        acc = [Fraction(0)]
        for br, lo, hi in per_branch:
            if not lo < mid < hi:
                continue
            inv_slope = 1 / br.slope
            xi_mid = (mid - br.intercept) * inv_slope
            cs = f.coeffs[f.piece_index(xi_mid)]
            comp = _compose_affine(cs, inv_slope,
                                   -br.intercept * inv_slope)
            w = abs(inv_slope)
            comp = [c * w for c in comp]
            if len(comp) > len(acc):
                acc.extend([Fraction(0)] * (len(comp) - len(acc)))
            for m, c in enumerate(comp):
                acc[m] += c
        pieces.append(acc)
    return PiecewisePolynomial(pts, pieces)


# ---------------------------------------------------------------------------
# composition partitions and complexity counters


def _composition_pieces(maps):
    """Branch partition of T_n o ... o T_1 (maps[0] applied first).

    Every piece carries (dom_lo, dom_hi, img_lo, img_hi, min_slope) with
    exact Fractions on all-affine chains; min_slope lower-bounds |D(comp)|
    on the piece (exact for affine, per-branch extremes otherwise).  Its
    "link" back to the domain is, on all-affine chains, the composition as
    one exact affine map (slope, intercept), and otherwise the branch chain.
    """
    if not maps:
        raise ParameterError("empty composition")
    exact = all(m.is_affine for m in maps)
    # each map refines every piece by its branches, starting from the
    # identity on (0, 1)
    pieces = [{"dom": (0, 1), "img": (0, 1), "min_slope": 1.0,
               "link": (Fraction(1), Fraction(0)) if exact else []}]
    for m in maps:
        new = []
        for piece in pieces:
            ilo, ihi = piece["img"]
            for br in m.branches:
                qlo, qhi = max(_frac(ilo), br.a), min(_frac(ihi), br.b)
                if exact:
                    if qhi <= qlo:
                        continue
                else:
                    if float(qhi) - float(qlo) <= 1e-14:
                        continue
                dom = _pull_back_interval(piece, qlo, qhi, exact)
                if dom is None:
                    continue
                u, v = br.value(qlo), br.value(qhi)
                if u > v:
                    u, v = v, u
                slope_min = piece["min_slope"] * (
                    abs(br._sf) if br.is_affine else br.min_expansion)
                if exact:
                    s, c = piece["link"]
                    link = (br.slope * s, br.slope * c + br.intercept)
                else:
                    link = piece["link"] + [br]
                new.append({"dom": dom, "img": (u, v),
                            "min_slope": slope_min, "link": link})
        pieces = new
    return pieces, exact


def _pull_back_interval(piece, qlo, qhi, exact):
    """Domain sub-interval of the piece mapping onto (qlo, qhi)."""
    if exact:
        # the composed map takes the piece's domain onto its image, which
        # holds (qlo, qhi): one exact division per end, nothing to clip
        s, c = piece["link"]
        return tuple(sorted((q - c) / s for q in (qlo, qhi)))
    xs = []
    for q in (qlo, qhi):
        for br in reversed(piece["link"]):
            q = br.inverse(q)
            if q is None:
                return None
        xs.append(float(q))
    dlo, dhi = piece["dom"]
    lo, hi = max(min(xs), float(dlo)), min(max(xs), float(dhi))
    return (lo, hi) if hi > lo else None


def _max_closure_multiplicity(intervals):
    """Max number of closed intervals sharing a point (endpoints included,
    each widened by 1e-12 on both sides).

    One sweep over the sorted ends: the count just after the i-th start
    (in sorted order) is i + 1 minus the ends strictly before it, so at
    equal points a start counts before an end, and touching closures
    overlap.
    """
    bounds = np.array([(float(lo), float(hi)) for lo, hi in intervals])
    starts = np.sort(bounds[:, 0] - 1e-12)
    stops = np.sort(bounds[:, 1] + 1e-12)
    open_at = np.arange(1, len(starts) + 1) - np.searchsorted(stops, starts)
    return int(open_at.max())


def _composition_summary(maps, keys):
    """([counter per key], inf |D(comp)|) of the composition from one
    partition; key "dom" gives C_b and "img" gives C_e."""
    pieces, _ = _composition_pieces(maps)
    return ([_max_closure_multiplicity([p[key] for p in pieces])
             for key in keys],
            min(p["min_slope"] for p in pieces))


def complexity_counters(maps):
    """(C_b, C_e) of the composition: max multiplicities of the closures of
    the branch domains and branch images; endpoint touching counts."""
    return tuple(_composition_summary(maps, ("dom", "img"))[0])


# ---------------------------------------------------------------------------
# Lasota-Yorke diagnostics


def _validate_pt(p, t):
    if not p > 1:
        raise ParameterError(f"need p > 1, got {p}")
    if not 0 < t < 1.0 / p:
        raise ParameterError(f"need 0 < t < 1/p = {1.0 / p:.6g}, got t = {t}")


def _composition_at(system, orbit, n):
    return [system.map_at(orbit.state(k)) for k in range(n)]


def ly_bound_B(system, orbit, n, p, t, C_R=1.0):
    """B = C_R * n * C_b^(1/p) * C_e^(1-1/p) * sup |DT^(n)|^(1/p-1) mu^(-t),
    with mu(x) = |DT^(n)(x)| in one dimension, over the composition's branch
    partition.  C_R is a reporting-scale knob, default 1."""
    _validate_pt(p, t)
    if n < 1:
        raise ParameterError("n must be >= 1")
    (C_b, C_e), inf_dt = _composition_summary(
        _composition_at(system, orbit, n), ("dom", "img"))
    # exponent 1/p - 1 - t < 0: the sup is attained at the smallest slope
    sup_term = inf_dt ** (1.0 / p - 1.0 - t)
    return C_R * n * C_b ** (1.0 / p) * C_e ** (1.0 - 1.0 / p) * sup_term


class KappaStarBound:
    def __init__(self, bound, certified, log_Ce_star, log_chi, n):
        self.bound = bound
        self.certified = certified
        self.log_Ce_star = log_Ce_star
        self.log_chi = log_chi
        self.n = n

    def to_dict(self):
        return {"bound": float(self.bound), "certified": bool(self.certified),
                "log_Ce_star": float(self.log_Ce_star),
                "log_chi": float(self.log_chi), "n": self.n}

    def __repr__(self):
        return (f"KappaStarBound({self.bound:.6g}, "
                f"certified={self.certified})")


def kappa_star_bound(system, orbit, n, p, t):
    """(1 - 1/p)(log C_e* + log chi) + t log chi with C_e* and chi estimated
    by n-th roots along the orbit; certified means the bound is negative."""
    _validate_pt(p, t)
    if n < 1:
        raise ParameterError("n must be >= 1")
    # C_b does not enter the bound
    (C_e,), inf_dt = _composition_summary(
        _composition_at(system, orbit, n), ("img",))
    log_Ce_star = math.log(C_e) / n
    log_chi = -math.log(inf_dt) / n
    bound = (1.0 - 1.0 / p) * (log_Ce_star + log_chi) + t * log_chi
    return KappaStarBound(bound, bound < 0.0, log_Ce_star, log_chi, n)


# ---------------------------------------------------------------------------
# discrete Sobolev norm and the continuity probe


def grid_midpoints(n):
    return (np.arange(n) + 0.5) / n


def discrete_sobolev_norm(samples, t, p):
    """||F^-1(a_t F f)||_p on a power-of-two periodic grid,
    a_t(zeta) = (1 + zeta^2)^(t/2) at integer frequencies."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2 or n & (n - 1):
        raise ParameterError(f"grid size {n} is not a power of two")
    if not p > 1:
        raise ParameterError("need p > 1")
    if t < 0:
        raise ParameterError("need t >= 0")
    F = np.fft.fft(samples)
    zeta = np.fft.fftfreq(n, d=1.0 / n)
    G = F * (1.0 + zeta * zeta) ** (t / 2.0)
    g = np.fft.ifft(G).real
    return float((np.abs(g) ** p).mean() ** (1.0 / p))


def continuity_probe(T, perturbations, f, p, t, n_grid=256):
    """Norms ||L_S f - L_T f|| for a family S -> T, paired with the map
    distances.

    f is a PiecewisePolynomial; the transfer images are computed exactly
    and compared on the n_grid midpoint grid.  Returns a list of
    (distance, norm) pairs.
    """
    if not isinstance(f, PiecewisePolynomial):
        raise ParameterError("the probe needs a PiecewisePolynomial f")
    base = transfer_apply_exact(T, f).sample_midpoints(n_grid)
    out = []
    for S in perturbations:
        img = transfer_apply_exact(S, f).sample_midpoints(n_grid)
        out.append((ly_distance(S, T),
                    discrete_sobolev_norm(img - base, t, p)))
    return out
