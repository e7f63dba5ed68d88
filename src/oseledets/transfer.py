"""1-D piecewise expanding maps and their transfer operators.

Branches are affine (exact rational arithmetic end to end) or affine plus
a sinusoidal perturbation with certified derivative bounds.  Ulam
matrices for affine maps are assembled by one exact integer sweep per
branch over its cut points (grid points and preimages of grid points,
all over one common denominator), so row sums are exactly 1 and several
downstream checks are exact rather than approximate; the Fraction rows
are built only when read.  Cocycle generators act on density vectors,
i.e. they are transposes of the row-stochastic bin-transition matrices.
"""

import bisect
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
    on the open interval (a, b); rho = 0 is the affine (exact) form."""

    def __init__(self, a, b, slope, intercept, rho=0.0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.slope = _frac(slope)
        self.intercept = _frac(intercept)
        self.rho = float(rho)
        if not self.a < self.b:
            raise ParameterError(f"branch domain ({a}, {b}) is empty")
        if self.min_expansion <= 1.0:
            raise ParameterError(
                f"branch is not uniformly expanding: inf |T'| = "
                f"{self.min_expansion:.6g} <= 1")
        lo, hi = self.image()
        if float(lo) < -_LENGTH_TOL or float(hi) > 1.0 + _LENGTH_TOL:
            raise ParameterError(
                f"branch image ({float(lo):.6g}, {float(hi):.6g}) leaves [0,1]")

    @property
    def is_affine(self):
        return self.rho == 0.0

    @property
    def min_expansion(self):
        base = abs(float(self.slope))
        return base - _TWO_PI * abs(self.rho)

    @property
    def max_derivative(self):
        return abs(float(self.slope)) + _TWO_PI * abs(self.rho)

    @property
    def d2_bound(self):
        return _TWO_PI ** 2 * abs(self.rho)

    def value(self, x):
        if self.is_affine and isinstance(x, (Fraction, int)):
            return self.slope * x + self.intercept
        xf = float(x)
        return float(self.slope) * xf + float(self.intercept) + \
            self.rho * math.sin(_TWO_PI * xf)

    def derivative(self, x):
        return float(self.slope) + self.rho * _TWO_PI * math.cos(
            _TWO_PI * float(x))

    def image(self):
        va, vb = self.value(self.a), self.value(self.b)
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
        # min_expansion > 1 makes the branch strictly monotone: bisect the
        # domain down to 1e-15, keeping the pre-image inside the bracket
        af, bf = float(self.a), float(self.b)
        rising = self.value(bf) >= self.value(af)
        while bf - af > 1e-15:
            mid = 0.5 * (af + bf)
            if (self.value(mid) < yf) == rising:
                af = mid
            else:
                bf = mid
        return 0.5 * (af + bf)

    def __repr__(self):
        form = "affine" if self.is_affine else f"sin(rho={self.rho})"
        return (f"Branch(({float(self.a):.4g}, {float(self.b):.4g}), "
                f"slope={float(self.slope):.4g}, {form})")


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
        total = sum(br.b - br.a for br in self.branches)
        if abs(float(total) - 1.0) > _LENGTH_TOL:
            raise ParameterError(
                f"branch domains cover total length {float(total)}, expected 1")
        self._lows = [float(br.a) for br in self.branches]

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

    def branch_of(self, x):
        xf = float(x)
        i = bisect.bisect_right(self._lows, xf) - 1
        i = min(max(i, 0), len(self.branches) - 1)
        return self.branches[i]

    def apply(self, x):
        v = self.branch_of(x).value(x)
        return min(max(float(v), 0.0), 1.0) if not isinstance(v, Fraction) \
            else v

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

    An affine map's operator holds its entries exactly, as integer
    numerators over one common denominator: ``entries = (L, {(i, j):
    num})`` with P[i, j] = num / L.  ``_nonzeros`` is the one place they
    become floats: int true division rounds correctly, so every float is
    the double nearest the exact entry.  ``matrix`` and
    ``density_matrix()`` are filled from those nonzeros on demand, and
    ``random_ulam_cocycle`` stores them in place of dense matrices, so an
    evicted dense matrix is rebuilt by a scatter, not a new sweep.
    ``exact_rows`` (one ``{j: Fraction}`` dict per row) is built only when
    read.  Other maps hold the float matrix alone.
    """

    def __init__(self, n_bins, matrix=None, entries=None):
        self.n_bins = n_bins
        self._matrix = matrix
        self.entries = entries

    @property
    def exact(self):
        return self.entries is not None

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = _scatter(self.n_bins, self._nonzeros(False))
        return self._matrix

    @functools.cached_property
    def exact_rows(self):
        if self.entries is None:
            return None
        L, nums = self.entries
        rows = [dict() for _ in range(self.n_bins)]
        for (i, j), num in nums.items():
            rows[i][j] = Fraction(num, L)
        return rows

    def row_sums(self):
        return self.matrix.sum(axis=1)

    def exact_row_sums(self):
        if self.entries is None:
            return None
        L, nums = self.entries
        sums = [0] * self.n_bins
        for (i, _), num in nums.items():
            sums[i] += num
        return [Fraction(s, L) for s in sums]

    def density_matrix(self):
        """Transpose acting on density column vectors (a new array)."""
        return _scatter(self.n_bins, self._nonzeros(transpose=True))

    def _nonzeros(self, transpose):
        """(flat, vals): the nonzero entries of P, or of its transpose, as
        row-major flat indices into an N×N array and float64 values;
        ``_scatter`` rebuilds the matrix from them bit for bit."""
        if self.entries is None:
            v = (self._matrix.T if transpose else self._matrix).ravel()
            flat = np.flatnonzero(v)
            return flat, v[flat]
        L, nums = self.entries
        n = self.n_bins
        i, j = np.array(list(nums), dtype=np.intp).T
        flat = j * n + i if transpose else i * n + j
        vals = np.fromiter((num / L for num in nums.values()), np.float64,
                           count=len(nums))
        return flat, vals

    def __repr__(self):
        return f"UlamOperator(n_bins={self.n_bins}, exact={self.exact})"


def _scatter(n, nonzeros):
    """The n×n matrix with the given (flat, vals) nonzeros."""
    M = np.zeros((n, n))
    np.put(M, *nonzeros)
    return M


def _bin_range(lo, hi, n):
    """Indices of bins [j/n, (j+1)/n) meeting the interval (lo, hi)."""
    j0 = int(math.floor(float(lo) * n))
    j1 = int(math.ceil(float(hi) * n))
    return max(j0, 0), min(j1, n)


def _affine_entries(branches, n):
    """Exact Ulam entries of affine branches: (L // n, {(i, j): num}).

    Every cut point of a branch domain is an integer over the common
    denominator L: the grid points i/n and the preimages of the grid
    points j/n, two arithmetic progressions.  One two-pointer walk merges
    them; the piece between consecutive cuts lies in one bin i, maps into
    one bin j and adds its length, in units of 1/L, to num(i, j).  The
    entry n * num / L is num / (L // n), as n divides L.  The walk is
    clipped to [0, 1] and to the preimage of [0, 1].
    """
    L = n
    for br in branches:
        L = math.lcm(L, br.a.denominator, br.b.denominator,
                     n * br.intercept.denominator * abs(br.slope.numerator))
    G = L // n                      # grid spacing
    nums = {}
    for br in branches:
        p, q = br.slope.numerator, br.slope.denominator
        pc, qc = br.intercept.numerator, br.intercept.denominator
        sgn = 1 if p > 0 else -1
        # the preimage of k/n is X0 + sgn * k * H
        H = qc * q * (L // (n * qc * abs(p)))
        X0 = -sgn * n * pc * (H // qc)
        Xn = X0 + sgn * n * H
        lo = max(br.a.numerator * (L // br.a.denominator), 0, min(X0, Xn))
        hi = min(br.b.numerator * (L // br.b.denominator), L, max(X0, Xn))
        if hi <= lo:
            continue
        i = lo // G
        grid = (i + 1) * G
        if sgn > 0:                 # bin of T(lo+): floor(n T(lo))
            j = (lo - X0) // H
            pre = X0 + (j + 1) * H
        else:                       # ceil(n T(lo)) - 1
            j = -((lo - X0) // H) - 1
            pre = X0 - j * H
        x = lo
        while x < hi:
            cut = min(grid, pre, hi)
            nums[i, j] = nums.get((i, j), 0) + cut - x
            if cut == grid:
                i += 1
                grid += G
            if cut == pre:
                j += sgn
                pre += H
            x = cut
    return L // n, nums


def ulam_matrix(T, n_bins):
    """P[i, j] = m(B_i meet T^{-1} B_j) / m(B_i) on the uniform n_bins grid.

    Affine maps are assembled exactly by an integer sweep over each
    branch's cut points (``_affine_entries``; exactness flag set), into
    integer numerators over one denominator, ``UlamOperator.entries``.
    Sinusoidal branches use monotone root bracketing with 1e-15
    endpoints, well inside the 1e-10 documented tolerance.
    """
    if n_bins < 2:
        raise ParameterError("need n_bins >= 2")
    n = n_bins
    if T.is_affine:
        return UlamOperator(n, entries=_affine_entries(T.branches, n))
    M = np.zeros((n, n))
    for br in T.branches:
        af, bf = float(br.a), float(br.b)
        lo_img, hi_img = (float(x) for x in br.image())
        # branch cut points: pre-images of bin edges inside the image
        cuts = [af, bf]
        j_lo, j_hi = _bin_range(lo_img, hi_img, n)
        for j in range(j_lo, j_hi + 1):
            y = j / n
            if lo_img < y < hi_img:
                x = br.inverse(y)
                if x is not None:
                    cuts.append(float(x))
        cuts = sorted(set(cuts))
        for x0, x1 in zip(cuts, cuts[1:]):
            if x1 - x0 <= 0:
                continue
            mid_img = br.value(0.5 * (x0 + x1))
            j = min(max(int(mid_img * n), 0), n - 1)
            i_lo, i_hi = _bin_range(x0, x1, n)
            for i in range(i_lo, i_hi):
                ov = min(x1, (i + 1) / n) - max(x0, i / n)
                if ov > 0:
                    M[i, j] += ov * n
    return UlamOperator(n, matrix=M)


# bytes a random_ulam_cocycle generator keeps: the nonzeros of every
# state's density matrix (about 16 B per nonzero, 6 KB at 128 bins), and a
# small window of recent dense matrices.  Each store keeps its latest entry
# even when that alone is larger.
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

    Two caches, each least recently used first out: the nonzeros of every
    assembled state within ``_CACHE_BYTES``, and read-only dense matrices
    within ``_DENSE_BYTES``.  A dense miss whose nonzeros are held costs
    one ``np.zeros`` and a scatter and gives the same matrix bit for bit;
    only a state whose nonzeros were evicted too is assembled again.
    """
    nonzeros = _ByteLRU(_CACHE_BYTES)
    dense = _ByteLRU(_DENSE_BYTES)

    def evaluator(state):
        key = float(state)
        mat = dense.get(key)
        if mat is not None:
            return mat
        nz = nonzeros.get(key)
        if nz is None:
            op = ulam_matrix(system.map_at(state), n_bins)
            nz = op._nonzeros(transpose=True)
            nonzeros.put(key, nz, nz[0].nbytes + nz[1].nbytes)
        mat = _scatter(n_bins, nz)
        mat.setflags(write=False)
        dense.put(key, mat, mat.nbytes)
        return mat

    return CocycleGenerator(evaluator, n_bins,
                            name=f"ulam[{n_bins}]")


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
    xs = np.linspace(float(br.a), float(br.b), _METRIC_GRID)
    vals = np.array([br.value(x) for x in xs], dtype=float)
    ders = np.array([br.derivative(x) for x in xs], dtype=float)
    return float(np.abs(vals).max() + np.abs(ders).max() + br.d2_bound)


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
        lo = max(float(bs.a), float(bt.a))
        hi = min(float(bs.b), float(bt.b))
        if hi <= lo:
            return 1.0
        xs = np.linspace(lo, hi, _METRIC_GRID)
        dv = np.array([bs.value(x) - bt.value(x) for x in xs], dtype=float)
        dd = np.array([bs.derivative(x) - bt.derivative(x) for x in xs],
                      dtype=float)
        d2 = _TWO_PI ** 2 * abs(bs.rho - bt.rho)
        diff_term = max(diff_term,
                        float(np.abs(dv).max() + np.abs(dd).max() + d2))
        norm_term = max(norm_term, abs(_branch_norm(bs) - _branch_norm(bt)))
        dom_term = max(dom_term,
                       abs(float(bs.a) - float(bt.a)),
                       abs(float(bs.b) - float(bt.b)))
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
    on the piece (exact for affine, per-branch extremes otherwise).
    """
    if not maps:
        raise ParameterError("empty composition")
    exact = all(m.is_affine for m in maps)

    def initial(m):
        out = []
        for br in m.branches:
            lo, hi = br.image()
            slope_min = abs(float(br.slope)) if br.is_affine \
                else br.min_expansion
            out.append({"dom": (br.a, br.b), "img": (lo, hi),
                        "min_slope": slope_min, "chain": [br]})
        return out

    pieces = initial(maps[0])
    for m in maps[1:]:
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
                    abs(float(br.slope)) if br.is_affine else br.min_expansion)
                new.append({"dom": dom, "img": (u, v),
                            "min_slope": slope_min,
                            "chain": piece["chain"] + [br]})
        pieces = new
    return pieces, exact


def _pull_back_interval(piece, qlo, qhi, exact):
    """Domain sub-interval of the piece mapping onto (qlo, qhi)."""
    xs = []
    for q in (qlo, qhi):
        x = q
        ok = True
        for br in reversed(piece["chain"]):
            x = br.inverse(x)
            if x is None:
                ok = False
                break
        if not ok:
            return None
        xs.append(x)
    lo, hi = (xs[0], xs[1]) if xs[0] <= xs[1] else (xs[1], xs[0])
    dlo, dhi = piece["dom"]
    lo = max(_frac(lo) if exact else lo, _frac(dlo) if exact else float(dlo))
    hi = min(_frac(hi) if exact else hi, _frac(dhi) if exact else float(dhi))
    if (exact and hi <= lo) or (not exact and float(hi) - float(lo) <= 0):
        return None
    return (lo, hi)


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
