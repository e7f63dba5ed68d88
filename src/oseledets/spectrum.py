"""Lyapunov spectra, Oseledets filtrations and quasi-compactness bounds.

Exponents come from the blocked QR pass of ``cocycle._qr_pass``, which
re-orthonormalizes the frame once per block of steps (Benettin, Galgani,
Giorgilli and Strelcyn 1980) and states the block rule.  The pass carries
only as many columns as the spectrum resolves, from 8 and doubled while
the kept exponents may go on below the cut; the levels above an open
bottom cluster are reported, and the cluster's top rate bounds the rest
(see lyapunov_exponents).

The estimator is a windowed slope (S(n) - S(n/2)) / (n - n/2) of the
cumulative log R-diagonals rather than the plain (1/n) average: the
window cancels the O(1/n) transient bias, and when the base driver
exposes a finite period the window endpoints are aligned to it, which
makes the estimate geometrically exact for constant and periodic
cocycles.  When every factor is nonnegative, the top cluster is
reconciled with an independent windowed estimate of the maximal exponent
from operator norms of the product P, exact in l1 for column-stochastic
generators.  The norms come from a chain of one log-scaled vector in a
second pass over the orbit: ||P||_1 is the largest entry of the row
1^T P, swept backward, and ||P||_inf that of the column P 1, run
forward; l2 takes the linf chain (see lyapunov_exponents).  The
generator is evaluated twice per step, and every product goes through
its product hook (see ``cocycle``).

Filtrations come back as co-frames (FiltrationAt): the leading
directions of the same pass run backward on the transposed factors,
V_{j+1} being the orthogonal complement of the first c_j = m_1 + ... +
m_j of them.
"""

import math

import numpy as np

from .base import ParameterError, prf_uniform
from .cocycle import _DEATH_REL, _RENORM_HI, _RENORM_LO, _qr_pass

__all__ = [
    "LyapunovSpectrum",
    "FiltrationAt",
    "lyapunov_exponents",
    "filtration_at",
    "growth_rate",
    "hennion_kappa_bound",
]

DEFAULT_GAP_THRESHOLD = 0.05
DEFAULT_FLOOR = -30.0
# columns the Lyapunov QR pass starts with; it doubles them while the
# spectrum they resolve may go on below (see lyapunov_exponents)
_LEAD_COLUMNS = 8


class LyapunovSpectrum:
    """Distinct exponents (descending) with multiplicities and diagnostics.

    Directions whose windowed rate falls below `floor` (DEFAULT_FLOOR) are
    counted in n_infinite and excluded from the exceptional list.  The QR
    pass carried a frame of `cut` columns, so `raw_exponents` has `cut`
    entries.  When `below_cut` is None every exponent is reported, as a
    level or in n_infinite; otherwise the reported levels are those above
    an open bottom cluster of the kept columns, and `below_cut`, that
    cluster's top rate, estimates the largest exponent not reported: every
    exponent not reported lies at or below it, up to the cluster's own
    finite-n spread.  Nothing certifies that bound, so ``to_dict`` labels
    it ``below_cut_label: "estimate"`` (None when `below_cut` is None).

    `mle_estimate` is the windowed operator-norm slope (see
    lyapunov_exponents) and `mle_agreement` its distance from the top
    exponent.  Both are None when a factor has a negative entry: a chain
    of one vector then gives no norm of the product, and the top level
    keeps its QR mean.
    """

    def __init__(self, exponents, multiplicities, n_infinite, raw_exponents,
                 ambient_dim, cut, below_cut, n_used, window,
                 convergence_history, mle_estimate, gap_threshold, floor,
                 norm, warnings=()):
        self.exponents = list(exponents)
        self.multiplicities = list(multiplicities)
        self.n_infinite = int(n_infinite)
        self.raw_exponents = np.asarray(raw_exponents)
        self.ambient_dim = int(ambient_dim)
        self.cut = int(cut)
        self.below_cut = below_cut
        self.n_used = int(n_used)
        self.window = int(window)
        self.convergence_history = convergence_history
        self.mle_estimate = mle_estimate
        self.gap_threshold = float(gap_threshold)
        self.floor = float(floor)
        self.norm = norm
        self.warnings = list(warnings)
        if mle_estimate is None:
            self.mle_agreement = None
        elif self.exponents:
            self.mle_agreement = abs(self.exponents[0] - mle_estimate)
        else:
            self.mle_agreement = math.inf

    def total_multiplicity(self):
        return sum(self.multiplicities)

    def to_dict(self):
        hist_n, hist_vals = self.convergence_history
        return {
            "exponents": [float(x) for x in self.exponents],
            "multiplicities": [int(m) for m in self.multiplicities],
            "n_infinite": self.n_infinite,
            "raw_exponents": [float(x) for x in self.raw_exponents],
            "cut": self.cut,
            "below_cut": self.below_cut,
            "below_cut_label": (None if self.below_cut is None
                                else "estimate"),
            "n_used": self.n_used,
            "window": self.window,
            "mle_estimate": self.mle_estimate,
            "mle_agreement": self.mle_agreement,
            "gap_threshold": self.gap_threshold,
            "floor": self.floor,
            "norm": self.norm,
            "history_n": [int(k) for k in hist_n],
            "history": [[float(v) for v in row] for row in hist_vals],
            "warnings": list(self.warnings),
        }

    def __repr__(self):
        pairs = ", ".join(f"{x:.4f} (m={m})"
                          for x, m in zip(self.exponents, self.multiplicities))
        tail = f", -inf x {self.n_infinite}" if self.n_infinite else ""
        if self.below_cut is not None:
            tail += f", rest below ~{self.below_cut:.4f} (estimate)"
        return f"LyapunovSpectrum({pairs}{tail}; n={self.n_used})"


class FiltrationAt:
    """Nested subspaces V_1 (whole space) > V_2 > ... at a given base offset,
    carried as co-frames.

    `frame` is the orthonormal d x w frame that filtration_at steps, its
    columns ordered from the fastest direction down; `cuts` are the
    codimensions 0 = c_0 < c_1 < ... of the levels kept, c_j = m_1 + ... +
    m_j, and V_{j+1} is the orthogonal complement of frame[:, :c_j].  Only
    cuts below d are kept, so len() counts V_1 .. V_{len}.  No level is
    ever formed as a d x (d - c_j) basis: a vector g is moved into V_{j+1}
    as g - F (F^T g) with F = frame[:, :c_j].  `blurred` maps each level
    k whose boundary rate (of direction c_{k-1}) lies above the midpoint
    of the exponents either side of it to that rate.
    """

    def __init__(self, offset, frame, cuts, rates, blurred=None):
        self.offset = int(offset)
        self.frame = frame
        self.cuts = [int(c) for c in cuts]
        self.rates = np.asarray(rates)
        self.blurred = dict(blurred or {})

    def __len__(self):
        return len(self.cuts)


def _aligned(k, period):
    if period is None or period <= 1:
        return k
    return max(period, (k // period) * period)


def _cluster(values, threshold):
    """Group a descending array into clusters split at gaps > threshold."""
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > threshold:
            clusters.append(values[start:i])
            start = i
    return clusters


def _log_norm_ends(gen, orbit, n_half, n_eff, transpose):
    """log of the largest entry of P_k^T 1 (``transpose``) or of P_k 1 at
    k = n_half and k = n_eff, where P_k is the product of the factors at
    offsets 0..k-1.  For a product with nonnegative factors these are
    ||P_k||_1 and ||P_k||_inf.

    Each chain carries one vector, one product ``A @ v`` with the factor
    (its transpose for the rows) per step, and a log scale: a vector whose
    largest entry leaves [_RENORM_LO, _RENORM_HI] is divided by it.  The
    row 1^T P_k = 1^T A_k ... A_1 is swept backward from step n_eff down
    to step 1, and a second row, in the same array, starts at step n_half;
    the column P_k 1 runs forward and is copied at step n_half.
    """
    vecs = np.ones((2, gen.dim))
    log_scale = [0.0, 0.0]
    live = 1
    for k in range(n_eff, 0, -1) if transpose else range(1, n_eff + 1):
        if transpose and k == n_half:
            live = 2
        A = gen._factor(orbit.state(k - 1), 1, transpose)
        for r in range(live):
            vec = A @ vecs[r]
            peak = vec.max()
            if not _RENORM_LO < peak < _RENORM_HI and 0 < peak < math.inf:
                vec = vec / peak
                log_scale[r] += math.log(peak)
            vecs[r] = vec
        if not transpose and k == n_half:
            vecs[1], log_scale[1] = vecs[0], log_scale[0]
    full, half = (-math.inf if peak == 0 else math.log(peak) + ls
                  for peak, ls in zip(vecs.max(axis=1), log_scale))
    return half, full


def _lead_frame(d, k):
    """The orthonormal d x k frame a QR pass of k columns starts from: an
    orthonormalized frame of fixed pseudorandom entries, uniform on
    [-1/2, 1/2) (prf_uniform at seed 0 over offsets 0, -1, 1, -2, ...,
    the first k d offsets in zigzag order; numpy.random would add 5.5 MB
    of resident memory to a process that uses nothing else of it).
    Column j draws the same entries for every k > j, so the first j
    columns of any wider frame span what the j-column frame spans.

    The leading columns of the identity are not generic: a cocycle that
    keeps the coordinate axes (a diagonal one, or one whose kernel holds
    e_1) never moves them, so the levels whose directions they miss would
    go unseen and a killed axis would pass for a dead tail.  In the
    spectrum diag(2, 1/2 x 7, 3, 4) reported log 2 above the cut and
    missed log 3 and log 4, and diag(0, 1 x 11) gave 0 with multiplicity
    7 and n_infinite 5; in a filtration, even at k = d, the columns of
    diag(2, 1/2, 3) stayed in coordinate order and Y_1 came out e_1."""
    i = np.arange(k * d)
    G = prf_uniform(0, np.where(i % 2, -(i + 1) // 2, i // 2)) - 0.5
    return np.ascontiguousarray(np.linalg.qr(G.reshape(k, d).T)[0])


def _leading_slopes(gen, orbit, k, n_half, n_eff, hist_n):
    """The QR pass of a k-column frame (the identity at k = d, else
    _lead_frame) over offsets 0..n_eff-1, with a block end at n_half and
    at every history point.

    Returns the raw windowed slopes (S(n_eff) - S(n_half)) / window of
    the cumulative log R-diagonals S, -inf for a column that collapsed
    inside the window, the history S(m) / m at each m of hist_n (one row
    each), and whether every factor is nonnegative.
    """
    d = gen.dim
    S = np.zeros(k)
    logs = np.empty(k)    # log diag R, -inf where R has a zero pivot
    S_half = None
    dead = np.zeros(k, dtype=bool)
    hist = np.empty((len(hist_n), k))
    h = 0
    nonnegative = True

    def factor(i):
        nonlocal nonnegative
        A = gen._factor(orbit.state(i), k)
        nonnegative = nonnegative and A.min() >= 0
        return A

    Q = np.eye(d) if k == d else _lead_frame(d, k)
    for m, _, diags in _qr_pass(factor, Q, sorted(set(hist_n) | {n_half})):
        for diag in diags:
            logs.fill(-np.inf)
            S = S + np.log(diag, out=logs, where=diag != 0)
            # a collapse inside the measurement window marks the position
            # dead: its column is recycled float noise whose later slope is
            # a ghost, not an exponent.  Collapses before the window are
            # left alone; the reseeded column then tracks a genuine slower
            # direction and the windowed slope measures it (that
            # self-healing is the reason the slope is windowed rather than
            # cumulative)
            if m > n_half:
                dead |= diag <= _DEATH_REL * max(float(diag.max()), 1e-300)
        if m == n_half:
            S_half = S.copy()
        if m == hist_n[h]:
            hist[h] = S / m
            h += 1

    with np.errstate(invalid="ignore"):
        raw = (S - S_half) / (n_eff - n_half)
    return np.where(np.isnan(raw) | dead, -math.inf, raw), hist, nonnegative


def lyapunov_exponents(gen, orbit, n, gap_threshold=DEFAULT_GAP_THRESHOLD,
                       norm="l2"):
    """Estimate the Lyapunov spectrum over offsets 0..n-1.

    Returns a LyapunovSpectrum whose exponents are the clustered windowed
    QR slopes; when every factor is nonnegative, the top cluster is
    replaced by the operator-norm slope if the two agree within
    gap_threshold (they estimate the same limit, and the norm-based value
    is exact for norm-preserving cocycles).

    The QR pass carries a frame of only k columns, the cut, from k =
    min(d, _LEAD_COLUMNS) (Benettin, Galgani, Giorgilli and Strelcyn
    1980): from a generic start frame (_lead_frame) they track the k
    fastest directions, so the leading raw exponents are those of the full
    pass.  At k = d the frame is the identity and the pass is the full
    one.  The kept raw exponents, sorted, are clustered at gaps >
    gap_threshold.  k doubles, and the pass runs again, while k < d, no
    kept column is dead (below the floor) and the bottom cluster holds
    fewer than k / 2 columns or is the only one.  Then:

    - at k = d, the pass is the full one and every level is reported;
    - with a dead tail, the exponents below the last kept finite one are
      -inf: every finite level is reported and n_infinite = d - (finite
      columns);
    - otherwise the bottom cluster is open (the columns past the cut may
      continue it), so only the levels that end at a gap above it are
      reported.  ``below_cut`` is its top rate; every exponent not
      reported lies at or below it, up to the cluster's finite-n spread
      (its rates moved by up to 7e-3 between start frames on the Ulam
      mixtures).

    On Ulam discretizations this keeps the exceptional exponents and drops
    the wide cluster of spurious ones below them: the 3/10, 2/5 mixtures
    at 64 to 256 bins stop at k = 8 with levels [1, 1], a 256-bin pass
    steps 256 x 8 frames instead of 256 x 256 ones, and the two levels'
    raw exponents agreed with the full pass to 1e-15.

    The pass is ``_qr_pass`` with a block end at n_half, at n_eff and at
    every history point, so S_half and convergence_history see the same
    steps as per-step QR.  Against the per-step loop on 3/10, 2/5 Ulam
    mixtures (64 to 256 bins, 400 and 800 steps, the same products) the
    full pass's raw exponents agreed to 4.1e-11, the largest at a tight
    pair (gap 0.017) deep in the wide level, where a 1e-15 change of the
    start frame moves the per-step loop's own raw exponents by 3.9e-11.
    The 256-bin mixture takes 134 full-width factorizations for 400
    steps.  Rank-deficient and extreme-scale cocycles in the tests run
    the per-step loop bit for bit.

    The norm slope, the windowed slope of log ||P_k||, comes from a second
    pass after the QR pass, which evaluates the generator again at every
    step (generators give bitwise-equal matrices for equal states).  It is
    a chain of one vector (_log_norm_ends), O(d^2) per step for a dense
    generator and O(nnz) for one stored as row slots (Ulam), and exact for
    nonnegative factors in l1 and linf.  l2 takes the linf chain: no
    vector chain gives ||P||_2, but ||P||_inf / sqrt(d) <= ||P||_2 <=
    sqrt(d) ||P||_inf, so the two slopes differ by at most log(d) / window
    and both estimate lambda_1.  With a factor that has a negative entry,
    mle_estimate is None and the top level keeps its QR mean.

    Both passes multiply through the generator's product hook
    (``CocycleGenerator._factor``).  On an Ulam generator the products come
    from the stored nonzeros, so the pass is not the dense one bit for bit:
    on the same mixtures the full pass's raw exponents agreed with a dense
    twin of the same matrices to 6.3e-11 (the tight pair again; 6e-12
    elsewhere), with the same multiplicities.
    """
    if n < 10:
        raise ParameterError("need n >= 10 for a spectrum estimate")
    d = gen.dim
    period = getattr(orbit.driver, "period", None)
    n_eff = _aligned(n, period)
    if n_eff > n:
        n_eff = n
    n_half = _aligned(n_eff // 2, period)
    if not 0 < n_half < n_eff:
        n_half = max(1, n_eff // 2)
    window = n_eff - n_half
    hist_stride = max(1, n_eff // 64)
    hist_n = list(range(hist_stride, n_eff, hist_stride)) + [n_eff]

    k = min(d, _LEAD_COLUMNS)
    while True:
        raw, hist, nonnegative = _leading_slopes(gen, orbit, k, n_half,
                                                 n_eff, hist_n)
        sorted_raw = np.sort(raw)[::-1]
        finite = sorted_raw[sorted_raw > DEFAULT_FLOOR]
        clusters = _cluster(finite, gap_threshold) if finite.size else []
        closed = k == d or finite.size < k
        if closed or 1 < len(clusters) and 2 * len(clusters[-1]) >= k:
            break
        k = min(d, 2 * k)

    mle = None
    if nonnegative:
        half, full = _log_norm_ends(gen, orbit, n_half, n_eff, norm == "l1")
        mle = -math.inf
        if math.isfinite(half) and math.isfinite(full):
            mle = (full - half) / window

    below_cut = None
    if not closed:
        below_cut = float(clusters.pop()[0])
    n_inf = d - finite.size if closed else 0
    warnings = []
    exponents = [float(np.mean(c)) for c in clusters]
    multiplicities = [len(c) for c in clusters]
    for a, b in zip(exponents, exponents[1:]):
        if a - b < 2 * gap_threshold:
            warnings.append(
                f"small spectral gap {a - b:.4f} between {a:.4f} and {b:.4f}; "
                "clustering may be ambiguous")
    if exponents and mle is not None and math.isfinite(mle):
        if abs(mle - exponents[0]) <= gap_threshold:
            exponents[0] = float(mle)
        else:
            warnings.append(
                f"norm-based top exponent {mle:.4f} disagrees with QR top "
                f"{exponents[0]:.4f} beyond the gap threshold")
    return LyapunovSpectrum(
        exponents, multiplicities, n_inf, raw, d, k, below_cut, n_eff,
        window, (hist_n, hist), mle, gap_threshold, DEFAULT_FLOOR, norm,
        warnings=warnings)


def filtration_at(gen, orbit, offset, n, spectrum, levels=None):
    """Filtration V_1 > V_2 > ... > V_{l+1} at sigma^offset w.

    V_{j+1} is the orthogonal complement of the top right-singular
    subspace of the length-n forward product, cut by cumulative
    multiplicity.  Counting is robust where absolute rate thresholds are
    not: a direction in the numerical kernel measures log-rate about
    lambda_1 - 36/n (the float resolution), nowhere near its true value,
    but it still sorts last.

    `levels` caps the flag at V_{levels+1} (default: every resolved
    level).  Only the leading w = min(d, m_1 + ... + m_levels + 1)
    directions are carried through the n backward steps, one more than
    the deepest cut so that the boundary check can read its rate.  The
    result holds that d x w orthonormal frame and the cuts c_j = m_1 + ...
    + m_j below d: V_{j+1} is the orthogonal complement of the first c_j
    frame columns.  FiltrationAt.rates has w entries, the rates of those
    directions.  The frame is never completed to R^d.
    """
    d = gen.dim
    lam = spectrum.exponents
    if n < 1:
        raise ParameterError("n must be >= 1")
    mult = [int(m) for m in spectrum.multiplicities]
    if levels is not None:
        if levels < 1:
            raise ParameterError("levels must be >= 1")
        mult = mult[:levels]
    w = min(d, sum(mult) + 1)
    # the QR pass on the transposed generator, read backward: the leading
    # columns of Q converge to the top right-singular subspaces of the
    # forward product with only local-gap error, where a one-shot SVD of
    # the product carries backward error eps * sigma_1 and buries every
    # level more than sixteen digits below the top (a block's pivots
    # spread over only about e^10).  The first w columns of a QR depend
    # only on the first w input columns, so the trailing ones are never
    # formed.  The walk starts from the spectrum pass's generic frame at
    # every w (see _lead_frame): from the identity the columns of an
    # axis-preserving cocycle keep coordinate order, not rate order
    log_diag = np.zeros(w)
    logs = np.empty(w)
    for _, Q, diags in _qr_pass(
            lambda k: gen._factor(orbit.state(offset + n - 1 - k), w,
                                  transpose=True),
            _lead_frame(d, w), [n]):
        for diag in diags:
            logs.fill(-np.inf)
            log_diag += np.log(diag, out=logs, where=diag != 0)
    rates = log_diag / n
    midpoints = [(a + b) / 2.0 for a, b in zip(lam, lam[1:])]
    cuts = [0]
    blurred = {}
    for j, m in enumerate(mult):
        cut = cuts[-1] + m
        if cut >= d:
            break
        if j < len(midpoints) and rates[cut] > midpoints[j]:
            blurred[j + 2] = float(rates[cut])
        cuts.append(cut)
    return FiltrationAt(offset, Q, cuts, rates, blurred)


def growth_rate(gen, orbit, v, n, offset=0):
    """(1/n) log ||L^(n) v||, from the QR pass on the one-column frame
    v / ||v||; -inf when the vector dies in the numerical kernel (a zero
    or non-finite step)."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ParameterError("v must be nonzero")
    if n < 1:
        raise ParameterError("n must be >= 1")
    log_acc = 0.0
    for _, _, diags in _qr_pass(
            lambda k: gen._factor(orbit.state(offset + k), 1),
            (v / nv)[:, None], [n]):
        for diag in diags:
            nw = float(diag[0])
            if nw == 0.0 or not math.isfinite(nw):
                return -math.inf
            log_acc += math.log(nw)
    return log_acc / n


def hennion_kappa_bound(B_series, n):
    """Birkhoff average over n steps of log B(sigma^k w); an upper bound
    for the index of compactness when B bounds the compact-part constant."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    total = 0.0
    for k in range(n):
        b = float(B_series(k))
        if not b > 0.0:
            raise ParameterError(f"B must be positive, got {b} at offset {k}")
        total += math.log(b)
    return total / n
