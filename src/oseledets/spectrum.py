"""Lyapunov spectra, Oseledets filtrations and quasi-compactness bounds.

Exponents come from the blocked QR pass of ``cocycle._qr_pass``, which
re-orthonormalizes the frame once per block of steps (Benettin, Galgani,
Giorgilli and Strelcyn 1980) and states the block rule.

The estimator is a windowed slope (S(n) - S(n/2)) / (n - n/2) of the
cumulative log R-diagonals rather than the plain (1/n) average: the
window cancels the O(1/n) transient bias, and when the base driver
exposes a finite period the window endpoints are aligned to it, which
makes the estimate geometrically exact for constant and periodic
cocycles.  The top cluster is reconciled with an independent windowed
estimate of the maximal exponent from operator norms of the full
product; for column-stochastic generators in l1 that estimate is exact.
The norms are taken in a second pass over the orbit, after the QR pass:
for nonnegative generators in l1, ||P||_1 is the largest entry of the row
1^T P, so one backward sweep of two log-scaled rows gives both window
ends without forming the d x d product; every other case forms the
product forward.  Either way the generator is evaluated twice per step.

Filtrations come back as co-frames (FiltrationAt): the leading
directions of the same pass run backward on the transposed factors,
V_{j+1} being the orthogonal complement of the first c_j = m_1 + ... +
m_j of them.
"""

import math

import numpy as np

from .base import ParameterError
from .cocycle import _DEATH_REL, ScaledMatrix, _qr_pass

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


class LyapunovSpectrum:
    """Distinct exponents (descending) with multiplicities and diagnostics.

    Directions whose windowed rate falls below `floor` are counted in
    n_infinite and excluded from the exceptional list.
    """

    def __init__(self, exponents, multiplicities, n_infinite, raw_exponents,
                 n_used, window, convergence_history, mle_estimate,
                 gap_threshold, floor, norm, kappa_bound=None, warnings=()):
        self.exponents = list(exponents)
        self.multiplicities = list(multiplicities)
        self.n_infinite = int(n_infinite)
        self.raw_exponents = np.asarray(raw_exponents)
        self.n_used = int(n_used)
        self.window = int(window)
        self.convergence_history = convergence_history
        self.mle_estimate = float(mle_estimate)
        self.gap_threshold = float(gap_threshold)
        self.floor = float(floor)
        self.norm = norm
        self.kappa_bound = kappa_bound
        self.warnings = list(warnings)
        if self.exponents:
            self.mle_agreement = abs(self.exponents[0] - self.mle_estimate)
        else:
            self.mle_agreement = math.inf

    @property
    def ambient_dim(self):
        return int(self.raw_exponents.shape[0])

    def total_multiplicity(self):
        return sum(self.multiplicities)

    def to_dict(self):
        hist_n, hist_vals = self.convergence_history
        return {
            "exponents": [float(x) for x in self.exponents],
            "multiplicities": [int(m) for m in self.multiplicities],
            "n_infinite": self.n_infinite,
            "raw_exponents": [float(x) for x in self.raw_exponents],
            "n_used": self.n_used,
            "window": self.window,
            "mle_estimate": self.mle_estimate,
            "mle_agreement": float(self.mle_agreement),
            "gap_threshold": self.gap_threshold,
            "floor": self.floor,
            "norm": self.norm,
            "kappa_bound": self.kappa_bound,
            "history_n": [int(k) for k in hist_n],
            "history": [[float(v) for v in row] for row in hist_vals],
            "warnings": list(self.warnings),
        }

    def __repr__(self):
        pairs = ", ".join(f"{x:.4f} (m={m})"
                          for x, m in zip(self.exponents, self.multiplicities))
        tail = f", -inf x {self.n_infinite}" if self.n_infinite else ""
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
    as g - F (F^T g) with F = frame[:, :c_j].
    """

    def __init__(self, offset, frame, cuts, rates, norm="l2", warnings=()):
        self.offset = int(offset)
        self.frame = frame
        self.cuts = [int(c) for c in cuts]
        self.rates = np.asarray(rates)
        self.norm = norm
        self.warnings = list(warnings)

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


def _log_norm_ends(gen, orbit, n_half, n_eff, norm, sweep):
    """log ||P_k|| at k = n_half and k = n_eff, where P_k is the product of
    the factors at offsets 0..k-1.

    ``sweep`` says the norm is l1 and every factor is nonnegative; then
    ||P_k||_1 is the largest entry of 1^T P_k = 1^T A_k ... A_1, so one
    backward sweep from step n_eff down to step 1 carries the two rows
    (the second starts at step n_half) as log-scaled columns P_k^T 1, whose
    linf norm is that entry.  Otherwise the ScaledMatrix product is formed
    forward.
    """
    if sweep:
        ones = np.ones((gen.dim, 1))
        full, half = ScaledMatrix(ones), None
        for k in range(n_eff, 0, -1):
            if k == n_half:
                half = ScaledMatrix(ones)
            At = gen.matrix_at(orbit, k - 1).T
            full = full.left_multiplied(At)
            if half is not None:
                half = half.left_multiplied(At)
        return half.log_norm("linf"), full.log_norm("linf")
    acc = ScaledMatrix.identity(gen.dim)
    for k in range(1, n_eff + 1):
        acc = acc.left_multiplied(gen.matrix_at(orbit, k - 1))
        if k == n_half:
            log_half = acc.log_norm(norm)
    return log_half, acc.log_norm(norm)


def lyapunov_exponents(gen, orbit, n, gap_threshold=DEFAULT_GAP_THRESHOLD,
                       norm="l2", floor=DEFAULT_FLOOR):
    """Estimate the Lyapunov spectrum over offsets 0..n-1.

    Returns a LyapunovSpectrum whose exponents are the clustered windowed
    QR slopes; the top cluster is replaced by the operator-norm slope when
    the two agree within gap_threshold (they estimate the same limit, and
    the norm-based value is exact for norm-preserving cocycles).

    The QR pass is ``_qr_pass`` with a block end at n_half, at n_eff and
    at every history point, so S_half and convergence_history see the same
    k as per-step QR.  Against the per-step loop on 3/10, 2/5 Ulam
    mixtures (64 to 256 bins, 400 and 800 steps) the raw exponents agreed
    to 2.2e-11, the largest at a tight pair (gap 0.017) deep in the wide
    level, where a 1e-15 change of the start frame moves the per-step
    loop's own raw exponents by 3.9e-11.  The 256-bin mixture takes 134
    factorizations for 400 steps.  Rank-deficient and extreme-scale
    cocycles in the tests run the per-step loop bit for bit.

    The norm slope comes from a second pass after the QR pass, which
    evaluates the generator again at every step (generators give
    bitwise-equal matrices for equal states).  In l1 with every factor
    nonnegative it is a backward sweep of two vectors, O(d^2) per step;
    otherwise it is the d x d product, O(d^3) per step.
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

    S = np.zeros(d)
    logs = np.empty(d)    # log diag R, -inf where R has a zero pivot
    S_half = None
    sweep = norm == "l1"
    dead = np.zeros(d, dtype=bool)
    hist_stride = max(1, n_eff // 64)
    hist_n = list(range(hist_stride, n_eff, hist_stride)) + [n_eff]
    hist_vals = []

    def factor(i):
        nonlocal sweep
        A = gen.matrix_at(orbit, i)
        sweep = sweep and A.min() >= 0
        return A

    for k, _, diags in _qr_pass(factor, np.eye(d),
                                sorted(set(hist_n) | {n_half})):
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
            if k > n_half:
                dead |= diag <= _DEATH_REL * max(float(diag.max()), 1e-300)
        if k == n_half:
            S_half = S.copy()
        if k == hist_n[len(hist_vals)]:
            hist_vals.append(S / k)

    with np.errstate(invalid="ignore"):
        raw = (S - S_half) / window
    raw = np.where(np.isnan(raw) | dead, -math.inf, raw)
    mle_half, mle_full = _log_norm_ends(gen, orbit, n_half, n_eff, norm,
                                        sweep)
    if math.isfinite(mle_full) and math.isfinite(mle_half):
        mle = (mle_full - mle_half) / window
    else:
        mle = -math.inf

    order = np.argsort(raw)[::-1]
    sorted_raw = raw[order]
    finite = sorted_raw[sorted_raw > floor]
    n_inf = int(d - finite.size)
    warnings = []
    exponents, multiplicities = [], []
    if finite.size:
        clusters = _cluster(finite, gap_threshold)
        exponents = [float(np.mean(c)) for c in clusters]
        multiplicities = [len(c) for c in clusters]
        for a, b in zip(exponents, exponents[1:]):
            if a - b < 2 * gap_threshold:
                warnings.append(
                    f"small spectral gap {a - b:.4f} between {a:.4f} and {b:.4f}; "
                    "clustering may be ambiguous")
        if math.isfinite(mle) and abs(mle - exponents[0]) <= gap_threshold:
            exponents[0] = float(mle)
        elif math.isfinite(mle):
            warnings.append(
                f"norm-based top exponent {mle:.4f} disagrees with QR top "
                f"{exponents[0]:.4f} beyond the gap threshold")
    return LyapunovSpectrum(
        exponents, multiplicities, n_inf, raw, n_eff, window,
        (hist_n, hist_vals), mle, gap_threshold, floor, norm,
        warnings=warnings)


def filtration_at(gen, orbit, offset, n, spectrum, norm="l2", levels=None):
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
    # formed
    log_diag = np.zeros(w)
    logs = np.empty(w)
    for _, Q, diags in _qr_pass(
            lambda k: gen.matrix_at(orbit, offset + n - 1 - k).T,
            np.eye(d, w), [n]):
        for diag in diags:
            logs.fill(-np.inf)
            log_diag += np.log(diag, out=logs, where=diag != 0)
    rates = log_diag / n
    warnings = list(spectrum.warnings)
    midpoints = [(a + b) / 2.0 for a, b in zip(lam, lam[1:])]
    cuts = [0]
    for j, m in enumerate(mult):
        cut = cuts[-1] + m
        if cut >= d:
            break
        if j < len(midpoints) and rates[cut] > midpoints[j]:
            warnings.append(
                f"level {j + 2} boundary blurred: rate {rates[cut]:.4f} "
                f"above midpoint {midpoints[j]:.4f}")
        cuts.append(cut)
    return FiltrationAt(offset, Q, cuts, rates, norm, warnings)


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
    for _, _, diags in _qr_pass(lambda k: gen.matrix_at(orbit, offset + k),
                                (v / nv)[:, None], [n]):
        for diag in diags:
            nw = float(diag[0])
            if nw == 0.0 or not math.isfinite(nw):
                return -math.inf
            log_acc += math.log(nw)
    return log_acc / n


def hennion_kappa_bound(B_series, orbit, n):
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
