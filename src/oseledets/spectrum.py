"""Lyapunov spectra, Oseledets filtrations and quasi-compactness bounds.

Exponents come from sequential QR with re-orthonormalization.  The
estimator is a windowed slope (S(n) - S(n/2)) / (n - n/2) of the
cumulative log R-diagonals rather than the plain (1/n) average: the
window cancels the O(1/n) transient bias, and when the base driver
exposes a finite period the window endpoints are aligned to it, which
makes the estimate geometrically exact for constant and periodic
cocycles.  The top cluster is reconciled with an independent windowed
estimate of the maximal exponent from operator norms of the full
product; for column-stochastic generators in l1 that estimate is exact.
"""

import math

import numpy as np

from .base import ParameterError
from .cocycle import ScaledMatrix
from .grassmann import Subspace

__all__ = [
    "LyapunovSpectrum",
    "FiltrationAt",
    "lyapunov_exponents",
    "filtration_at",
    "growth_rate",
    "hennion_kappa_bound",
    "index_of_compactness_proxy",
]

DEFAULT_GAP_THRESHOLD = 0.05
DEFAULT_FLOOR = -30.0
# one-step image below this fraction of the frame's dominant factor counts
# as numerical annihilation.  Measured on rank-deficient Ulam cocycles,
# recycled-noise dips stay below 1e-9 while genuine per-step factors of
# resolvable exponents stay above 1e-2; the midpoint leaves seven orders of
# margin each way
_DEATH_REL = 1e-8


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
    """Nested subspaces V_1 (whole space) > V_2 > ... at a given base offset."""

    def __init__(self, offset, subspaces, rates, warnings=()):
        self.offset = int(offset)
        self.subspaces = list(subspaces)
        self.rates = np.asarray(rates)
        self.warnings = list(warnings)

    def __len__(self):
        return len(self.subspaces)

    def __getitem__(self, j):
        return self.subspaces[j]

    def codimensions(self):
        d = self.subspaces[0].ambient_dim
        return [d - V.dim for V in self.subspaces]


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


def lyapunov_exponents(gen, orbit, n, gap_threshold=DEFAULT_GAP_THRESHOLD,
                       norm="l2", floor=DEFAULT_FLOOR):
    """Estimate the Lyapunov spectrum over offsets 0..n-1.

    Returns a LyapunovSpectrum whose exponents are the clustered windowed
    QR slopes; the top cluster is replaced by the operator-norm slope when
    the two agree within gap_threshold (they estimate the same limit, and
    the norm-based value is exact for norm-preserving cocycles).
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

    Q = np.eye(d)
    S = np.zeros(d)
    S_half = None
    acc = ScaledMatrix.identity(d)
    mle_half = None
    dead = np.zeros(d, dtype=bool)
    hist_stride = max(1, n_eff // 64)
    hist_n, hist_vals = [], []
    for k in range(1, n_eff + 1):
        A = gen.matrix_at(orbit, k - 1)
        Q, R = np.linalg.qr(A @ Q)
        diag = np.abs(np.diag(R))
        with np.errstate(divide="ignore"):
            S = S + np.log(diag)
        # a collapse inside the measurement window marks the position dead:
        # its column is recycled float noise whose later slope is a ghost,
        # not an exponent.  Collapses before the window are left alone; the
        # reseeded column then tracks a genuine slower direction and the
        # windowed slope measures it (that self-healing is the reason the
        # slope is windowed rather than cumulative).
        if k > n_half:
            dead |= diag <= _DEATH_REL * max(float(diag.max()), 1e-300)
        acc = acc.left_multiplied(A)
        if k == n_half:
            S_half = S.copy()
            mle_half = acc.log_norm(norm)
        if k % hist_stride == 0 or k == n_eff:
            hist_n.append(k)
            hist_vals.append(S / k)

    with np.errstate(invalid="ignore"):
        raw = (S - S_half) / window
    raw = np.where(np.isnan(raw) | dead, -math.inf, raw)
    mle_full = acc.log_norm(norm)
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
    the deepest cut so that the boundary check can read its rate; the
    frame is completed once at the end.  FiltrationAt.rates therefore
    has w entries, the rates of those directions.
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
    # stepwise QR on the transposed generator, read backward: the leading
    # columns of Q converge to the top right-singular subspaces of the
    # forward product with only local-gap error, where a one-shot SVD of
    # the product carries backward error eps * sigma_1 and buries every
    # level more than sixteen digits below the top.  The first w columns
    # of a QR depend only on the first w input columns, so the trailing
    # ones are never formed
    Q = np.eye(d, w)
    log_diag = np.zeros(w)
    for k in range(n):
        Q, R = np.linalg.qr(gen.matrix_at(orbit, offset + n - 1 - k).T @ Q)
        with np.errstate(divide="ignore"):
            log_diag += np.log(np.abs(np.diag(R)))
    rates = log_diag / n
    if w < d:
        Q, _ = np.linalg.qr(Q, mode="complete")
    subspaces = [Subspace(np.eye(d), norm)]
    warnings = list(spectrum.warnings)
    midpoints = [(a + b) / 2.0 for a, b in zip(lam, lam[1:])]
    cut = 0
    for j, m in enumerate(mult):
        cut += m
        if cut >= d:
            break
        if j < len(midpoints) and rates[cut] > midpoints[j]:
            warnings.append(
                f"level {j + 2} boundary blurred: rate {rates[cut]:.4f} "
                f"above midpoint {midpoints[j]:.4f}")
        subspaces.append(Subspace(Q[:, cut:].copy(), norm))
    return FiltrationAt(offset, subspaces, rates, warnings)


def growth_rate(gen, orbit, v, n, offset=0):
    """(1/n) log ||L^(n) v|| with per-step renormalization; -inf when the
    vector dies in the numerical kernel."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ParameterError("v must be nonzero")
    if n < 1:
        raise ParameterError("n must be >= 1")
    w = v / nv
    log_acc = 0.0
    for k in range(n):
        w = gen.matrix_at(orbit, offset + k) @ w
        nw = float(np.linalg.norm(w))
        if nw == 0.0 or not np.isfinite(nw):
            return -math.inf
        log_acc += math.log(nw)
        w = w / nw
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


def index_of_compactness_proxy(gen, orbit, n, rank_cut):
    """(1/n) log of the (rank_cut+1)-th singular value of the n-step product.

    A finite-rank truncation proxy: decreasing in rank_cut, -inf once the
    product's rank drops to rank_cut or below.
    """
    if not 0 <= rank_cut < gen.dim:
        raise ParameterError("rank_cut must satisfy 0 <= rank_cut < dim")
    if n < 1:
        raise ParameterError("n must be >= 1")
    acc = ScaledMatrix.identity(gen.dim)
    for k in range(n):
        acc = acc.left_multiplied(gen.matrix_at(orbit, k))
    sv = np.linalg.svd(acc.matrix, compute_uv=False)
    s = sv[rank_cut]
    if s <= 0.0:
        return -math.inf
    return (math.log(s) + acc.log_scale) / n
