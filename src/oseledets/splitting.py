"""Constructive equivariant splitting by pushing forward good complements.

The fast spaces at w are limits of Y^(n) = L^(n)(sigma^(-n) w) U(sigma^(-n) w),
where U is a good complement of the slow filtration at the pulled-back
point.  The schedule doubles n until consecutive pushforwards are Cauchy
within tolerance; the reports keep the full distance traces, fitted decay
rates and transversality diagnostics.

Every filtration level is a co-frame: V_{j+1} is the orthogonal complement
of the leading m_1 + ... + m_j columns F of the orthonormal frame that
filtration_at steps.  The complements U_j are slices of that frame,
turned by a fixed angle toward a seeded direction of V_{j+1} when a
uniqueness probe asks for a second choice; principal vectors,
separations and the oblique projections onto the fast hulls along
V_{j+1} are taken through F^T products, and the slow remainder is F^perp
itself.  A splitting with levels=k decomposes nothing larger than
d x (m_1 + ... + m_k + 1) arrays and 2k x 2k blocks.
"""

import math

import numpy as np

from .base import ParameterError
from .cocycle import _qr_pass
from .grassmann import (ComplementarityError, DegenerateSubspaceError,
                        Subspace, _check_sup_enumeration,
                        _CoframeProjection, grassmann_distance, nice_basis,
                        operator_norm)
from .spectrum import filtration_at, growth_rate

__all__ = [
    "SplittingResult",
    "ConvergenceReport",
    "RankCollapseError",
    "pushforward_space",
    "compute_splitting",
    "check_equivariance",
    "check_growth",
    "uniqueness_probe",
    "temperedness_test",
    "TemperednessVerdict",
]

DEFAULT_TOL = 1e-6
TEMPERED_SLOPE_THRESHOLD = 0.02

# distances at double-precision saturation are excluded from rate fits
_FIT_FLOOR = 1e-13

# angle by which rotated complements leave the orthogonal ones; their l2
# separation from V_{j+1} is then cos(0.45) = 0.90
_ROTATION_ANGLE = 0.45


class RankCollapseError(RuntimeError):
    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class ConvergenceReport:
    """Cauchy trace of one level: distances d(Y^(n), Y^(2n)) over the
    doubling schedule, with a log-linear decay fit."""

    def __init__(self, ns, distances, stopping_n, converged,
                 separations=None, g_series=None):
        self.ns = list(ns)
        self.distances = list(distances)
        self.stopping_n = stopping_n
        self.converged = bool(converged)
        self.separations = list(separations or [])
        self.g_series = list(g_series or [])
        self.alpha_fit, self.alpha_residual = self._fit()

    def _fit(self):
        pts = [(n, math.log(d)) for n, d in zip(self.ns, self.distances)
               if _FIT_FLOOR < d < math.inf]
        if len(pts) < 2:
            return math.nan, math.nan
        x = np.array([p[0] for p in pts], dtype=float)
        y = np.array([p[1] for p in pts], dtype=float)
        A = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        rms = float(np.sqrt(np.mean(resid * resid)))
        return -float(coef[0]), rms

    def to_dict(self):
        return {
            "ns": self.ns,
            "distances": [float(d) for d in self.distances],
            "alpha_fit": None if math.isnan(self.alpha_fit) else float(self.alpha_fit),
            "alpha_residual": None if math.isnan(self.alpha_residual)
            else float(self.alpha_residual),
            "stopping_n": self.stopping_n,
            "converged": self.converged,
            "separations": [float(s) for s in self.separations],
            "g_series": [float(g) for g in self.g_series],
        }


class SplittingResult:
    """Fast spaces Y_1..Y_l at sigma^offset w with their diagnostics.

    The slow remainder is V_{l+1} of the final filtration (a FiltrationAt),
    the orthogonal complement of `coframe`, its top m_1 + ... + m_l
    orthonormal frame directions; remainder_dim = d - m_1 - ... - m_l.
    """

    def __init__(self, offset, spaces, filtration, spectrum,
                 projection_norms, convergence, transversality_floor,
                 warnings=()):
        self.offset = int(offset)
        self.spaces = list(spaces)
        self.coframe = filtration.frame[:, :_cut(filtration, len(spaces))]
        self.remainder_dim = self.coframe.shape[0] - self.coframe.shape[1]
        self.spectrum = spectrum
        self.projection_norms = list(projection_norms)
        self.convergence = list(convergence)
        self.transversality_floor = transversality_floor
        self.warnings = list(warnings)

    @property
    def converged(self):
        return all(c.converged for c in self.convergence)

    def convergence_rows(self):
        """(level, n, distance, alpha_fit) rows for the CSV trace."""
        rows = []
        for j, rep in enumerate(self.convergence, start=1):
            for n, dist in zip(rep.ns, rep.distances):
                rows.append((j, n, dist, rep.alpha_fit))
        return rows

    def to_dict(self):
        return {
            "offset": self.offset,
            "dims": [Y.dim for Y in self.spaces],
            "remainder_dim": self.remainder_dim,
            "converged": self.converged,
            "projection_norms": self.projection_norms,
            "transversality_floor": self.transversality_floor,
            "convergence": [c.to_dict() for c in self.convergence],
            "warnings": list(self.warnings),
        }


def pushforward_space(gen, orbit, U, n, base_offset=0):
    """Image of U (living at sigma^(base-n) w) under the n-step product,
    a Subspace at sigma^base w on the orthonormal frame of the QR pass.

    The frame is re-orthonormalized once per block of steps of the QR pass,
    whose pivots spread over only about e^10: a one-shot product applied to
    a basis has condition e^(n * spread) and drowns the slower directions
    of the image in float noise, while the blocked QR keeps the span exact
    and lets transverse contamination decay.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    if n == 0 or U.dim == 0:
        return Subspace(U.basis.copy(), U.norm)
    for _, B, diags in _qr_pass(
            lambda k: gen.matrix_at(orbit, base_offset - n + k),
            U.orthonormal_basis(), [n]):
        for diag in diags:
            if diag.min() <= 1e-13 * max(diag.max(), 1e-300):
                raise RankCollapseError(
                    f"pushforward of a dim-{U.dim} space lost rank at n={n}",
                    n=n)
    return Subspace(B, U.norm)


def _cut(filt, j):
    """Codimension of V_{j+1} in `filt`; d once the levels exhaust R^d
    (filtration_at keeps only the cuts below d)."""
    return filt.cuts[j] if j < len(filt.cuts) else filt.frame.shape[0]


def _complements(filt, l, rotation_seed=None):
    """Complements U_1..U_l of V_{j+1} in V_j, read off the co-frame.

    U_j is the frame slice C_j between the cuts c_j and c_{j+1} (with an
    exhaustive spectrum the last slice runs to d).  With a rotation_seed
    the first r = min(m_j, d - c_{j+1}) columns of C_j are turned by
    _ROTATION_ANGLE toward R_j, the orthonormalized projection
    (I - F F^T) G of a seeded Gaussian d x r block G onto
    V_{j+1} = F^perp, F = frame[:, :c_{j+1}], with each column keeping the
    sign of the seeded direction it comes from.  R_j is orthogonal to F,
    which holds C_j, so U_j keeps orthonormal columns, lies in V_j, and its
    l2 separation from V_{j+1} is cos(_ROTATION_ANGLE) exactly (1 where
    r = 0 and nothing turns).  Where V_{j+1} is a line, R_j is plus or
    minus its direction, so that level admits only two rotated
    complements; the seed picks one of them.
    """
    d = filt.frame.shape[0]
    rng = None if rotation_seed is None else np.random.default_rng(
        rotation_seed)
    out = []
    for j in range(l):
        lo, hi = _cut(filt, j), _cut(filt, j + 1)
        U = filt.frame[:, lo:hi]
        r = min(hi - lo, d - hi)
        if rng is not None and r:
            F = filt.frame[:, :hi]
            G = rng.standard_normal((d, r))
            R, T = np.linalg.qr(G - F @ (F.T @ G))
            # the thin QR's sign convention would drop the seed's sign
            R *= np.where(np.diag(T) < 0, -1.0, 1.0)
            U = U.copy()
            U[:, :r] = (math.cos(_ROTATION_ANGLE) * U[:, :r]
                        + math.sin(_ROTATION_ANGLE) * R)
        out.append(U)
    return out


def _l2_separation(Y, F):
    """Smallest l2 distance from a unit vector of Y to V = F^perp
    (transversality): the smallest singular value of F^T Q_Y."""
    if F.shape[1] == F.shape[0]:
        return 1.0
    s = np.linalg.svd(F.T @ Y.orthonormal_basis(), compute_uv=False)
    return float(s[-1])


def _near_intersection(H, F, m, norm, n):
    """The m most-aligned directions of V = F^perp with H (a numerical
    intersection).

    The fast hull through a level and the filtration space of that level
    overlap exactly in the level's Oseledets space in the limit; at finite
    depth the overlap is read off the top principal cosines, the singular
    values of the projection Q_H - F F^T Q_H of H onto V.  Its left
    singular vectors are the V-side principal vectors, returned because the
    forward filtration is the sharper of the two frames.
    """
    QH = H.orthonormal_basis()
    avail = min(QH.shape[1], F.shape[0] - F.shape[1])
    if m > avail:
        raise RankCollapseError(
            f"expected a dim-{m} overlap, frames allow only {avail}", n=n)
    U, s, _ = np.linalg.svd(QH - F @ (F.T @ QH), full_matrices=False)
    if s[m - 1] < 0.5:
        raise RankCollapseError(
            f"principal cosine {s[m - 1]:.3f} too small for a dim-{m} "
            "overlap", n=n)
    return Subspace(U[:, :m], norm)


def _g_ratio(Y, pi):
    """Max over unit y in Y of |Pi_V y| / |Pi_U y| for the (V, U) frame of
    the projection pi onto U along V.

    With Q_Y orthonormal, u = pi(Q_Y) = W S Z^T (thin SVD) and v = Q_Y - u,
    the ratio is ||v pinv(u)||_2 = ||v Z S^-1||_2.  The sup of this ratio
    over the schedule is the measured analogue of the proof's M(w);
    1/(1+M) lower-bounds the U-component of unit vectors.
    """
    QY = Y.orthonormal_basis()
    u_part = pi(QY)
    _, su, zt = np.linalg.svd(u_part, full_matrices=False)
    if su[-1] < 1e-14:
        return math.inf
    return float(operator_norm(((QY - u_part) @ zt.T) / su, "l2"))


def compute_splitting(gen, orbit, spectrum, n_max, tol=DEFAULT_TOL,
                      offset=0, rotation_seed=None, norm="l2",
                      levels=None, _filtrations=None):
    """Fast spaces Y_1..Y_l at sigma^offset w plus the slow remainder.

    Doubles the pullback depth from 8 until d(Y_j^(n), Y_j^(2n)) < tol
    for every level or n_max (>= 8) is reached; non-converged levels are
    flagged, not errors.  A rank collapse during pushforward is retried
    once from a perturbed complement, with a warning naming the level and
    the depth, then raised.  The orbit window must span
    [offset - n_max, offset + n_max] (forward room beyond the base point
    sharpens the filtrations that cut the levels out of the fast hulls;
    up to 2 * n_max is used when available).

    `levels` caps how many fast spaces are built (default: all resolved
    levels).  With a cap the remainder is the corresponding deeper
    filtration subspace, so Y_1 + ... + Y_levels + remainder still spans.
    Useful when only the top of the spectrum matters: distances between
    high-dimensional subspaces in the l1/linf norms are combinatorial,
    and interior levels can dominate the cost.  The filtrations then
    track only the leading m_1 + ... + m_levels + 1 directions through
    their backward QR steps (see filtration_at).  Every level is handled
    through its co-frame (see the module docstring): no d x d array is
    decomposed, and only the l1/linf projection norms form the d x d
    projection, in O(d^2 k).  The complements are frame slices; a
    rotation_seed turns them by a fixed angle toward seeded directions of
    the next filtration space (see _complements), which changes the
    approximants but not their limit.

    In l1/linf the Cauchy test takes exact distances between level spaces by
    enumeration (ball vertices, point distances and ball chords, see
    grassmann._check_sup_enumeration), so a level of multiplicity m in R^d
    raises ValueError before any work once one of them is past its guard:
    l1 from d = 201 (m = 2), 51 (m = 3), 26 (m = 4), 13 (m = 5), 10 (m = 6)
    and for m >= 7 at every d > m; linf from d = 142 (m = 1), 33 (m = 2),
    14 (m = 3), 7 (m = 4) and for m >= 5 at every d > m.  Multiplicity-1
    levels stay exact in l1 below d = 20,001.  check_equivariance and uniqueness_probe take the same
    distances.

    `_filtrations` is a memo of the filtrations made, keyed by (offset,
    length); runs that share one must share gen, orbit, spectrum, norm and
    levels.
    """
    lam = spectrum.exponents
    l = len(lam)
    if l == 0:
        raise ParameterError("spectrum has no exceptional exponents")
    if n_max < 8:
        raise ParameterError("need n_max >= 8")
    if levels is None:
        l_use = l
    else:
        if levels < 1:
            raise ParameterError("levels must be >= 1")
        l_use = min(int(levels), l)
    d = gen.dim
    warnings = []

    schedule = []
    n = 8
    while n <= n_max:
        schedule.append(n)
        n *= 2

    mult = [int(m) for m in spectrum.multiplicities]
    if norm != "l2" and len(schedule) > 1:
        for m in mult[:l_use]:
            _check_sup_enumeration(d, m, m, norm)

    def level_space(j, hull, depth, filt_fwd):
        # the pushforward of the hull U_1 + ... + U_(j+1) is float-stable
        # (contamination transverse to the fast directions decays), while a
        # per-level pushforward of U_(j+1) alone re-amplifies the machine
        # noise along faster directions by e^(n * gap) and stalls near
        # sqrt(eps); the level is then cutout of the hull by the forward
        # filtration, which shares its limit
        H = pushforward_space(gen, orbit, hull, depth, base_offset=offset)
        if j == 0:
            return H
        if j >= len(filt_fwd):
            raise RankCollapseError(
                f"forward filtration too shallow for level {j + 1}",
                n=depth)
        return _near_intersection(H, filt_fwd.frame[:, :filt_fwd.cuts[j]],
                                  mult[j], norm, depth)

    # filtrations by (offset, length): the final forward one is usually
    # among the forward ones made for the hulls
    memo = {} if _filtrations is None else _filtrations

    def filtration(start, n):
        if (start, n) not in memo:
            memo[start, n] = filtration_at(gen, orbit, start, n, spectrum,
                                           norm=norm, levels=l_use)
        return memo[start, n]

    def spaces_at(depth):
        filt = filtration(offset - depth, depth)
        if len(filt) < min(l, l_use + 1):
            raise RankCollapseError(
                f"filtration at depth {depth} resolved only "
                f"{len(filt)} levels", n=depth)
        # any complement family with a uniform transversality floor feeds
        # the same hull construction (the pushforward sees only the span);
        # the orthogonal one has the best separation, and a rotated one is
        # the second choice a uniqueness probe compares against
        comps = _complements(filt, l_use, rotation_seed)
        avail_fwd = orbit.n_future - offset - 1
        filt_fwd = filtration(offset, min(2 * depth, max(depth, avail_fwd)))
        out = []
        for j in range(l_use):
            hull = Subspace(np.column_stack(comps[:j + 1]), norm)
            try:
                out.append(level_space(j, hull, depth, filt_fwd))
            except RankCollapseError as exc:
                # measure-zero under the standing hypotheses; one retry
                warnings.append(
                    f"level {j + 1}: rank collapse at depth {depth} ({exc}); "
                    "retried from a perturbed hull")
                rng = np.random.default_rng(depth)
                pert = hull.basis + 1e-6 * rng.standard_normal(
                    hull.basis.shape)
                out.append(level_space(j, Subspace(pert, norm), depth,
                                       filt_fwd))
        return out

    history = []          # list of (depth, [Y_1..Y_l])
    dists = [[] for _ in range(l_use)]
    converged_at = [None] * l_use

    final_spaces = None
    for idx, depth in enumerate(schedule):
        spaces = spaces_at(depth)
        history.append((depth, spaces))
        if idx > 0:
            prev = history[-2][1]
            for j in range(l_use):
                dj = grassmann_distance(prev[j], spaces[j])
                dists[j].append(dj)
                if dj < tol and converged_at[j] is None:
                    converged_at[j] = depth
        final_spaces = spaces
        if idx > 0 and all(c is not None for c in converged_at):
            break

    n_final = history[-1][0]
    filt_final = filtration(offset, n_final)
    for j in range(l_use):
        if converged_at[j] is None:
            warnings.append(
                f"level {j + 1} not Cauchy within tol={tol} at n_max={n_max}")

    # transversality of the approach trajectory: decompose each approximant
    # against the frame (final fast hull, final slow filtration); sup of the
    # slow/fast component ratio is the measured analogue of the proof's
    # constant, and early depths carry the honest nonzero entries.  The
    # same projection Pi_{Ytilde || V_{j+1}} and its complement give the
    # per-level projection norms
    ns_pairs = [h[0] for h in history[:-1]]
    reports, projection_norms = [], []
    for j in range(l_use):
        approach = [spaces[j] for _depth, spaces in history]
        hull = np.column_stack([Y.basis for Y in final_spaces[:j + 1]])
        cut = _cut(filt_final, j + 1)
        F = filt_final.frame[:, :cut]
        g, entry = [], {"level": j + 1, "pi_fast": None, "pi_slow": None}
        if cut == d:
            entry["pi_fast"] = 1.0
            entry["pi_slow"] = 0.0
        elif hull.shape[1] == cut:
            try:
                pi = _CoframeProjection(hull, F, norm)
            except ComplementarityError:
                g = [math.inf] * len(approach)
                warnings.append(f"level {j + 1}: fast/slow complementarity "
                                "failed at the final depth")
            else:
                g = [_g_ratio(Y, pi) for Y in approach]
                entry["pi_fast"] = pi.norm_value
                entry["pi_slow"] = pi.complement_norm()
        projection_norms.append(entry)
        reports.append(ConvergenceReport(
            ns_pairs, dists[j],
            converged_at[j] if converged_at[j] is not None else n_final,
            converged_at[j] is not None,
            separations=[_l2_separation(Y, F) for Y in approach],
            g_series=g))

    m_hat = max((g for rep in reports for g in rep.g_series
                 if math.isfinite(g)), default=0.0)
    floor = 1.0 / (1.0 + m_hat) if math.isfinite(m_hat) else 0.0
    return SplittingResult(offset, final_spaces, filt_final, spectrum,
                           projection_norms, reports, floor, warnings)


def check_equivariance(gen, orbit, result, result_next, tol=DEFAULT_TOL):
    """Distances d(L Y_j(w), Y_j(sigma w)) per level; passes below 10*tol."""
    A = gen.matrix_at(orbit, result.offset)
    distances = []
    for Y, Yn in zip(result.spaces, result_next.spaces):
        image = A @ Y.basis
        try:
            img = Subspace(image, Y.norm)
        except DegenerateSubspaceError as exc:
            raise RankCollapseError(
                f"generator collapses a dim-{Y.dim} fast space: {exc}") from exc
        distances.append(grassmann_distance(img, Yn))
    return {"distances": distances,
            "passed": all(dd < 10 * tol for dd in distances),
            "tol": tol}


def check_growth(result, gen, orbit, n_check):
    """Growth rates of the nice-basis vectors of each Y_j, which pass
    within 0.1 of lambda_j, and of three seeded random remainder vectors,
    which are reported only.

    Keep n_check below roughly 36 / (lambda_1 - lambda_j): beyond that the
    float-level contamination of a slow vector (at best ~1e-16) is amplified
    past its true decay and the measured rate bends toward lambda_1 no
    matter how accurate the space is."""
    lam = result.spectrum.exponents
    levels = []
    for j, Y in enumerate(result.spaces):
        rates = [growth_rate(gen, orbit, v, n_check, offset=result.offset)
                 for v in nice_basis(Y)]
        dev = max(abs(r - lam[j]) for r in rates) if rates else math.nan
        levels.append({"level": j + 1, "lambda": lam[j], "rates": rates,
                       "max_deviation": dev})
    v_rates = []
    if result.remainder_dim > 0:
        # g - F F^T g for Gaussian g is uniform in direction on the
        # remainder F^perp; growth_rate normalizes it
        rng = np.random.default_rng(0)
        F = result.coframe
        for _ in range(min(3, result.remainder_dim)):
            g = rng.standard_normal(F.shape[0])
            v_rates.append(growth_rate(gen, orbit, g - F @ (F.T @ g),
                                       n_check, offset=result.offset))
    return {"levels": levels, "remainder_rates": v_rates,
            "passed": all(lv["max_deviation"] <= 0.1 for lv in levels)}


def uniqueness_probe(gen, orbit, spectrum, n_max, tol=DEFAULT_TOL, offset=0,
                     norm="l2", levels=None):
    """Max over levels of d(Y_j, Y_j') between the splitting pushed forward
    from the orthogonal complements and the one pushed forward from
    complements rotated with rotation_seed 1 (see compute_splitting); the
    limit does not depend on the choice, so the value is small when both
    converge.  inf sentinel when either run fails to converge.  `levels`
    caps the levels compared, as in compute_splitting.  The filtrations do
    not depend on the complements, so the second run reuses those of the
    first."""
    filtrations = {}
    base = compute_splitting(gen, orbit, spectrum, n_max, tol, offset=offset,
                             norm=norm, levels=levels,
                             _filtrations=filtrations)
    alt = compute_splitting(gen, orbit, spectrum, n_max, tol, offset=offset,
                            rotation_seed=1,
                            norm=norm, levels=levels,
                            _filtrations=filtrations)
    if not (base.converged and alt.converged):
        return math.inf
    return max(grassmann_distance(Y, Yp)
               for Y, Yp in zip(base.spaces, alt.spaces))


class TemperednessVerdict:
    def __init__(self, verdict, forward_slope, backward_slope, ns, slopes_fwd,
                 slopes_bwd):
        self.verdict = verdict
        self.forward_slope = forward_slope
        self.backward_slope = backward_slope
        self.ns = ns
        self.slopes_fwd = slopes_fwd
        self.slopes_bwd = slopes_bwd

    def __repr__(self):
        return (f"TemperednessVerdict({self.verdict!r}, "
                f"fwd={self.forward_slope:.4g}, bwd={self.backward_slope:.4g})")

    def to_dict(self):
        return {"verdict": self.verdict,
                "forward_slope": float(self.forward_slope),
                "backward_slope": float(self.backward_slope),
                "ns": self.ns,
                "slopes_forward": [float(s) for s in self.slopes_fwd],
                "slopes_backward": [float(s) for s in self.slopes_bwd]}


def _side_slopes(series, ns, sign):
    out = []
    running = -math.inf
    upto = 0
    for n in ns:
        while upto <= n:
            v = float(series(sign * upto))
            if v <= 0.0:
                raise ParameterError("temperedness series must be positive")
            running = max(running, math.log(v))
            upto += 1
        out.append(running / n)
    return out


def temperedness_test(series, n_max, threshold=TEMPERED_SLOPE_THRESHOLD):
    """Classify sup-log growth of a positive series along both directions.

    Fits max_{|k| <= n} log f(sigma^k w) / n over dyadic n.  Tempered means
    both one-sided slopes are below the threshold at n_max; not tempered
    means a slope is above threshold and no longer decaying; anything else
    is inconclusive.
    """
    if n_max < 8:
        raise ParameterError("n_max must be >= 8")
    ns = []
    n = n_max
    while n >= 4:
        ns.append(n)
        n //= 2
    ns = ns[::-1]
    slopes_f = _side_slopes(series, ns, +1)
    slopes_b = _side_slopes(series, ns, -1)

    def classify(slopes):
        final = abs(slopes[-1])
        if final < threshold:
            return "tempered", slopes[-1]
        decaying = len(slopes) >= 2 and abs(slopes[-1]) < 0.9 * abs(slopes[-2])
        return ("inconclusive" if decaying else "not_tempered"), slopes[-1]

    verdict_f, slope_f = classify(slopes_f)
    verdict_b, slope_b = classify(slopes_b)
    if "not_tempered" in (verdict_f, verdict_b):
        verdict = "not_tempered"
    elif verdict_f == verdict_b == "tempered":
        verdict = "tempered"
    else:
        verdict = "inconclusive"
    return TemperednessVerdict(verdict, slope_f, slope_b, ns, slopes_f,
                               slopes_b)
