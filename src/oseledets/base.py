"""Invertible ergodic driving systems and reproducible two-sided orbit windows.

A driver describes the base dynamics sigma on the probability space of
environments; an orbit window materializes a finite two-sided segment
sigma^n(omega) for n in [-n_past, n_future], addressed by integer offset.
Randomness (Bernoulli, Markov) is derived from a seekable counter-based
pseudo-random function of (seed, offset), so backward offsets are as cheap
and as reproducible as forward ones.

Ergodicity cannot be verified numerically.  FiniteCycle, irrational
rotations, Bernoulli shifts with full-support p, and irreducible aperiodic
Markov shifts are ergodic; anything else is the user's responsibility.
"""

import math

import numpy as np

__all__ = [
    "FiniteCycle",
    "IrrationalRotation",
    "BernoulliShift",
    "MarkovShift",
    "OrbitWindow",
    "generate_orbit",
    "shift_view",
    "birkhoff_average",
    "GOLDEN_CONJUGATE",
]

# (sqrt(5)-1)/2, the most badly approximable irrational: best
# equidistribution at desk scale.
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class ParameterError(ValueError):
    """Invalid driver or operation parameters."""


class RangeError(IndexError):
    """Requested offset lies outside the generated window."""


# ---------------------------------------------------------------------------
# counter-based PRF: splitmix64 finalizer over a (seed, offset) mix

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _zigzag(offsets):
    # fold signed offsets into u64: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
    n = np.asarray(offsets, dtype=np.int64)
    return np.where(n >= 0, 2 * n, -2 * n - 1).astype(np.uint64)


def _prf_u64(seed, offsets):
    with np.errstate(over="ignore"):
        x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLD
        x = x + (_zigzag(offsets) + np.uint64(1)) * _GOLD
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def prf_uniform(seed, offsets):
    """Deterministic uniforms in [0,1), one per offset, seekable in both directions."""
    return (_prf_u64(seed, offsets) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# ---------------------------------------------------------------------------
# drivers


def _check_prob_vector(p, what):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ParameterError(f"{what} must be a non-empty 1-D probability vector")
    if np.any(p < 0):
        raise ParameterError(f"{what} has negative entries")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ParameterError(f"{what} must sum to 1 within 1e-12 (got {p.sum()!r})")
    return p


class FiniteCycle:
    """Deterministic cycle through k states; state is the integer 0..k-1."""

    def __init__(self, period):
        if not isinstance(period, (int, np.integer)) or period < 1:
            raise ParameterError("FiniteCycle period must be an integer >= 1")
        self.period = int(period)

    def states(self, seed, offsets):
        return np.mod(np.asarray(offsets, dtype=np.int64), self.period)

    def step(self, state):
        return (int(state) + 1) % self.period


class IrrationalRotation:
    """Rotation x -> x + angle (mod 1); state is the point in [0,1).

    Whether ``angle`` is irrational cannot be checked in floating point.
    ``initial_point`` defaults to a seed-derived point so distinct seeds
    sample distinct orbits.
    """

    def __init__(self, angle=GOLDEN_CONJUGATE, initial_point=None):
        angle = float(angle)
        if not (0.0 <= angle < 1.0):
            raise ParameterError("rotation angle must lie in [0,1)")
        self.angle = angle
        self.initial_point = None if initial_point is None else float(initial_point) % 1.0

    def states(self, seed, offsets):
        x0 = self.initial_point
        if x0 is None:
            x0 = float(prf_uniform(seed, [0])[0])
        return np.mod(x0 + self.angle * np.asarray(offsets, dtype=np.float64), 1.0)

    def step(self, state):
        return (float(state) + self.angle) % 1.0


class BernoulliShift:
    """I.i.d. symbols; the state at offset n is a pure function of (seed, n)."""

    def __init__(self, probs):
        self.probs = _check_prob_vector(probs, "Bernoulli probability vector")
        self._cum = np.cumsum(self.probs)
        self._cum[-1] = 1.0

    @property
    def alphabet_size(self):
        return self.probs.size

    def states(self, seed, offsets):
        u = prf_uniform(seed, offsets)
        return np.searchsorted(self._cum, u, side="right").astype(np.int64)


class MarkovShift:
    """Stationary-anchored two-sided Markov chain of symbols.

    The symbol at offset 0 is drawn from ``initial`` (default: the stationary
    distribution of ``matrix``); forward offsets follow ``matrix``, backward
    offsets follow the time reversal P*_{ij} = pi_j P_{ji} / pi_i of the
    stationary chain.  Each transition consumes the PRF uniform of its own
    offset, so a window regenerates identically from (seed, sizes).
    """

    def __init__(self, matrix, initial=None):
        P = np.asarray(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
            raise ParameterError("Markov matrix must be square and non-empty")
        if np.any(P < 0):
            raise ParameterError("Markov matrix has negative entries")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ParameterError("Markov matrix rows must sum to 1 within 1e-12")
        self.matrix = P
        self.stationary = self._stationary(P)
        if initial is None:
            self.initial = self.stationary.copy()
        else:
            self.initial = _check_prob_vector(initial, "Markov initial distribution")
            if self.initial.size != P.shape[0]:
                raise ParameterError("initial distribution size mismatch")
        # reversed kernel; states with pi_i = 0 have no conditional past, so
        # they keep a self-loop (deterministic sub-chains then reverse exactly)
        pi = self.stationary
        with np.errstate(divide="ignore", invalid="ignore"):
            R = (P.T * pi[None, :]) / pi[:, None]
        R[~np.isfinite(R)] = 0.0
        rs = R.sum(axis=1)
        dead = rs <= 0.0
        R[dead] = np.eye(P.shape[0])[dead]
        rs[dead] = 1.0
        self.reversal = R / rs[:, None]

    @staticmethod
    def _stationary(P):
        w, v = np.linalg.eig(P.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(v[:, i])
        pi = np.abs(pi)
        return pi / pi.sum()

    @staticmethod
    def _draw(row, u):
        c = np.cumsum(row)
        c[-1] = 1.0
        return int(np.searchsorted(c, u, side="right"))

    def states(self, seed, offsets):
        offsets = np.asarray(offsets, dtype=np.int64)
        lo, hi = int(offsets.min()), int(offsets.max())
        u = prf_uniform(seed, np.arange(lo, hi + 1))

        def uat(k):
            return u[k - lo]

        sym = {0: self._draw(self.initial, uat(0))}
        for k in range(1, hi + 1):
            sym[k] = self._draw(self.matrix[sym[k - 1]], uat(k))
        for k in range(-1, lo - 1, -1):
            sym[k] = self._draw(self.reversal[sym[k + 1]], uat(k))
        return np.array([sym[int(k)] for k in offsets], dtype=np.int64)


# ---------------------------------------------------------------------------
# orbit windows


class OrbitWindow:
    """A finite two-sided orbit segment with an adjustable origin.

    ``state(n)`` returns the base state at relative offset n; shifted views
    share the underlying storage.
    """

    def __init__(self, driver, seed, states, n_past, n_future, origin=0):
        self.driver = driver
        self.seed = seed
        self._states = states
        self._n_past = n_past      # absolute window bounds
        self._n_future = n_future
        self.origin = origin

    @property
    def n_past(self):
        return self._n_past + self.origin

    @property
    def n_future(self):
        return self._n_future - self.origin

    def state(self, offset):
        a = offset + self.origin
        if not (-self._n_past <= a <= self._n_future):
            raise RangeError(
                f"offset {offset} (absolute {a}) outside window "
                f"[-{self._n_past}, {self._n_future}]")
        return self._states[a + self._n_past]

    def states_array(self, start, n):
        """States at offsets start..start+n-1 as an array slice."""
        if n == 0:
            return self._states[:0]
        a = start + self.origin
        if not (-self._n_past <= a and a + n - 1 <= self._n_future):
            raise RangeError(f"offsets {start}..{start + n - 1} outside window")
        return self._states[a + self._n_past: a + self._n_past + n]

    def __len__(self):
        return self._n_past + self._n_future + 1


def generate_orbit(driver, seed, n_past, n_future):
    """Materialize the orbit window sigma^n(omega), n in [-n_past, n_future].

    Regenerating with equal (driver, seed, n_past, n_future) is bitwise
    reproducible.  For deterministic drivers consecutive states satisfy
    state(n+1) = step(state(n)).
    """
    if n_past < 0 or n_future < 0:
        raise ParameterError("n_past and n_future must be >= 0")
    offsets = np.arange(-n_past, n_future + 1)
    states = driver.states(seed, offsets)
    return OrbitWindow(driver, seed, states, n_past, n_future)


def shift_view(orbit, k):
    """Re-base the origin so that sigma^k(omega) becomes offset 0."""
    if k == 0:
        return orbit
    new_origin = orbit.origin + k
    if not (-orbit._n_past <= new_origin <= orbit._n_future):
        raise RangeError(f"shift by {k} leaves the generated window")
    return OrbitWindow(orbit.driver, orbit.seed, orbit._states,
                       orbit._n_past, orbit._n_future, origin=new_origin)


def birkhoff_average(orbit, observable, n, direction="forward"):
    """(1/n) * sum_{i=0}^{n-1} observable(state(+-i))."""
    if n < 1:
        raise ParameterError("birkhoff_average needs n >= 1")
    if direction not in ("forward", "backward"):
        raise ParameterError("direction must be 'forward' or 'backward'")
    sgn = 1 if direction == "forward" else -1
    total = 0.0
    for i in range(n):
        total += float(observable(orbit.state(sgn * i)))
    return total / n
