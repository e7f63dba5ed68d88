"""
Lasota-Yorke bounds, quasi-compactness, and the continuity probe
================================================================

Beyond computing spectra, the transfer module certifies structure: an
explicit inequality constant B for compositions, a kappa* bound on the
index of compactness whose sign is a quasi-compactness certificate, and an
empirical probe of how the transfer operator moves under map perturbations,
measured in a discrete fractional-Sobolev norm.
"""

import math
from fractions import Fraction

from oseledets.base import FiniteCycle, generate_orbit
from oseledets.spectrum import hennion_kappa_bound
from oseledets.transfer import (PiecewisePolynomial, RandomLYSystem,
                                complexity_counters, continuity_probe,
                                discrete_sobolev_norm, doubling_map,
                                grid_midpoints, kappa_star_bound, ly_bound_B,
                                perturbed_doubling)

system = RandomLYSystem(FiniteCycle(1), [doubling_map()])
orbit = generate_orbit(FiniteCycle(1), seed=0, n_past=8, n_future=8)

# Complexity counters of an n-step composition: how many branch domains
# (C_b) and branch images (C_e) can pile up at a single point.  In one
# dimension C_b is always 2; C_e grows with the branch count.
for n in (1, 2, 3):
    print(f"{n}-step doubling counters:", complexity_counters(
        [doubling_map()] * n))

# The inequality constant B for the doubling map at (p, t) = (2, 1/4):
# substituting the counters and the minimum expansion gives 2^(1/4).
B1 = ly_bound_B(system, orbit, 1, p=2.0, t=0.25)
print("B(doubling, n=1):", B1, "= 2^(1/4) =", 2 ** 0.25)

# kappa* bounds the essential spectral radius on the logarithmic scale.
# For the doubling map it equals -log(2)/4 at every composition length, and
# its negativity is the quasi-compactness certificate.
for n in (1, 2, 4):
    kb = kappa_star_bound(system, orbit, n, p=2.0, t=0.25)
    print(f"kappa*(n={n})    :", kb.bound, "certified:", kb.certified)

# Averaging log B along the orbit gives the Hennion-style bound; for a
# constant system it is just log B.
kappa_avg = hennion_kappa_bound(lambda k: B1, 8)
print("avg log B       :", kappa_avg, "= log 2^(1/4) =", 0.25 * math.log(2))

# The discrete Sobolev norm weights Fourier modes by (1 + zeta^2)^(t/2);
# t = 0 recovers the plain L_p norm.
xs = grid_midpoints(256)
f = (xs - 0.5) ** 2
print("||f||_{0,2}     :", discrete_sobolev_norm(f, 0.0, 2.0))
print("||f||_{1/2,2}   :", discrete_sobolev_norm(f, 0.5, 2.0))

# Continuity of the map -> transfer operator assignment, probed along a
# dyadic family of breakpoint perturbations: the image error must vanish
# with the map distance.
perts = [perturbed_doubling(Fraction(1, 2 ** k)) for k in range(1, 9)]
pairs = continuity_probe(doubling_map(), perts, PiecewisePolynomial.ramp(),
                         p=2.0, t=0.5, n_grid=256)
for k, (dist, err) in enumerate(pairs, start=1):
    print(f"delta 2^-{k}: map distance {dist:.3e}  image error {err:.3e}")
