"""
Matrix cocycles and their Lyapunov spectrum
===========================================

A cocycle generator assigns a matrix to every base state; products along an
orbit then have well-defined exponential growth rates.  This script builds
four generators, extracts their spectra, and inspects the slow filtration.
"""

import math
from fractions import Fraction

import numpy as np

from oseledets.base import BernoulliShift, FiniteCycle, generate_orbit
from oseledets.cocycle import CocycleGenerator
from oseledets.spectrum import filtration_at, growth_rate, lyapunov_exponents
from oseledets.transfer import (RandomLYSystem, full_branch_affine,
                                random_ulam_cocycle)

# Constant cocycle: the exponents are the logs of the eigenvalue moduli.
A = np.array([[2.0, 1.0], [0.0, 0.5]])
gen = CocycleGenerator.constant(A)
orbit = generate_orbit(FiniteCycle(1), seed=0, n_past=20, n_future=600)
spec = lyapunov_exponents(gen, orbit, 500)
print("constant exponents :", [round(x, 10) for x in spec.exponents],
      "(log 2 =", round(math.log(2), 10), ")")

# The 400-step product reaches 2^400 = 2.6e120, near the top of the float
# range, and (1/n) log ||A^n|| tends to log 2.  The spectrum never forms
# such a product: it walks frames of a few columns, and its norm slope
# follows one vector.
log_norm = math.log(np.linalg.norm(np.linalg.matrix_power(A, 400), 2))
print("400-step log-norm  :", round(log_norm, 6),
      "; / 400 =", round(log_norm / 400, 6))

# Tabulated cocycle over a coin flip: random products of two matrices.
table = [np.array([[1.5, 0.0], [0.0, 0.4]]),
         np.array([[0.7, 0.3], [0.0, 1.8]])]
coin = BernoulliShift([0.5, 0.5])
gen2 = CocycleGenerator.from_table(table)
orbit2 = generate_orbit(coin, seed=4, n_past=50, n_future=2200)
spec2 = lyapunov_exponents(gen2, orbit2, 2000)
print("random exponents   :", [round(x, 4) for x in spec2.exponents])

# An Ulam cocycle at 256 bins: a coin flip picks one of two full-branch
# maps.  Below 0 and lambda_2 the discretization adds a wide cluster of
# spurious exponents.  The QR pass carries only as many columns as it
# needs (the cut), reports the levels above that cluster, and estimates
# the largest exponent it does not report by below_cut (an estimate, not a
# certified bound).
maps = [full_branch_affine([0, q, 1]) for q in (Fraction(3, 10),
                                                 Fraction(2, 5))]
ulam = random_ulam_cocycle(RandomLYSystem(coin, maps), 256)
orbit3 = generate_orbit(coin, seed=7, n_past=0, n_future=401)
spec3 = lyapunov_exponents(ulam, orbit3, 400, norm="l1")
print("Ulam exponents     :", [round(x, 4) for x in spec3.exponents],
      f"(cut {spec3.cut} of {spec3.ambient_dim} columns; the rest below",
      f"~{spec3.below_cut:.4f}, an estimate)")

# The slow filtration at a base point: directions that grow no faster than
# each exponent.  V_1 is the whole plane; for the constant triangular matrix
# the slow line V_2 is the second eigenvector, span (1, -1.5).  The
# filtration is a co-frame: V_2 is orthogonal to the first frame column,
# so in the plane it is spanned by the second.
filt = filtration_at(gen, orbit, 0, 400, spec)
slow = filt.frame[:, 1]
print("slow direction     :", np.round(slow / slow[0], 6))

# growth_rate measures a single vector; a generic vector sees the top rate,
# a vector in the slow line sees the bottom one.
print("generic vector rate:", round(growth_rate(gen, orbit, [1.0, 1.0], 50), 4))
print("slow vector rate   :", round(growth_rate(gen, orbit, [1.0, -1.5], 20), 4))

# Norm series (1/n) log ||L^(n)|| are the raw material of subadditivity
# arguments; the first five of the random cocycle, in l1.
P = np.eye(2)
series = []
for n in range(1, 6):
    P = gen2.matrix_at(orbit2, n - 1) @ P
    series.append(math.log(np.linalg.norm(P, 1)) / n)
print("norm series head   :", [round(s, 3) for s in series])
