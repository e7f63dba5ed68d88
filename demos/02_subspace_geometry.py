"""
Subspace geometry in a chosen norm
==================================

Fast spaces are compared with a Grassmannian metric built from one-sided
Hausdorff distances between unit balls, and the construction that extracts
them leans on "nice" bases: unit vectors each far from the span of the
later ones.  Everything here is normed-space geometry, so every routine
takes a norm tag (l1, l2, or linf).
"""

import numpy as np

from oseledets.grassmann import (Subspace, distance_point_subspace,
                                 good_complement, grassmann_distance,
                                 is_eps_nice, nice_basis, one_sided_hausdorff,
                                 projection)

# A subspace is stored as a basis matrix plus the ambient norm.
Y = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), norm="l2")
W = Subspace(np.array([[1.0], [0.0], [0.0]]), norm="l2")

# distance_point_subspace is the distance from a vector to a span; the
# subspace metric takes a sup of such distances over unit balls, one side at
# a time.
x = np.array([0.0, 3.0, 4.0])
print("d(x, W)          :", distance_point_subspace(x, W))
print("one-sided W -> Y :", one_sided_hausdorff(W, Y))   # W sits inside Y
print("one-sided Y -> W :", one_sided_hausdorff(Y, W))   # but not back
print("d(Y, W)          :", grassmann_distance(Y, W))

# Rotating a line by an angle moves it by sin(angle) in the l2 metric.
theta = 0.1
L0 = Subspace(np.array([[1.0], [0.0]]))
L1 = Subspace(np.array([[np.cos(theta)], [np.sin(theta)]]))
print("rotated line     :", grassmann_distance(L0, L1), "~ sin 0.1 =",
      np.sin(theta))

# nice_basis turns any spanning set into a basis of unit vectors that each
# keep distance 1 from the span of the following ones; is_eps_nice checks
# the property with slack eps, which must stay below 2^-(k+2) for k vectors.
raw = np.array([[1.0, 1.0], [0.0, 1e-3], [0.0, 0.0]])
basis = nice_basis(Subspace(raw, norm="linf"))
print("nice in linf     :", is_eps_nice(basis, 0.05, "linf"))

# Oblique projections onto X along a complement Z report their operator
# norm; the norm blows up as the two spaces lean toward each other (here Z
# turns toward X as the tilt shrinks).
X = Subspace(np.array([[0.0], [1.0]]))
for tilt in (1.0, 0.2, 0.05):
    Z = Subspace(np.array([[tilt], [1.0]]))
    pair = projection(X, Z)
    print(f"projection norm with tilt {tilt:4}:", round(pair.norm_value, 3))

# good_complement picks, for each level of a decreasing flag, a complement
# whose basis stays eps-nice; it is the geometric engine behind the splitting.
flag = [Subspace(np.eye(3)[:, :2]), Subspace(np.eye(3)[:, :1])]
for U, diag in good_complement(flag, eps=0.9):
    print("complement level :", U.dim, "distances",
          [round(d, 3) for d in diag["distances"]])
