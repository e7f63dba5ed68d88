"""Constructive Oseledets splittings for random linear cocycles.

The package builds equivariant fast/slow splittings for cocycles over an
invertible ergodic driver whose generator need not be invertible: the
fast space at a point is recovered as the limit of pushforwards of slow
complements selected along the backward orbit.  Everything is finite
dimensional and explicitly computable; Ulam discretizations of random
piecewise expanding interval maps supply the flagship cocycles.

Layout:

- base: driving systems and two-sided orbit windows
- grassmann: subspace geometry in l1/l2/linf (distances, nice bases,
  good complements)
- cocycle: matrix cocycle generators and the blocked QR walk of a frame
- spectrum: Lyapunov exponents, Oseledets filtrations, Hennion's bound
  on the index of compactness
- splitting: the pushforward construction, convergence-rate fits,
  equivariance and temperedness checks
- transfer: piecewise expanding interval maps, exact Ulam matrices,
  Lasota-Yorke diagnostics, Sobolev-norm probes
- cli: config-driven experiment runner
"""

from .base import (BernoulliShift, FiniteCycle, IrrationalRotation,
                   MarkovShift, OrbitWindow, ParameterError, RangeError,
                   birkhoff_average, generate_orbit, shift_view)
from .cocycle import CocycleGenerator
from .grassmann import (ComplementarityError, DegenerateSubspaceError,
                        DimensionMismatchError, FiltrationError,
                        NiceBasisError, Subspace, distance_point_subspace,
                        good_complement, grassmann_distance, is_eps_nice,
                        nice_basis, one_sided_hausdorff, operator_norm,
                        vector_norm)
from .spectrum import (FiltrationAt, LyapunovSpectrum, filtration_at,
                       growth_rate, hennion_kappa_bound, lyapunov_exponents)
from .splitting import (ConvergenceReport, RankCollapseError, SplittingResult,
                        TemperednessVerdict, check_equivariance, check_growth,
                        compute_splitting, pushforward_space,
                        temperedness_test, uniqueness_probe)
from .transfer import (Branch, KappaStarBound, PiecewiseExpandingMap1D,
                       PiecewisePolynomial, RandomLYSystem, UlamOperator,
                       buzzi_swap_cocycle, complexity_counters,
                       continuity_probe, discrete_sobolev_norm, doubling_map,
                       full_branch_affine, grid_midpoints, kappa_star_bound,
                       ly_bound_B, ly_distance, perturbed_doubling,
                       random_ulam_cocycle, sin_doubling, transfer_apply_exact,
                       tripling_map, ulam_matrix)

__version__ = "0.1.0"
