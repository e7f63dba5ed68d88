"""The first ambient dimension d from which compute_splitting raises for a
level of multiplicity m: there the l1/linf sup between two dim-m subspaces
of R^d is past one of the enumeration guards of
grassmann._check_sup_enumeration.  The compute_splitting docstring states
the same rows; test_grassmann and test_splitting check both against them.
"""

# (norm, m, first raising d)
SUP_THRESHOLDS = (
    ("l1", 2, 201), ("l1", 3, 51), ("l1", 4, 26), ("l1", 5, 13),
    ("l1", 6, 10), ("l1", 7, 8), ("linf", 1, 201), ("linf", 2, 51),
    ("linf", 3, 14), ("linf", 4, 7), ("linf", 5, 6))
