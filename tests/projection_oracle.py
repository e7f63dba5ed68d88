"""The d x d oblique projection, as an oracle for the co-frame one.

The package takes every oblique projection through
grassmann._CoframeProjection, which holds a projection onto span(Y) along
F^perp as its d x k factors.  This module forms the same projection the
direct way, Pi = [Y, 0] [Y, Z]^-1, with the same two refusals (condition
past COMPLEMENT_CONDITION, relative idempotency residual past
IDEMPOTENCY_TOL), so the two share no arithmetic beyond operator_norm.
"""

from types import SimpleNamespace

import numpy as np

from oseledets.grassmann import (COMPLEMENT_CONDITION, IDEMPOTENCY_TOL,
                                 ComplementarityError, operator_norm)


def projection(Y, Z):
    """Pi with Pi y = y on Y and Pi z = 0 on Z (Subspaces, dim Y + dim Z
    = d), as a namespace of matrix, condition, norm_value (in Y's norm)
    and idempotency_error."""
    d = Y.ambient_dim
    assert Z.ambient_dim == d and Y.dim + Z.dim == d
    B = np.column_stack([Y.basis, Z.basis])
    condition = np.linalg.cond(B)
    if not condition <= COMPLEMENT_CONDITION:
        raise ComplementarityError(
            f"Y and Z are not numerically complementary "
            f"(condition {condition:.3e})")
    Pi = np.column_stack([Y.basis, np.zeros((d, Z.dim))]) @ np.linalg.inv(B)
    norm_value = operator_norm(Pi, Y.norm)
    error = operator_norm(Pi @ Pi - Pi, Y.norm) / max(norm_value, 1e-300)
    if error > IDEMPOTENCY_TOL:
        raise ComplementarityError(
            f"projection failed idempotency check ({error:.3e})")
    return SimpleNamespace(matrix=Pi, condition=condition,
                           norm_value=norm_value, idempotency_error=error)
