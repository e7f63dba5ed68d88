"""Log-scaled dense products, as an oracle for the spectrum's norm chains.

The package never forms a product of its factors beyond a frame of a few
columns: its norm slope is a chain of one vector (spectrum._log_norm_ends).
This module forms A_n ... A_1 M the direct way, from the generator's dense
matrices, with the entries kept in range by a separate log scale, so norms
of long products stay finite.
"""

import math

import numpy as np

from oseledets.cocycle import _RENORM_HI, _RENORM_LO
from oseledets.grassmann import operator_norm


def factors(gen, orbit, start, n):
    """The dense matrices at offsets start..start+n-1, in the order they
    multiply: the product puts each one on the left of the ones before."""
    return (gen(orbit.state(i)) for i in range(start, start + n))


def scaled_product(mats, M):
    """(P, log_scale) with P exp(log_scale) = A_n ... A_1 M for the
    matrices A_1, ..., A_n of ``mats`` in order.  P is divided by its
    largest absolute entry whenever that entry leaves [_RENORM_LO,
    _RENORM_HI]."""
    M = np.asarray(M, dtype=float)
    log_scale = 0.0
    for A in mats:
        M = A @ M
        peak = np.abs(M).max()
        if not _RENORM_LO < peak < _RENORM_HI and 0 < peak < math.inf:
            M = M / peak
            log_scale += math.log(peak)
    return M, log_scale


def log_norm(product, norm):
    """log ||P exp(log_scale)|| of a ``scaled_product``; -inf for zero."""
    M, log_scale = product
    value = operator_norm(M, norm)
    return -math.inf if value == 0 else math.log(value) + log_scale

