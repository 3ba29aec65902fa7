"""Log-domain evaluation of the standard normal upper tail.

The upper-tail probability Q(z) underflows double precision near z = 39,
while the thresholds of interest here sit hundreds of standard deviations
out.  Everything in this module therefore works with log Q(z) and its
inverse, so survival probabilities as small as exp(-1e6) stay exactly
representable.  That inverse is the one sampling kernel of the
log-normal family: every draw, twisted or not, is inverted from its
cumulative hazard, never from its uniform.

This module is the package's single scipy boundary.  ``scipy.special``
is imported on the first evaluation, not at import time: only
log-normal components need it, so Weibull runs never load it.  An
estimate computes its critical uniforms, and so makes the first
evaluation, on the calling thread before any chunk runs; the import
lock would make a first evaluation on a chunk worker thread safe too.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["log_upper_tail", "upper_tail_quantile_from_log"]


@functools.cache
def _special():
    import scipy.special

    return scipy.special


def log_upper_tail(z):
    """log Q(z), with Q the standard normal survival function.

    Accurate over the whole real line (both Q near 1 and Q below the
    smallest subnormal).  Accepts scalars or arrays.
    """
    out = _special().log_ndtr(-np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


def upper_tail_quantile_from_log(y, out=None):
    """Return z such that -log Q(z) = y, for y >= 0, written into ``out``
    if given (which may be y itself).

    This inverts the Gaussian cumulative hazard as z = -ndtri_exp(-y),
    one special-function call per element that never forms exp(-y).
    scipy's ndtri_exp switches internally between an expm1 form near
    y = 0 (Q near 1) and a log-space asymptotic form for large y, so
    the whole range is accurate; y beyond 1e6 is fine.
    """
    arr = np.asarray(y, dtype=float)
    # one reduction and no temporary mask; NaN fails the comparison
    if arr.size and not arr.min() >= 0.0:
        raise ValueError("log-domain tail mass must be >= 0")
    z = np.negative(arr, out=np.empty_like(arr) if out is None else out)
    np.negative(_special().ndtri_exp(z, out=z), out=z)
    return float(z) if z.ndim == 0 else z
