"""Heavy-tailed component distributions and hazard-twisted sampling.

Each component is a Weibull or a log-normal law described by a
:class:`DistributionSpec`.  The spec exposes density, survival, hazard
rate, cumulative hazard and their inverses, plus exact inverse-transform
sampling from both the original law and the hazard-twisted law whose
survival is the original survival raised to the power (1 - theta).

All evaluations are routed through log space so they stay numerically
stable arbitrarily deep in the tail: no expression ever forms 1 - F(x)
directly once F is within 1e-12 of 1.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .normal_tail import log_upper_tail, upper_tail_quantile_from_log

_LN10 = math.log(10.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

__all__ = [
    "Family",
    "LightTailWarning",
    "DistributionSpec",
    "db_to_linear",
    "linear_to_db",
]


def db_to_linear(value_db: float) -> float:
    """Decibel value to linear power units: 10**(dB/10)."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power value to decibels."""
    if value <= 0.0:
        raise ValueError("only positive values have a dB representation")
    return 10.0 * math.log10(value)


class Family(enum.Enum):
    WEIBULL = "weibull"
    LOGNORMAL = "lognormal"


class LightTailWarning(UserWarning):
    """Raised when a Weibull shape >= 1 removes the subexponential guarantee."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _maybe_scalar(arr: np.ndarray):
    return float(arr) if arr.ndim == 0 else arr


def _log_normal_hazard(z):
    """log(phi(z) / Q(z)), through logs so that neither underflows."""
    return -0.5 * z * z - _LOG_SQRT_2PI - log_upper_tail(z)


def _solve_rising(fn, lo, hi, tol):
    """Where value rises through 0 in [lo, hi], for fn(z) = (value, slope).

    Newton steps that bisect instead of leaving the shrinking bracket, so
    round-off in the slope never loses the root; they stop once the step is
    at rounding level or |value| <= tol, since near a peak, where the slope
    vanishes, the steps slow down."""
    z = lo
    for _ in range(100):
        value, slope = fn(z)
        lo, hi = np.where(value < 0.0, z, lo), np.where(value < 0.0, hi, z)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero slope at a peak
            step = z - value / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if np.all((np.abs(step - z) <= 1e-15 * (1.0 + np.abs(z))) | (np.abs(value) <= tol)):
            return step
        z = step
    return z


@dataclass(frozen=True)
class DistributionSpec:
    """One component's family and parameters.

    Weibull components use (shape, scale) in linear units; log-normal
    components are parameterized in dB via the power convention
    X = 10**(G/10) with G normal of mean ``lognormal_mu_db`` and standard
    deviation ``lognormal_sigma_db``, i.e. ln X is normal with
    mu_ln = mu_db * ln(10)/10 and sigma_ln = sigma_db * ln(10)/10.

    Use the :meth:`weibull` / :meth:`lognormal` constructors; exactly the
    active family's fields may be set.
    """

    family: Family
    weibull_shape: float | None = None
    weibull_scale: float | None = None
    lognormal_mu_db: float | None = None
    lognormal_sigma_db: float | None = None

    def __post_init__(self):
        params = (self.weibull_shape, self.weibull_scale, self.lognormal_mu_db, self.lognormal_sigma_db)
        if not all(v is None or math.isfinite(v) for v in params):
            raise ValueError("distribution parameters must be finite")
        if self.family is Family.WEIBULL:
            if self.weibull_shape is None or self.weibull_scale is None:
                raise ValueError("weibull components need weibull_shape and weibull_scale")
            if self.lognormal_mu_db is not None or self.lognormal_sigma_db is not None:
                raise ValueError("lognormal parameters set on a weibull component")
            if not self.weibull_shape > 0.0:
                raise ValueError("weibull_shape must be > 0")
            if not self.weibull_scale > 0.0:
                raise ValueError("weibull_scale must be > 0")
            if self.weibull_shape >= 1.0:
                warnings.warn(
                    f"weibull_shape={self.weibull_shape} is not subexponential "
                    "(shape < 1 required); heavy-tail guarantees do not apply",
                    LightTailWarning,
                    stacklevel=3,
                )
        elif self.family is Family.LOGNORMAL:
            if self.lognormal_mu_db is None or self.lognormal_sigma_db is None:
                raise ValueError(
                    "lognormal components need lognormal_mu_db and lognormal_sigma_db"
                )
            if self.weibull_shape is not None or self.weibull_scale is not None:
                raise ValueError("weibull parameters set on a lognormal component")
            if not self.lognormal_sigma_db > 0.0:
                raise ValueError("lognormal_sigma_db must be > 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "DistributionSpec":
        return cls(Family.WEIBULL, weibull_shape=float(shape), weibull_scale=float(scale))

    @classmethod
    def lognormal(cls, mu_db: float, sigma_db: float) -> "DistributionSpec":
        return cls(
            Family.LOGNORMAL,
            lognormal_mu_db=float(mu_db),
            lognormal_sigma_db=float(sigma_db),
        )

    @property
    def mu_ln(self) -> float:
        return self.lognormal_mu_db * _LN10 / 10.0

    @property
    def sigma_ln(self) -> float:
        return self.lognormal_sigma_db * _LN10 / 10.0

    # -- hazard machinery ------------------------------------------------

    def cumulative_hazard(self, x):
        """Hazard function Lambda(x) = -log(1 - F(x)), x >= 0."""
        arr = _as_array(x)
        if not np.all(arr >= 0.0):  # NaN fails too
            raise ValueError("cumulative_hazard requires x >= 0")
        if self.family is Family.WEIBULL:
            out = (arr / self.weibull_scale) ** self.weibull_shape
        else:
            out = np.zeros_like(arr)
            pos = arr > 0.0
            z = (np.log(np.where(pos, arr, 1.0)) - self.mu_ln) / self.sigma_ln
            out = np.where(pos, -log_upper_tail(z), 0.0)
        return _maybe_scalar(out)

    def inverse_cumulative_hazard(self, y, out=None):
        """The x with cumulative_hazard(x) = y, for y >= 0, written into
        ``out`` if given (which may be y itself).

        Computed from y directly in log space; y beyond the exp(-y)
        underflow point (about 745) is handled exactly.
        """
        arr = _as_array(y)
        x = np.empty_like(arr) if out is None else out
        if self.family is Family.WEIBULL:
            if arr.size and not arr.min() >= 0.0:  # NaN fails too
                raise ValueError("inverse_cumulative_hazard requires y >= 0")
            np.power(arr, 1.0 / self.weibull_shape, out=x)
            x *= self.weibull_scale
        else:
            upper_tail_quantile_from_log(arr, out=x)  # which checks y
            x *= self.sigma_ln
            x += self.mu_ln
            np.exp(x, out=x)
        return _maybe_scalar(x)

    def inverse_survival(self, u, out=None):
        """The x with survival(x) = u, for 0 < u < 1: the untwisted sampling
        kernel, written into ``out`` if given (which may be u itself).

        Log-normal inverts the normal quantile of u directly, as exp(mu_ln -
        sigma_ln * ndtri(u)).  Weibull returns exactly inverse_cumulative_hazard(-log u).
        """
        arr = _as_array(u)
        # min and max make no temporaries, unlike a mask; NaN fails both
        if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
            raise ValueError("inverse_survival requires 0 < u < 1")
        x = np.empty_like(arr) if out is None else out
        if self.family is Family.WEIBULL:
            np.negative(np.log(arr, out=x), out=x)
            return self.inverse_cumulative_hazard(x, out=x)
        ndtri(arr, out=x)
        x *= self.sigma_ln
        np.exp(np.subtract(self.mu_ln, x, out=x), out=x)
        return _maybe_scalar(x)

    def hazard_rate(self, x):
        """Hazard rate lambda(x) = f(x) / (1 - F(x)), x > 0.

        Evaluated as exp(log density - log survival) so the deep tail
        never hits 0/0.
        """
        arr = _as_array(x)
        if not np.all(arr > 0.0):
            raise ValueError("hazard_rate requires x > 0")
        if self.family is Family.WEIBULL:
            k, b = self.weibull_shape, self.weibull_scale
            out = (k / b) * (arr / b) ** (k - 1.0)
        else:
            z = (np.log(arr) - self.mu_ln) / self.sigma_ln
            log_pdf = -np.log(arr * self.sigma_ln) - _LOG_SQRT_2PI - 0.5 * z * z
            out = np.exp(log_pdf - log_upper_tail(z))
        return _maybe_scalar(out)

    def hazard_peak(self) -> float:
        """The x where the hazard rate peaks: it rises on [0, peak] and not after.

        Weibull: 0 for shape <= 1, inf above.  Log-normal (unimodal, Sweet
        1990): with z the standard score of ln x and h = phi/Q the normal
        hazard, d log lambda / dz = h(z) - z - sigma_ln vanishes at the peak.
        """
        if self.family is Family.WEIBULL:
            return 0.0 if self.weibull_shape <= 1.0 else math.inf
        return math.exp(self.mu_ln + self.sigma_ln * self._peak_z)

    @functools.cached_property
    def _peak_z(self) -> float:
        # z - h(z) rises (0 < h' = h(h - z) < 1) and passes -sigma between
        # -sigma - 1 (as h > 0) and 1/sigma (as h(z) < z + 1/z for z > 0)
        s = self.sigma_ln

        def fn(z):
            h = np.exp(_log_normal_hazard(z))
            return z - h + s, 1.0 - h * (h - z)

        return float(_solve_rising(fn, -s - 1.0, 1.0 / s, 1e-15 * (1.0 + s)))

    def inverse_hazard_rate(self, level):
        """The x in [0, hazard_peak()] with hazard_rate(x) = level > 0: 0 if
        the hazard never rises, NaN if level is above a log-normal's peak."""
        arr = _as_array(level)
        if not np.all(arr > 0.0):
            raise ValueError("inverse_hazard_rate requires level > 0")
        if self.family is Family.WEIBULL:
            k, b = self.weibull_shape, self.weibull_scale
            out = b * (arr * b / k) ** (1.0 / (k - 1.0)) if k > 1.0 else np.zeros_like(arr)
            return _maybe_scalar(out)
        s, z_peak = self.sigma_ln, self._peak_z
        # log hazard_rate + log sigma_ln + mu_ln = log h(z) - sigma_ln * z, rising up to z_peak
        target = np.log(arr) + math.log(s) + self.mu_ln
        rising = target <= _log_normal_hazard(z_peak) - s * z_peak
        target = target[rising]

        def fn(z):
            log_h = _log_normal_hazard(z)
            return log_h - s * z - target, np.exp(log_h) - z - s

        # Q >= 1/2 for z <= 0, so there log h(z) - s*z is at most the quadratic
        # log 2 - log sqrt(2 pi) - z^2/2 - s*z, which crosses the target left of
        # the answer
        lo = -s - np.sqrt(np.maximum(s * s + 2.0 * (math.log(2.0) - _LOG_SQRT_2PI - target), 0.0))
        out = np.full_like(arr, np.nan)
        z = _solve_rising(fn, np.minimum(lo, z_peak), z_peak, 1e-15 * (1.0 + np.abs(target)))
        out[rising] = np.exp(self.mu_ln + s * z)
        return _maybe_scalar(out)

    def log_density(self, x):
        """log f(x) = log lambda(x) - Lambda(x), x > 0."""
        arr = _as_array(x)
        if not np.all(arr > 0.0):
            raise ValueError("log_density requires x > 0")
        if self.family is Family.WEIBULL:
            k, b = self.weibull_shape, self.weibull_scale
            t = arr / b
            out = np.log(k / b) + (k - 1.0) * np.log(t) - t**k
        else:
            z = (np.log(arr) - self.mu_ln) / self.sigma_ln
            out = -np.log(arr * self.sigma_ln) - _LOG_SQRT_2PI - 0.5 * z * z
        return _maybe_scalar(out)

    def survival(self, x):
        """1 - F(x), underflowing gracefully to 0 in the far tail."""
        arr = np.asarray(self.cumulative_hazard(x))
        out = np.exp(-arr)
        return _maybe_scalar(out)

    def mean(self) -> float:
        """Exact first moment of the law."""
        if self.family is Family.WEIBULL:
            return self.weibull_scale * math.gamma(1.0 + 1.0 / self.weibull_shape)
        return math.exp(self.mu_ln + 0.5 * self.sigma_ln**2)

    # -- sampling ---------------------------------------------------------

    def sample(self, stream, size: int | None = None):
        """Exact draw(s) by inversion: X = survival^-1(U)."""
        n = 1 if size is None else int(size)
        x = self.inverse_survival(stream.uniforms(n))
        return float(x[0]) if size is None else x

    def sample_twisted(self, theta: float, stream, size: int | None = None):
        """Draw(s) from the hazard-twisted law with survival (1-F)^(1-theta).

        The twist inflates the tail by 1/(1-theta); theta = 0 reproduces
        the original law exactly.
        """
        if not 0.0 <= theta < 1.0:
            raise ValueError("twisting parameter must lie in [0, 1)")
        n = 1 if size is None else int(size)
        u = stream.uniforms(n)
        x = self.inverse_cumulative_hazard(-np.log(u) / (1.0 - theta))
        return float(x[0]) if size is None else x
