import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from tailtwist.distributions import (
    DistributionSpec,
    Family,
    LightTailWarning,
    db_to_linear,
    linear_to_db,
)
from tailtwist.normal_tail import upper_tail_quantile_from_log
from tailtwist.streams import UnitSampleStream

WEIBULL_HEAVY = DistributionSpec.weibull(0.4, 1.0)
WEIBULL_HALF = DistributionSpec.weibull(0.5, 1.0)
LOGNORMAL_6DB = DistributionSpec.lognormal(0.0, 6.0)


def exponential_spec():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LightTailWarning)
        return DistributionSpec.weibull(1.0, 1.0)


class ConstantStream:
    """Stand-in stream yielding one fixed uniform, for inversion identities."""

    def __init__(self, u: float):
        self.u = u

    def uniforms(self, n: int) -> np.ndarray:
        return np.full(n, self.u)


# -- construction -----------------------------------------------------------


def test_weibull_requires_positive_parameters():
    with pytest.raises(ValueError, match="weibull_shape must be > 0"):
        DistributionSpec.weibull(0.0, 1.0)
    with pytest.raises(ValueError, match="weibull_scale must be > 0"):
        DistributionSpec.weibull(0.4, 0.0)


def test_lognormal_requires_positive_sigma():
    with pytest.raises(ValueError, match="lognormal_sigma_db must be > 0"):
        DistributionSpec.lognormal(0.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: DistributionSpec.lognormal(math.nan, 4.0),
    lambda: DistributionSpec.lognormal(math.inf, 4.0),
    lambda: DistributionSpec.lognormal(0.0, math.inf),
    lambda: DistributionSpec.lognormal(0.0, math.nan),
    lambda: DistributionSpec.weibull(0.5, math.inf),
    lambda: DistributionSpec.weibull(math.inf, 1.0),
    lambda: DistributionSpec.weibull(math.nan, 1.0),
])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_mismatched_family_fields_rejected():
    with pytest.raises(ValueError):
        DistributionSpec(Family.WEIBULL, weibull_shape=0.4, weibull_scale=1.0, lognormal_mu_db=0.0)
    with pytest.raises(ValueError):
        DistributionSpec(Family.LOGNORMAL, lognormal_mu_db=0.0, lognormal_sigma_db=4.0, weibull_shape=0.5)
    with pytest.raises(ValueError):
        DistributionSpec(Family.WEIBULL, weibull_shape=0.4)


def test_heavy_weibull_is_subexponential_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DistributionSpec.weibull(0.4, 1.0)


def test_light_weibull_warns():
    with pytest.warns(LightTailWarning):
        DistributionSpec.weibull(1.5, 2.0)


def test_db_conversions():
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
    assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


# -- hazard rate -------------------------------------------------------------


def test_exponential_has_constant_hazard():
    spec = exponential_spec()
    assert spec.hazard_rate(3.7) == pytest.approx(1.0, rel=1e-14)


def test_weibull_hazard_closed_form():
    # (k/beta) * (x/beta)^(k-1) at k=0.4, beta=1, x=100
    assert WEIBULL_HEAVY.hazard_rate(100.0) == pytest.approx(0.02523829377920773, rel=1e-12)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB, DistributionSpec.lognormal(3.0, 4.0)])
def test_hazard_matches_finite_difference_of_cumulative_hazard(spec):
    # the hazard rate is the derivative of the cumulative hazard
    for x in np.geomspace(0.01, 1e6, 25):
        h = 1e-6 * x
        fd = (spec.cumulative_hazard(x + h) - spec.cumulative_hazard(x - h)) / (2 * h)
        assert spec.hazard_rate(x) == pytest.approx(fd, rel=1e-5)


def test_hazard_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        WEIBULL_HEAVY.hazard_rate(0.0)
    with pytest.raises(ValueError):
        LOGNORMAL_6DB.hazard_rate(np.array([1.0, -2.0]))


# -- cumulative hazard --------------------------------------------------------


def test_cumulative_hazard_at_zero():
    assert WEIBULL_HEAVY.cumulative_hazard(0.0) == 0.0
    assert LOGNORMAL_6DB.cumulative_hazard(0.0) == 0.0


def test_weibull_cumulative_hazard_closed_form():
    assert WEIBULL_HEAVY.cumulative_hazard(100.0) == pytest.approx(6.309573444801933, rel=1e-13)


def test_weibull_cumulative_hazard_matches_quadrature():
    value, err = scipy.integrate.quad(WEIBULL_HEAVY.hazard_rate, 0.0, 100.0)
    assert WEIBULL_HEAVY.cumulative_hazard(100.0) == pytest.approx(value, rel=1e-6)


def test_lognormal_cumulative_hazard_frozen_value():
    # -log Q(25/6), frozen from a 40-digit evaluation
    assert LOGNORMAL_6DB.cumulative_hazard(10**2.5) == pytest.approx(11.077623477928462, rel=1e-12)


def test_cumulative_hazard_rejects_negative_x():
    with pytest.raises(ValueError):
        WEIBULL_HEAVY.cumulative_hazard(-1.0)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, WEIBULL_HALF, LOGNORMAL_6DB])
def test_cumulative_hazard_nondecreasing_and_diverging(spec):
    grid = np.geomspace(1e-6, 1e12, 200)
    values = spec.cumulative_hazard(grid)
    assert np.all(np.diff(values) >= 0.0)
    assert values[-1] > 30.0


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
def test_survival_matches_closed_form(spec):
    if spec.family is Family.WEIBULL:
        reference = scipy.stats.weibull_min(c=spec.weibull_shape, scale=spec.weibull_scale)
    else:
        reference = scipy.stats.lognorm(s=spec.sigma_ln, scale=math.exp(spec.mu_ln))
    for x in np.geomspace(1e-3, 1e6, 40):
        expected = reference.sf(x)
        if expected > 1e-300:
            assert spec.survival(x) == pytest.approx(expected, rel=1e-9)


# -- inverse cumulative hazard ------------------------------------------------


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
def test_inverse_at_zero(spec):
    assert spec.inverse_cumulative_hazard(0.0) == 0.0


def test_weibull_inverse_closed_form():
    assert WEIBULL_HEAVY.inverse_cumulative_hazard(6.309573444801933) == pytest.approx(100.0, rel=1e-12)


def test_lognormal_inverse_round_trip_value():
    y = LOGNORMAL_6DB.cumulative_hazard(316.22776601683796)
    assert LOGNORMAL_6DB.inverse_cumulative_hazard(y) == pytest.approx(316.22776601683796, rel=1e-10)


def test_lognormal_inverse_matches_bisection():
    y = 11.077623477928462
    lo, hi = 1.0, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if LOGNORMAL_6DB.cumulative_hazard(mid) < y:
            lo = mid
        else:
            hi = mid
    assert LOGNORMAL_6DB.inverse_cumulative_hazard(y) == pytest.approx(lo, rel=1e-9)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, WEIBULL_HALF, LOGNORMAL_6DB, DistributionSpec.lognormal(-2.0, 3.0)])
def test_inversion_round_trip(spec):
    x = np.geomspace(1e-6, 1e10, 300)
    back = spec.inverse_cumulative_hazard(spec.cumulative_hazard(x))
    assert np.allclose(back, x, rtol=1e-8)


def test_inverse_handles_huge_hazard_without_underflow():
    # exp(-y) underflows beyond y ~ 745; the log-space path must not care
    x = LOGNORMAL_6DB.inverse_cumulative_hazard(1e4)
    assert np.isfinite(x)
    assert LOGNORMAL_6DB.cumulative_hazard(x) == pytest.approx(1e4, rel=1e-10)


def test_inverse_rejects_negative():
    with pytest.raises(ValueError):
        WEIBULL_HEAVY.inverse_cumulative_hazard(-0.5)


def _quantile_from_log_40_digits(y: float) -> float:
    """The z with -log Q(z) = y, solved in 40-digit arithmetic."""
    with mpmath.workdps(40):
        def hazard(z):
            # -log Q(z), written so neither branch cancels catastrophically
            if z < 0:
                return -mpmath.log1p(-mpmath.ncdf(z))
            return -mpmath.log(mpmath.ncdf(-z))

        log_y = mpmath.log(mpmath.mpf(y))
        start = mpmath.mpf(upper_tail_quantile_from_log(y))
        return float(mpmath.findroot(lambda z: mpmath.log(hazard(z)) - log_y, start))


@pytest.mark.parametrize("y", [
    1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-3, 0.1, 0.5, 0.69, 0.7,
    1.0, 2.0, 5.0, 10.0, 50.0, 300.0, 745.0, 1e3, 1e4, 1e5, 1e6,
])
def test_quantile_from_log_matches_arbitrary_precision(y):
    assert upper_tail_quantile_from_log(y) == pytest.approx(_quantile_from_log_40_digits(y), rel=1e-12)


# -- rising branch of the hazard rate ---------------------------------------


def test_weibull_hazard_peak_is_zero_or_infinite():
    assert WEIBULL_HEAVY.hazard_peak() == 0.0
    assert exponential_spec().hazard_peak() == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LightTailWarning)
        assert DistributionSpec.weibull(1.5, 2.0).hazard_peak() == math.inf


@pytest.mark.parametrize("sigma_db", [0.5, 1.0, 4.0, 6.0, 20.0])
def test_lognormal_hazard_peak_solves_the_mills_ratio_condition(sigma_db):
    spec = DistributionSpec.lognormal(1.5, sigma_db)
    peak = spec.hazard_peak()
    z = (math.log(peak) - spec.mu_ln) / spec.sigma_ln
    with mpmath.workdps(40):
        mills = mpmath.npdf(z) / mpmath.ncdf(-z)
        assert float(mills - z) == pytest.approx(spec.sigma_ln, rel=1e-12)
    top = spec.hazard_rate(peak)
    assert top >= spec.hazard_rate(peak * 0.999) and top >= spec.hazard_rate(peak * 1.001)


@pytest.mark.parametrize("spec", [
    LOGNORMAL_6DB,
    DistributionSpec.lognormal(-2.0, 1.0),
    DistributionSpec.lognormal(3.0, 20.0),
])
def test_lognormal_inverse_hazard_rate_round_trips_on_the_rising_branch(spec):
    peak = spec.hazard_peak()
    levels = spec.hazard_rate(peak) * np.geomspace(1e-12, 0.999, 50)
    x = spec.inverse_hazard_rate(levels)
    assert np.all((x > 0.0) & (x <= peak))
    assert np.all(np.diff(x) > 0.0)
    np.testing.assert_allclose(spec.hazard_rate(x), levels, rtol=1e-12)


def test_weibull_inverse_hazard_rate_round_trips_when_the_hazard_rises():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LightTailWarning)
        spec = DistributionSpec.weibull(2.5, 3.0)
    levels = np.geomspace(1e-6, 1e3, 20)
    np.testing.assert_allclose(spec.hazard_rate(spec.inverse_hazard_rate(levels)), levels, rtol=1e-13)


def test_inverse_hazard_rate_off_the_rising_branch():
    peak_level = LOGNORMAL_6DB.hazard_rate(LOGNORMAL_6DB.hazard_peak())
    assert math.isnan(LOGNORMAL_6DB.inverse_hazard_rate(1.01 * peak_level))
    both = LOGNORMAL_6DB.inverse_hazard_rate(np.array([1.01, 0.5]) * peak_level)
    assert np.isnan(both).tolist() == [True, False]
    # a hazard that never rises has the branch {0}
    assert WEIBULL_HEAVY.inverse_hazard_rate(0.3) == 0.0
    assert exponential_spec().inverse_hazard_rate(1.0) == 0.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            LOGNORMAL_6DB.inverse_hazard_rate(bad)


# -- inverse survival ---------------------------------------------------------


def _kernel_uniforms():
    extremes = [np.nextafter(0.0, 1.0), 2.0**-53, 1e-300, 0.5, 1.0 - 2.0**-30, 1.0 - 2.0**-53]
    return np.concatenate([UnitSampleStream(5, 0).uniforms(1 << 16), extremes])


@pytest.mark.parametrize("spec", [LOGNORMAL_6DB, DistributionSpec.lognormal(-2.0, 3.0), DistributionSpec.lognormal(10.0, 20.0)])
def test_lognormal_inverse_survival_matches_inverse_hazard(spec):
    u = _kernel_uniforms()
    expected = spec.inverse_cumulative_hazard(-np.log(u))
    assert np.allclose(spec.inverse_survival(u), expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, DistributionSpec.weibull(0.8, 3.0)])
def test_weibull_inverse_survival_is_the_inverse_hazard_of_neg_log_u(spec):
    u = _kernel_uniforms()
    assert np.array_equal(spec.inverse_survival(u), spec.inverse_cumulative_hazard(-np.log(u)))


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
@pytest.mark.parametrize("u", [0.0, 1.0, math.nan])
def test_inverse_survival_rejects_u_outside_open_unit_interval(spec, u):
    with pytest.raises(ValueError, match="0 < u < 1"):
        spec.inverse_survival(u)
    with pytest.raises(ValueError, match="0 < u < 1"):
        spec.inverse_survival(np.array([0.5, u]))


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
@pytest.mark.parametrize("method, values", [
    ("inverse_cumulative_hazard", np.geomspace(1e-12, 1e5, 400)),
    ("inverse_survival", np.linspace(1e-9, 1.0 - 1e-9, 400)),
])
def test_inverse_kernels_write_into_out(spec, method, values):
    fn = getattr(spec, method)
    arr = values.copy()
    out = np.empty_like(arr)
    assert fn(arr, out=out) is out
    assert np.array_equal(out, fn(values))
    assert np.array_equal(arr, values)
    assert fn(arr, out=arr) is arr  # in place over the input
    assert np.array_equal(arr, out)
    assert isinstance(fn(values[7]), float)
    assert fn(values[7]) == out[7]


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
@pytest.mark.parametrize("method, bad", [
    ("inverse_cumulative_hazard", -1e-12),
    ("inverse_cumulative_hazard", math.nan),
    ("inverse_survival", 0.0),
    ("inverse_survival", 1.0),
    ("inverse_survival", math.nan),
])
def test_inverse_kernels_with_out_still_reject_bad_input(spec, method, bad):
    with pytest.raises(ValueError):
        getattr(spec, method)(np.array([0.5, bad, 0.25]), out=np.empty(3))


def test_inverse_survival_round_trips_survival():
    x = np.geomspace(1e-3, 1e6, 50)
    for spec in (WEIBULL_HEAVY, LOGNORMAL_6DB):
        assert np.allclose(spec.inverse_survival(spec.survival(x)), x, rtol=1e-8)


# -- log density --------------------------------------------------------------


def test_exponential_log_density():
    assert exponential_spec().log_density(2.0) == pytest.approx(-2.0, rel=1e-14)


def test_weibull_log_density_frozen_value():
    assert WEIBULL_HEAVY.log_density(100.0) == pytest.approx(-9.988966288268942, rel=1e-12)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
def test_log_density_equals_log_hazard_minus_cumulative_hazard(spec):
    for x in np.geomspace(0.05, 1e4, 30):
        identity = math.log(spec.hazard_rate(x)) - spec.cumulative_hazard(x)
        assert spec.log_density(x) == pytest.approx(identity, rel=1e-10)


def test_lognormal_log_density_matches_scipy():
    reference = scipy.stats.lognorm(s=LOGNORMAL_6DB.sigma_ln, scale=1.0)
    for x in [0.3, 1.0, 316.23, 1e5]:
        assert LOGNORMAL_6DB.log_density(x) == pytest.approx(reference.logpdf(x), rel=1e-10)


def test_log_density_rejects_nonpositive():
    with pytest.raises(ValueError):
        LOGNORMAL_6DB.log_density(0.0)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
@pytest.mark.parametrize("method", ["cumulative_hazard", "survival", "hazard_rate", "log_density"])
@pytest.mark.parametrize("x", [math.nan, np.array([2.0, math.nan])])
def test_pointwise_functions_reject_nan(spec, method, x):
    # a NaN threshold must fail loudly, not read as a quiet 0.0 or NaN
    with pytest.raises(ValueError):
        getattr(spec, method)(x)


# -- sampling ------------------------------------------------------------------


def test_sample_inversion_identity():
    # -log(e^-1) = 1 and Lambda^-1(1) = beta for any Weibull shape
    x = WEIBULL_HEAVY.sample(ConstantStream(math.exp(-1.0)))
    assert x == pytest.approx(1.0, rel=1e-12)


def test_sample_twisted_inversion_identity():
    theta = 0.8415106807538887
    x = WEIBULL_HEAVY.sample_twisted(theta, ConstantStream(math.exp(-1.0)))
    assert x == pytest.approx(100.0, rel=1e-9)


@pytest.mark.parametrize("spec", [WEIBULL_HEAVY, LOGNORMAL_6DB])
def test_sample_distribution_ks(spec):
    draws = spec.sample(UnitSampleStream(314, 0), size=100_000)
    result = scipy.stats.kstest(draws, lambda v: -np.expm1(-spec.cumulative_hazard(v)))
    assert result.pvalue > 0.01


def test_sample_mean_matches_moment_formula():
    # E[X] = Gamma(1 + 1/k) = Gamma(3) = 2 for k = 0.5; Var = Gamma(5) - 4 = 20
    draws = WEIBULL_HALF.sample(UnitSampleStream(99, 0), size=1_000_000)
    se = math.sqrt(20.0 / draws.size)
    assert abs(draws.mean() - 2.0) < 3 * se


def test_twisted_theta_zero_matches_plain_sampling():
    plain = WEIBULL_HEAVY.sample(UnitSampleStream(5, 1), size=10_000)
    twisted = WEIBULL_HEAVY.sample_twisted(0.0, UnitSampleStream(5, 1), size=10_000)
    assert np.array_equal(plain, twisted)


@pytest.mark.parametrize("spec,x_grid", [
    (WEIBULL_HEAVY, (0.5, 2.0, 20.0)),
    (LOGNORMAL_6DB, (0.5, 2.0, 30.0)),
])
@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
def test_twisted_survival_power_law(spec, x_grid, theta):
    # survival of the twisted law is the plain survival to the power 1-theta
    n = 100_000
    draws = spec.sample_twisted(theta, UnitSampleStream(2718, 3), size=n)
    for x in x_grid:
        expected = spec.survival(x) ** (1.0 - theta)
        observed = float(np.mean(draws > x))
        band = 2.576 * math.sqrt(expected * (1.0 - expected) / n)
        assert abs(observed - expected) <= band


@pytest.mark.parametrize("theta", [0.5, 0.9])
def test_twisted_distribution_ks(theta):
    spec = LOGNORMAL_6DB
    draws = spec.sample_twisted(theta, UnitSampleStream(161, 2), size=100_000)
    cdf = lambda x: -np.expm1((1.0 - theta) * -np.asarray(spec.cumulative_hazard(x)))
    assert scipy.stats.kstest(draws, cdf).pvalue > 0.01


def test_sample_twisted_rejects_bad_theta():
    stream = UnitSampleStream(0)
    with pytest.raises(ValueError):
        WEIBULL_HEAVY.sample_twisted(1.0, stream)
    with pytest.raises(ValueError):
        WEIBULL_HEAVY.sample_twisted(-0.1, stream)


def test_db_convention_matches_power_transform():
    # LogNormal(mu_db, sigma_db) must be the law of 10^(G/10),
    # G normal with mean mu_db and std sigma_db
    spec = DistributionSpec.lognormal(0.0, 6.0)
    ours = spec.sample(UnitSampleStream(755, 0), size=100_000)
    g = np.random.default_rng(866).normal(0.0, 6.0, size=100_000)
    other = 10.0 ** (g / 10.0)
    assert scipy.stats.ks_2samp(ours, other).pvalue > 0.01
    # exact moments: mean exp(sigma_ln^2 / 2)
    assert spec.mean() == pytest.approx(2.5969603368555684, rel=1e-12)
    se = math.sqrt(38.740070995323360 / ours.size)
    assert abs(ours.mean() - spec.mean()) < 3 * se


def test_scalar_and_array_apis_agree():
    # numpy's scalar and SIMD pow paths may differ in the last ulp
    xs = np.array([0.5, 3.0, 250.0])
    for spec in (WEIBULL_HEAVY, LOGNORMAL_6DB):
        vector = spec.cumulative_hazard(xs)
        scalars = [spec.cumulative_hazard(float(x)) for x in xs]
        assert np.allclose(vector, scalars, rtol=1e-15)
