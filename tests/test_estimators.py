import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from scipy.special import ndtri_exp

from tailtwist import estimators
from tailtwist.distributions import DistributionSpec, Family, LightTailWarning, db_to_linear
from tailtwist.dominance import Scenario, ThetaSource, select_dominant
from tailtwist.estimators import (
    CHUNK_SIZE,
    ChunkSums,
    EstimateReport,
    Method,
    efficiency,
    estimate_conventional,
    estimate_improved,
    estimate_naive,
    log_likelihood_ratio,
    optimality_ratio,
    _SCREEN_LOG_RANGE,
    _SCREEN_MARGIN,
    _WIDE_CHUNK_SIZE,
    _critical_uniform,
    _Estimate,
    _estimate,
    _fill,
    _report,
    _screen,
    _simulate_chunk,
)
from tailtwist.streams import UnitSampleStream
from tailtwist.twist_optimizer import solve_p, theta_conventional, theta_star


def weibull_scenario(gamma_db=20.0, shapes=(0.4, 0.8)):
    specs = [DistributionSpec.weibull(k, 1.0) for k in shapes]
    return Scenario.from_db(specs, gamma_db)


def minmax_plan(scenario):
    plan = select_dominant(scenario)
    budget = solve_p(scenario, plan).objective_value
    return plan.with_theta(theta_star(plan.s, budget), ThetaSource.MINMAX_IMPROVED)


def _chunk(*args):
    """_simulate_chunk on the screen of (components, twisted, theta, gamma),
    which _estimate builds once per estimate and passes to each of its
    chunks, with (seed, chunk_index, count)."""
    return _simulate_chunk(_screen(*args[:4]), *args[4:])


# -- naive MC -------------------------------------------------------------------


def test_zero_threshold_is_certain():
    scenario = Scenario([DistributionSpec.weibull(0.4, 1.0)], 0.0)
    report = estimate_naive(scenario, runs=10_000, seed=1)
    assert report.alpha_hat == 1.0
    assert report.relative_error == 0.0


def test_naive_matches_closed_form_survival():
    # single component: alpha = exp(-100^0.4) = 1.8188e-3
    scenario = Scenario([DistributionSpec.weibull(0.4, 1.0)], 100.0)
    report = estimate_naive(scenario, runs=1_000_000, seed=3)
    alpha = 0.0018188088961578717
    se = math.sqrt(alpha * (1 - alpha) / report.runs)
    assert abs(report.alpha_hat - alpha) < 3 * se


def test_report_fields_are_consistent():
    scenario = weibull_scenario(gamma_db=10.0)
    report = estimate_naive(scenario, runs=50_000, seed=5)
    m = report.runs
    expected_var = (report.second_moment - report.alpha_hat**2) * m / (m - 1)
    assert report.variance == pytest.approx(expected_var, rel=1e-12)
    assert report.ci95_low <= report.alpha_hat <= report.ci95_high
    assert report.second_moment >= report.alpha_hat**2  # Jensen
    assert report.theta == 0.0
    assert report.seed == 5
    assert report.method is Method.NAIVE_MC


@pytest.mark.parametrize("runs", [16, 1000])
def test_naive_without_hits_reports_the_exact_one_sided_bound(runs):
    report = estimate_naive(weibull_scenario(gamma_db=32.0), runs=runs, seed=1)
    assert report.alpha_hat == report.ci95_low == 0.0
    assert report.relative_error == math.inf
    # P(no hit in runs) = 0.05 at alpha = ci95_high: about 3/runs
    assert (1.0 - report.ci95_high) ** runs == pytest.approx(0.05, rel=1e-12)
    assert report.ci95_high == pytest.approx(3.0 / runs, rel=0.5)


def test_importance_sampling_without_hits_bounds_nothing():
    report = estimate_conventional(weibull_scenario(gamma_db=32.0), 0.05, runs=16, seed=1)
    assert report.alpha_hat == report.ci95_low == 0.0
    assert report.relative_error == report.ci95_high == math.inf


# -- likelihood ratios ------------------------------------------------------------


def test_likelihood_ratio_is_one_without_twisting():
    spec = DistributionSpec.weibull(0.4, 1.0)
    assert math.exp(log_likelihood_ratio(0.0, 1, spec.cumulative_hazard(3.0))) == 1.0


def test_likelihood_ratio_frozen_value():
    # (1-theta)^-1 * exp(-theta * 100^0.4) at the minmax theta
    spec = DistributionSpec.weibull(0.4, 1.0)
    log_l = log_likelihood_ratio(0.8415106807538887, 1, spec.cumulative_hazard(100.0))
    assert math.exp(log_l) == pytest.approx(0.031194753030558537, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, 0.8415106807538887])
def test_change_of_measure_identity_improved(theta):
    # L(x) * twisted density(x) must reproduce the original density
    spec = DistributionSpec.lognormal(0.0, 6.0)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(0.05, 500.0, size=2)
        log_l = log_likelihood_ratio(theta, 2, spec.cumulative_hazard(x).sum())
        log_f = sum(spec.log_density(v) for v in x)
        log_g = sum(
            math.log1p(-theta) + math.log(spec.hazard_rate(v))
            - (1.0 - theta) * spec.cumulative_hazard(v)
            for v in x
        )
        assert log_l == pytest.approx(log_f - log_g, rel=1e-10, abs=1e-10)


def test_change_of_measure_identity_conventional():
    scenario = weibull_scenario()
    theta = 0.683
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.uniform(0.05, 500.0, size=scenario.n)
        hazards = [s.cumulative_hazard(v) for s, v in zip(scenario.components, x)]
        log_l = log_likelihood_ratio(theta, len(hazards), sum(hazards))
        log_f = sum(s.log_density(v) for s, v in zip(scenario.components, x))
        log_g = sum(
            math.log1p(-theta) + math.log(s.hazard_rate(v))
            - (1.0 - theta) * s.cumulative_hazard(v)
            for s, v in zip(scenario.components, x)
        )
        assert log_l == pytest.approx(log_f - log_g, rel=1e-10, abs=1e-10)


def test_log_likelihood_ratio_over_replications_matches_per_draw():
    # the chunk passes its hits' hazard sums as one array, which the kernel
    # overwrites with their log weights; each must equal the scalar
    # evaluation of that replication's sum
    theta = 0.7
    hazard_sum = np.array([0.5, 3.0, 40.0]) + np.array([2.0, 0.1, 7.5])
    scalars = [log_likelihood_ratio(theta, 2, h) for h in hazard_sum.tolist()]
    vectorised = log_likelihood_ratio(theta, 2, hazard_sum)
    assert vectorised is hazard_sum
    assert vectorised.tolist() == scalars
    assert log_likelihood_ratio(theta, 0, 0.0) == 0.0


# -- IS estimators -----------------------------------------------------------------


def test_improved_with_zero_theta_equals_naive():
    scenario = weibull_scenario(gamma_db=10.0)
    plan = select_dominant(scenario).with_theta(0.0, ThetaSource.MANUAL)
    a = estimate_naive(scenario, runs=40_000, seed=21)
    b = estimate_improved(scenario, plan, runs=40_000, seed=21)
    assert a.alpha_hat == b.alpha_hat
    assert a.second_moment == b.second_moment


def test_improved_reduces_to_conventional_when_all_dominant():
    scenario = weibull_scenario(shapes=(0.5, 0.5, 0.5))
    plan = select_dominant(scenario).with_theta(0.6, ThetaSource.MANUAL)
    assert plan.s == scenario.n
    a = estimate_conventional(scenario, 0.6, runs=40_000, seed=13)
    b = estimate_improved(scenario, plan, runs=40_000, seed=13)
    assert a.alpha_hat == b.alpha_hat
    assert a.second_moment == b.second_moment
    assert a.variance == b.variance


def test_estimators_agree_at_moderate_threshold():
    # alpha ~ 8e-2 here, so all three estimators resolve it cheaply
    scenario = weibull_scenario(gamma_db=10.0)
    plan = minmax_plan(scenario)
    naive = estimate_naive(scenario, runs=400_000, seed=31)
    conventional = estimate_conventional(scenario, 0.4, runs=200_000, seed=32)
    improved = estimate_improved(scenario, plan, runs=200_000, seed=33)
    for a, b in [(naive, conventional), (naive, improved), (conventional, improved)]:
        se = math.sqrt((a.variance / a.runs) + (b.variance / b.runs))
        assert abs(a.alpha_hat - b.alpha_hat) < 3 * se


def test_weights_are_nonnegative_and_bounded():
    scenario = weibull_scenario()
    plan = minmax_plan(scenario)
    report = estimate_improved(scenario, plan, runs=100_000, seed=17)
    # every weight is at most (1-theta)^-s, so the mean is too
    assert 0.0 <= report.alpha_hat <= (1.0 - plan.theta) ** -plan.s
    assert report.second_moment >= report.alpha_hat**2


def test_improved_beats_conventional_on_heavy_light_mix():
    scenario = weibull_scenario()
    plan = select_dominant(scenario)
    for theta in (0.3, 0.6, 0.9):
        conv = estimate_conventional(scenario, theta, runs=100_000, seed=41)
        imp = estimate_improved(
            scenario, plan.with_theta(theta, ThetaSource.MANUAL), runs=100_000, seed=42
        )
        band = 3 * math.sqrt(conv.second_moment_se**2 + imp.second_moment_se**2)
        assert imp.second_moment <= conv.second_moment + band


def test_estimate_determinism_and_worker_independence():
    scenario = weibull_scenario()
    plan = minmax_plan(scenario)
    a = estimate_improved(scenario, plan, runs=200_000, seed=77, workers=1)
    b = estimate_improved(scenario, plan, runs=200_000, seed=77, workers=4)
    c = estimate_improved(scenario, plan, runs=200_000, seed=77, workers=4)
    assert a == b == c


def test_multichunk_partial_tail_chunk():
    # runs not a multiple of the chunk size must still be deterministic
    scenario = weibull_scenario(gamma_db=10.0)
    runs = _WIDE_CHUNK_SIZE + 4465
    assert len(_estimate(scenario, Method.NAIVE_MC, runs, 2).chunks) == 2
    a = estimate_naive(scenario, runs=runs, seed=2, workers=1)
    b = estimate_naive(scenario, runs=runs, seed=2, workers=3)
    assert a == b


def test_improved_validates_plan():
    scenario = weibull_scenario()
    plan = select_dominant(scenario)
    with pytest.raises(ValueError):
        estimate_improved(scenario, plan, runs=100, seed=0)  # theta unset
    mixed = dataclasses.replace(plan.with_theta(0.5, ThetaSource.MANUAL), dominant_indices=(0, 1))
    with pytest.raises(ValueError):
        estimate_improved(scenario, mixed, runs=100, seed=0)  # not identical
    lognormal = Scenario.from_db(
        [DistributionSpec.lognormal(0.0, 6.0), DistributionSpec.lognormal(1.0, 6.0)], 25.0
    )
    with pytest.raises(ValueError, match="identically distributed"):
        estimate_improved(lognormal, mixed, runs=100, seed=0)  # mu differs


def test_improved_groups_dominant_components_equal_up_to_round_off():
    # parameters written as human decimals differ only in the last bits
    specs = [DistributionSpec.weibull(0.4, 1.0), DistributionSpec.weibull(0.4 * (1.0 + 1e-13), 1.0 + 1e-15)]
    scenario = Scenario.from_db(specs, 20.0)
    plan = select_dominant(scenario).with_theta(0.5, ThetaSource.MANUAL)
    assert plan.dominant_indices == (0, 1)
    assert estimate_improved(scenario, plan, runs=100, seed=0).runs == 100


def test_conventional_validates_theta():
    scenario = weibull_scenario()
    with pytest.raises(ValueError):
        estimate_conventional(scenario, 1.0, runs=100, seed=0)


def test_runs_must_be_positive():
    scenario = weibull_scenario()
    with pytest.raises(ValueError):
        estimate_naive(scenario, runs=0, seed=0)
    # a float seed is not truncated to another: the report would name a seed
    # whose stream it never read
    with pytest.raises(TypeError):
        estimate_naive(scenario, runs=1000, seed=1.9)
    # nor is a bool read as seed 0 or 1, as the config path rejects it too
    for seed in (True, False):
        with pytest.raises(TypeError, match="bool"):
            estimate_naive(scenario, runs=1000, seed=seed)
    # nor is a bool or a fraction read as a run count; a numpy integer is one
    for runs in (True, 1000.0, 2.5):
        with pytest.raises(TypeError, match="runs must be an integer"):
            estimate_naive(scenario, runs=runs, seed=0)
    assert estimate_naive(scenario, runs=np.int64(1000), seed=0).runs == 1000


SPREADS = {"second_moment", "second_moment_se", "variance", "relative_error", "ci95_low", "ci95_high"}


@pytest.mark.parametrize(
    "runs, sums, nan_fields",
    [
        (1000, (1e-200, 1e-300, 0.0), {"second_moment_se"}),
        (1000, (1e-200, 0.0, 0.0), SPREADS),
        (1000, (0.0, 0.0, 0.0), SPREADS | {"alpha_hat"}),
        # non-zero sums whose means fall below the smallest normal double
        (65536, (1e-200, 1e-306, 1e-306), SPREADS),
        (65536, (1e-320, 1e-320, 1e-320), SPREADS | {"alpha_hat"}),
    ],
)
def test_sums_that_underflow_under_hits_report_nan(runs, sums, nan_fields):
    # a row with hits whose mean of t, t**2 or t**4 underflowed reads NaN
    # in the columns read from it, not an exact 0 or a row without a hit
    estimate = _Estimate(Method.IMPROVED_IS, 0.99, runs, 0, ())
    report = _report(estimate, [ChunkSums(*sums, hits=2), ChunkSums(0.0, 0.0, 0.0, hits=1)])
    values = dataclasses.asdict(report)
    assert {name for name, v in values.items() if isinstance(v, float) and math.isnan(v)} == nan_fields
    assert report.alpha_hat == sums[0] / runs or "alpha_hat" in nan_fields
    empty = _report(estimate, [ChunkSums(0.0, 0.0, 0.0, hits=0)])
    assert (empty.alpha_hat, empty.relative_error, empty.ci95_high) == (0.0, math.inf, math.inf)


def test_the_report_does_not_depend_on_the_order_of_the_chunks():
    # a left-to-right float sum of 1, 2**-53 and 2**-53 depends on the order;
    # the records merge exactly, so every permutation gives the same report
    chunks = [
        ChunkSums(t=1.0, t2=2**-52, t4=3.0, hits=5),
        ChunkSums(t=2**-53, t2=1.0, t4=2**-53, hits=1),
        ChunkSums(t=2**-53, t2=2**-53, t4=2**-53, hits=2),
    ]
    assert sum(c.t for c in chunks) != sum(c.t for c in reversed(chunks))
    estimate = _Estimate(Method.IMPROVED_IS, 0.5, 3 * CHUNK_SIZE, 0, ())
    reports = [_report(estimate, list(order)) for order in itertools.permutations(chunks)]
    assert len({repr(report) for report in reports}) == 1
    assert reports[0].alpha_hat == (1.0 + 2**-52) / (3 * CHUNK_SIZE)


@pytest.mark.parametrize("gamma_db", [20.0, 26.0, 32.0])
def test_estimates_are_exactly_scale_equivariant(gamma_db):
    # a Weibull draw is its scale times a function of its uniform, so scaling
    # every scale and gamma by a power of two scales every draw, level and sum
    # exactly: no estimate or minmax theta moves by a bit, unless a scale or
    # gamma is read in the wrong place.  A factor of 3 rounds, so is not exact
    shapes, gamma = (0.4, 0.8, 0.8, 0.8), db_to_linear(gamma_db)

    def results(factor):
        scenario = Scenario([DistributionSpec.weibull(k, factor) for k in shapes], gamma * factor)
        plan, theta = minmax_plan(scenario), theta_conventional(scenario)
        reports = (
            estimate_naive(scenario, runs=1 << 18, seed=5),
            estimate_conventional(scenario, theta, runs=1 << 18, seed=5),
            estimate_improved(scenario, plan, runs=1 << 18, seed=5),
        )
        return plan.theta, theta, [(r.alpha_hat, r.second_moment) for r in reports]

    base = results(1.0)
    # both IS estimates hit, so their weights are compared too
    assert all(alpha > 0.0 for alpha, _ in base[2][1:])
    for factor in (2.0, 0.5, 1024.0, 2.0**-30):
        assert results(factor) == base


# -- efficiency and optimality -------------------------------------------------------


def _synthetic_report(alpha, variance):
    return EstimateReport(
        method=Method.IMPROVED_IS,
        alpha_hat=alpha,
        second_moment=variance + alpha**2,
        second_moment_se=0.0,
        variance=variance,
        relative_error=math.sqrt(variance) / alpha,
        ci95_low=alpha,
        ci95_high=alpha,
        runs=1000,
        theta=0.5,
        seed=0,
    )


def test_efficiency_of_naive_against_itself_is_one():
    alpha = 0.02
    report = _synthetic_report(alpha, alpha * (1 - alpha))
    assert efficiency(report, alpha).xi == pytest.approx(1.0, rel=1e-12)


def test_efficiency_validation():
    report = _synthetic_report(0.02, 0.0)
    with pytest.raises(ValueError):
        efficiency(report, 0.02)
    with pytest.raises(ValueError):
        efficiency(_synthetic_report(0.02, 1e-4), 1.5)


def test_optimality_ratio_endpoints():
    alpha = 1e-4
    assert optimality_ratio(alpha, alpha) == pytest.approx(1.0, rel=1e-12)
    assert optimality_ratio(alpha**2, alpha) == pytest.approx(2.0, rel=1e-12)


def test_optimality_ratio_validation():
    with pytest.raises(ValueError):
        optimality_ratio(1.0, 0.5)
    with pytest.raises(ValueError):
        optimality_ratio(0.5, 1.0)
    with pytest.raises(ValueError):
        optimality_ratio(0.0, 0.5)


def _rows_from_the_stream(components, twisted, theta, gamma, seed, chunk_index, count):
    """A chunk's rows rebuilt from its stream in the documented order, at
    their positions in its block layout, the bounds of its hit blocks and
    of its over-share blocks, and its screen.  First the hit blocks' sizes:
    one binomial per component, in order, of the replications left, at its
    hit uniform h.  Then the over-share blocks': one binomial per component
    of the replications left after those, at (p - h) / (1 - h), p its share
    uniform clipped to 1.  Then each row in component order, one uniform V
    per entry: a twisted one over both kinds of blocks, an untwisted one
    over the over-share blocks only.  In hit block k a row i > k is V, row k
    is h * V and a row i < k is h + (1 - h) * V; in over-share block k a row
    i > k is h + (1 - h) * V, row k is h + (p - h) * V and a row i < k is
    p + (1 - p) * V.  Entries the chunk never reads are NaN."""
    screen = _screen(components, twisted, theta, gamma)
    hit, shares = np.array(screen.hit), np.minimum(screen.share, 1.0)
    gen = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))
    sizes, left = [], count
    for cut in np.concatenate([hit, (shares - hit) / (1.0 - hit)]):
        sizes.append(int(gen.binomial(left, cut)))
        left -= sizes[-1]
    n = len(components)
    starts = np.cumsum([0] + sizes)
    hit_starts, over_starts = starts[: n + 1], starts[n:]
    rows = np.full((n, count), np.nan)
    for i, (h, p) in enumerate(zip(hit, shares)):
        laws = [(0.0, 1.0)] * i + [(0.0, h)] + [(h, 1.0)] * (n - i - 1)
        laws += [(h, 1.0)] * i + [(h, p)] + [(p, 1.0)] * (n - i - 1)
        blocks = list(zip(laws, starts[:-1], starts[1:]))[0 if i in twisted else n :]
        first = blocks[0][1]
        u = _reference_uniforms(gen, over_starts[-1] - first)
        for (lo, hi), a, b in blocks:
            v = u[a - first : b - first]
            if lo > 0.0:
                v = np.minimum(v * (hi - lo) + lo, BELOW_ONE)
            elif hi < 1.0:
                v = np.maximum(v * hi, TINY)
            rows[i, a:b] = v
    return rows, hit_starts, over_starts, screen


def _with_certain_hits(rows, hit_starts, hit):
    """``rows``, each entry left unread taken as the largest uniform below 1,
    but row k in hit block k as its hit uniform, which certifies the hit an
    untwisted row k is never drawn for there."""
    rows = rows.copy()
    for k, (a, b) in enumerate(zip(hit_starts[:-1], hit_starts[1:])):
        np.copyto(rows[k, a:b], hit[k], where=np.isnan(rows[k, a:b]))
    return np.nan_to_num(rows, nan=BELOW_ONE)


def test_estimator_consumes_stream_components_in_order():
    # both rows are drawn over the over-share blocks, in component order, and
    # neither in the hit blocks; a replication in a hit block hits, and one
    # with no uniform below its share uniform misses, whatever its unread
    # uniforms are
    scenario = weibull_scenario(gamma_db=10.0)
    report = estimate_naive(scenario, runs=1000, seed=55)
    args = (scenario.components, frozenset(), 0.0, scenario.threshold_linear, 55, 0, 1000)
    rows, hit_starts, over_starts, screen = _rows_from_the_stream(*args)
    assert 0 < hit_starts[-1] < over_starts[-1] < 1000
    assert np.isnan(rows[:, : hit_starts[-1]]).all() and not np.isnan(rows[:, hit_starts[-1] : over_starts[-1]]).any()
    rows = _with_certain_hits(rows, hit_starts, screen.hit)
    x0 = scenario.components[0].inverse_cumulative_hazard(-np.log(rows[0]))
    x1 = scenario.components[1].inverse_cumulative_hazard(-np.log(rows[1]))
    hit = x0 + x1 > scenario.threshold_linear
    assert hit[: hit_starts[-1]].all() and not hit[over_starts[-1] :].any()
    assert report.alpha_hat == float(np.mean(hit))


def test_twisted_chunk_weights_come_from_the_log_weight_kernel():
    # improved IS rebuilt from the stream: twisted component 0, drawn at
    # every replication drawn, draws y = -log(u)/(1-theta); untwisted
    # component 1 is drawn at the over-share replications only.  The chunk
    # weighs a hit through log_likelihood_ratio at its twisted hazard y, in
    # layout order
    scenario = weibull_scenario(gamma_db=20.0)
    plan = minmax_plan(scenario)
    assert plan.dominant_indices == (0,)
    report = estimate_improved(scenario, plan, runs=1000, seed=56)
    args = (scenario.components, frozenset({0}), plan.theta, scenario.threshold_linear, 56, 0, 1000)
    rows, hit_starts, over_starts, screen = _rows_from_the_stream(*args)
    # each row lies below its hit uniform in its own hit block, between its
    # hit and share uniforms in its own over-share block, and at least its
    # share uniform in the over-share blocks after it
    h, d = hit_starts[-1], over_starts[-1]
    assert hit_starts[1] > 0 and over_starts[1] > h and over_starts[2] > over_starts[1]
    assert np.all(rows[0, : hit_starts[1]] <= screen.hit[0])
    for i, p in enumerate(screen.share):
        own = rows[i, over_starts[i] : over_starts[i + 1]]
        assert np.all((screen.hit[i] <= own) & (own <= p))
        assert np.all(rows[i, over_starts[i + 1] : d] >= p)
    assert not np.isnan(rows[0, :d]).any() and np.isnan(rows[1, :h]).all()
    rows = _with_certain_hits(rows, hit_starts, screen.hit)
    y = -np.log(rows[0]) / (1.0 - plan.theta)
    x0 = scenario.components[0].inverse_cumulative_hazard(y)
    x1 = scenario.components[1].inverse_cumulative_hazard(-np.log(rows[1]))
    hit = x0 + x1 > scenario.threshold_linear
    assert report.alpha_hat == np.exp(log_likelihood_ratio(plan.theta, 1, y[hit])).sum() / 1000


# -- the in-place chunk kernel against the allocating one -------------------------


# the stream's smallest uniform and the largest double below 1
TINY, BELOW_ONE = 5e-324, 1.0 - 2.0**-53


def _reference_uniforms(gen, n):
    u = gen.random(n)
    np.copyto(u, TINY, where=u == 0.0)
    np.copyto(u, BELOW_ONE, where=u == 1.0)
    return u


def _reference_uniform_rows(n, seed, chunk_index, count):
    """Each of n components' uniforms, drawn as _reference_chunk draws them."""
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    gen = np.random.Generator(np.random.PCG64DXSM(seq))
    return [_reference_uniforms(gen, count) for _ in range(n)]


def _reference_inverse_cumulative_hazard(spec, y):
    if spec.family is Family.WEIBULL:
        return spec.weibull_scale * y ** (1.0 / spec.weibull_shape)
    return np.exp(spec.mu_ln + spec.sigma_ln * -ndtri_exp(-y))


def _reference_draw_sums(components, twisted, theta, rows):
    """Each replication's sum of draws from whole ``rows`` of uniforms, in
    component order, one fresh array per temporary."""
    total = np.zeros(len(rows[0]))
    for i, (spec, u) in enumerate(zip(components, rows)):
        if i in twisted:
            total += _reference_inverse_cumulative_hazard(spec, -np.log(u) / (1.0 - theta))
        else:
            total += _reference_inverse_cumulative_hazard(spec, -np.log(u))
    return total


def _reference_sums(components, twisted, theta, gamma, rows):
    """The chunk kernel as it was before it worked in place, on whole
    ``rows`` of uniforms: one fresh array per temporary, the same float
    operations in the same order, and the hit count.  The log weight of a
    hit is -theta times the sum of its twisted draws' hazards
    y = -log(u)/(1-theta), in component order, less s * log1p(-theta).
    The sums run over the hits' weights in replication order."""
    hit = _reference_draw_sums(components, twisted, theta, rows) > gamma
    hazard_sum = np.zeros(np.count_nonzero(hit))
    for i in sorted(twisted):
        hazard_sum = hazard_sum + -np.log(rows[i][hit]) / (1.0 - theta)
    t = np.exp(hazard_sum * -theta - len(twisted) * math.log1p(-theta))
    t2 = t * t
    return float(t.sum()), float(t2.sum()), float((t2 * t2).sum()), int(hit.sum())


def _blocked(rows, hit, shares):
    """The columns of whole ``rows`` in a chunk's block layout, and the
    2n + 1 bounds of its blocks, as ``_fill`` returns them: replication r
    goes to hit block k, the first component whose uniform is at most its
    hit uniform; if there is none, to over-share block n + k, the first
    component whose uniform is below its share uniform (clipped to 1); and
    after the blocks if there is neither.  In replication order within a
    block."""
    n = len(rows)
    at_hit = rows <= np.array(hit)[:, None]
    below = rows < np.minimum(shares, 1.0)[:, None]
    over = np.where(below.any(axis=0), n + below.argmax(axis=0), 2 * n)
    block = np.where(at_hit.any(axis=0), at_hit.argmax(axis=0), over)
    sizes = np.bincount(block, minlength=2 * n + 1)[: 2 * n]
    return rows[:, np.argsort(block, kind="stable")], list(itertools.accumulate(sizes.tolist(), initial=0))


def _dense_layout(screen, seed, chunk_index, count, pinned=None):
    """The chunk's stream read as whole rows, component i taking stream
    positions i * count to (i + 1) * count - 1, the uniform at stream
    position p replaced by ``pinned[p]`` where given, and sorted into the
    screen's blocks (``_blocked``)."""
    rows = np.array(_reference_uniform_rows(len(screen.components), seed, chunk_index, count))
    for position, value in (pinned or {}).items():
        rows.flat[position] = value
    return _blocked(rows, screen.hit, screen.share)


def _reference_chunk(components, twisted, theta, gamma, seed, chunk_index, count, pinned=None):
    """_reference_sums on the chunk's dense layout, as ``DenseRows`` feeds
    it to the chunk; the replications after the blocks are decided too."""
    rows, _ = _dense_layout(_screen(components, twisted, theta, gamma), seed, chunk_index, count, pinned)
    return _reference_sums(components, twisted, theta, gamma, rows)


class DenseRows:
    """``fill`` stands in for ``_fill``: the chunk's dense layout, with the
    uniforms at the stream positions of ``pinned`` replaced by the values
    given there, copied into the block layout."""

    pinned: dict[int, float] = {}

    @classmethod
    def fill(cls, screen, seed, chunk_index, count, block):
        rows, starts = _dense_layout(screen, seed, chunk_index, count, cls.pinned)
        n, m = len(rows), starts[-1]
        out = block[: n * m].reshape(n, m)
        out[:] = rows[:, :m]
        return out, starts


@pytest.fixture
def whole_rows(monkeypatch):
    """Chunks read every row whole, as _reference_chunk reads the stream; the
    fixture returns _reference_chunk."""
    monkeypatch.setattr(DenseRows, "pinned", {})
    monkeypatch.setattr(estimators, "_fill", DenseRows.fill)
    return _reference_chunk


class RecordedRows:
    """What the chunk's own ``_fill`` drew, at its positions in the block
    layout: ``rows`` is NaN wherever it drew nothing, ``starts`` holds the
    bounds of its 2n blocks, n hit blocks then n over-share blocks, and
    ``hit`` its hit uniforms.  ``fill`` wraps ``_fill`` and records the
    chunk's in ``last``."""

    last = None

    def __init__(self, rows, starts, hit):
        self.rows, self.starts, self.hit = rows, starts, hit

    @classmethod
    def fill(cls, screen, seed, chunk_index, count, block):
        # what _fill leaves unwritten stays NaN
        block.fill(np.nan)
        rows, starts = _fill(screen, seed, chunk_index, count, block)
        recorded = np.full((len(rows), count), np.nan)
        recorded[:, : starts[-1]] = rows
        cls.last = cls(recorded, starts, screen.hit)
        return rows, starts

    def filled(self):
        """The rows read, each unread uniform taken as ``_with_certain_hits``
        takes it: a replication drawn for nothing has every uniform at least
        its share uniform and misses, and one in hit block k has row k's
        uniform at most its hit uniform and hits."""
        return _with_certain_hits(self.rows, self.starts[: len(self.hit) + 1], self.hit)


@pytest.fixture
def recorded_rows(monkeypatch):
    """_reference_sums on the rows the last chunk read, in its layout, as
    ``RecordedRows.filled`` fills them."""
    monkeypatch.setattr(estimators, "_fill", RecordedRows.fill)

    def reference(components, twisted, theta, gamma, *_):
        return _reference_sums(components, twisted, theta, gamma, RecordedRows.last.filled())

    return reference


def _block_sizes(screen, seed, chunk_index, count):
    """The sizes of the 2n blocks ``_fill`` lays the chunk out in."""
    _, starts = _fill(screen, seed, chunk_index, count, np.empty((len(screen.components) + 2) * count))
    return np.diff(starts).tolist()


KERNEL_SCENARIOS = {
    "weibull4": Scenario.from_db(
        [DistributionSpec.weibull(0.4, 1.0)] + [DistributionSpec.weibull(0.8, 1.0)] * 3, 26.0
    ),
    "lognormal4": Scenario.from_db(
        [DistributionSpec.lognormal(0.0, 4.0)] * 2 + [DistributionSpec.lognormal(0.0, 6.0)] * 2, 25.0
    ),
    # four classes, each with its own share level
    "weibull4-unequal": Scenario.from_db(
        [DistributionSpec.weibull(k, b) for k, b in ((0.35, 1.0), (0.5, 2.0), (0.65, 1.0), (0.8, 0.5))], 26.0
    ),
}


# a chunk takes any components: Weibull and log-normal classes get their own
# share levels, and log-normal draws keep the table and exact stages
MIXED_COMPONENTS = (
    DistributionSpec.weibull(0.4, 1.0),
    DistributionSpec.lognormal(0.0, 6.0),
    DistributionSpec.weibull(0.8, 1.0),
    DistributionSpec.lognormal(0.0, 4.0),
)


def _chunk_cases():
    """Each chunk the kernel is checked on, once, as (id, (components,
    twisted, theta, gamma, count)): each of KERNEL_SCENARIOS untwisted, and
    with all or its dominant components twisted by 0.3, 0.9 or 0.95, at 2**16,
    4465 and 1 replications; Weibull and log-normal sums of 4, 6 and 9
    components at 28 dB, the dominant ones twisted by 0.6, at 2**16, 4465 and
    3; and the mixed-family chunk at 24 dB, two components twisted by 0.5 or
    0.9, at 2**16 and 4465."""
    for name, scenario in sorted(KERNEL_SCENARIOS.items()):
        twists = [("naive", frozenset(), 0.0)] + [
            (label, twisted, theta)
            for label, twisted in (
                ("all", frozenset(range(scenario.n))),
                ("dominant", frozenset(select_dominant(scenario).dominant_indices)),
            )
            for theta in (0.3, 0.9, 0.95)
        ]
        for (label, twisted, theta), count in itertools.product(twists, (CHUNK_SIZE, 4465, 1)):
            case = (scenario.components, twisted, theta, scenario.threshold_linear, count)
            yield f"{name}-{label}-{theta}-{count}", case
    for family, n, count in itertools.product(("weibull", "lognormal"), (4, 6, 9), (CHUNK_SIZE, 4465, 3)):
        specs = {
            "weibull": [DistributionSpec.weibull(0.4, 1.0)] + [DistributionSpec.weibull(0.8, 1.0)] * (n - 1),
            "lognormal": [DistributionSpec.lognormal(0.0, 4.0)] * (n - 2) + [DistributionSpec.lognormal(0.0, 6.0)] * 2,
        }[family]
        scenario = Scenario.from_db(specs, 28.0)
        twisted = frozenset(select_dominant(scenario).dominant_indices)
        yield f"{family}{n}-dominant-0.6-{count}", (scenario.components, twisted, 0.6, scenario.threshold_linear, count)
    for theta, count in itertools.product((0.5, 0.9), (CHUNK_SIZE, 4465)):
        yield f"mixed-{theta}-{count}", (MIXED_COMPONENTS, frozenset({0, 1}), theta, db_to_linear(24.0), count)


CHUNK_CASES = list(_chunk_cases())


def test_each_chunk_case_is_listed_once():
    # the dominant twists are proper subsets, so no dominant case repeats an
    # untwisted or an all-twisted one
    assert len({case_id for case_id, _ in CHUNK_CASES}) == len({case for _, case in CHUNK_CASES}) == len(CHUNK_CASES)
    for scenario in KERNEL_SCENARIOS.values():
        assert 0 < len(select_dominant(scenario).dominant_indices) < scenario.n


@pytest.mark.parametrize("case", [pytest.param(case, id=case_id) for case_id, case in CHUNK_CASES])
@pytest.mark.parametrize("rows", ["whole_rows", "recorded_rows"])
def test_a_chunk_matches_the_allocating_reference(request, rows, case):
    # under whole rows the chunk reads its stream as _reference_chunk does;
    # under its own, drawn by blocks, it reads as the reference reads the
    # rows it drew
    components, twisted, theta, gamma, count = case
    args = (components, twisted, theta, gamma, 71, 3, count)
    reference = request.getfixturevalue(rows)
    sums = _chunk(*args)
    assert sums == reference(*args)
    # a chunk draws nothing past its blocks, its twisted rows in full over
    # them, and its untwisted rows over the over-share blocks only
    if rows == "recorded_rows":
        last = RecordedRows.last
        h, d = last.starts[len(components)], last.starts[-1]
        untwisted = sorted(set(range(len(components))) - twisted)
        assert np.isnan(last.rows[:, d:]).all()
        assert not np.isnan(last.rows[sorted(twisted), :d]).any()
        assert np.isnan(last.rows[untwisted, :h]).all() and not np.isnan(last.rows[untwisted, h:d]).any()
    if len({spec.family for spec in components}) > 1:
        assert sums.hits > 0


# the fuzz cases' generator is numpy's default_rng((FUZZ_SEED, batch))
FUZZ_SEED = 20261020
FUZZ_SIZES = (1, 2, 3, 4, 5, 8, 13)
FUZZ_EDGE_GAMMAS = (0.0, 5e-324, 1e-310, 1e300)


def _fuzz_spec(rng, family):
    """Weibull shape in 10**[-2.5, 0.7] and scale in 10**[-3, 3], or
    log-normal mu_db in [-40, 40] and sigma_db in 10**[-0.5, 1.5]."""
    if family == "weibull":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LightTailWarning)
            return DistributionSpec.weibull(10.0 ** rng.uniform(-2.5, 0.7), 10.0 ** rng.uniform(-3.0, 3.0))
    return DistributionSpec.lognormal(rng.uniform(-40.0, 40.0), 10.0 ** rng.uniform(-0.5, 1.5))


def _fuzz_case(rng):
    """One random chunk's arguments.  Its N components are drawn from a pool
    of up to N laws, so some are alike, of one family or both; a random
    subset is twisted, by theta up to 1 - 1e-6; gamma is the sum of the
    components' quantiles at one level from the bulk out to 1e-250, or one
    of FUZZ_EDGE_GAMMAS; and it has 1 to 2**14 replications."""
    n = int(rng.choice(FUZZ_SIZES))
    families = [("weibull",), ("lognormal",), ("weibull", "lognormal")][rng.integers(3)]
    pool = [_fuzz_spec(rng, str(rng.choice(families))) for _ in range(int(rng.integers(1, n + 1)))]
    components = tuple(pool[k] for k in rng.integers(len(pool), size=n))
    twisted = frozenset(np.flatnonzero(rng.random(n) < rng.random()).tolist())
    theta = 0.0
    if twisted:
        theta = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
    if rng.random() < 0.2:
        gamma = float(rng.choice(FUZZ_EDGE_GAMMAS))
    else:
        with np.errstate(over="ignore"):
            y = 10.0 ** rng.uniform(-0.5, 2.76)
            gamma = min(math.fsum(spec.inverse_cumulative_hazard(y) for spec in components), 1e300)
    count = int(np.exp(rng.uniform(0.0, math.log(2**14))))
    return components, twisted, theta, gamma, int(rng.integers(2**32)), int(rng.integers(8)), count


@pytest.mark.parametrize("batch", range(8))
def test_random_chunks_match_the_allocating_reference_on_the_rows_they_read(recorded_rows, batch):
    # 8 batches of 40 seeded random chunks: each must read as the allocating
    # reference reads the rows it drew, bit for bit.  In a quarter of them
    # gamma then moves to one replication's sum of draws and an ulp either
    # side, where only the screen's margins keep its certificates right
    rng = np.random.default_rng((FUZZ_SEED, batch))
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(40):
            args = _fuzz_case(rng)
            assert _chunk(*args) == recorded_rows(*args), args
            if rng.random() < 0.25:
                total = _reference_draw_sums(*args[:3], RecordedRows.last.filled())[rng.integers(args[-1])]
                for gamma in (np.nextafter(total, np.inf), total, np.nextafter(total, 0.0)):
                    at_total = (*args[:3], float(min(gamma, 1e300)), *args[4:])
                    assert _chunk(*at_total) == recorded_rows(*at_total), at_total


def test_a_chunk_draws_only_for_its_over_share_replications(counting_stream):
    # improved IS on weibull4 at 26 dB: the twisted heavy row has a share
    # uniform near 0.4 and the light ones below 0.01, so a chunk draws the
    # heavy row at the 40% or so of its replications with some uniform below
    # its share uniform, and the light rows only at the few of those with no
    # uniform at most its hit uniform; a whole heavy row alone would take
    # count uniforms
    scenario = KERNEL_SCENARIOS["weibull4"]
    estimate = _estimate(scenario, Method.IMPROVED_IS, 3 * _WIDE_CHUNK_SIZE, 7, plan=minmax_plan(scenario))
    screen = estimate.chunks[0][0]
    assert screen.share[0] > 0.3 and max(screen.share[1:]) < 0.01
    for args in estimate.chunks:
        sizes = _block_sizes(*args)
        certain, over = sum(sizes[:4]), sum(sizes[4:])
        counting_stream.drawn, counting_stream.calls = 0, []
        _simulate_chunk(*args)
        assert 0.3 * args[3] < counting_stream.drawn < 0.6 * args[3]
        # one draw a row: the twisted row over the hit and over-share blocks,
        # each untwisted row over the over-share blocks only
        assert counting_stream.calls == [certain + over] + [over] * 3 and certain > 10 * over


def test_chunks_are_twice_as_wide_where_they_touch_few_doubles_at_any_worker_count(monkeypatch):
    # a chunk touches about (s + 1) * q doubles a replication, s twisted rows
    # of the share q of replications over their share: 0.77 for improved IS
    # on weibull4 (s = 1, q = 0.38), and for conventional IS on lognormal4
    # 0.04 at theta 0.3 (q = 0.008) and 4.9 at 0.95 (q = 0.98); chunk j is
    # substream j
    weibull4 = KERNEL_SCENARIOS["weibull4"]
    runs = _WIDE_CHUNK_SIZE + 5
    estimates = [
        _estimate(weibull4, Method.IMPROVED_IS, runs, 7, plan=minmax_plan(weibull4)),
        _estimate(LOGNORMAL4, Method.CONVENTIONAL_IS, runs, 8, theta=0.3),
        _estimate(LOGNORMAL4, Method.CONVENTIONAL_IS, runs, 9, theta=0.95),
    ]
    screens = [e.chunks[0][0] for e in estimates]
    touched = [(len(s.twisted) + 1) * (1.0 - np.prod(1.0 - np.array(s.share))) for s in screens]
    assert [round(x, 2) for x in touched] == [0.77, 0.04, 4.89]
    # every chunk reads its estimate's one screen, built from its twist
    twists = (frozenset({0}), frozenset(range(4)), frozenset(range(4)))
    for estimate, scenario, twisted in zip(estimates, (weibull4, LOGNORMAL4, LOGNORMAL4), twists):
        screen = estimate.chunks[0][0]
        assert all(len(args) == 4 and args[0] is screen for args in estimate.chunks)
        assert (screen.components, screen.twisted, screen.theta, screen.gamma) == (
            scenario.components, twisted, estimate.theta, scenario.threshold_linear
        )
    chunk = estimators._simulate_chunk
    ran, reports = {}, {}
    for workers in (1, 2):
        ran[workers] = []

        def recorded(*args, chunks=ran[workers]):
            chunks.append(args[1:4])
            return chunk(*args)

        monkeypatch.setattr(estimators, "_simulate_chunk", recorded)
        reports[workers] = estimators._run_estimates(estimates, workers)
    wide = [(seed, j, count) for seed in (7, 8) for j, count in enumerate((1 << 17, 5))]
    narrow = [(9, j, count) for j, count in enumerate((1 << 16, 1 << 16, 5))]
    assert ran[1] == wide + narrow
    assert sorted(ran[2]) == sorted(wide + narrow)
    assert reports[1] == reports[2]


# -- the block layout's law ---------------------------------------------------------


def _law_screens():
    """The screens of the layout's law tests: improved IS on weibull4 at
    its minmax theta, conventional IS on lognormal4 at theta 0.9, and the
    mixed-family chunk with two components twisted by 0.5."""
    weibull4 = KERNEL_SCENARIOS["weibull4"]
    plan = minmax_plan(weibull4)
    dominant = frozenset(plan.dominant_indices)
    return {
        "weibull4-improved": _screen(weibull4.components, dominant, plan.theta, weibull4.threshold_linear),
        "lognormal4-conventional-0.9": _screen(
            LOGNORMAL4.components, frozenset(range(4)), 0.9, LOGNORMAL4.threshold_linear
        ),
        "mixed-0.5": _screen(MIXED_COMPONENTS, frozenset({0, 1}), 0.5, db_to_linear(24.0)),
    }


@pytest.mark.parametrize("name", ["weibull4-improved", "lognormal4-conventional-0.9", "mixed-0.5"])
def test_block_shares_are_binomial_in_the_screens_chances(name):
    # pooled over 64 substreams of 2**16: a replication is in a hit block
    # with chance 1 - prod(1 - h_i), some uniform at most its hit uniform,
    # and in an over-share block with chance prod(1 - h_i) - prod(1 - p_i),
    # every uniform above its hit uniform and some below its share uniform
    screen = _law_screens()[name]
    hit, shares = np.array(screen.hit), np.minimum(screen.share, 1.0)
    total = 64 * CHUNK_SIZE
    certain = over = 0
    for j in range(64):
        sizes = _block_sizes(screen, 77, j, CHUNK_SIZE)
        certain, over = certain + sum(sizes[: hit.size]), over + sum(sizes[hit.size :])
    for observed, chance in (
        (certain, 1.0 - np.prod(1.0 - hit)),
        (over, np.prod(1.0 - hit) - np.prod(1.0 - shares)),
    ):
        assert 0.0 < chance < 1.0
        assert abs(observed - total * chance) <= 5.0 * math.sqrt(total * chance * (1.0 - chance))


@pytest.mark.parametrize("name", ["weibull4-improved", "lognormal4-conventional-0.9", "mixed-0.5"])
def test_dense_rows_in_the_layout_are_certain_hits_undecided_and_certain_misses(name):
    # whole rows sorted into the chunk's blocks: every replication in a hit
    # block sums above gamma, every one in an over-share block has each
    # uniform above its hit uniform and some below its share uniform, and
    # every one after the blocks has each uniform at least its share uniform
    # and sums to at most gamma
    screen = _law_screens()[name]
    hit, shares = np.array(screen.hit)[:, None], np.minimum(screen.share, 1.0)[:, None]
    rows, starts = _dense_layout(screen, 71, 3, CHUNK_SIZE)
    h, d = starts[hit.size], starts[-1] - starts[hit.size]
    totals = _reference_draw_sums(screen.components, screen.twisted, screen.theta, rows)
    assert h > 0 and d > 0
    assert np.all(totals[:h] > screen.gamma)
    assert np.all(rows[:, h : h + d] > hit) and np.all(np.any(rows[:, h : h + d] < shares, axis=0))
    assert np.all(rows[:, h + d :] >= shares) and np.all(totals[h + d :] <= screen.gamma)


@pytest.mark.parametrize("name", ["weibull4-improved", "lognormal4-conventional-0.9", "mixed-0.5"])
def test_each_rows_uniforms_follow_their_blocks_law(recorded_rows, name):
    # pooled over 16 substreams, the uniforms a chunk draws for row i in
    # hit block k are V for k < i, h_i * V for k = i and h_i + (1 - h_i) * V
    # for k > i; in over-share block k, h_i + (1 - h_i) * V for k < i,
    # h_i + (p_i - h_i) * V for k = i and p_i + (1 - p_i) * V for k > i:
    # each lies in its interval, and V is uniform
    screen = _law_screens()[name]
    n, hit, shares = len(screen.components), screen.hit, [min(p, 1.0) for p in screen.share]
    pooled = {}
    for j in range(16):
        _simulate_chunk(screen, 71, j, CHUNK_SIZE)
        last = RecordedRows.last
        for block, (a, b) in enumerate(zip(last.starts[:-1], last.starts[1:])):
            k = block % n
            for i in range(n):
                if block < n:
                    lo, hi = (0.0, 1.0) if k < i else (0.0, hit[i]) if k == i else (hit[i], 1.0)
                else:
                    lo, hi = (hit[i], 1.0) if k < i else (hit[i], shares[i]) if k == i else (shares[i], 1.0)
                u = last.rows[i, a:b]
                # an untwisted row is drawn in no hit block
                assert np.isnan(u).all() if block < n and i not in screen.twisted else not np.isnan(u).any()
                pooled.setdefault((block, i, lo, hi), []).append(u)
    tested = 0
    for (block, i, lo, hi), parts in pooled.items():
        u = np.concatenate(parts)
        if np.isnan(u).all():
            continue
        assert np.all((lo <= u) & (u <= hi)), (block, i)
        if u.size >= 500:
            assert scipy.stats.kstest((u - lo) / (hi - lo), "uniform").pvalue > 1e-4, (block, i)
            tested += 1
    assert tested >= 3


def test_a_chunk_hits_as_often_as_a_dense_brute_force():
    # conventional IS on lognormal4 at 25 dB and theta 0.9: 8 chunks of
    # 2**16 drawn in blocks hit as often as whole rows of the same
    # substreams do, about 70.5% of the time.  A layout with the laws of the
    # rows before and after a block's own component swapped read 69.2%
    args = (LOGNORMAL4.components, frozenset(range(4)), 0.9, LOGNORMAL4.threshold_linear)
    screen, total = _screen(*args), 8 * CHUNK_SIZE
    hits = sum(_simulate_chunk(screen, 5, j, CHUNK_SIZE).hits for j in range(8))
    dense = sum(
        int(np.count_nonzero(_reference_totals(*args[:3], 5, j, CHUNK_SIZE) > args[3])) for j in range(8)
    )
    spread = 5.0 * math.sqrt(2.0 * 0.7051 * (1.0 - 0.7051) / total)
    assert abs(dense / total - 0.7051) < spread
    assert abs(hits / total - dense / total) < spread


# -- the screen: exact inversion of undecided replications only --------------------


def _reference_totals(components, twisted, theta, seed, chunk_index, count):
    """Each replication's sum of draws, computed as _reference_chunk does."""
    rows = _reference_uniform_rows(len(components), seed, chunk_index, count)
    return _reference_draw_sums(components, twisted, theta, rows)


class CountingStream(UnitSampleStream):
    """The chunk's stream, counting its constructions and the uniforms drawn,
    in all and call by call."""

    built = drawn = 0
    calls: list[int] = []

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)

    def uniforms(self, n, out=None):
        type(self).drawn += int(n)
        type(self).calls.append(int(n))
        return super().uniforms(n, out)


@pytest.fixture
def counting_stream(monkeypatch):
    monkeypatch.setattr(CountingStream, "built", 0)
    monkeypatch.setattr(CountingStream, "drawn", 0)
    monkeypatch.setattr(CountingStream, "calls", [])
    monkeypatch.setattr("tailtwist.estimators.UnitSampleStream", CountingStream)
    return CountingStream


LOGNORMAL4 = KERNEL_SCENARIOS["lognormal4"]


@pytest.mark.parametrize("twist", ["all", "dominant"])
@pytest.mark.parametrize(
    "theta, count, rank",
    [pytest.param(0.5, 4465, rank, id=str(rank)) for rank in (-1, -40)]
    + [(0.95, count, -1) for count in (1, 4465, CHUNK_SIZE)],
)
@pytest.mark.parametrize("name", ["lognormal4", "weibull4"])
def test_screen_at_a_replications_exact_total(whole_rows, name, twist, theta, count, rank):
    # gamma at one replication's exact sum and 1 ulp either side: that
    # replication misses at the first two and hits at the third.  At theta
    # 0.95 only the largest sum shows: the weight of a lower-ranked one is
    # lost in the rounding of the other hits' weights.  Weibull and log-normal
    # chunks take the same layout, bound sums and exact inversions
    scenario = KERNEL_SCENARIOS[name]
    twisted = frozenset(range(4) if twist == "all" else select_dominant(scenario).dominant_indices)
    total = np.sort(_reference_totals(scenario.components, twisted, theta, 71, 3, count))[rank]
    results = []
    for gamma in (np.nextafter(total, np.inf), total, np.nextafter(total, 0.0)):
        args = (scenario.components, twisted, theta, float(gamma), 71, 3, count)
        results.append(_chunk(*args))
        assert results[-1] == _reference_chunk(*args)
    assert results[0] == results[1] != results[2]


@pytest.mark.parametrize("count, rank", [(1, -1), (4465, -1), (4465, -40), (CHUNK_SIZE, -1), (CHUNK_SIZE, -1000)])
def test_naive_screen_at_a_replications_exact_total(whole_rows, count, rank):
    # the layout compares each untwisted uniform with its component's
    # critical uniforms: gamma at one replication's exact sum and 1 ulp
    # either side, each hit of weight 1, so a replication of any rank shows
    twisted = frozenset()
    total = np.sort(_reference_totals(LOGNORMAL4.components, twisted, 0.0, 71, 3, count))[rank]
    results = []
    for gamma in (np.nextafter(total, np.inf), total, np.nextafter(total, 0.0)):
        args = (LOGNORMAL4.components, twisted, 0.0, float(gamma), 71, 3, count)
        results.append(_chunk(*args))
        assert results[-1] == _reference_chunk(*args)
    assert results[0] == results[1]
    assert results[2] == tuple(r + 1.0 for r in results[1])


@pytest.fixture
def inverted(monkeypatch):
    """Element counts passed to the exact log-normal kernel, call by call."""
    import tailtwist.distributions as distributions

    sizes = []
    kernel = distributions.upper_tail_quantile_from_log

    def counting(y, out=None):
        sizes.append(np.size(y))
        return kernel(y, out=out)

    monkeypatch.setattr(distributions, "upper_tail_quantile_from_log", counting)
    return sizes


def _screened(components, twisted, theta, gamma, inverted):
    """The estimate's screen, its tables built before the chunk's inversions
    are counted: they are not the chunk's."""
    screen = _screen(components, twisted, theta, gamma)
    inverted.clear()
    return screen


def test_screen_at_zero_threshold_certifies_every_hit(counting_stream, recorded_rows, inverted):
    # the hit level's hazard is 0, so the tables take no inversion at all
    args = (LOGNORMAL4.components, frozenset(range(4)), 0.3, 0.0, 71, 3, 4465)
    assert _chunk(*args) == recorded_rows(*args)
    assert counting_stream.built == 1
    assert sum(inverted) == 0


def test_screen_far_above_every_sum_inverts_nothing(counting_stream, recorded_rows, inverted):
    args = (LOGNORMAL4.components, frozenset(range(4)), 0.3, 1e12, 71, 3, 4465)
    screen = _screened(*args[:4], inverted)
    assert _simulate_chunk(screen, *args[4:]) == recorded_rows(*args) == (0.0, 0.0, 0.0, 0)
    assert counting_stream.built == 1
    assert sum(inverted) == 0


SCREEN_SPECS = [
    DistributionSpec.lognormal(0.0, 4.0),
    DistributionSpec.lognormal(0.0, 6.0),
    DistributionSpec.lognormal(3.0, 10.0),
    DistributionSpec.weibull(0.4, 1.0),
    DistributionSpec.weibull(0.8, 2.0),
]


@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=str)
def test_a_hazard_above_the_level_certifies_a_draw_above_gamma(spec):
    # the screen's hit test: a kept y, twisted or -log u of an untwisted
    # uniform u, above the cumulative hazard of gamma * (1 + margin) gives an
    # exactly computed draw above gamma, from far below the median to far
    # above it; no uniform below 1 has a hazard below -log(1 - 2**-53)
    gammas = np.geomspace(1e-250, 1e250, 2001)
    level_hazards = spec.cumulative_hazard(gammas * (1.0 + _SCREEN_MARGIN))
    y = np.maximum(np.nextafter(level_hazards, np.inf), -np.log(np.nextafter(1.0, 0.0)))
    assert np.all(spec.inverse_cumulative_hazard(y) > gammas)
    u = np.exp(-level_hazards)
    for _ in range(3):
        with np.errstate(divide="ignore"):  # u = 0 below the underflow point
            y = -np.log(u)
        certified = (y > level_hazards) & (0.0 < u) & (u < 1.0)
        assert np.all(spec.inverse_cumulative_hazard(y[certified]) > gammas[certified])
        u = np.nextafter(u, 0.0)


# splits of gamma * (1 - margin) into the share levels of n components, as
# fractions of it: the equal split, and for n = 4 an unequal one too
SHARE_SPLITS = {
    1: [(1.0,)],
    4: [(0.25,) * 4, (0.9, 0.07, 0.02, 0.01)],
}


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=str)
def test_a_hazard_at_most_the_share_level_certifies_a_draw_at_most_the_share(spec, n):
    # the screen's miss test: a kept y at most the cumulative hazard of a
    # share level c gives an exactly computed draw within half the margin
    # of c, so draws at levels that split gamma * (1 - margin) sum to at
    # most gamma.  Deep in the log-normal tail ndtri_exp's z is a few 1e-13
    # off, which puts the draw up to 4e-10 above its level at 1e250
    gammas = np.geomspace(1e-250, 1e250, 2001)
    for split in SHARE_SPLITS[n]:
        total = np.zeros_like(gammas)
        for fraction in split:
            levels = gammas * (1.0 - _SCREEN_MARGIN) * fraction
            share_hazards = spec.cumulative_hazard(levels)

            def check(y, certified):
                draws = spec.inverse_cumulative_hazard(y[certified])
                assert np.all(draws <= levels[certified] * (1.0 + 0.5 * _SCREEN_MARGIN))

            check(share_hazards, share_hazards >= 0.0)
            total += spec.inverse_cumulative_hazard(share_hazards)
            # the y of uniforms at and just above the share level's
            u = np.exp(-share_hazards)
            for _ in range(3):
                with np.errstate(divide="ignore"):  # u = 0 below the underflow point
                    y = -np.log(u)
                check(y, (y <= share_hazards) & (0.0 < u) & (u < 1.0))
                u = np.nextafter(u, 1.0)
        # the largest certified draws, summed in component order
        assert np.all(total <= gammas)


def _reference_hazards(components, twisted, theta, seed, chunk_index, count):
    """Each component's kept y, computed as _reference_chunk does."""
    return [
        -np.log(u) / (1.0 - theta if i in twisted else 1.0)
        for i, u in enumerate(_reference_uniform_rows(len(components), seed, chunk_index, count))
    ]


def _certified_hits(components, ys, gamma):
    """The replications whose one draw alone certifies a hit."""
    level = max(gamma, np.finfo(float).tiny) * (1.0 + _SCREEN_MARGIN)
    return np.any([y > spec.cumulative_hazard(level) for spec, y in zip(components, ys)], axis=0)


@pytest.fixture
def bounded(monkeypatch):
    """Element counts passed to the screen's bounds, call by call: a
    log-normal table's and a Weibull draw's.  The exact stage passes a
    log-normal draw no table; no chunk here mixes the families."""
    sizes = []
    bracket = estimators._bracket

    def counting(spec, table, y, sums):
        if table is not None or spec.family is Family.WEIBULL:
            sizes.append(np.size(y))
        return bracket(spec, table, y, sums)

    monkeypatch.setattr(estimators, "_bracket", counting)
    return sizes


def test_the_bound_sees_only_the_replications_the_comparisons_leave_undecided(whole_rows, bounded):
    # undecided: some draw above its share level and none above the level
    components, twisted, gamma = LOGNORMAL4.components, frozenset(range(4)), LOGNORMAL4.threshold_linear
    ys = _reference_hazards(components, twisted, 0.3, 71, 3, CHUNK_SIZE)
    shares = _screen(components, twisted, 0.3, gamma).share
    us = _reference_uniform_rows(4, 71, 3, CHUNK_SIZE)
    over_share = np.any([u < share for u, share in zip(us, shares)], axis=0)
    undecided = int(np.count_nonzero(over_share & ~_certified_hits(components, ys, gamma)))
    args = (components, twisted, 0.3, gamma, 71, 3, CHUNK_SIZE)
    assert _chunk(*args) == _reference_chunk(*args)
    assert bounded == [undecided] * 4
    assert 0 < undecided < 0.15 * CHUNK_SIZE


def test_a_share_below_the_smallest_normal_double_certifies_no_miss(whole_rows, bounded):
    # gamma / 4 is subnormal, where rounding is no longer relative: every
    # replication that no draw certifies a hit goes on to the bound sums
    components, gamma = (DistributionSpec.weibull(0.5, 1e-310),) * 4, 1e-310
    ys = _reference_hazards(components, frozenset(), 0.0, 71, 3, 4465)
    args = (components, frozenset(), 0.0, gamma, 71, 3, 4465)
    assert _chunk(*args) == _reference_chunk(*args)
    assert bounded == [4465 - np.count_nonzero(_certified_hits(components, ys, gamma))] * 4


def test_screen_inverts_few_twisted_draws(inverted):
    twisted = frozenset(range(4))
    args = (LOGNORMAL4.components, twisted, 0.3, LOGNORMAL4.threshold_linear, 71, 3, CHUNK_SIZE)
    assert _simulate_chunk(_screened(*args[:4], inverted), *args[4:]).t > 0.0
    assert 0 < sum(inverted) < 0.05 * len(twisted) * CHUNK_SIZE


def test_naive_lognormal_chunk_inverts_every_draw_from_its_hazard(whole_rows, inverted):
    # untwisted draws take the one sampling kernel: gamma at a replication's
    # exact sum leaves some replications undecided, and each of them inverts
    # all n of its kept hazards, one component per call
    n = LOGNORMAL4.n
    total = np.sort(_reference_totals(LOGNORMAL4.components, frozenset(), 0.0, 71, 3, CHUNK_SIZE))[-5]
    args = (LOGNORMAL4.components, frozenset(), 0.0, float(total), 71, 3, CHUNK_SIZE)
    screen = _screened(*args[:4], inverted)
    assert _simulate_chunk(screen, *args[4:]) == _reference_chunk(*args) == (4.0, 4.0, 4.0, 4)
    assert sum(inverted) > 0 and sum(inverted) % n == 0
    sizes = np.reshape(inverted, (-1, n))
    assert np.all(sizes == sizes[:, :1])


def test_a_conventional_lognormal4_chunk_inverts_few_replications_exactly(whole_rows, monkeypatch):
    # conventional IS at 25 dB and theta 0.85, seed 1: the closed-form bound
    # exp(mu_ln + sigma_ln * sqrt(2 (y - ln 2))) left 16.8% of this chunk to
    # exact inversion, and the tables leave 0.13%
    args = (LOGNORMAL4.components, frozenset(range(4)), 0.85, LOGNORMAL4.threshold_linear, 1, 0, CHUNK_SIZE)
    screen = _screen(*args[:4])
    exact = DistributionSpec.inverse_cumulative_hazard
    inverted = []

    def counting(spec, y, out=None):
        inverted.append(np.size(y))
        return exact(spec, y, out=out)

    monkeypatch.setattr(DistributionSpec, "inverse_cumulative_hazard", counting)
    assert _simulate_chunk(screen, *args[4:]) == _reference_chunk(*args)
    assert len(inverted) == 4 and len(set(inverted)) == 1
    assert 0 < inverted[0] < 0.005 * CHUNK_SIZE


def test_weibull_chunk_builds_its_stream_once(counting_stream, recorded_rows):
    scenario = KERNEL_SCENARIOS["weibull4"]
    args = (scenario.components, frozenset({0}), 0.8, scenario.threshold_linear, 71, 3, 4465)
    assert _chunk(*args) == recorded_rows(*args)
    assert counting_stream.built == 1


# -- the critical uniforms ---------------------------------------------------------


@pytest.mark.parametrize("keep", [1.0, 0.05])
@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=str)
def test_a_uniform_at_most_the_hit_uniform_certifies_a_draw_above_gamma(spec, keep):
    # the chunk's hit test in uniform space: u <= the critical uniform of
    # gamma * (1 + margin), and its y = -log(u) / keep computed as the
    # sampling kernel computes it, gives a draw above gamma
    for gamma in np.geomspace(1e-250, 1e250, 401):
        u = _critical_uniform(spec, keep, gamma * (1.0 + _SCREEN_MARGIN), up=False)
        for _ in range(3):
            if u > 0.0:
                assert spec.inverse_cumulative_hazard(-np.log(u) / keep) > gamma
            u = np.nextafter(u, 0.0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("keep", [1.0, 0.05])
@pytest.mark.parametrize("spec", SCREEN_SPECS, ids=str)
def test_a_uniform_at_least_the_share_uniform_certifies_a_draw_at_most_the_share(spec, keep, n):
    # the chunk's miss test in uniform space: u >= the critical uniform of
    # a share level c gives a draw within half the margin of c
    for gamma in np.geomspace(1e-250, 1e250, 401):
        for fraction in {f for split in SHARE_SPLITS[n] for f in split}:
            level = gamma * (1.0 - _SCREEN_MARGIN) * fraction
            u = _critical_uniform(spec, keep, level, up=True)
            for _ in range(3):
                if u < 1.0:
                    draw = spec.inverse_cumulative_hazard(-np.log(u) / keep)
                    assert draw <= level * (1.0 + 0.5 * _SCREEN_MARGIN)
                u = np.nextafter(u, 1.0)


FAR_LOGNORMAL4 = Scenario.from_db([DistributionSpec.lognormal(-4000.0, 40.0)] * 4, 25.0)


def test_critical_uniforms_beyond_the_screens_range_certify_nothing():
    # at mu_db = -4000 a level far enough above the median is beyond the
    # range where ndtri_exp's error stays inside the margin: no uniform is
    # at most 0, and every uniform is below 1
    spec = FAR_LOGNORMAL4.components[0]
    far = math.exp(spec.mu_ln + _SCREEN_LOG_RANGE)
    near = math.exp(spec.mu_ln + 0.5 * _SCREEN_LOG_RANGE)
    twisted = frozenset(range(4))
    screen = _screen(FAR_LOGNORMAL4.components, twisted, 0.9999, 8.0 * far)
    assert (screen.hit, screen.share) == ((0.0,) * 4, (1.0,) * 4)
    screen = _screen(FAR_LOGNORMAL4.components, twisted, 0.9999, 4.0 * near)
    assert all(0.0 < h < s < 1.0 for h, s in zip(screen.hit, screen.share))
    # Weibull draws are as far off as the y they invert, over the shape
    assert _critical_uniform(DistributionSpec.weibull(1e-6, 1.0), 1.0, 2.0, up=False) == 0.0
    assert _critical_uniform(DistributionSpec.weibull(1e-6, 1.0), 1.0, 2.0, up=True) == 1.0


@pytest.mark.parametrize("count", [1, 4465, CHUNK_SIZE])
def test_screen_at_a_replications_exact_total_far_above_the_median(whole_rows, count):
    # at theta 0.999 the largest sum sits 1,200-1,500 natural-log units
    # above the median of ln X, where a draw's ndtri_exp round trip may be
    # off by as much as the 1e-9 margin: gamma at that sum and 1 ulp either
    # side must still read as the exact-everywhere reference reads it
    components, twisted, theta = FAR_LOGNORMAL4.components, frozenset(range(4)), 0.999
    total = np.max(_reference_totals(components, twisted, theta, 71, 3, count))
    assert math.log(total) - components[0].mu_ln > _SCREEN_LOG_RANGE
    results = []
    for gamma in (np.nextafter(total, np.inf), total, np.nextafter(total, 0.0)):
        args = (components, twisted, theta, float(gamma), 71, 3, count)
        results.append(_chunk(*args))
        assert results[-1] == _reference_chunk(*args)
    assert results[0].hits == results[1].hits == results[2].hits - 1


# -- the log-normal tables ---------------------------------------------------------

# the screen's log-normal laws and the shipped configs' ones
TABLE_SPECS = [spec for spec in SCREEN_SPECS if spec.family is Family.LOGNORMAL] + [
    DistributionSpec.lognormal(-3.0, 6.0)
]
TABLE_GAMMAS = [0.0, 1e-310] + [10.0**e for e in range(-250, 251, 50)] + [sys.float_info.max]


def _table_bounds(spec, table, y):
    """The lower and upper bounds the chunk's bound stage adds for each y.
    A cast of a NaN or an infinite index raises."""
    sums = np.zeros((2, y.size))
    # y / step may overflow to inf, which reads the inf above the nodes
    with np.errstate(over="ignore", invalid="raise"):
        estimators._bracket(spec, table, y.copy(), sums)
    return sums


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=str)
def test_a_tables_bounds_bracket_the_computed_draw(spec):
    # y on a dense grid over the nodes and beyond them, at each node and an
    # ulp either side, and the stream's extremes: -log(2**-1074) / keep for
    # keep down to 2**-53, and the y of the uniform nearest 1.  The computed
    # inverse rises only up to its rounding (a node an ulp from y may be a
    # few ulps on the wrong side of its draw), so the bounds hold within
    # half the screen margin, as the certified draws of the share levels do
    keeps = 2.0 ** -np.arange(54.0)
    extremes = np.concatenate([-np.log(5e-324) / keeps, -np.log1p(-(2.0**-53)) / keeps])
    for gamma in TABLE_GAMMAS:
        step, lower, upper = table = _screen((spec,), frozenset(), 0.0, gamma).table[0]
        nodes = np.arange(lower.size - 1) * step
        y = np.concatenate([
            np.linspace(0.0, 2.0 * nodes[-1], 50_001),
            nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, np.inf),
            extremes,
        ])
        with np.errstate(over="ignore"):  # draws far above the nodes overflow to inf
            x = spec.inverse_cumulative_hazard(y)
        lower, upper = _table_bounds(spec, table, y)
        assert not np.isnan(lower).any() and not np.isnan(upper).any()
        assert np.all(lower <= x * (1.0 + 0.5 * _SCREEN_MARGIN))
        assert np.all(upper >= x * (1.0 - 0.5 * _SCREEN_MARGIN))
        assert np.all(upper[y > nodes[-1]] == np.inf)


@pytest.mark.parametrize("hazard", [0.0, -0.0, 5e-324, 1e-310, math.inf])
def test_a_table_at_a_zero_subnormal_or_infinite_hazard_certifies_nothing(hazard):
    for spec in TABLE_SPECS:
        table = estimators._table(spec, hazard)
        assert np.all(table[1] == 0.0) and np.all(table[2] == np.inf)
        lower, upper = _table_bounds(spec, table, np.array([0.0, 5e-324, 1.0, 1e300]))
        assert np.all(lower == 0.0) and np.all(upper == np.inf)
    # the hit level of a zero threshold has hazard 0
    assert all(np.all(table[2] == np.inf) for table in _screen(LOGNORMAL4.components, frozenset(), 0.0, 0.0).table)


def test_table_nodes_beyond_half_the_screens_range_certify_nothing():
    # the hit level 600 natural-log units above mu_ln: the nodes climb past
    # 500, where two ndtri_exp errors no longer stay under the margin
    spec = FAR_LOGNORMAL4.components[0]
    step, lower, upper = _screen((spec,), frozenset(), 0.0, math.exp(spec.mu_ln + 600.0)).table[0]
    # the low nodes' draws underflow to 0, as far from mu_ln as can be
    with np.errstate(divide="ignore"):
        nodes = spec.inverse_cumulative_hazard(np.arange(lower.size - 1) * step)
        far = np.abs(np.log(nodes) - spec.mu_ln) >= 0.5 * _SCREEN_LOG_RANGE
        above = np.log(nodes) > spec.mu_ln
    assert np.any(~far) and np.any(far & above)
    assert np.array_equal(lower[1:], np.where(far, 0.0, nodes))
    assert np.array_equal(upper[:-1], np.where(far, np.inf, nodes))


def test_a_node_rounded_above_a_later_draw_certifies_no_hit(whole_rows, monkeypatch):
    # the computed inverse rises only up to its rounding: find a y just past
    # a node whose draw is an ulp or so below that node's, and put gamma at
    # that draw.  The node bounds the draw from below only within the
    # margin, so the replication goes on to exact inversion and misses
    spec = DistributionSpec.lognormal(-3.0, 6.0)
    step, lower, _ = _screen((spec,), frozenset(), 0.0, 1.0).table[0]
    u = np.exp(-np.arange(1, lower.size - 1) * step)
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(np.nextafter(u, 0.0), 0.0)])
    y = -np.log(u)
    x = spec.inverse_cumulative_hazard(y)
    below = x < lower[np.ceil(y / step).astype(int)]
    assert below.any()
    u, x = u[below][0], x[below][0]
    # gamma at the draw keeps the table's step
    assert _screen((spec,), frozenset(), 0.0, float(x)).table[0][0] == step
    monkeypatch.setattr(DenseRows, "pinned", {0: float(u)})
    for gamma, hits in ((float(x), 0), (float(np.nextafter(x, 0.0)), 1)):
        args = ((spec,), frozenset(), 0.0, gamma, 71, 3, 1)
        assert _chunk(*args) == _reference_chunk(*args, pinned={0: float(u)}) == (hits,) * 4


# -- the share levels -------------------------------------------------------------

SHARE_POOL = [
    DistributionSpec.weibull(0.4, 1.0),
    DistributionSpec.weibull(0.8, 1.0),
    DistributionSpec.weibull(0.6, 30.0),
    DistributionSpec.weibull(0.95, 1e-3),
    DistributionSpec.lognormal(0.0, 4.0),
    DistributionSpec.lognormal(0.0, 6.0),
    DistributionSpec.lognormal(30.0, 10.0),
    DistributionSpec.lognormal(-20.0, 2.0),
]
SHARE_GAMMAS = [0.0, 1e-310] + [10.0**e for e in (-300, -200, -100, -30, -5, 0, 2.6, 5, 30, 100, 200, 300)] + [
    sys.float_info.max
]


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("twist", ["naive", "dominant", "all"])
def test_share_levels_split_the_total_and_take_the_equal_split_for_one_class(twist, theta):
    rng = np.random.default_rng(19)
    for _ in range(30):
        components = tuple(SHARE_POOL[k] for k in rng.integers(len(SHARE_POOL), size=rng.integers(1, 7)))
        n = len(components)
        twisted = {
            "naive": frozenset(),
            # the components alike to the first
            "dominant": frozenset(i for i, spec in enumerate(components) if spec == components[0]),
            "all": frozenset(range(n)),
        }[twist]
        keys = [(spec, 1.0 - theta if i in twisted else 1.0) for i, spec in enumerate(components)]
        for gamma in SHARE_GAMMAS:
            total = gamma * (1.0 - _SCREEN_MARGIN)
            screen = _screen(components, twisted, theta, gamma)
            assert all(c == 0.0 or sys.float_info.min <= c < math.inf for c in screen.level)
            assert math.fsum(screen.level) <= total
            assert screen.share == tuple(_critical_uniform(*key, c, up=True) for key, c in zip(keys, screen.level))
            # a hit uniform lies below its share uniform, so a hit block's
            # replications are over their share, and the over-share blocks'
            # chances (p - h) / (1 - h) lie in [0, 1]
            assert all(h < p for h, p in zip(screen.hit, screen.share))
            for i, j in itertools.combinations(range(n), 2):
                if keys[i] == keys[j]:
                    assert (screen.hit[i], screen.share[i]) == (screen.hit[j], screen.share[j])
            # the equal split of the same total, its level fitted like any
            # split's: a normal double or 0, n of them summing to at most it
            equal = total / n
            while math.fsum([equal] * n) > total:
                equal = math.nextafter(equal, 0.0)
            if equal < sys.float_info.min:
                equal = 0.0
            equal_shares = [_critical_uniform(*key, equal, up=True) for key in keys]
            if len(set(keys)) == 1:
                assert screen.share == tuple(equal_shares)


def test_share_levels_at_zero_and_subnormal_thresholds_certify_no_miss():
    components = KERNEL_SCENARIOS["weibull4"].components
    for gamma in (0.0, 1e-310, 4.0 * sys.float_info.min):
        screen = _screen(components, frozenset({0}), 0.9, gamma)
        assert screen.level == (0.0,) * 4
        assert all(share >= 1.0 for share in screen.share)
        # the hit blocks and the first over-share block take every replication
        sizes = _block_sizes(screen, 71, 3, 4465)
        assert sum(sizes[:4]) + sizes[4] == 4465 and sizes[5:] == [0, 0, 0]


def test_share_levels_leave_few_weibull_replications_undecided(bounded):
    # improved IS on weibull4 at 26 dB twists the heavy component by about
    # 0.91: its draws carry the sum, the light ones stay far below gamma / 4,
    # and the equal split left 19.8% of this chunk to the bound
    scenario = KERNEL_SCENARIOS["weibull4"]
    estimate = _estimate(scenario, Method.IMPROVED_IS, CHUNK_SIZE, 7, plan=minmax_plan(scenario))
    assert estimate.theta == pytest.approx(0.909, abs=1e-3)
    screen = estimate.chunks[0][0]
    assert screen.level[0] > 0.9 * scenario.threshold_linear
    _simulate_chunk(*estimate.chunks[0])
    assert len(bounded) == scenario.n
    assert bounded[0] < 0.03 * CHUNK_SIZE


def test_a_weibull_chunk_inverts_each_undecided_draw_once(whole_rows, bounded, monkeypatch):
    # a Weibull bound is its exact inverse: an all-Weibull chunk decides at
    # gamma from its bound sums, gamma at one replication's exact sum and 1
    # ulp either side included, and calls no exact stage after them
    scenario, twisted = KERNEL_SCENARIOS["weibull4"], frozenset(range(4))
    total = np.sort(_reference_totals(scenario.components, twisted, 0.5, 71, 3, 4465))[-1]
    exact = DistributionSpec.inverse_cumulative_hazard
    inverted = []

    def counting(spec, y, out=None):
        inverted.append(np.size(y))
        return exact(spec, y, out=out)

    monkeypatch.setattr(DistributionSpec, "inverse_cumulative_hazard", counting)
    for gamma in (np.nextafter(total, np.inf), total, np.nextafter(total, 0.0)):
        bounded.clear()
        inverted.clear()
        args = (scenario.components, twisted, 0.5, float(gamma), 71, 3, 4465)
        assert _chunk(*args) == _reference_chunk(*args)
        assert inverted == bounded
        assert len(bounded) == 4 and bounded[0] > 0


def _strict_chunk(*args):
    """The chunk with every floating-point exception raised and every
    warning an error, so no log, hazard or weight may overflow, underflow
    or be invalid."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return _chunk(*args)


def _assert_weighs_as_the_hazard_form(sums, args):
    """The chunk's sums are the allocating reference's, whose weights take
    the hazard form, on the rows DenseRows reads; they hold hits and are
    finite and positive."""
    assert sums == _reference_chunk(*args, pinned=DenseRows.pinned)
    assert sums.hits > 0
    assert all(math.isfinite(x) and x > 0.0 for x in sums[:3])


@pytest.mark.parametrize("count", [7, 4465])
def test_remapped_zero_uniforms_weigh_as_the_hazard_form_without_an_exception(whole_rows, monkeypatch, count):
    # the stream turns an exact 0.0 into 2**-1074, whose hazard
    # -log(2**-1074) / (1 - theta) is finite
    scenario = KERNEL_SCENARIOS["weibull4"]
    zero = float(np.nextafter(0.0, 1.0))
    monkeypatch.setattr(DenseRows, "pinned", {3: zero, 2 * count + 5: zero})
    args = (scenario.components, frozenset(range(4)), 0.05, scenario.threshold_linear, 71, 3, count)
    sums = _strict_chunk(*args)
    _assert_weighs_as_the_hazard_form(sums, args)
    # and the two replications whose uniform it is now hit
    assert sums.hits == _reference_chunk(*args)[3] + 2


def test_conventional_importance_sampling_at_zero_theta_weighs_one(whole_rows):
    scenario = KERNEL_SCENARIOS["weibull4"].with_threshold_db(16.0)
    args = (scenario.components, frozenset(range(4)), 0.0, scenario.threshold_linear, 71, 3, 4465)
    sums = _strict_chunk(*args)
    _assert_weighs_as_the_hazard_form(sums, args)
    assert sums == (sums.hits, sums.hits, sums.hits, sums.hits)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = estimate_conventional(scenario, 0.0, runs=4465, seed=71)
    naive = estimate_naive(scenario, runs=4465, seed=71)
    assert report == dataclasses.replace(naive, method=Method.CONVENTIONAL_IS)


@pytest.mark.parametrize("count", [9, 4465])
def test_twenty_one_twisted_smallest_uniforms_weigh_as_the_hazard_form_without_an_exception(
    whole_rows, monkeypatch, count
):
    # replication 7 draws the stream's smallest nonzero uniform, 2**-53, in
    # every component: the product of its 21 uniforms is not a normal
    # double, but the sum of their hazards is 21 * 53 * log(2) / (1 - theta)
    components = (DistributionSpec.weibull(0.8, 1.0),) * 21
    smallest = 2.0**-53
    monkeypatch.setattr(DenseRows, "pinned", {i * count + 7: smallest for i in range(21)})
    args = (components, frozenset(range(21)), 0.05, 60.0, 71, 3, count)
    _assert_weighs_as_the_hazard_form(_strict_chunk(*args), args)
    monkeypatch.setattr(DenseRows, "pinned", {})
    assert _strict_chunk(*args) == _reference_chunk(*args)


# gamma far above every sum, at the sums' 99th percentile, at their median,
# and at 0; conventional IS at theta 0.95 and 25 dB hits 94%
HIT_FRACTIONS = {
    "none": (0.5, lambda totals: 1e12, 0.0),
    "1%": (0.5, lambda totals: np.quantile(totals, 0.99), 0.01),
    "half": (0.5, np.median, 0.5),
    "all": (0.5, lambda totals: 0.0, 1.0),
    "theta-0.95": (0.95, lambda totals: LOGNORMAL4.threshold_linear, 0.94),
}


@pytest.mark.parametrize("case", sorted(HIT_FRACTIONS))
def test_hit_only_weights_match_the_full_width_reference(whole_rows, case):
    theta, gamma_of, fraction = HIT_FRACTIONS[case]
    twisted = frozenset(range(4))
    gamma = float(gamma_of(_reference_totals(LOGNORMAL4.components, twisted, theta, 71, 3, CHUNK_SIZE)))
    args = (LOGNORMAL4.components, twisted, theta, gamma, 71, 3, CHUNK_SIZE)
    sums = _chunk(*args)
    assert sums == _reference_chunk(*args)
    assert sums.hits == pytest.approx(fraction * CHUNK_SIZE, abs=0.005 * CHUNK_SIZE)


# a heavy Weibull component that carries the hits, and a light one whose
# draw from the stream's remapped 0 still falls far below 16 dB
REMAPPED_ZERO_COMPONENTS = (
    DistributionSpec.weibull(0.4, 1.0),
    DistributionSpec.weibull(0.8, 1.0),
    DistributionSpec.weibull(0.95, 1e-3),
)


@pytest.mark.parametrize("row, hit", [(2, False), (0, True)])
def test_a_remapped_zero_uniform_weighs_as_the_reference_at_a_miss_and_at_a_hit(whole_rows, monkeypatch, row, hit):
    # the stream turns an exact 0.0 into 2**-1074.  Where its replication
    # hits, its hazard joins that hit's sum; where it misses, the weights
    # never read it
    args = (REMAPPED_ZERO_COMPONENTS, frozenset(range(3)), 0.05, db_to_linear(16.0), 71, 3, 4465)
    pinned = {row * 4465 + 7: float(np.nextafter(0.0, 1.0))}
    monkeypatch.setattr(DenseRows, "pinned", pinned)
    sums = _strict_chunk(*args)
    assert sums == _reference_chunk(*args, pinned=pinned)
    # replication 7 misses unpinned, and hits pinned only in the heavy row
    assert _reference_totals(*args[:3], *args[4:])[7] <= args[3]
    assert sums.hits == _reference_chunk(*args)[3] + hit > hit


def test_a_remapped_zero_uniform_at_one_hit_leaves_every_other_hits_weight_as_the_reference(whole_rows, monkeypatch):
    # six twisted components; the remapped 0 of replication 3000 in row 2
    # makes it hit, and the hits before and after it weigh as the reference
    # weighs them
    components = (DistributionSpec.weibull(0.4, 1.0),) + (DistributionSpec.weibull(0.8, 1.0),) * 5
    args = (components, frozenset(range(6)), 0.7, db_to_linear(10.0), 71, 3, 4465)
    pinned = {2 * 4465 + 3000: float(np.nextafter(0.0, 1.0))}
    monkeypatch.setattr(DenseRows, "pinned", pinned)
    sums = _chunk(*args)
    assert sums == _reference_chunk(*args, pinned=pinned)
    # replications before 3000 hit
    assert np.count_nonzero(_reference_totals(*args[:3], *args[4:])[:3000] > args[3]) > 0
