import math

import numpy as np
import pytest

from tailtwist.distributions import DistributionSpec
from tailtwist.dominance import (
    DominanceVerdict,
    Scenario,
    ThetaSource,
    TwistPlan,
    check_tail_dominance,
    select_dominant,
)


def weibull_scenario(shapes, scales=None, gamma_db=20.0):
    scales = scales or [1.0] * len(shapes)
    specs = [DistributionSpec.weibull(k, b) for k, b in zip(shapes, scales)]
    return Scenario.from_db(specs, gamma_db)


def lognormal_scenario(sigmas, mus=None, gamma_db=25.0):
    mus = mus or [0.0] * len(sigmas)
    specs = [DistributionSpec.lognormal(m, s) for m, s in zip(mus, sigmas)]
    return Scenario.from_db(specs, gamma_db)


# -- Scenario ----------------------------------------------------------------


def test_scenario_threshold_conversion():
    scenario = weibull_scenario([0.4], gamma_db=25.0)
    assert scenario.threshold_linear == pytest.approx(316.22776601683796, rel=1e-14)
    assert scenario.threshold_db == 25.0


def test_scenario_rejects_mixed_families():
    specs = [DistributionSpec.weibull(0.4, 1.0), DistributionSpec.lognormal(0.0, 6.0)]
    with pytest.raises(ValueError, match="mixed families"):
        Scenario.from_db(specs, 20.0)


@pytest.mark.parametrize("make", [
    lambda spec: Scenario.from_db([spec], math.inf),
    lambda spec: Scenario.from_db([spec], -math.inf),
    lambda spec: Scenario.from_db([spec], math.nan),
    lambda spec: Scenario.from_linear([spec], math.inf),
    lambda spec: Scenario.from_linear([spec], math.nan),
])
def test_scenario_rejects_non_finite_threshold(make):
    with pytest.raises(ValueError, match="threshold must be finite"):
        make(DistributionSpec.weibull(0.4, 1.0))


def test_scenario_rejects_empty():
    with pytest.raises(ValueError):
        Scenario.from_db([], 20.0)


def test_scenario_from_linear_allows_degenerate_zero_threshold():
    scenario = Scenario.from_linear([DistributionSpec.weibull(0.4, 1.0)], 0.0)
    assert scenario.threshold_linear == 0.0
    assert scenario.threshold_db is None


def test_with_threshold_db():
    scenario = weibull_scenario([0.4, 0.8], gamma_db=20.0)
    moved = scenario.with_threshold_db(30.0)
    assert moved.threshold_linear == pytest.approx(1000.0, rel=1e-14)
    assert scenario.threshold_linear == pytest.approx(100.0, rel=1e-14)


# -- TwistPlan ---------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        TwistPlan(dominant_indices=(), s=0)
    with pytest.raises(ValueError):
        TwistPlan(dominant_indices=(0, 1), s=1)
    with pytest.raises(ValueError):
        TwistPlan(dominant_indices=(0,), s=1, theta=1.0)


def test_with_theta():
    plan = TwistPlan(dominant_indices=(0,), s=1)
    assert plan.theta is None
    updated = plan.with_theta(0.7, ThetaSource.MINMAX_IMPROVED)
    assert updated.theta == 0.7
    assert updated.theta_source is ThetaSource.MINMAX_IMPROVED
    assert plan.theta is None


# -- select_dominant ----------------------------------------------------------


def test_weibull_smallest_shape_wins():
    plan = select_dominant(weibull_scenario([0.4, 0.8, 0.8, 0.8]))
    assert plan.dominant_indices == (0,)
    assert plan.s == 1
    assert plan.theta is None
    assert plan.theta_source is ThetaSource.MANUAL


def test_lognormal_largest_sigma_wins():
    plan = select_dominant(lognormal_scenario([4.0, 4.0, 6.0, 6.0]))
    assert plan.dominant_indices == (2, 3)
    assert plan.s == 2


def test_iid_components_are_all_dominant():
    plan = select_dominant(weibull_scenario([0.5, 0.5, 0.5]))
    assert plan.dominant_indices == (0, 1, 2)
    assert plan.s == 3


def test_weibull_scale_breaks_shape_ties():
    plan = select_dominant(weibull_scenario([0.4, 0.4, 0.8], scales=[1.0, 2.0, 5.0]))
    assert plan.dominant_indices == (1,)


def test_lognormal_mu_breaks_sigma_ties():
    plan = select_dominant(lognormal_scenario([6.0, 6.0, 4.0], mus=[0.0, 3.0, 5.0]))
    assert plan.dominant_indices == (1,)


def test_near_ties_grouped_with_tolerance():
    k = 0.4
    plan = select_dominant(weibull_scenario([k, k * (1 + 1e-13), 0.8]))
    assert plan.dominant_indices == (0, 1)


def test_permutation_equivariance():
    shapes = [0.7, 0.4, 0.8, 0.4]
    base = select_dominant(weibull_scenario(shapes))
    assert base.dominant_indices == (1, 3)
    permutation = [2, 0, 3, 1]  # new position of each old index
    permuted = select_dominant(weibull_scenario([shapes[i] for i in permutation]))
    expected = tuple(sorted(permutation.index(i) for i in base.dominant_indices))
    assert permuted.dominant_indices == expected


def test_non_dominant_components_are_strictly_lighter():
    scenario = weibull_scenario([0.4, 0.4, 0.8, 0.6], scales=[2.0, 1.0, 1.0, 3.0])
    plan = select_dominant(scenario)
    k_min = min(s.weibull_shape for s in scenario.components)
    beta_max = scenario.components[plan.dominant_indices[0]].weibull_scale
    for i, spec in enumerate(scenario.components):
        if i in plan.dominant_indices:
            continue
        assert spec.weibull_shape > k_min or spec.weibull_scale < beta_max


# -- check_tail_dominance -------------------------------------------------------


def test_weibull_tail_dominance_satisfied():
    # gap 2*g^0.4 - g^0.8 diverges to -infinity
    scenario = weibull_scenario([0.4, 0.8])
    plan = select_dominant(scenario)
    reports = check_tail_dominance(scenario, plan, np.geomspace(1e2, 1e8, 13))
    assert len(reports) == 1
    assert reports[0].component == 1
    assert reports[0].verdict is DominanceVerdict.SATISFIED
    assert reports[0].gap[0] > reports[0].gap[-1]


def test_lognormal_tail_dominance_satisfied_when_sigma_gap_large():
    # sigma_1 = 6 > sqrt(2) * 4 = 5.657
    scenario = lognormal_scenario([6.0, 4.0, 4.0])
    plan = select_dominant(scenario)
    reports = check_tail_dominance(scenario, plan, np.geomspace(1e2, 1e9, 15))
    assert all(r.verdict is DominanceVerdict.SATISFIED for r in reports)


def test_lognormal_tail_dominance_violated_when_sigma_gap_small():
    # sigma_1 = 6 < sqrt(2) * 5 = 7.07: the gap grows instead of shrinking
    scenario = lognormal_scenario([6.0, 5.0])
    plan = select_dominant(scenario)
    reports = check_tail_dominance(scenario, plan, np.geomspace(1e4, 1e12, 9))
    assert reports[0].verdict is DominanceVerdict.VIOLATED


def test_dominant_components_excluded_from_report():
    scenario = lognormal_scenario([4.0, 4.0, 6.0, 6.0])
    plan = select_dominant(scenario)
    reports = check_tail_dominance(scenario, plan, np.geomspace(1e2, 1e8, 9))
    assert [r.component for r in reports] == [0, 1]


@pytest.mark.parametrize("grid", [
    [],
    [10.0, 5.0],
    [-1.0, 5.0],
    [100.0, math.nan, 1e4],
    [100.0, math.inf],
])
def test_tail_dominance_grid_validation(grid):
    scenario = weibull_scenario([0.4, 0.8])
    plan = select_dominant(scenario)
    with pytest.raises(ValueError):
        check_tail_dominance(scenario, plan, grid)


@pytest.mark.parametrize("indices", [(2,), (-1,)])
def test_tail_dominance_rejects_plan_outside_scenario(indices):
    scenario = weibull_scenario([0.4, 0.8])
    with pytest.raises(ValueError, match="outside the scenario"):
        check_tail_dominance(scenario, TwistPlan(indices, 1), [1e2])


def test_dominance_verdict_has_no_third_outcome():
    assert {v.value for v in DominanceVerdict} == {"satisfied", "violated"}


W, L = DistributionSpec.weibull, DistributionSpec.lognormal


# (dominant, light): whether 2*Lambda_dominant - Lambda_light tends to -infinity
@pytest.mark.parametrize("dominant, light, verdict", [
    # near the boundary, where a probe of the gap read "inconclusive"
    (W(0.4, 1.0), W(0.45, 1.0), DominanceVerdict.SATISFIED),
    (L(0.0, 6.0), L(0.0, 4.2), DominanceVerdict.SATISFIED),  # 4.2 < 6/sqrt(2)
    (L(0.0, 6.0), L(0.0, 4.3), DominanceVerdict.VIOLATED),
    # equal shapes: the gap is g^k * (2*b_d^-k - b_i^-k)
    (W(0.5, 4.0), W(0.5, 1.0), DominanceVerdict.VIOLATED),  # ratio exactly 2: gap 0
    (W(0.5, 4.5), W(0.5, 1.0), DominanceVerdict.SATISFIED),
    # 2*sigma_i^2 = sigma_d^2: the mu difference carries the sign, equal mu rises
    (L(0.0, 2.0), L(-1.0, math.sqrt(2.0)), DominanceVerdict.SATISFIED),
    (L(0.0, 2.0), L(0.0, math.sqrt(2.0)), DominanceVerdict.VIOLATED),
    (L(0.0, 2.0), L(1.0, math.sqrt(2.0)), DominanceVerdict.VIOLATED),
    # a plan naming the lighter component as dominant
    (W(0.8, 1.0), W(0.4, 1.0), DominanceVerdict.VIOLATED),
    (L(0.0, 4.0), L(0.0, 6.0), DominanceVerdict.VIOLATED),
])
def test_tail_dominance_exact_verdict(dominant, light, verdict):
    scenario = Scenario.from_db([dominant, light], 20.0)
    (report,) = check_tail_dominance(scenario, TwistPlan((0,), 1), [1e2, 1e4])
    assert report.component == 1
    assert report.verdict is verdict


def _deep_tail_falls(dominant, light, x_near, x_far) -> bool:
    gap = [2.0 * dominant.cumulative_hazard(x) - light.cumulative_hazard(x) for x in (x_near, x_far)]
    assert all(math.isfinite(g) for g in gap)
    return gap[1] < gap[0]


def _random_weibull_pair(rng):
    k_d, k_i = rng.uniform(0.2, 1.5, size=2)
    b_d, b_i = rng.uniform(0.5, 2.0, size=2)
    if rng.random() < 0.3:
        k_i = k_d  # equal shapes: the scale ratio decides
        if abs((b_d / b_i) ** k_d - 2.0) < 0.1:
            return None
    elif abs(k_i - k_d) < 0.05:
        return None
    return W(k_d, b_d), W(k_i, b_i)


def _random_lognormal_pair(rng):
    s_d, s_i = rng.uniform(1.0, 10.0, size=2)
    m_d, m_i = rng.uniform(-10.0, 10.0, size=2)
    if rng.random() < 0.3:
        s_i = s_d / math.sqrt(2.0)  # the t^2 terms cancel: mu decides
        if rng.random() < 0.3:
            m_i = m_d
        elif abs(m_i - m_d) < 1.0:
            return None
    elif abs(2.0 * s_i**2 - s_d**2) < 0.1 * s_d**2:
        return None
    return L(m_d, s_d), L(m_i, s_i)


@pytest.mark.filterwarnings("ignore::tailtwist.distributions.LightTailWarning")
@pytest.mark.parametrize("draw, x_near, x_far", [
    # shapes above 1 overflow to inf by 1e300
    (_random_weibull_pair, 1e100, 1e150),
    (_random_lognormal_pair, 1e250, 1e300),
])
def test_tail_dominance_verdict_agrees_with_deep_tail_trend(draw, x_near, x_far):
    rng = np.random.default_rng(20140)
    checked = 0
    while checked < 300:
        pair = draw(rng)
        if pair is None:
            continue
        dominant, light = pair
        scenario = Scenario.from_db([dominant, light], 20.0)
        (report,) = check_tail_dominance(scenario, TwistPlan((0,), 1), [1e2])
        falls = _deep_tail_falls(dominant, light, x_near, x_far)
        assert (report.verdict is DominanceVerdict.SATISFIED) == falls, (dominant, light)
        checked += 1
