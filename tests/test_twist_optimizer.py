import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailtwist
from tailtwist.distributions import DistributionSpec, LightTailWarning
from tailtwist.dominance import Scenario, ThetaSource, TwistPlan, check_tail_dominance, select_dominant
from tailtwist.estimators import estimate_improved
from tailtwist.twist_optimizer import (
    _minimize_allocation,
    bound_h,
    solve_p,
    solve_p_prime,
    theta_conventional,
    theta_star,
    weighted_hazard_sum,
)


def weibull_scenario(shapes, gamma_db=20.0, scales=None):
    scales = scales or [1.0] * len(shapes)
    specs = [DistributionSpec.weibull(k, b) for k, b in zip(shapes, scales)]
    return Scenario.from_db(specs, gamma_db)


def lognormal_scenario(sigmas, gamma_db=25.0):
    specs = [DistributionSpec.lognormal(0.0, s) for s in sigmas]
    return Scenario.from_db(specs, gamma_db)


def simplex_grid_min(specs, weights, gamma, steps=200):
    """Exhaustive search over the budget face, step gamma/steps."""
    n = len(specs)
    ticks = np.arange(steps + 1)
    if n == 1:
        points = np.array([[steps]])
    elif n == 2:
        points = np.stack([ticks, steps - ticks], axis=1)
    elif n == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= steps
        points = np.stack([a[keep], b[keep], steps - a[keep] - b[keep]], axis=1)
    elif n == 4:
        a, b, c = np.meshgrid(ticks, ticks, ticks, indexing="ij")
        keep = a + b + c <= steps
        points = np.stack(
            [a[keep], b[keep], c[keep], steps - a[keep] - b[keep] - c[keep]], axis=1
        )
    else:
        raise NotImplementedError
    points = points * (gamma / steps)
    values = np.zeros(len(points))
    for i, (spec, w) in enumerate(zip(specs, weights)):
        values += w * np.asarray(spec.cumulative_hazard(points[:, i]))
    return float(values.min())


# -- solve_p -------------------------------------------------------------------


def test_single_variable_problem_is_exact():
    scenario = weibull_scenario([0.4, 0.8])
    plan = select_dominant(scenario)
    result = solve_p(scenario, plan)
    assert result.argmin_x == (100.0,)
    assert result.objective_value == pytest.approx(6.309573444801933, rel=1e-12)
    assert not result.attained_on_boundary


def test_concave_hazard_prefers_the_corner():
    # one coordinate carrying everything beats the even split:
    # 100^0.4 = 6.31 < 2 * 50^0.4 = 9.52
    scenario = weibull_scenario([0.4, 0.4])
    plan = select_dominant(scenario)
    result = solve_p(scenario, plan)
    assert plan.s == 2
    assert result.objective_value == pytest.approx(6.309573444801933, rel=1e-9)
    assert result.attained_on_boundary
    assert sorted(result.argmin_x) == pytest.approx([0.0, 100.0], abs=1e-6)


def test_linear_hazard_is_indifferent_on_the_face():
    import warnings
    from tailtwist.distributions import LightTailWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LightTailWarning)
        specs = [DistributionSpec.weibull(1.0, 1.0)] * 2
    scenario = Scenario.from_db(specs, 10.0)
    plan = select_dominant(scenario)
    result = solve_p(scenario, plan)
    assert result.objective_value == pytest.approx(10.0, rel=1e-9)
    assert sum(result.argmin_x) == pytest.approx(10.0, rel=1e-12)


def test_solve_p_requires_positive_threshold():
    scenario = Scenario([DistributionSpec.weibull(0.4, 1.0)], 0.0)
    with pytest.raises(ValueError):
        solve_p(scenario, select_dominant(scenario))


def test_solve_p_rejects_foreign_plan():
    scenario = weibull_scenario([0.4, 0.8])
    other = select_dominant(weibull_scenario([0.4, 0.4, 0.4]))
    with pytest.raises(ValueError):
        solve_p(scenario, other)


# every function that reads a plan checks it the same way
PLAN_READERS = {
    "solve_p": solve_p,
    "solve_p_prime": solve_p_prime,
    "check_tail_dominance": lambda scenario, plan: check_tail_dominance(scenario, plan, [1e2, 1e3]),
    "estimate_improved": lambda scenario, plan: estimate_improved(
        scenario, plan.with_theta(0.5, ThetaSource.MANUAL), runs=1, seed=0
    ),
}


@pytest.mark.parametrize("reader", sorted(PLAN_READERS))
def test_plan_readers_reject_dominant_components_that_differ(reader):
    # the hand-made plan (0, 1) groups shapes 0.8 and 0.4: pricing both as
    # the first component would give solve_p the budget of two shape-0.8
    # components instead of the far smaller one of the shape-0.4 corner
    scenario = weibull_scenario([0.8, 0.4], gamma_db=26.0)
    with pytest.raises(ValueError, match="^dominant components must be identically distributed$"):
        PLAN_READERS[reader](scenario, TwistPlan((0, 1)))


@pytest.mark.parametrize("reader", sorted(PLAN_READERS))
@pytest.mark.parametrize(
    "scenario",
    [
        weibull_scenario([0.8, 0.4], gamma_db=26.0),
        weibull_scenario([0.4, 0.4, 0.8], scales=[1.0, 1.0 + 1e-15, 1.0]),
        # parameters that differ only in the last bits group as one law
        weibull_scenario([0.4, 0.4 * (1.0 + 1e-13), 0.8]),
        lognormal_scenario([6.0, 4.0, 6.0, 4.0]),
    ],
)
def test_plan_readers_accept_the_selected_plan(reader, scenario):
    plan = select_dominant(scenario)
    assert plan.s == len(plan.dominant_indices) >= 1
    PLAN_READERS[reader](scenario, plan)


# -- solve_p_prime ---------------------------------------------------------------


def test_weighted_problem_dominant_corner_wins():
    # doubling the dominant hazard still beats the light component:
    # 2 * 100^0.4 = 12.62 < 100^0.8 = 39.81
    scenario = weibull_scenario([0.4, 0.8])
    plan = select_dominant(scenario)
    result = solve_p_prime(scenario, plan)
    assert result.objective_value == pytest.approx(12.619146889603865, rel=1e-9)
    assert result.attained_on_boundary


def test_weighted_problem_vanishes_with_the_threshold():
    scenario = weibull_scenario([0.4, 0.8]).with_threshold_db(-60.0)
    plan = select_dominant(scenario)
    result = solve_p_prime(scenario, plan)
    assert result.objective_value < 1e-2


def test_weighted_value_approaches_twice_the_dominant_hazard():
    specs = [DistributionSpec.weibull(0.4, 1.0), DistributionSpec.weibull(0.8, 1.0)]
    plan = select_dominant(Scenario(specs, 1.0))
    for gamma in np.geomspace(1e2, 1e8, 7):
        scenario = Scenario(specs, float(gamma))
        value = solve_p_prime(scenario, plan).objective_value
        ratio = value / (2.0 * specs[0].cumulative_hazard(gamma))
        assert ratio == pytest.approx(1.0, rel=1e-6)


# -- grid-oracle equivalence ------------------------------------------------------


with warnings.catch_warnings():
    warnings.simplefilter("ignore", LightTailWarning)
    # hazards that rise everywhere, and one rising next to one falling
    RISING_HAZARD_CASES = [weibull_scenario([1.5, 2.0]), weibull_scenario([0.5, 2.0])]

GRID_CASES = [
    weibull_scenario([0.4, 0.8]),
    weibull_scenario([0.4, 0.8, 0.8, 0.8]),
    weibull_scenario([0.5, 0.5, 0.5]),
    lognormal_scenario([4.0, 4.0, 6.0, 6.0]),
    lognormal_scenario([6.0, 4.0], gamma_db=10.0),
    weibull_scenario([0.4, 0.8], gamma_db=32.0),
    *RISING_HAZARD_CASES,
]


@pytest.mark.parametrize("scenario", GRID_CASES)
def test_solve_p_matches_grid_search(scenario):
    plan = select_dominant(scenario)
    dominant = scenario.components[plan.dominant_indices[0]]
    result = solve_p(scenario, plan)
    oracle = simplex_grid_min([dominant] * plan.s, [1.0] * plan.s, scenario.threshold_linear)
    assert result.objective_value <= oracle * (1.0 + 1e-12)
    assert result.objective_value == pytest.approx(oracle, rel=0.01)


@pytest.mark.parametrize("scenario", GRID_CASES)
def test_solve_p_prime_matches_grid_search(scenario):
    plan = select_dominant(scenario)
    weights = [2.0 if i in plan.dominant_indices else 1.0 for i in range(scenario.n)]
    result = solve_p_prime(scenario, plan)
    oracle = simplex_grid_min(list(scenario.components), weights, scenario.threshold_linear)
    assert result.objective_value <= oracle * (1.0 + 1e-12)
    assert result.objective_value == pytest.approx(oracle, rel=0.01)


@pytest.mark.parametrize("scenario", GRID_CASES)
def test_solution_beats_random_feasible_points(scenario):
    plan = select_dominant(scenario)
    weights = [2.0 if i in plan.dominant_indices else 1.0 for i in range(scenario.n)]
    result = solve_p_prime(scenario, plan)
    rng = np.random.default_rng(7)
    points = rng.dirichlet(np.ones(scenario.n), size=10_000) * scenario.threshold_linear
    values = np.zeros(len(points))
    for i, (spec, w) in enumerate(zip(scenario.components, weights)):
        values += w * np.asarray(spec.cumulative_hazard(points[:, i]))
    assert result.objective_value <= values.min() + 1e-9


@pytest.mark.parametrize("scenario", GRID_CASES)
def test_result_invariants(scenario):
    plan = select_dominant(scenario)
    gamma = scenario.threshold_linear
    dominant = scenario.components[plan.dominant_indices[0]]
    cases = [
        (solve_p(scenario, plan), [dominant] * plan.s, [1.0] * plan.s),
        (
            solve_p_prime(scenario, plan),
            list(scenario.components),
            [2.0 if i in plan.dominant_indices else 1.0 for i in range(scenario.n)],
        ),
    ]
    for result, specs, weights in cases:
        assert sum(result.argmin_x) >= gamma - 1e-9 * gamma
        assert all(x >= 0.0 for x in result.argmin_x)
        # the solver scores its candidates with one hazard call per component
        # over all of them, and sums each candidate's terms as this does
        assert result.objective_value == weighted_hazard_sum(specs, weights, result.argmin_x)


# Objective values (solve_p, solve_p_prime, all components) found by the
# multistart SLSQP solver that the enumeration replaced, on the first six
# grid cases and on the benchmark's three solver-probe scenarios.
PINNED = [
    (GRID_CASES[0], (6.309573444801933, 12.619146889603867, 6.309573444801933)),
    (GRID_CASES[1], (6.309573444801933, 12.619146889603867, 6.309573444801933)),
    (GRID_CASES[2], (10.0, 20.0, 10.0)),
    (GRID_CASES[3], (11.077605600352534, 22.154069582747084, 11.07714386659688)),
    (GRID_CASES[4], (3.040931495152975, 5.07933091985091, 3.0318005827206416)),
    (GRID_CASES[5], (19.054607179632477, 38.10921435926495, 19.054607179632477)),
    (
        weibull_scenario([0.4, 0.8], gamma_db=26.0),
        (10.964781961431852, 21.929563922863704, 10.964781961431852),
    ),
    (
        weibull_scenario([0.4, 0.8, 0.8, 0.8], gamma_db=26.0),
        (10.964781961431852, 21.929563922863704, 10.964781961431852),
    ),
    (
        lognormal_scenario([4.0, 4.0, 6.0, 6.0], gamma_db=25.0),
        (11.077605600352534, 22.154069582747084, 11.07714386659688),
    ),
]


@pytest.mark.parametrize("scenario, pinned", PINNED)
def test_objective_matches_the_pinned_optimum(scenario, pinned):
    plan = select_dominant(scenario)
    # the allocation minimum behind theta_conventional: every weight 1
    everything = _minimize_allocation(
        list(scenario.components), [1.0] * scenario.n, scenario.threshold_linear
    ).objective_value
    values = (
        solve_p(scenario, plan).objective_value,
        solve_p_prime(scenario, plan).objective_value,
        everything,
    )
    for value, reference in zip(values, pinned):
        assert value <= reference * (1.0 + 1e-12)
        assert value == pytest.approx(reference, rel=1e-9)
    assert theta_conventional(scenario) == theta_star(scenario.n, everything)


@pytest.mark.parametrize("shapes, scales", [
    ([0.4, 0.8], [3.0, 0.5]),
    ([0.8, 0.4], [0.2, 4.0]),
    ([0.5, 0.5, 0.9], [0.2, 1.0, 5.0]),
    ([0.3, 0.7, 0.7, 0.95], [2.0, 0.1, 10.0, 1.0]),
])
def test_concave_weibull_takes_the_best_corner_exactly(shapes, scales):
    for gamma_db in (0.0, 15.0, 32.0):
        scenario = weibull_scenario(shapes, gamma_db, scales)
        plan = select_dominant(scenario)
        gamma = scenario.threshold_linear
        weights = [2.0 if i in plan.dominant_indices else 1.0 for i in range(scenario.n)]
        hazards = [spec.cumulative_hazard(gamma) for spec in scenario.components]
        best = min(w * h for w, h in zip(weights, hazards))
        assert solve_p_prime(scenario, plan).objective_value == best
        assert theta_conventional(scenario) == theta_star(scenario.n, min(hazards))


def test_import_does_not_load_scipy_optimize():
    src = str(Path(tailtwist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, tailtwist, tailtwist.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_corner_optimality_for_concave_weibull():
    # with shape < 1 the hazard is concave, so the optimum value equals
    # the dominant hazard at the full threshold, not just asymptotically
    for gamma_db in (15.0, 20.0, 26.0, 32.0):
        scenario = weibull_scenario([0.4, 0.8, 0.8], gamma_db=gamma_db)
        plan = select_dominant(scenario)
        expected = scenario.components[0].cumulative_hazard(scenario.threshold_linear)
        assert solve_p(scenario, plan).objective_value == pytest.approx(expected, rel=1e-12)


# -- theta_star / bound_h -----------------------------------------------------------


def test_theta_star_values():
    assert theta_star(1, 6.309573444801933) == pytest.approx(0.8415106807538887, rel=1e-12)
    assert theta_star(2, 11.077623477928462) == pytest.approx(0.8194558603672476, rel=1e-10)
    assert theta_star(3, 3.0) == 0.0
    assert theta_star(2, 1.0) == 0.0


def test_theta_star_stays_below_one_where_one_minus_s_over_a_rounds_to_one():
    below_one = math.nextafter(1.0, 0.0)
    assert 1.0 - 1.0 / 1e17 == 1.0
    assert theta_star(1, 1e17) == below_one
    assert theta_star(2, 2.0**54) == below_one
    # where 1 - s/A is representable the cap does not move it
    assert theta_star(1, 2.0**52) == 1.0 - 2.0**-52
    assert theta_star(1, 2.0**53) == below_one == 1.0 - 2.0**-53
    # the conventional parameter goes through theta_star: at 420 dB the
    # all-components budget is about 6.3e16
    assert theta_conventional(weibull_scenario([0.4, 0.8], gamma_db=420.0)) == below_one


@pytest.mark.parametrize(
    "n, conventional, improved", [(4, 0.6352, 0.9088), (32, 0.0, 0.9603)]
)
def test_conventional_twisting_vanishes_with_many_light_components(n, conventional, improved):
    # one shape-0.4 component and n - 1 of shape 0.8 at 26 + 10 log10(n / 4)
    # dB: twisting all n, the minmax parameter falls to exactly 0 at n = 32,
    # so conventional IS is naive MC there, while twisting the one dominant
    # component keeps a parameter near 1
    scenario = weibull_scenario([0.4] + [0.8] * (n - 1), gamma_db=26.0 + 10.0 * math.log10(n / 4))
    plan = select_dominant(scenario)
    assert plan.dominant_indices == (0,)
    theta_conv = theta_conventional(scenario)
    assert theta_conv == pytest.approx(conventional, abs=5e-5) and (theta_conv == 0.0) == (conventional == 0.0)
    assert theta_star(plan.s, solve_p(scenario, plan).objective_value) == pytest.approx(improved, abs=5e-5)


def test_theta_star_validation():
    with pytest.raises(ValueError):
        theta_star(1, 0.0)
    with pytest.raises(ValueError):
        theta_star(0, 5.0)


def test_theta_star_monotone_in_threshold():
    scenario = weibull_scenario([0.4, 0.8])
    plan = select_dominant(scenario)
    previous = -1.0
    for gamma_db in np.arange(10.0, 40.0, 2.0):
        a = solve_p(scenario.with_threshold_db(gamma_db), plan).objective_value
        theta = theta_star(plan.s, a)
        assert theta >= previous
        previous = theta


def test_bound_h_at_zero_is_one():
    plan = select_dominant(weibull_scenario([0.4, 0.8]))
    assert bound_h(plan, 6.3, 0.0) == 1.0


def test_bound_h_frozen_value():
    plan = select_dominant(weibull_scenario([0.4, 0.8]))
    value = bound_h(plan, 6.309573444801933, 0.8415106807538887)
    assert value == pytest.approx(0.0009731126166375411, rel=1e-12)


def test_theta_star_minimizes_bound_h():
    plan = select_dominant(weibull_scenario([0.4, 0.8]))
    for a in (2.0, 6.309573444801933, 19.05460717963247):
        grid = np.arange(0.0, 0.9999, 1e-4)
        values = [bound_h(plan, a, t) for t in grid]
        argmin = grid[int(np.argmin(values))]
        assert abs(theta_star(plan.s, a) - argmin) <= 1e-3


def test_log_bound_h_is_convex():
    plan = select_dominant(weibull_scenario([0.4, 0.4]))
    grid = np.linspace(0.0, 0.99, 500)
    logs = np.log([bound_h(plan, 11.0, t) for t in grid])
    second_differences = np.diff(logs, 2)
    assert np.all(second_differences >= -1e-9)


def test_bound_h_validation():
    plan = select_dominant(weibull_scenario([0.4, 0.8]))
    with pytest.raises(ValueError):
        bound_h(plan, 0.0, 0.5)
    with pytest.raises(ValueError):
        bound_h(plan, 5.0, 1.0)


# -- theta_conventional -----------------------------------------------------------


def test_conventional_matches_improved_for_iid():
    scenario = weibull_scenario([0.5, 0.5, 0.5])
    plan = select_dominant(scenario)
    assert plan.s == scenario.n
    a = solve_p(scenario, plan).objective_value
    assert theta_conventional(scenario) == pytest.approx(theta_star(scenario.n, a), rel=1e-9)


def test_conventional_two_component_value():
    # corner solution: A_conv = min(100^0.4, 100^0.8) = 6.3096
    scenario = weibull_scenario([0.4, 0.8])
    assert theta_conventional(scenario) == pytest.approx(0.6830213615077774, rel=1e-9)


def test_conventional_clamps_small_thresholds():
    scenario = weibull_scenario([0.4, 0.8], gamma_db=0.0)
    assert theta_conventional(scenario) == 0.0
