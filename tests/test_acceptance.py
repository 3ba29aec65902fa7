"""Acceptance suite: one test per exit criterion, each printing a
PASS line with the measured numbers (run pytest with -s or -rA to see
them)."""

import math
import time

import numpy as np
import pytest
import scipy.stats

from tailtwist.distributions import DistributionSpec
from tailtwist.dominance import Scenario, ThetaSource, select_dominant
from tailtwist.estimators import (
    Method,
    efficiency,
    estimate_conventional,
    estimate_improved,
    estimate_naive,
    optimality_ratio,
)
from tailtwist.experiments import (
    ExperimentConfig,
    efficiency_rows_to_csv,
    run_efficiency_sweep,
    run_theta_sweep,
    sweep_rows_to_csv,
)
from tailtwist.streams import UnitSampleStream
from tailtwist.twist_optimizer import (
    bound_h,
    solve_p,
    solve_p_prime,
    theta_conventional,
    theta_star,
    weighted_hazard_sum,
)

RUNS = 1_000_000
WORKERS = 2

THETA_GRID = tuple(round(0.2 + 0.05 * i, 12) for i in range(16))

# reference curve coordinates: (conventional, improved) second moments
THETA_SWEEP_REFERENCE = {
    0.3: (1.744904803475e-06, 1.43162351180022e-06),
    0.5: (4.06050730679034e-07, 2.3120224916498e-07),
    0.7: (2.08703479000034e-07, 5.49636205211449e-08),
    0.85: (4.55738409657214e-07, 3.52413839666486e-08),
}

# (n_components, gamma_db) -> (conventional, improved) second moments
THRESHOLD_REFERENCE = {
    (2, 20.0): (8.83224792649946e-05, 3.25620707829999e-05),
    (2, 26.0): (2.03155592621197e-08, 4.79048223463138e-09),
    (2, 32.0): (5.26170929247616e-15, 7.58364273373833e-16),
    (4, 20.0): (3.49239341130087e-04, 3.6308140609007e-05),
    (4, 26.0): (1.31963568994924e-07, 5.02796282718925e-09),
    (4, 32.0): (7.85215424090042e-14, 7.75642978175343e-16),
}

EFFICIENCY_REFERENCE_2_20 = {"xi1": 64.3812155161147, "xi2": 22.1123355019221}

WEIBULL_GAMMAS = (20.0, 24.0, 26.0, 28.0, 32.0)


def lognormal4_scenario(gamma_db=25.0):
    specs = [
        DistributionSpec.lognormal(0.0, 4.0),
        DistributionSpec.lognormal(0.0, 4.0),
        DistributionSpec.lognormal(0.0, 6.0),
        DistributionSpec.lognormal(0.0, 6.0),
    ]
    return Scenario.from_db(specs, gamma_db)


def weibull_scenario(n, gamma_db):
    shapes = [0.4] + [0.8] * (n - 1)
    specs = [DistributionSpec.weibull(k, 1.0) for k in shapes]
    return Scenario.from_db(specs, gamma_db)


def _pass(number, message):
    print(f"criterion {number:02d} PASS: {message}")


@pytest.fixture(scope="module")
def lognormal_sweep():
    """Full theta grid at one million replications per point."""
    config = ExperimentConfig(
        scenario=lognormal4_scenario(),
        theta_grid=THETA_GRID,
        gamma_grid_db=(),
        methods=(Method.CONVENTIONAL_IS, Method.IMPROVED_IS),
        runs=RUNS,
        seed=20240101,
    )
    start = time.perf_counter()
    rows = run_theta_sweep(config, workers=WORKERS)
    elapsed = time.perf_counter() - start
    by_key = {(row.theta, row.method): row.report for row in rows}
    return by_key, elapsed


@pytest.fixture(scope="module")
def weibull_reports():
    """(n, gamma_db, method) -> million-replication report."""
    reports = {}
    seed = 20240500
    for n in (2, 4):
        for gamma_db in WEIBULL_GAMMAS:
            scenario = weibull_scenario(n, gamma_db)
            plan = select_dominant(scenario)
            theta_i = theta_star(plan.s, solve_p(scenario, plan).objective_value)
            plan = plan.with_theta(theta_i, ThetaSource.MINMAX_IMPROVED)
            theta_c = theta_conventional(scenario)
            reports[(n, gamma_db, Method.IMPROVED_IS)] = estimate_improved(
                scenario, plan, RUNS, seed, workers=WORKERS
            )
            reports[(n, gamma_db, Method.CONVENTIONAL_IS)] = estimate_conventional(
                scenario, theta_c, RUNS, seed + 1, workers=WORKERS
            )
            seed += 2
    return reports


def test_criterion_01_theta_sweep_reference_values(lognormal_sweep):
    reports, elapsed = lognormal_sweep
    assert elapsed < 300.0, f"theta sweep took {elapsed:.0f}s, budget is 300s"
    worst = 0.0
    for theta, (ref_conv, ref_imp) in THETA_SWEEP_REFERENCE.items():
        for method, ref in (
            (Method.CONVENTIONAL_IS, ref_conv),
            (Method.IMPROVED_IS, ref_imp),
        ):
            rep = reports[(theta, method)]
            tolerance = max(3.0 * rep.second_moment_se, 0.10 * ref)
            error = abs(rep.second_moment - ref)
            assert error <= tolerance, (
                f"{method.value} at theta={theta}: {rep.second_moment:.4e} "
                f"vs reference {ref:.4e} (tolerance {tolerance:.2e})"
            )
            worst = max(worst, error / ref)
    _pass(1, f"8 reference points matched, worst relative gap {worst:.1%}, {elapsed:.0f}s")


def test_criterion_02_improved_never_worse_than_conventional(lognormal_sweep):
    reports, _ = lognormal_sweep
    for theta in THETA_GRID:
        conv = reports[(theta, Method.CONVENTIONAL_IS)]
        imp = reports[(theta, Method.IMPROVED_IS)]
        band = 3.0 * math.hypot(conv.second_moment_se, imp.second_moment_se)
        assert imp.second_moment <= conv.second_moment + band, (
            f"theta={theta}: improved {imp.second_moment:.4e} above "
            f"conventional {conv.second_moment:.4e} + {band:.2e}"
        )
    improved_curve = [reports[(t, Method.IMPROVED_IS)].second_moment for t in THETA_GRID]
    best_theta = THETA_GRID[int(np.argmin(improved_curve))]
    assert 0.80 <= best_theta <= 0.90, f"improved curve argmin at {best_theta}"
    _pass(2, f"improved <= conventional at all {len(THETA_GRID)} grid points; "
             f"improved minimum at theta={best_theta}")


def test_criterion_03_threshold_sweep_reference_values(weibull_reports):
    worst = 0.0
    for (n, gamma_db), (ref_conv, ref_imp) in THRESHOLD_REFERENCE.items():
        for method, ref in (
            (Method.CONVENTIONAL_IS, ref_conv),
            (Method.IMPROVED_IS, ref_imp),
        ):
            rep = weibull_reports[(n, gamma_db, method)]
            tolerance = max(3.0 * rep.second_moment_se, 0.15 * ref)
            error = abs(rep.second_moment - ref)
            assert error <= tolerance, (
                f"N={n} gamma={gamma_db}dB {method.value}: "
                f"{rep.second_moment:.4e} vs {ref:.4e} (tol {tolerance:.2e})"
            )
            worst = max(worst, error / ref)
    _pass(3, f"12 reference points matched, worst relative gap {worst:.1%}")


def test_criterion_04_light_components_barely_move_the_improved_curve(weibull_reports):
    gaps = []
    for gamma_db in (24.0, 28.0, 32.0):
        m2_n2 = weibull_reports[(2, gamma_db, Method.IMPROVED_IS)].second_moment
        m2_n4 = weibull_reports[(4, gamma_db, Method.IMPROVED_IS)].second_moment
        gap = abs(m2_n4 - m2_n2) / m2_n2
        assert gap <= 0.10, f"gamma={gamma_db}dB: N=4 vs N=2 gap {gap:.1%} > 10%"
        gaps.append(gap)
    _pass(4, "N=4 improved second moment within "
             + ", ".join(f"{g:.1%}" for g in gaps) + " of N=2 at 24/28/32 dB")


def test_criterion_05_efficiency_reference_values(weibull_reports):
    improved = weibull_reports[(2, 20.0, Method.IMPROVED_IS)]
    conventional = weibull_reports[(2, 20.0, Method.CONVENTIONAL_IS)]
    alpha_ref = improved.alpha_hat
    xi1 = efficiency(improved, alpha_ref).xi
    xi2 = efficiency(conventional, alpha_ref).xi
    assert xi1 == pytest.approx(EFFICIENCY_REFERENCE_2_20["xi1"], rel=0.20)
    assert xi2 == pytest.approx(EFFICIENCY_REFERENCE_2_20["xi2"], rel=0.20)

    improved4 = weibull_reports[(4, 32.0, Method.IMPROVED_IS)]
    conventional4 = weibull_reports[(4, 32.0, Method.CONVENTIONAL_IS)]
    alpha4 = improved4.alpha_hat
    ratio = efficiency(improved4, alpha4).xi / efficiency(conventional4, alpha4).xi
    assert 50.0 <= ratio <= 200.0, f"xi1/xi2 at N=4, 32 dB is {ratio:.1f}"
    _pass(5, f"xi1={xi1:.1f}, xi2={xi2:.1f} at N=2/20dB; xi1/xi2={ratio:.0f} at N=4/32dB")


def simplex_grid_min(specs, weights, gamma, steps=200):
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
    else:
        a, b, c = np.meshgrid(ticks, ticks, ticks, indexing="ij")
        keep = a + b + c <= steps
        points = np.stack(
            [a[keep], b[keep], c[keep], steps - a[keep] - b[keep] - c[keep]], axis=1
        )
    points = points * (gamma / steps)
    values = np.zeros(len(points))
    for i, (spec, w) in enumerate(zip(specs, weights)):
        values += w * np.asarray(spec.cumulative_hazard(points[:, i]))
    return float(values.min())


def test_criterion_06_optimizer_matches_exhaustive_search():
    scenarios = [
        weibull_scenario(2, 20.0),
        weibull_scenario(2, 32.0),
        weibull_scenario(4, 25.0),
        lognormal4_scenario(25.0),
        lognormal4_scenario(10.0),
        Scenario.from_db([DistributionSpec.weibull(0.5, 1.0)] * 3, 20.0),
    ]
    checked = 0
    for scenario in scenarios:
        plan = select_dominant(scenario)
        dominant = scenario.components[plan.dominant_indices[0]]
        gamma = scenario.threshold_linear

        a = solve_p(scenario, plan).objective_value
        oracle = simplex_grid_min([dominant] * plan.s, [1.0] * plan.s, gamma)
        assert a == pytest.approx(oracle, rel=0.01)

        weights = [2.0 if i in plan.dominant_indices else 1.0 for i in range(scenario.n)]
        a_prime = solve_p_prime(scenario, plan).objective_value
        oracle_prime = simplex_grid_min(list(scenario.components), weights, gamma)
        assert a_prime == pytest.approx(oracle_prime, rel=0.01)

        theta_grid = np.arange(0.0, 0.9999, 1e-4)
        h_values = [bound_h(plan, a, t) for t in theta_grid]
        argmin = float(theta_grid[int(np.argmin(h_values))])
        assert abs(theta_star(plan.s, a) - argmin) <= 1e-3
        checked += 1
    _pass(6, f"solver within 1% of grid search on {checked} scenarios; "
             "theta* within 1e-3 of the bound's grid argmin")


def test_criterion_07_distribution_property_suite():
    start = time.perf_counter()
    specs = [
        DistributionSpec.weibull(0.4, 1.0),
        DistributionSpec.weibull(0.7, 2.0),
        DistributionSpec.lognormal(0.0, 6.0),
        DistributionSpec.lognormal(3.0, 4.0),
    ]
    for i, spec in enumerate(specs):
        x = np.geomspace(1e-6, 1e10, 200)
        back = spec.inverse_cumulative_hazard(spec.cumulative_hazard(x))
        assert np.allclose(back, x, rtol=1e-8)

        draws = spec.sample(UnitSampleStream(1000 + i, 0), size=100_000)
        assert scipy.stats.kstest(draws, spec.cdf).pvalue > 0.01

        for theta in (0.5, 0.9):
            twisted = spec.sample_twisted(theta, UnitSampleStream(2000 + i, 1), size=100_000)
            cdf = lambda v: -np.expm1(-(1.0 - theta) * np.asarray(spec.cumulative_hazard(v)))
            assert scipy.stats.kstest(twisted, cdf).pvalue > 0.01
            median = spec.inverse_cumulative_hazard(1.0)
            for x_probe in (0.5 * median, median, 4.0 * median):
                expected = spec.survival(x_probe) ** (1.0 - theta)
                observed = float(np.mean(twisted > x_probe))
                band = 2.576 * math.sqrt(expected * (1.0 - expected) / twisted.size)
                assert abs(observed - expected) <= band
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(7, f"round trips, KS and twisted-survival bands on 4 specs in {elapsed:.1f}s")


def test_criterion_08_estimators_mutually_consistent(weibull_reports):
    scenario = weibull_scenario(2, 20.0)
    naive = estimate_naive(scenario, runs=10_000_000, seed=77, workers=WORKERS)
    conventional = weibull_reports[(2, 20.0, Method.CONVENTIONAL_IS)]
    improved = weibull_reports[(2, 20.0, Method.IMPROVED_IS)]
    pairs = [("naive", naive, "conventional", conventional),
             ("naive", naive, "improved", improved),
             ("conventional", conventional, "improved", improved)]
    for name_a, a, name_b, b in pairs:
        se = math.sqrt(a.variance / a.runs + b.variance / b.runs)
        gap = abs(a.alpha_hat - b.alpha_hat)
        assert gap <= 3.0 * se, (
            f"{name_a} {a.alpha_hat:.4e} vs {name_b} {b.alpha_hat:.4e}: "
            f"gap {gap:.2e} exceeds 99.7% band {3 * se:.2e}"
        )
    _pass(8, f"alpha estimates agree: naive {naive.alpha_hat:.4e}, "
             f"conventional {conventional.alpha_hat:.4e}, improved {improved.alpha_hat:.4e}")


def test_criterion_09_optimality_ratio_trend(weibull_reports):
    ratios = []
    for gamma_db in (20.0, 24.0, 28.0, 32.0):
        rep = weibull_reports[(2, gamma_db, Method.IMPROVED_IS)]
        ratios.append(optimality_ratio(rep.second_moment, rep.alpha_hat))
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] > 1.7, ratios
    _pass(9, "optimality ratio rises " + " -> ".join(f"{r:.3f}" for r in ratios))


def test_criterion_10_sweeps_are_byte_identical_across_workers():
    theta_config = ExperimentConfig(
        scenario=lognormal4_scenario(),
        theta_grid=(0.5, 0.8),
        gamma_grid_db=(),
        methods=(Method.CONVENTIONAL_IS, Method.IMPROVED_IS),
        runs=50_000,
        seed=99,
    )
    csv_single = sweep_rows_to_csv(run_theta_sweep(theta_config, workers=1))
    csv_single_again = sweep_rows_to_csv(run_theta_sweep(theta_config, workers=1))
    csv_parallel = sweep_rows_to_csv(run_theta_sweep(theta_config, workers=8))
    assert csv_single == csv_single_again == csv_parallel

    eff_config = ExperimentConfig(
        scenario=weibull_scenario(2, 20.0),
        theta_grid=(),
        gamma_grid_db=(20.0, 24.0),
        methods=(Method.CONVENTIONAL_IS, Method.IMPROVED_IS),
        runs=50_000,
        seed=99,
    )
    eff_single = efficiency_rows_to_csv(run_efficiency_sweep(eff_config, workers=1))
    eff_parallel = efficiency_rows_to_csv(run_efficiency_sweep(eff_config, workers=8))
    assert eff_single == eff_parallel
    _pass(10, "theta and efficiency sweep CSVs byte-identical at workers 1 and 8")
