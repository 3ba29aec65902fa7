"""Minmax choice of the twisting parameter.

The estimator's worst-case second moment is controlled by the smallest
attainable sum of (weighted) cumulative hazards over allocations of the
threshold across components.  This module solves those small separable
problems:

  * the dominant-group problem: minimize sum of Lambda_1(x_i) over the
    s twisted components subject to sum x_i >= threshold;
  * the full problem used in the optimality diagnostic: the same with
    weight 2 on the twisted components and each untwisted component
    contributing its own hazard;
  * the all-components variant that yields the conventional baseline's
    twisting parameter.

The feasible set is closed (x_i >= 0): each hazard is continuous with
Lambda(0) = 0, so the infimum over x_i > 0 is attained on the closure
and boundary attainment is reported instead of excluded.

The solver enumerates optimality conditions.  Each hazard rate rises on
[0, peak] and never after (Weibull: peak 0 for shape <= 1, else inf;
log-normal: unimodal, Sweet 1990).  At a minimum the positive coordinates
share one weighted hazard rate nu, and at most one is past its peak, or
e_i - e_j would curve down (flat hazards pool at no cost).  So a minimum
lies on one of n curves in nu: c takes the rest of the threshold, each
other rising hazard sits on its rising branch at level nu, the rest at 0.
With no rising hazard (each Weibull shape <= 1, each Lambda concave) only
the corners remain: the answer is min_j w_j * Lambda_j(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dominance import Scenario, TwistPlan

__all__ = [
    "OptimizationResult",
    "solve_p",
    "solve_p_prime",
    "theta_star",
    "bound_h",
    "theta_conventional",
    "weighted_hazard_sum",
]

_GRID = 256  # log-nu grid points that bracket each curve's minima
_ZOOM = 64  # points per refinement pass inside one bracket
_NU_RTOL = 1e-10  # final bracket width; the objective's error is ~ its square


@dataclass(frozen=True)
class OptimizationResult:
    """Minimizer and value of one hazard-allocation problem."""

    argmin_x: tuple[float, ...]
    objective_value: float
    attained_on_boundary: bool


def weighted_hazard_sum(specs, weights, x) -> float:
    """sum_i weights[i] * Lambda_i(x[i]) for nonnegative x."""
    return _weighted_hazard_sums(specs, weights, [x])[0]


def _weighted_hazard_sums(specs, weights, points) -> list[float]:
    """weighted_hazard_sum at each of ``points``, one hazard call per component."""
    columns = np.array(points, dtype=float).T
    terms = [(w * spec.cumulative_hazard(x)).tolist() for spec, w, x in zip(specs, weights, columns)]
    return [math.fsum(point) for point in zip(*terms)]


def _curve_minima(specs, weights, gamma, c, others, nus, solved):
    """Allocations at each local minimum of curve c seen on the levels nus.

    The objective's slope in nu has the sign of nu - w_c * lambda_c(x_c);
    each sign change is refined by recursing on a finer grid inside it.
    solved caches each (spec, weight)'s rising-branch inverse on nus.
    """
    x = np.zeros((len(specs), len(nus)))
    for i in others:
        if (specs[i], weights[i]) not in solved:
            solved[specs[i], weights[i]] = specs[i].inverse_hazard_rate(nus / weights[i])
        x[i] = solved[specs[i], weights[i]]
    x[c] = gamma - x.sum(axis=0)
    gap = np.full(len(nus), np.nan)  # NaN off the curve
    on = x[c] > 0.0
    gap[on] = nus[on] - weights[c] * specs[c].hazard_rate(x[c, on])
    found = []
    for k in np.flatnonzero((gap[:-1] <= 0.0) & (gap[1:] > 0.0)):
        lo, hi = nus[k], nus[k + 1]
        finer = [] if hi - lo <= _NU_RTOL * hi else _curve_minima(
            specs, weights, gamma, c, others, np.linspace(lo, hi, _ZOOM), {}
        )
        found += finer or [x[:, k], x[:, k + 1]]
    return found


def _minimize_allocation(specs, weights, gamma: float) -> OptimizationResult:
    """Minimize sum w_i * Lambda_i(x_i) over {x >= 0, sum x = gamma}.

    Every hazard is nondecreasing, so restricting the constraint
    sum x >= gamma to its active face loses nothing.  The candidates are
    the corners and the local minima of the curves described above.
    """
    if not gamma > 0.0:
        raise ValueError("threshold must be positive for the twist optimization")
    n = len(specs)
    candidates = list(np.eye(n) * gamma)
    rising = [i for i in range(n) if specs[i].hazard_peak() > 0.0]
    # components with equal spec and weight share one curve
    curves = {(specs[c], weights[c]): c for c in range(n) if any(i != c for i in rising)}
    if curves:
        # off the corners a stationary point has a coordinate in [gamma/n, gamma],
        # where each unimodal hazard is at least its value at one end; a rising
        # coordinate is at most its peak and gamma.  Underflowed levels are moot.
        ends = np.array([gamma / n, gamma])
        nu_lo = min(w * spec.hazard_rate(ends).min() for spec, w in zip(specs, weights))
        nu_hi = max(
            weights[i] * specs[i].hazard_rate(min(specs[i].hazard_peak(), gamma)) for i in rising
        )
        nus = np.geomspace(max(nu_lo, 1e-300), max(nu_hi, nu_lo, 1e-300), _GRID)
        solved = {}
        for c in curves.values():
            others = [i for i in rising if i != c]
            candidates += _curve_minima(specs, weights, gamma, c, others, nus, solved)

    values = _weighted_hazard_sums(specs, weights, candidates)
    best = int(np.argmin(values))
    x_best = candidates[best]
    return OptimizationResult(
        argmin_x=tuple(float(v) for v in x_best),
        objective_value=values[best],
        attained_on_boundary=bool(np.any(x_best == 0.0)),
    )


def solve_p(scenario: Scenario, plan: TwistPlan) -> OptimizationResult:
    """Cheapest allocation of the threshold across the s twisted components.

    Minimizes sum of Lambda_1(x_i), i = 1..s, over x >= 0 with
    sum x >= threshold; the value is the exponent budget A(threshold)
    that the minmax parameter is built from.
    """
    plan.check_fits(scenario)  # so the dominant components share one law
    dominant_spec = scenario.components[plan.dominant_indices[0]]
    specs = [dominant_spec] * plan.s
    return _minimize_allocation(specs, [1.0] * plan.s, scenario.threshold_linear)


def solve_p_prime(scenario: Scenario, plan: TwistPlan) -> OptimizationResult:
    """Weighted variant over all N components (twisted ones count twice).

    Its value A'(threshold) bounds the log second moment of the improved
    estimator and drives the asymptotic-optimality diagnostic.
    """
    plan.check_fits(scenario)
    dominant = set(plan.dominant_indices)
    weights = [2.0 if i in dominant else 1.0 for i in range(scenario.n)]
    return _minimize_allocation(
        list(scenario.components), weights, scenario.threshold_linear
    )


def theta_star(s: int, a: float) -> float:
    """Minmax twisting parameter 1 - s/A, clamped into [0, 1).

    A at or below s means the threshold is too small for twisting to
    help; the clamp to 0 keeps the estimator valid there.  Where 1 - s/A
    rounds to 1, the clamp gives the largest double below 1.
    """
    if not a > 0.0:
        raise ValueError("the optimized hazard budget A must be positive")
    if s < 1:
        raise ValueError("the twisted-component count s must be >= 1")
    return min(max(0.0, 1.0 - s / a), math.nextafter(1.0, 0.0))


def bound_h(plan: TwistPlan, a: float, theta: float) -> float:
    """Worst-case second-moment bound (1-theta)^(-2s) * exp(-2*theta*A).

    Log-convex in theta; its minimizer over [0, 1) is theta_star(s, A).
    """
    if not a > 0.0:
        raise ValueError("the optimized hazard budget A must be positive")
    if not 0.0 <= theta < 1.0:
        raise ValueError("twisting parameter must lie in [0, 1)")
    return math.exp(-2.0 * plan.s * math.log1p(-theta) - 2.0 * theta * a)


def theta_conventional(scenario: Scenario) -> float:
    """Minmax parameter of the all-components-twisted baseline.

    Applies the same recipe with every component twisted: minimize the
    unweighted sum of each component's own hazard over allocations of
    the threshold, then clamp 1 - N/A_conv into [0, 1).
    """
    result = _minimize_allocation(
        list(scenario.components), [1.0] * scenario.n, scenario.threshold_linear
    )
    return theta_star(scenario.n, result.objective_value)
