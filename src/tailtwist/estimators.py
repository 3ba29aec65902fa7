"""Tail-probability estimators and their accuracy reports.

Three estimators of alpha = P(sum of components > threshold):

  * naive Monte Carlo (indicator average);
  * conventional importance sampling, hazard-twisting every component;
  * improved importance sampling, hazard-twisting only the dominant
    components and leaving the light-tailed ones untouched.

Replications are processed in fixed chunks of 2**16, chunk j drawing
from substream j of the base seed and components consuming the stream
in index order.  Chunk partial sums are combined with exact summation
(math.fsum), so a report is a bit-reproducible function of
(scenario, method, theta, runs, seed) no matter how many workers ran
the chunks.  Each chunk works in place in one block of four arrays
(uniforms, draws, running sum, log weight).
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .distributions import DistributionSpec
from .dominance import Scenario, TwistPlan, _close
from .streams import UnitSampleStream

CHUNK_SIZE = 1 << 16

__all__ = [
    "CHUNK_SIZE",
    "Method",
    "EstimateReport",
    "EfficiencyReport",
    "estimate_naive",
    "estimate_conventional",
    "estimate_improved",
    "log_likelihood_ratio",
    "efficiency",
    "optimality_ratio",
]


class Method(enum.Enum):
    NAIVE_MC = "naive"
    CONVENTIONAL_IS = "conventional"
    IMPROVED_IS = "improved"


@dataclass(frozen=True)
class EstimateReport:
    """One estimation run: point estimate plus accuracy diagnostics.

    ``second_moment`` is the sample mean of the squared weighted
    indicator T and ``second_moment_se`` its own standard error;
    ``variance`` is the unbiased sample variance of T, from which
    ``relative_error`` (std error / estimate) and the 95% normal
    confidence interval derive.
    """

    method: Method
    alpha_hat: float
    second_moment: float
    second_moment_se: float
    variance: float
    relative_error: float
    ci95_low: float
    ci95_high: float
    runs: int
    theta: float
    seed: int


@dataclass(frozen=True)
class EfficiencyReport:
    """Run-count gain of an IS estimator over naive Monte Carlo.

    xi = alpha(1-alpha) / var[T]: how many times fewer replications the
    IS estimator needs for the same accuracy.
    """

    xi: float


def log_likelihood_ratio(theta: float, hazards, out=None):
    """Log importance weight of a draw whose twisted components were each
    hazard-twisted by theta.

    ``hazards`` holds one entry per twisted component: its cumulative
    hazard under the original law, a scalar or an array over replications.
    The weight is (1-theta)^(-s) * exp(-theta * sum of the hazards); the
    entries are consumed once, in order, so a generator may supply them.
    A zeroed array ``out`` receives the log weights in place.
    """
    log_weight, s = 0.0 if out is None else out, 0
    for s, y in enumerate(hazards, start=1):
        log_weight -= theta * y
    log_weight -= s * math.log1p(-theta)
    return log_weight


def _simulate_chunk(
    components: tuple[DistributionSpec, ...],
    twisted: frozenset[int],
    theta: float,
    gamma: float,
    seed: int,
    chunk_index: int,
    count: int,
) -> tuple[float, float, float]:
    stream = UnitSampleStream(seed, chunk_index)
    # every step below writes into one of these four arrays; the weight
    # kernel's theta * y is the only other large temporary
    u, x, total, log_weight = np.zeros((4, count))

    # components consume the stream in index order; each twisted draw's
    # cumulative hazard is y by construction and goes to the weight
    def twisted_hazards():
        nonlocal total
        for i, spec in enumerate(components):
            stream.uniforms(count, out=u)
            if i in twisted:
                y = np.negative(np.log(u, out=u), out=u)
                y /= 1.0 - theta
                total += spec.inverse_cumulative_hazard(y, out=x)
                yield y
            else:
                total += spec.inverse_survival(u, out=x)

    log_likelihood_ratio(theta, twisted_hazards(), out=log_weight)
    t = np.exp(log_weight, out=log_weight)
    np.copyto(t, 0.0, where=total <= gamma)  # totals are never NaN
    t2 = np.multiply(t, t, out=x)
    t4 = np.multiply(t2, t2, out=u)
    return float(t.sum()), float(t2.sum()), float(t4.sum())


def _run_estimate(
    scenario: Scenario,
    twisted: frozenset[int],
    theta: float,
    method: Method,
    runs: int,
    seed: int,
    workers: int,
) -> EstimateReport:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_chunks = (runs + CHUNK_SIZE - 1) // CHUNK_SIZE
    counts = [
        min(CHUNK_SIZE, runs - j * CHUNK_SIZE) for j in range(n_chunks)
    ]

    def compute(j: int) -> tuple[float, float, float]:
        return _simulate_chunk(
            scenario.components, twisted, theta, scenario.threshold_linear,
            seed, j, counts[j],
        )

    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(compute, range(n_chunks)))
    else:
        partials = [compute(j) for j in range(n_chunks)]

    # fsum is exact, so the merge is independent of completion order
    sum_t = math.fsum(p[0] for p in partials)
    sum_t2 = math.fsum(p[1] for p in partials)
    sum_t4 = math.fsum(p[2] for p in partials)

    m = float(runs)
    alpha_hat = sum_t / m
    second_moment = sum_t2 / m
    bessel = m / (m - 1.0) if runs > 1 else 0.0
    variance = max(second_moment - alpha_hat * alpha_hat, 0.0) * bessel
    std_error = math.sqrt(variance / m)
    fourth_moment = sum_t4 / m
    m2_variance = max(fourth_moment - second_moment * second_moment, 0.0) * bessel
    second_moment_se = math.sqrt(m2_variance / m)
    relative_error = std_error / alpha_hat if alpha_hat > 0.0 else math.inf
    return EstimateReport(
        method=method,
        alpha_hat=alpha_hat,
        second_moment=second_moment,
        second_moment_se=second_moment_se,
        variance=variance,
        relative_error=relative_error,
        ci95_low=max(alpha_hat - 1.96 * std_error, 0.0),
        ci95_high=alpha_hat + 1.96 * std_error,
        runs=runs,
        theta=theta,
        seed=seed,
    )


def estimate_naive(
    scenario: Scenario, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Plain Monte Carlo: fraction of replications whose sum exceeds the
    threshold."""
    return _run_estimate(
        scenario, frozenset(), 0.0, Method.NAIVE_MC, runs, seed, workers
    )


def estimate_conventional(
    scenario: Scenario, theta: float, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Importance sampling with every component hazard-twisted by theta."""
    if not 0.0 <= theta < 1.0:
        raise ValueError("twisting parameter must lie in [0, 1)")
    twisted = frozenset(range(scenario.n))
    return _run_estimate(
        scenario, twisted, theta, Method.CONVENTIONAL_IS, runs, seed, workers
    )


def estimate_improved(
    scenario: Scenario, plan: TwistPlan, runs: int, seed: int, workers: int = 1
) -> EstimateReport:
    """Importance sampling twisting only the plan's dominant components.

    The untwisted components barely influence the far tail, so leaving
    them alone keeps the likelihood weights closer to 1 and lowers the
    estimator's second moment relative to twisting everything.
    """
    if plan.theta is None:
        raise ValueError("the twist plan has no twisting parameter set")
    plan.check_fits(scenario)
    lead = astuple(scenario.components[plan.dominant_indices[0]])
    for i in plan.dominant_indices:
        # one family per scenario: a field is None in both specs or in neither
        pairs = zip(lead[1:], astuple(scenario.components[i])[1:])
        if not all(a is None or _close(a, b) for a, b in pairs):
            raise ValueError("dominant components must be identically distributed")
    twisted = frozenset(plan.dominant_indices)
    return _run_estimate(
        scenario, twisted, plan.theta, Method.IMPROVED_IS, runs, seed, workers
    )


def efficiency(is_report: EstimateReport, alpha_ref: float) -> EfficiencyReport:
    """Run-count ratio alpha(1-alpha) / var[T] versus naive Monte Carlo."""
    if not 0.0 < alpha_ref < 1.0:
        raise ValueError("reference tail probability must lie in (0, 1)")
    if not is_report.variance > 0.0:
        raise ValueError("degenerate estimate: sample variance is zero")
    return EfficiencyReport(xi=alpha_ref * (1.0 - alpha_ref) / is_report.variance)


def optimality_ratio(second_moment: float, alpha: float) -> float:
    """log E[T^2] / log alpha: 1 for naive MC, approaching 2 at the
    asymptotically optimal rate."""
    if not 0.0 < second_moment < 1.0:
        raise ValueError("second moment must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("tail probability must lie in (0, 1)")
    return math.log(second_moment) / math.log(alpha)
