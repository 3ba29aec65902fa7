"""Fixed-input probes of the sampling kernels and the twist solvers.

Kernel probes time one 2**16-replication chunk's worth of each sampling
step on inputs drawn from the workload seed.  Solver probes time each
allocation solve on three fixed scenarios and count its scalar hazard
calls exactly.  The dominance probe times one tail-dominance check.  All
report medians of repeated calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import SOLVER_FUNCTIONS, Tracer

KERNEL_REPEATS = 25
SOLVER_REPEATS = 3
TWISTED_THETA = 0.9


def _median_ms(fn, repeats: int) -> float:
    fn()  # first call pays lazy set-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def kernel_probes(tt, seed: int) -> dict[str, float]:
    """Milliseconds per chunk of uniforms, -log u and three inversions."""
    n = tt.CHUNK_SIZE
    stream = tt.UnitSampleStream(seed, 0)
    u = stream.uniforms(n)
    y = -np.log(u)
    y_twisted = y / (1.0 - TWISTED_THETA)
    weibull = tt.DistributionSpec.weibull(0.4, 1.0)
    lognormal = tt.DistributionSpec.lognormal(0.0, 6.0)
    probes = {
        "streams.uniforms_ms_per_chunk": lambda: stream.uniforms(n),
        "estimators.neg_log_u_ms_per_chunk": lambda: -np.log(u),
        "distributions.inv_hazard_weibull_ms_per_chunk":
            lambda: weibull.inverse_cumulative_hazard(y),
        "distributions.inv_hazard_lognormal_ms_per_chunk":
            lambda: lognormal.inverse_cumulative_hazard(y),
        "distributions.inv_hazard_lognormal_twisted_ms_per_chunk":
            lambda: lognormal.inverse_cumulative_hazard(y_twisted),
    }
    return {name: _median_ms(fn, KERNEL_REPEATS) for name, fn in probes.items()}


def solver_scenarios(tt) -> dict:
    weibull = tt.DistributionSpec.weibull
    lognormal = tt.DistributionSpec.lognormal
    return {
        "weibull2": tt.Scenario.from_db([weibull(0.4, 1.0), weibull(0.8, 1.0)], 26.0),
        "weibull4": tt.Scenario.from_db([weibull(0.4, 1.0)] + [weibull(0.8, 1.0)] * 3, 26.0),
        "lognormal4": tt.Scenario.from_db(
            [lognormal(0.0, 4.0)] * 2 + [lognormal(0.0, 6.0)] * 2, 25.0
        ),
    }


def dominance_probe(tt) -> dict[str, float]:
    """Median ms of one tail-dominance check on lognormal4, on the 25-point
    probe grid that ``run_diagnostics`` builds for 16..31 dB."""
    scenario = solver_scenarios(tt)["lognormal4"]
    plan = tt.select_dominant(scenario)
    grid = np.geomspace(tt.db_to_linear(16.0), tt.db_to_linear(31.0) * 1e6, 25)
    return {
        "dominance.check_tail_dominance.lognormal4_ms":
            _median_ms(lambda: tt.check_tail_dominance(scenario, plan, grid), KERNEL_REPEATS)
    }


def solver_probes(tt) -> dict[str, float]:
    """Per scenario and solver: median ms per call and hazard calls per call."""
    out = {}
    for label, scenario in solver_scenarios(tt).items():
        plan = tt.select_dominant(scenario)
        calls = {
            "solve_p": lambda: tt.twist_optimizer.solve_p(scenario, plan),
            "solve_p_prime": lambda: tt.twist_optimizer.solve_p_prime(scenario, plan),
            "theta_conventional": lambda: tt.twist_optimizer.theta_conventional(scenario),
        }
        for fn in SOLVER_FUNCTIONS:
            out[f"twist_optimizer.{fn}.{label}_ms"] = _median_ms(calls[fn], SOLVER_REPEATS)
            # counted in a separate call so counting does not inflate the time
            tracer = Tracer()
            tracer.install()
            try:
                calls[fn]()
            finally:
                tracer.uninstall()
            out[f"twist_optimizer.{fn}.{label}_hazard_evals"] = tracer.hazard_evals
    return out
