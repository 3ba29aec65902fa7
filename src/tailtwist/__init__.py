"""Right-tail probabilities of heavy-tailed sums via hazard-rate twisting.

Estimates alpha = P(X_1 + ... + X_N > threshold) for independent Weibull
or log-normal components, using importance sampling that hazard-twists
only the components dominating the right tail, with a minmax-optimal
twisting parameter.  Naive Monte Carlo and the all-components-twisted
estimator are included as baselines.
"""

from .distributions import (
    DistributionSpec,
    Family,
    LightTailWarning,
    db_to_linear,
    linear_to_db,
)
from .dominance import (
    DominanceVerdict,
    Scenario,
    TailDominanceReport,
    ThetaSource,
    TwistPlan,
    check_tail_dominance,
    select_dominant,
)
from .estimators import (
    CHUNK_SIZE,
    EfficiencyReport,
    EstimateReport,
    Method,
    efficiency,
    estimate_conventional,
    estimate_improved,
    estimate_naive,
    log_likelihood_ratio,
    optimality_ratio,
)
from .experiments import (
    ConfigError,
    DiagnosticsReport,
    EfficiencyRow,
    ExperimentConfig,
    SweepRow,
    efficiency_rows_to_csv,
    parse_config,
    run_diagnostics,
    run_efficiency_sweep,
    run_single_estimate,
    run_theta_sweep,
    run_threshold_sweep,
    sweep_rows_to_csv,
)
from .streams import UnitSampleStream
from .twist_optimizer import (
    OptimizationResult,
    bound_h,
    solve_p,
    solve_p_prime,
    theta_conventional,
    theta_star,
    weighted_hazard_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CHUNK_SIZE",
    "ConfigError",
    "DiagnosticsReport",
    "DistributionSpec",
    "DominanceVerdict",
    "EfficiencyReport",
    "EfficiencyRow",
    "EstimateReport",
    "ExperimentConfig",
    "Family",
    "LightTailWarning",
    "Method",
    "OptimizationResult",
    "Scenario",
    "SweepRow",
    "TailDominanceReport",
    "ThetaSource",
    "TwistPlan",
    "UnitSampleStream",
    "bound_h",
    "check_tail_dominance",
    "db_to_linear",
    "efficiency",
    "efficiency_rows_to_csv",
    "estimate_conventional",
    "estimate_improved",
    "estimate_naive",
    "linear_to_db",
    "log_likelihood_ratio",
    "optimality_ratio",
    "parse_config",
    "run_diagnostics",
    "run_efficiency_sweep",
    "run_single_estimate",
    "run_theta_sweep",
    "run_threshold_sweep",
    "select_dominant",
    "solve_p",
    "solve_p_prime",
    "sweep_rows_to_csv",
    "theta_conventional",
    "theta_star",
    "weighted_hazard_sum",
    "__version__",
]
