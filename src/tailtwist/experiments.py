"""Experiment configs, sweep runners and CSV emission.

Config files are line-oriented ``key = value`` documents with one
``[component]`` block per summand:

    gamma_grid_db = 20:1:32
    runs = 1000000
    seed = 7
    methods = conventional,improved

    [component]
    family = weibull
    k = 0.4
    beta = 1

    [component]
    family = weibull
    k = 0.8
    beta = 1

Top-level keys: ``gamma_db`` or ``gamma_grid_db=start:step:stop`` (one of
them), ``theta_grid=start:step:stop``, ``runs``, ``seed``, ``methods``.
Component keys: ``family`` plus ``k``/``beta`` (Weibull) or
``mu_db``/``sigma_db`` (log-normal).

All sweep output is deterministic for a fixed (config, seed): floats are
rendered with the shortest round-trip decimal representation, and every
runner issues its estimates through one loop in which row i draws from
seed ``seed + i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import DistributionSpec, db_to_linear
from .dominance import (
    Scenario,
    TailDominanceReport,
    ThetaSource,
    check_tail_dominance,
    select_dominant,
)
from .estimators import (
    EstimateReport,
    Method,
    efficiency,
    estimate_conventional,
    estimate_improved,
    estimate_naive,
    optimality_ratio,
)
from .twist_optimizer import solve_p, solve_p_prime, theta_conventional, theta_star

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "SweepRow",
    "EfficiencyRow",
    "DiagnosticRow",
    "DiagnosticsReport",
    "run_single_estimate",
    "run_theta_sweep",
    "run_threshold_sweep",
    "run_efficiency_sweep",
    "run_diagnostics",
    "sweep_rows_to_csv",
    "efficiency_rows_to_csv",
    "SWEEP_HEADER",
    "EFFICIENCY_HEADER",
    "DIAGNOSTICS_HEADER",
]

DEFAULT_RUNS = 1_000_000
MAX_GRID_POINTS = 10_000

SWEEP_HEADER = (
    "gamma_db,method,theta,alpha_hat,second_moment,std_error,"
    "variance,relative_error,ci95_low,ci95_high,runs,seed"
)
EFFICIENCY_HEADER = "gamma_db,xi1,xi2,alpha_ref"
DIAGNOSTICS_HEADER = (
    "gamma_db,s,theta_improved,theta_conventional,a,a_prime,"
    "optimality_ratio_improved,optimality_ratio_conventional"
)


class ConfigError(ValueError):
    """A config document problem, anchored to its line."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    theta_grid: tuple[float, ...]
    gamma_grid_db: tuple[float, ...]
    methods: tuple[Method, ...]
    runs: int
    seed: int

    def override(self, runs=None, seed=None, methods=None) -> "ExperimentConfig":
        cfg = self
        if runs is not None:
            if runs < 1:
                raise ConfigError(None, "runs must be a positive integer")
            cfg = replace(cfg, runs=int(runs))
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if methods is not None:
            cfg = replace(cfg, methods=tuple(methods))
        return cfg


_METHOD_ALIASES = {
    "naive": Method.NAIVE_MC,
    "naive_mc": Method.NAIVE_MC,
    "naivemc": Method.NAIVE_MC,
    "conventional": Method.CONVENTIONAL_IS,
    "conventional_is": Method.CONVENTIONAL_IS,
    "improved": Method.IMPROVED_IS,
    "improved_is": Method.IMPROVED_IS,
}

_TOP_KEYS = {"gamma_db", "gamma_grid_db", "theta_grid", "runs", "seed", "methods"}
_COMPONENT_KEYS = {"family", "k", "beta", "mu_db", "sigma_db"}

# maps a constructor complaint back to the config key that caused it
_FIELD_TO_KEY = {
    "weibull_shape": "k",
    "weibull_scale": "beta",
    "lognormal_mu_db": "mu_db",
    "lognormal_sigma_db": "sigma_db",
}


def parse_methods(value: str) -> tuple[Method, ...]:
    """Parse a comma-separated method list (e.g. "naive,improved")."""
    names = [piece.strip().lower() for piece in value.split(",") if piece.strip()]
    if not names:
        raise ConfigError(None, "methods list is empty")
    methods = []
    for name in names:
        if name not in _METHOD_ALIASES:
            raise ConfigError(None, f"unknown method '{name}'")
        method = _METHOD_ALIASES[name]
        if method not in methods:
            methods.append(method)
    return tuple(methods)


def _parse_float(lineno: int, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(lineno, f"key '{key}' expects a number, got '{value}'")
    if not math.isfinite(number):
        raise ConfigError(lineno, f"key '{key}' expects a finite number, got '{value}'")
    return number


def _parse_int(lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(lineno, f"key '{key}' expects an integer, got '{value}'")


def _parse_grid(lineno: int, key: str, value: str) -> tuple[float, ...]:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(lineno, f"key '{key}' expects start:step:stop, got '{value}'")
    start, step, stop = (_parse_float(lineno, key, p) for p in parts)
    if step <= 0.0:
        raise ConfigError(lineno, f"key '{key}' needs a positive step")
    if stop < start:
        raise ConfigError(lineno, f"key '{key}' needs stop >= start")
    # count the points before building any: a tiny step must not exhaust memory
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ConfigError(lineno, f"key '{key}' grid has more than {MAX_GRID_POINTS} points")
    count = int(np.floor(span)) + 1
    values = tuple(round(start + i * step, 12) for i in range(count))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(lineno, f"key '{key}' grid is not strictly increasing")
    return values


def _scan_lines(text: str):
    top: dict[str, tuple[int, str]] = {}
    blocks: list[tuple[int, dict[str, tuple[int, str]]]] = []
    current: dict[str, tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[component]":
            current = {}
            blocks.append((lineno, current))
            continue
        if line.startswith("["):
            raise ConfigError(lineno, f"unknown section '{line}'")
        if "=" not in line:
            raise ConfigError(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        target = top if current is None else current
        allowed = _TOP_KEYS if current is None else _COMPONENT_KEYS
        if key not in allowed:
            raise ConfigError(lineno, f"unknown key '{key}'")
        if key in target:
            raise ConfigError(lineno, f"duplicate key '{key}'")
        target[key] = (lineno, value)
    return top, blocks


def _build_component(block_line: int, block: dict[str, tuple[int, str]]) -> DistributionSpec:
    if "family" not in block:
        raise ConfigError(block_line, "component block is missing 'family'")
    fam_line, fam_value = block["family"]
    family = fam_value.strip().lower()
    if family == "weibull":
        wanted, forbidden = {"k", "beta"}, {"mu_db", "sigma_db"}
    elif family == "lognormal":
        wanted, forbidden = {"mu_db", "sigma_db"}, {"k", "beta"}
    else:
        raise ConfigError(fam_line, f"unknown family '{fam_value}'")
    for key in forbidden:
        if key in block:
            raise ConfigError(block[key][0], f"key '{key}' does not apply to family '{family}'")
    for key in wanted:
        if key not in block:
            raise ConfigError(block_line, f"{family} component is missing '{key}'")
    values = {key: _parse_float(block[key][0], key, block[key][1]) for key in wanted}
    try:
        if family == "weibull":
            return DistributionSpec.weibull(values["k"], values["beta"])
        return DistributionSpec.lognormal(values["mu_db"], values["sigma_db"])
    except ValueError as exc:
        message = str(exc)
        lineno = block_line
        for field, key in _FIELD_TO_KEY.items():
            if field in message and key in block:
                lineno = block[key][0]
                break
        raise ConfigError(lineno, message)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document into an ExperimentConfig.

    At most one grid may be present: ``theta_grid`` serves a theta
    sweep, ``gamma_grid_db`` a threshold, efficiency or diagnostics
    sweep; without ``gamma_grid_db`` the config needs ``gamma_db``.
    """
    top, blocks = _scan_lines(text)

    if not blocks:
        raise ConfigError(None, "config defines no [component] blocks")
    components = [_build_component(line, block) for line, block in blocks]

    theta_grid: tuple[float, ...] = ()
    gamma_grid_db: tuple[float, ...] = ()
    if "theta_grid" in top:
        lineno, value = top["theta_grid"]
        theta_grid = _parse_grid(lineno, "theta_grid", value)
        if any(not 0.0 <= t < 1.0 for t in theta_grid):
            raise ConfigError(lineno, "theta_grid values must lie in [0, 1)")
    if "gamma_grid_db" in top:
        lineno, value = top["gamma_grid_db"]
        gamma_grid_db = _parse_grid(lineno, "gamma_grid_db", value)
    if theta_grid and gamma_grid_db:
        raise ConfigError(
            top["theta_grid"][0], "theta_grid and gamma_grid_db are mutually exclusive"
        )

    if "gamma_db" in top and gamma_grid_db:
        raise ConfigError(top["gamma_db"][0], "gamma_db and gamma_grid_db are mutually exclusive")
    if not gamma_grid_db and "gamma_db" not in top:
        raise ConfigError(None, "config needs gamma_db (or gamma_grid_db for a threshold sweep)")

    if "gamma_db" in top:
        gamma_db = _parse_float(top["gamma_db"][0], "gamma_db", top["gamma_db"][1])
    else:
        gamma_db = gamma_grid_db[0]

    try:
        scenario = Scenario.from_db(components, gamma_db)
    except ValueError as exc:
        raise ConfigError(blocks[0][0], str(exc))

    runs = DEFAULT_RUNS
    if "runs" in top:
        lineno, value = top["runs"]
        runs = _parse_int(lineno, "runs", value)
        if runs < 1:
            raise ConfigError(lineno, "runs must be a positive integer")
    seed = 0
    if "seed" in top:
        seed = _parse_int(top["seed"][0], "seed", top["seed"][1])

    methods: tuple[Method, ...] = (Method.CONVENTIONAL_IS, Method.IMPROVED_IS)
    if "methods" in top:
        lineno, value = top["methods"]
        try:
            methods = parse_methods(value)
        except ConfigError as exc:
            raise ConfigError(lineno, str(exc))

    return ExperimentConfig(
        scenario=scenario,
        theta_grid=theta_grid,
        gamma_grid_db=gamma_grid_db,
        methods=methods,
        runs=runs,
        seed=seed,
    )


# -- running ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    gamma_db: float
    method: Method
    theta: float
    report: EstimateReport


@dataclass(frozen=True)
class EfficiencyRow:
    gamma_db: float
    xi1: float
    xi2: float
    alpha_ref: float


def _grid(values: tuple[float, ...], command: str, key: str) -> tuple[float, ...]:
    if not values:
        raise ConfigError(None, f"{command} needs a {key} in the config")
    return values


def _sweep(config: ExperimentConfig, gammas, thetas, workers: int) -> list[SweepRow]:
    """Every estimate of every runner, in (gamma, theta, method) order.

    Row i draws from seed ``config.seed + i``.  A theta of None stands for
    each IS method's minmax parameter at that threshold.
    """
    base_plan = select_dominant(config.scenario)
    rows = []
    for gamma_db in gammas:
        if gamma_db is None:
            raise ValueError("this experiment needs a dB threshold")
        scenario = config.scenario.with_threshold_db(gamma_db)
        for theta in thetas:
            if theta is None:
                if Method.IMPROVED_IS in config.methods:
                    budget = solve_p(scenario, base_plan).objective_value
                    plan = base_plan.with_theta(
                        theta_star(base_plan.s, budget), ThetaSource.MINMAX_IMPROVED
                    )
                if Method.CONVENTIONAL_IS in config.methods:
                    theta_conv = theta_conventional(scenario)
            else:
                plan = base_plan.with_theta(theta, ThetaSource.MANUAL)
                theta_conv = theta
            for method in config.methods:
                seed = config.seed + len(rows)
                if method is Method.NAIVE_MC:
                    row_theta = 0.0
                    report = estimate_naive(scenario, config.runs, seed, workers)
                elif method is Method.CONVENTIONAL_IS:
                    row_theta = theta_conv
                    report = estimate_conventional(scenario, theta_conv, config.runs, seed, workers)
                else:
                    row_theta = plan.theta
                    report = estimate_improved(scenario, plan, config.runs, seed, workers)
                rows.append(SweepRow(gamma_db, method, row_theta, report))
    return rows


def run_single_estimate(config: ExperimentConfig, workers: int = 1) -> list[SweepRow]:
    """One estimate per configured method at the configured threshold.

    IS methods use their minmax twisting parameters.
    """
    return _sweep(config, (config.scenario.threshold_db,), (None,), workers)


def run_theta_sweep(config: ExperimentConfig, workers: int = 1) -> list[SweepRow]:
    """Estimate the second moment across the theta grid per IS method."""
    thetas = _grid(config.theta_grid, "theta-sweep", "theta_grid")
    if any(m is Method.NAIVE_MC for m in config.methods):
        raise ValueError("naive MC has no twisting parameter; drop it from theta sweeps")
    return _sweep(config, (config.scenario.threshold_db,), thetas, workers)


def run_threshold_sweep(config: ExperimentConfig, workers: int = 1) -> list[SweepRow]:
    """Estimate across the threshold grid, methods at their minmax theta."""
    gammas = _grid(config.gamma_grid_db, "threshold-sweep", "gamma_grid_db")
    return _sweep(config, gammas, (None,), workers)


def _is_pairs(config: ExperimentConfig, workers: int):
    """(improved, conventional) rows per threshold of a minmax threshold
    sweep: at threshold g they draw from seeds seed + 2g and seed + 2g + 1."""
    methods = (Method.IMPROVED_IS, Method.CONVENTIONAL_IS)
    rows = run_threshold_sweep(config.override(methods=methods), workers)
    return zip(rows[::2], rows[1::2])


def run_efficiency_sweep(config: ExperimentConfig, workers: int = 1) -> list[EfficiencyRow]:
    """Variance-reduction factors of both IS methods across thresholds.

    The tail probability reference is the improved estimate at each
    threshold (naive MC cannot resolve it out there).
    """
    _grid(config.gamma_grid_db, "efficiency", "gamma_grid_db")
    rows = []
    for improved, conventional in _is_pairs(config, workers):
        alpha_ref = improved.report.alpha_hat
        xi1 = efficiency(improved.report, alpha_ref).xi
        xi2 = efficiency(conventional.report, alpha_ref).xi
        rows.append(EfficiencyRow(improved.gamma_db, xi1, xi2, alpha_ref))
    return rows


@dataclass(frozen=True)
class DiagnosticRow:
    gamma_db: float
    s: int
    theta_improved: float
    theta_conventional: float
    a_value: float
    a_prime: float
    ratio_improved: float
    ratio_conventional: float


@dataclass(frozen=True)
class DiagnosticsReport:
    """Tail-dominance verdicts plus per-threshold optimizer/estimator
    diagnostics."""

    dominance: tuple[TailDominanceReport, ...]
    rows: tuple[DiagnosticRow, ...]

    def to_text(self) -> str:
        lines = ["tail dominance (gap = 2*Lambda_dominant - Lambda_component, first -> last threshold)"]
        if not self.dominance:
            lines.append("  all components dominant; nothing to check")
        for rep in self.dominance:
            lines.append(
                f"  component {rep.component}: {rep.verdict.value} "
                f"(gap {rep.gap[0]!r} -> {rep.gap[-1]!r})"
            )
        lines.append(DIAGNOSTICS_HEADER)
        for row in self.rows:
            lines.append(
                ",".join(
                    [
                        _fmt(row.gamma_db),
                        str(row.s),
                        _fmt(row.theta_improved),
                        _fmt(row.theta_conventional),
                        _fmt(row.a_value),
                        _fmt(row.a_prime),
                        _fmt(row.ratio_improved),
                        _fmt(row.ratio_conventional),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def run_diagnostics(config: ExperimentConfig, workers: int = 1) -> DiagnosticsReport:
    """Consolidated health report over a threshold grid.

    The tail-dominance verdicts are exact; their gaps are evaluated at
    the configured thresholds.  The per-threshold rows carry the
    optimizer outputs and the measured optimality ratios of both IS
    methods.
    """
    grid = _grid(config.gamma_grid_db, "diagnose", "gamma_grid_db")
    plan = select_dominant(config.scenario)
    dominance = check_tail_dominance(config.scenario, plan, [db_to_linear(g) for g in grid])

    rows = []
    for improved, conventional in _is_pairs(config, workers):
        scenario = config.scenario.with_threshold_db(improved.gamma_db)
        alpha_ref = improved.report.alpha_hat
        rows.append(
            DiagnosticRow(
                gamma_db=improved.gamma_db,
                s=plan.s,
                theta_improved=improved.theta,
                theta_conventional=conventional.theta,
                a_value=solve_p(scenario, plan).objective_value,
                a_prime=solve_p_prime(scenario, plan).objective_value,
                ratio_improved=optimality_ratio(improved.report.second_moment, alpha_ref),
                ratio_conventional=optimality_ratio(conventional.report.second_moment, alpha_ref),
            )
        )
    return DiagnosticsReport(dominance=dominance, rows=tuple(rows))


# -- CSV -------------------------------------------------------------------


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest round-trip decimal
    return repr(float(value))


def sweep_rows_to_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        r = row.report
        lines.append(
            ",".join(
                [
                    _fmt(row.gamma_db),
                    row.method.value,
                    _fmt(row.theta),
                    _fmt(r.alpha_hat),
                    _fmt(r.second_moment),
                    _fmt(r.second_moment_se),
                    _fmt(r.variance),
                    _fmt(r.relative_error),
                    _fmt(r.ci95_low),
                    _fmt(r.ci95_high),
                    str(r.runs),
                    str(r.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def efficiency_rows_to_csv(rows) -> str:
    lines = [EFFICIENCY_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [_fmt(row.gamma_db), _fmt(row.xi1), _fmt(row.xi2), _fmt(row.alpha_ref)]
            )
        )
    return "\n".join(lines) + "\n"
