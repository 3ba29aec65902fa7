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
them), ``theta_grid=start:step:stop``, ``runs``, ``seed``, ``methods`` (a
comma-separated list of ``naive``, ``conventional``, ``improved``).
Component keys: ``family`` plus ``k``/``beta`` (Weibull) or
``mu_db``/``sigma_db`` (log-normal).

All sweep output is deterministic for a fixed (config, seed): floats are
rendered with the shortest round-trip decimal representation, and every
runner issues its estimates through one loop in which row i draws from
seed ``seed + i``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

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
    _estimate,
    _run_estimates,
    efficiency,
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
    """A scenario, its grids, and the estimates to run at each point.

    Checked at construction, as ConfigError: ``runs`` >= 1, ``seed`` >= 0,
    and ``methods`` names at least one ``Method``, kept once each in
    first-seen order."""

    scenario: Scenario
    theta_grid: tuple[float, ...]
    gamma_grid_db: tuple[float, ...]
    methods: tuple[Method, ...]
    runs: int
    seed: int

    def __post_init__(self):
        for key in ("runs", "seed"):
            object.__setattr__(self, key, _check_floor(None, key, getattr(self, key)))
        object.__setattr__(self, "methods", _distinct_methods(self.methods))

    def override(self, runs=None, seed=None, methods=None) -> "ExperimentConfig":
        changes = {"runs": runs, "seed": seed, "methods": methods}
        return replace(self, **{key: value for key, value in changes.items() if value is not None})


# lowest accepted value of each integer key, and how its error names it
_FLOORS = {"runs": (1, "a positive"), "seed": (0, "a non-negative")}


def _check_floor(lineno: int | None, key: str, value: int) -> int:
    floor, kind = _FLOORS[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        raise ConfigError(lineno, f"{key} must be {kind} integer")
    return int(value)


def _distinct_methods(methods, lineno: int | None = None) -> tuple[Method, ...]:
    """The methods once each, in first-seen order; a ConfigError names an
    empty list or the first entry that is not a ``Method``."""
    methods = tuple(methods)
    if not methods:
        raise ConfigError(lineno, "methods list is empty")
    for method in methods:
        if not isinstance(method, Method):
            raise ConfigError(lineno, f"unknown method {method!r}")
    return tuple(dict.fromkeys(methods))


def parse_methods(value: str, lineno: int | None = None) -> tuple[Method, ...]:
    """Parse a comma-separated method list (e.g. "naive,improved")."""
    methods = []
    for name in (piece.strip().lower() for piece in value.split(",")):
        if name:
            try:
                methods.append(Method(name))
            except ValueError:
                raise ConfigError(lineno, f"unknown method '{name}'")
    return _distinct_methods(methods, lineno)


def _parse_float(lineno: int, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(lineno, f"key '{key}' expects a number, got '{value}'")
    if not math.isfinite(number):
        raise ConfigError(lineno, f"key '{key}' expects a finite number, got '{value}'")
    return number


def _parse_count(lineno: int, key: str, value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(lineno, f"key '{key}' expects an integer, got '{value}'")
    return _check_floor(lineno, key, number)


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


def _parse_theta_grid(lineno: int, key: str, value: str) -> tuple[float, ...]:
    grid = _parse_grid(lineno, key, value)
    if any(not 0.0 <= t < 1.0 for t in grid):
        raise ConfigError(lineno, f"{key} values must lie in [0, 1)")
    return grid


# top-level key -> parser(lineno, key, value)
_TOP_PARSERS = {
    "gamma_db": _parse_float,
    "gamma_grid_db": _parse_grid,
    "theta_grid": _parse_theta_grid,
    "runs": _parse_count,
    "seed": _parse_count,
    "methods": lambda lineno, key, value: parse_methods(value, lineno),
}

# family -> (constructor, {config key: the constructor's spec field}); the
# keys are the constructor's arguments in order
_FAMILIES = {
    "weibull": (DistributionSpec.weibull, {"k": "weibull_shape", "beta": "weibull_scale"}),
    "lognormal": (
        DistributionSpec.lognormal,
        {"mu_db": "lognormal_mu_db", "sigma_db": "lognormal_sigma_db"},
    ),
}
_COMPONENT_KEYS = {"family"}.union(*(fields for _, fields in _FAMILIES.values()))


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
        allowed = _TOP_PARSERS if current is None else _COMPONENT_KEYS
        if key not in allowed:
            raise ConfigError(lineno, f"unknown key '{key}'")
        if key in target:
            raise ConfigError(lineno, f"duplicate key '{key}'")
        target[key] = (lineno, value)
    return top, blocks


def _build_component(block_line: int, block: dict[str, tuple[int, str]]) -> DistributionSpec:
    # keys are checked in file order, then in table order, so the same
    # document always names the same offending key
    if "family" not in block:
        raise ConfigError(block_line, "component block is missing 'family'")
    fam_line, fam_value = block["family"]
    family = fam_value.strip().lower()
    if family not in _FAMILIES:
        raise ConfigError(fam_line, f"unknown family '{fam_value}'")
    constructor, fields = _FAMILIES[family]
    for key, (lineno, _) in block.items():
        if key != "family" and key not in fields:
            raise ConfigError(lineno, f"key '{key}' does not apply to family '{family}'")
    for key in fields:
        if key not in block:
            raise ConfigError(block_line, f"{family} component is missing '{key}'")
    numbers = [_parse_float(block[key][0], key, block[key][1]) for key in fields]
    try:
        return constructor(*numbers)
    except ValueError as exc:
        # anchor a constructor complaint to the key whose field it names
        message = str(exc)
        lineno = next((block[key][0] for key, field in fields.items() if field in message), block_line)
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
    values = {key: _TOP_PARSERS[key](lineno, key, value) for key, (lineno, value) in top.items()}

    for first, second in (("theta_grid", "gamma_grid_db"), ("gamma_db", "gamma_grid_db")):
        if first in values and second in values:
            raise ConfigError(top[first][0], f"{first} and {second} are mutually exclusive")
    if "gamma_db" not in values and "gamma_grid_db" not in values:
        raise ConfigError(None, "config needs gamma_db (or gamma_grid_db for a threshold sweep)")
    # each dB threshold's linear value 10**(dB/10) must be a finite double
    for key in ("gamma_db", "gamma_grid_db"):
        db = max(np.atleast_1d(values.get(key, 0.0)).tolist())
        try:
            db_to_linear(db)
        except ValueError as exc:
            raise ConfigError(top[key][0], f"key '{key}': {exc}")

    gamma_grid_db = values.get("gamma_grid_db", ())
    gamma_db = values["gamma_db"] if "gamma_db" in values else gamma_grid_db[0]
    try:
        scenario = Scenario.from_db(components, gamma_db)
    except ValueError as exc:
        raise ConfigError(blocks[0][0], str(exc))

    return ExperimentConfig(
        scenario=scenario,
        theta_grid=values.get("theta_grid", ()),
        gamma_grid_db=gamma_grid_db,
        methods=values.get("methods", (Method.CONVENTIONAL_IS, Method.IMPROVED_IS)),
        runs=values.get("runs", DEFAULT_RUNS),
        seed=values.get("seed", 0),
    )


# -- running ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One estimate; an improved row at its minmax theta also carries the
    minmax objective A that solve_p returned for it."""

    gamma_db: float
    method: Method
    theta: float
    report: EstimateReport
    minmax_objective: float | None


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
    each IS method's minmax parameter at that threshold.  Every row is
    built, and every threshold's minmax parameters solved, before one pool
    runs the chunks of all the rows.
    """
    base_plan = select_dominant(config.scenario)
    rows = []  # (gamma_db, objective, estimate)
    for gamma_db in gammas:
        if gamma_db is None:
            raise ValueError("this experiment needs a dB threshold")
        scenario = config.scenario.with_threshold_db(gamma_db)
        for theta in thetas:
            budget, plan, theta_conv = None, None, theta
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
            for method in config.methods:
                seed = config.seed + len(rows)
                estimate = _estimate(scenario, method, config.runs, seed, theta=theta_conv, plan=plan)
                rows.append((gamma_db, budget if method is Method.IMPROVED_IS else None, estimate))
    reports = _run_estimates([estimate for _, _, estimate in rows], workers)
    return [
        SweepRow(gamma_db, report.method, report.theta, report, objective)
        for (gamma_db, objective, _), report in zip(rows, reports)
    ]


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


def _is_pairs(config: ExperimentConfig, workers: int, command: str):
    """(improved, conventional) rows per threshold of a minmax threshold
    sweep: at threshold g they draw from seeds seed + 2g and seed + 2g + 1.
    The command compares exactly these two methods, so the config must
    name them and no other."""
    methods = (Method.IMPROVED_IS, Method.CONVENTIONAL_IS)
    if set(config.methods) != set(methods):
        names = ",".join(m.value for m in config.methods)
        raise ConfigError(None, f"{command} runs methods conventional,improved; got {names}")
    rows = run_threshold_sweep(config.override(methods=methods), workers)
    return zip(rows[::2], rows[1::2])


def run_efficiency_sweep(config: ExperimentConfig, workers: int = 1) -> list[EfficiencyRow]:
    """Variance-reduction factors of both IS methods across thresholds.

    The tail probability reference is the improved estimate at each
    threshold (naive MC cannot resolve it out there).  A factor that an
    empty row leaves undefined (no reference, or zero sample variance) is
    NaN.
    """
    _grid(config.gamma_grid_db, "efficiency", "gamma_grid_db")
    rows = []
    for improved, conventional in _is_pairs(config, workers, "efficiency"):
        alpha_ref = improved.report.alpha_hat
        xi1 = _or_nan(lambda: efficiency(improved.report, alpha_ref).xi)
        xi2 = _or_nan(lambda: efficiency(conventional.report, alpha_ref).xi)
        rows.append(EfficiencyRow(improved.gamma_db, xi1, xi2, alpha_ref))
    return rows


def _or_nan(fn, *args) -> float:
    """fn(*args), or NaN where fn rejects the estimate it is given: one
    empty row must not abort a whole sweep."""
    try:
        return fn(*args)
    except ValueError:
        return math.nan


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
        return "\n".join(lines) + "\n" + _csv(DIAGNOSTICS_HEADER, map(astuple, self.rows))


def run_diagnostics(config: ExperimentConfig, workers: int = 1) -> DiagnosticsReport:
    """Consolidated health report over a threshold grid.

    The tail-dominance verdicts are exact; their gaps are evaluated at
    the configured thresholds.  The per-threshold rows carry the
    optimizer outputs and the measured optimality ratios of both IS
    methods; a ratio that an empty row leaves undefined is NaN.
    """
    grid = _grid(config.gamma_grid_db, "diagnose", "gamma_grid_db")
    pairs = _is_pairs(config, workers, "diagnose")
    plan = select_dominant(config.scenario)
    dominance = check_tail_dominance(config.scenario, plan, [db_to_linear(g) for g in grid])

    rows = []
    for improved, conventional in pairs:
        scenario = config.scenario.with_threshold_db(improved.gamma_db)
        alpha_ref = improved.report.alpha_hat
        rows.append(
            DiagnosticRow(
                gamma_db=improved.gamma_db,
                s=plan.s,
                theta_improved=improved.theta,
                theta_conventional=conventional.theta,
                a_value=improved.minmax_objective,
                a_prime=solve_p_prime(scenario, plan).objective_value,
                ratio_improved=_or_nan(optimality_ratio, improved.report.second_moment, alpha_ref),
                ratio_conventional=_or_nan(optimality_ratio, conventional.report.second_moment, alpha_ref),
            )
        )
    return DiagnosticsReport(dominance=dominance, rows=tuple(rows))


# -- CSV -------------------------------------------------------------------


# the report fields behind the sweep columns after gamma_db, method, theta
_SWEEP_REPORT_FIELDS = (
    "alpha_hat", "second_moment", "second_moment_se", "variance", "relative_error",
    "ci95_low", "ci95_high", "runs", "seed",
)


def _csv(header: str, rows) -> str:
    """The header, then one line per row of cells: ints and strings as
    they are, floats as repr, the shortest round-trip decimal."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, str)) else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def sweep_rows_to_csv(rows) -> str:
    table = []
    for row in rows:
        report = [getattr(row.report, field) for field in _SWEEP_REPORT_FIELDS]
        table.append((row.gamma_db, row.method.value, row.theta, *report))
    return _csv(SWEEP_HEADER, table)


def efficiency_rows_to_csv(rows) -> str:
    return _csv(EFFICIENCY_HEADER, map(astuple, rows))
