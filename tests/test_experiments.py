import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

from tailtwist import cli, estimators, experiments
from tailtwist.cli import main
from tailtwist.distributions import DistributionSpec
from tailtwist.dominance import DominanceVerdict, Scenario, TailDominanceReport, select_dominant
from tailtwist.estimators import _WIDE_CHUNK_SIZE, CHUNK_SIZE, EstimateReport, Method, efficiency, optimality_ratio
from tailtwist.experiments import (
    DIAGNOSTICS_HEADER,
    EFFICIENCY_HEADER,
    MAX_GRID_POINTS,
    SWEEP_HEADER,
    ConfigError,
    DiagnosticRow,
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
from tailtwist.twist_optimizer import solve_p, theta_star

LOGNORMAL4_THETA = textwrap.dedent(
    """
    # four-component log-normal scenario, two heavy
    gamma_db = 25
    theta_grid = 0.2:0.05:0.95
    runs = 5000
    seed = 3

    [component]
    family = lognormal
    mu_db = 0
    sigma_db = 4

    [component]
    family = lognormal
    mu_db = 0
    sigma_db = 4

    [component]
    family = lognormal
    mu_db = 0
    sigma_db = 6

    [component]
    family = lognormal
    mu_db = 0
    sigma_db = 6
    """
)

WEIBULL2_THRESHOLDS = textwrap.dedent(
    """
    gamma_grid_db = 20:2:24
    runs = 5000
    seed = 5
    methods = conventional,improved

    [component]
    family = weibull
    k = 0.4
    beta = 1

    [component]
    family = weibull
    k = 0.8
    beta = 1
    """
)


# -- parsing -------------------------------------------------------------------


def test_parse_theta_sweep_config():
    config = parse_config(LOGNORMAL4_THETA)
    assert config.gamma_grid_db == ()
    assert config.scenario.n == 4
    assert config.scenario.threshold_db == 25.0
    assert len(config.theta_grid) == 16
    assert config.theta_grid[0] == 0.2
    assert config.theta_grid[-1] == 0.95
    assert config.runs == 5000
    assert config.seed == 3
    assert config.methods == (Method.CONVENTIONAL_IS, Method.IMPROVED_IS)
    assert select_dominant(config.scenario).s == 2


def test_parse_threshold_sweep_config():
    config = parse_config(WEIBULL2_THRESHOLDS)
    assert config.theta_grid == ()
    assert config.gamma_grid_db == (20.0, 22.0, 24.0)


def construct(config, **changes):
    """The config with ``changes``, through the constructor alone."""
    return ExperimentConfig(**{**vars(config), **changes})


@pytest.mark.parametrize("make", [ExperimentConfig.override, construct])
@pytest.mark.parametrize(
    "changes, message",
    [
        ({"methods": []}, "^methods list is empty$"),
        ({"methods": ()}, "^methods list is empty$"),
        ({"methods": [Method.IMPROVED_IS, "naive"]}, "^unknown method 'naive'$"),
        ({"methods": ("improved",)}, "^unknown method 'improved'$"),
        ({"methods": [None]}, "^unknown method None$"),
        ({"runs": 0}, "^runs must be a positive integer$"),
        ({"seed": -1}, "^seed must be a non-negative integer$"),
        # neither truncated nor read as 1 and 0, nor compared as text
        ({"runs": 2.7}, "^runs must be a positive integer$"),
        ({"runs": True}, "^runs must be a positive integer$"),
        ({"runs": "5"}, "^runs must be a positive integer$"),
        ({"seed": 3.0}, "^seed must be a non-negative integer$"),
        ({"seed": False}, "^seed must be a non-negative integer$"),
        ({"seed": "7"}, "^seed must be a non-negative integer$"),
    ],
)
def test_configs_reject_what_is_not_a_list_of_methods_or_a_count(make, changes, message):
    # no method would write a CSV of its header alone, and a method name is
    # parse_methods' to read: an estimate needs a Method
    with pytest.raises(ConfigError, match=message):
        make(parse_config(WEIBULL2_THRESHOLDS), **changes)


@pytest.mark.parametrize("make", [ExperimentConfig.override, construct])
def test_configs_take_numpy_integer_counts_as_ints(make):
    config = make(parse_config(WEIBULL2_THRESHOLDS), runs=np.int64(1000), seed=np.uint32(0))
    assert (config.runs, config.seed) == (1000, 0)
    assert type(config.runs) is type(config.seed) is int


@pytest.mark.parametrize("make", [ExperimentConfig.override, construct])
def test_configs_count_a_repeated_method_once(make):
    # as parse_methods does: a repeated method would write a second row,
    # at the next seed
    config = make(parse_config(WEIBULL2_THRESHOLDS), runs=1000, methods=[Method.IMPROVED_IS, Method.IMPROVED_IS])
    assert config.methods == (Method.IMPROVED_IS,)
    rows = run_single_estimate(config)
    assert [(row.method, row.report.seed) for row in rows] == [(Method.IMPROVED_IS, config.seed)]


@pytest.mark.parametrize(
    "command, line",
    [
        ("threshold-sweep", "gamma_grid_db = nan:1:22"),
        ("threshold-sweep", "gamma_grid_db = 20:1:inf"),
        ("estimate", "gamma_db = nan"),
    ],
)
def test_non_finite_numbers_are_config_errors_on_their_line(tmp_path, capsys, command, line):
    text = f"# non-finite value on line 2\n{line}\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"
    with pytest.raises(ConfigError, match="^line 2: .*finite"):
        parse_config(text)
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    assert "config error: line 2: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line, overflowing",
    [
        ("estimate", "gamma_db = 4000", "4000.0"),
        # only the grid's last point overflows: 10**308.5 is past the largest double
        ("threshold-sweep", "gamma_grid_db = 3000:85:3085", "3085.0"),
    ],
)
def test_thresholds_that_overflow_in_linear_units_are_config_errors_on_their_line(
    tmp_path, capsys, command, line, overflowing
):
    text = f"# overflowing threshold on line 2\n{line}\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"
    with pytest.raises(ConfigError, match=f"^line 2: key '[a-z_]+': {overflowing} dB overflows"):
        parse_config(text)
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    assert "config error: line 2: " in capsys.readouterr().err
    # the largest whole-dB threshold that fits still parses
    assert parse_config(text.replace(line, "gamma_db = 3082")).scenario.threshold_linear == 10.0**308.2


@pytest.mark.parametrize("grid", ["0:5e-324:1", "0:1e-300:1", "0:1e-5:1"])
def test_oversized_grids_are_config_errors_on_their_line(tmp_path, capsys, monkeypatch, grid):
    def bounded_range(*args):
        # the point count must be checked before any grid is built
        if range(*args)[MAX_GRID_POINTS:]:
            raise AssertionError(f"built a grid of range{args}")
        return range(*args)

    monkeypatch.setattr(experiments, "range", bounded_range, raising=False)
    text = f"# too many points on line 2\ngamma_grid_db = {grid}\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"
    with pytest.raises(ConfigError, match=f"^line 2: .*more than {MAX_GRID_POINTS} points"):
        parse_config(text)
    assert main(["threshold-sweep", "--config", write_config(tmp_path, text)]) == 2
    assert "config error: line 2: " in capsys.readouterr().err


def test_grid_at_the_point_limit_parses():
    text = "theta_grid = 0:1e-4:0.9999\ngamma_db = 20\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"
    assert len(parse_config(text).theta_grid) == MAX_GRID_POINTS


@pytest.mark.parametrize(
    "name, points",
    [("lognormal4_theta_sweep.cfg", 16), ("weibull2_thresholds.cfg", 13), ("weibull4_thresholds.cfg", 13)],
)
def test_shipped_configs_parse(name, points):
    config = parse_config((Path(__file__).parents[1] / "configs" / name).read_text())
    assert len(config.theta_grid or config.gamma_grid_db) == points


def test_config_errors_do_not_depend_on_the_hash_seed():
    # the first offending key in file order, then in the family's key order
    clash = "gamma_db = 20\n[component]\nfamily = weibull\nmu_db = 0\nsigma_db = 4\nk = 0.4\nbeta = 1\n"
    missing = "gamma_db = 20\n[component]\nfamily = weibull\n"
    code = textwrap.dedent(
        f"""
        from tailtwist.experiments import ConfigError, parse_config
        for text in ({clash!r}, {missing!r}):
            try:
                parse_config(text)
            except ConfigError as exc:
                print(exc)
        """
    )
    src = str(Path(__file__).parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert outputs == {
        "line 4: key 'mu_db' does not apply to family 'weibull'\n"
        "line 2: weibull component is missing 'k'\n"
    }


@pytest.mark.parametrize("command", ["efficiency", "diagnose"])
def test_pair_commands_reject_any_other_methods(tmp_path, capsys, command):
    # both compare improved with conventional IS, so a methods list that
    # names anything else is a config error, not silently ignored
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    assert main([command, "--config", cfg, "--runs", "100", "--method", "improved"]) == 2
    assert capsys.readouterr().err == (
        f"tailtwist: config error: {command} runs methods conventional,improved; got improved\n"
    )
    three = WEIBULL2_THRESHOLDS.replace("conventional,improved", "naive,conventional,improved")
    assert main([command, "--config", write_config(tmp_path, three), "--runs", "100"]) == 2
    assert "got naive,conventional,improved\n" in capsys.readouterr().err
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    assert main([command, "--config", cfg, "--runs", "100", "--method", "improved,conventional"]) == 0


def test_method_names_are_exactly_the_method_values(tmp_path, capsys):
    text = WEIBULL2_THRESHOLDS.replace("methods = conventional,improved", "methods = naive_mc")
    with pytest.raises(ConfigError, match="^line 5: unknown method 'naive_mc'$"):
        parse_config(text)
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    assert main(["estimate", "--config", cfg, "--runs", "100", "--method", "naive_mc"]) == 2
    assert capsys.readouterr().err == "tailtwist: config error: unknown method 'naive_mc'\n"
    # lower-cased, and de-duplicated in first-seen order
    assert experiments.parse_methods("Improved,improved") == (Method.IMPROVED_IS,)
    assert experiments.parse_methods(" NAIVE , improved,naive") == (Method.NAIVE_MC, Method.IMPROVED_IS)


def test_an_empty_method_option_is_a_config_error(tmp_path, capsys):
    # an empty --method names no method; it does not fall back to the config's
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    assert main(["estimate", "--config", cfg, "--runs", "100", "--method", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "tailtwist: config error: methods list is empty\n"
    assert captured.out == ""


WEIBULL_BLOCK = "[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"


@pytest.mark.parametrize(
    "line, block, message",
    [
        ("runs = many", WEIBULL_BLOCK, "line 2: key 'runs' expects an integer, got 'many'"),
        ("gamma_db = twenty", WEIBULL_BLOCK, "line 2: key 'gamma_db' expects a number, got 'twenty'"),
        ("gamma_grid_db = 20:32", WEIBULL_BLOCK, "line 2: key 'gamma_grid_db' expects start:step:stop, got '20:32'"),
        # the points round to 12 decimals, so they collide
        ("gamma_grid_db = 0:1e-13:1e-10", WEIBULL_BLOCK, "line 2: key 'gamma_grid_db' grid is not strictly increasing"),
        ("theta_grid = 0.5:0.25:1.0", WEIBULL_BLOCK, "line 2: theta_grid values must lie in [0, 1)"),
        ("[components]", WEIBULL_BLOCK, "line 2: unknown section '[components]'"),
        ("runs 5", WEIBULL_BLOCK, "line 2: expected 'key = value'"),
        ("[component]", "k = 0.4\nbeta = 1\n", "line 2: component block is missing 'family'"),
        ("[component]", "family = gamma\n", "line 3: unknown family 'gamma'"),
        ("[component]", "family = weibull\nk = 0.4\n", "line 2: weibull component is missing 'beta'"),
        ("[component]", "family = weibull\nk = 0\nbeta = 1\n", "line 4: weibull_shape must be > 0"),
        ("[component]", "family = weibull\nshape = 1\n", "line 4: unknown key 'shape'"),
        (
            "[component]",
            "family = weibull\nk = 0.4\nbeta = 1\nsigma_db = 4\n",
            "line 6: key 'sigma_db' does not apply to family 'weibull'",
        ),
        ("theta_grid = 0.2:0:0.9", WEIBULL_BLOCK, "line 2: key 'theta_grid' needs a positive step"),
        ("theta_grid = 0.9:0.1:0.2", WEIBULL_BLOCK, "line 2: key 'theta_grid' needs stop >= start"),
        (
            "theta_grid = 0.2:0.1:0.4\ngamma_grid_db = 20:1:22",
            WEIBULL_BLOCK,
            "line 2: theta_grid and gamma_grid_db are mutually exclusive",
        ),
        ("methods = ", WEIBULL_BLOCK, "line 2: methods list is empty"),
        ("gamma_db = 20\ngamma_db = 21", WEIBULL_BLOCK, "line 3: duplicate key 'gamma_db'"),
        ("runs = 0", WEIBULL_BLOCK, "line 2: runs must be a positive integer"),
        ("runs = 5", "", "config defines no [component] blocks"),
        ("runs = 5", WEIBULL_BLOCK, "config needs gamma_db (or gamma_grid_db for a threshold sweep)"),
        # anchored at the first component block
        (
            "gamma_db = 25",
            "[component]\nfamily = lognormal\nmu_db = 0\nsigma_db = 4\n" + WEIBULL_BLOCK,
            "line 3: mixed families in one scenario are not supported; "
            "all components must be Weibull or all log-normal",
        ),
    ],
)
def test_config_errors_name_their_line(line, block, message):
    # every value and block error is raised before the threshold is looked
    # for, and the scenario is built last
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(f"seed = 1\n{line}\n{block}")


def test_a_threshold_without_decibels_is_rejected_by_the_runners():
    # every runner reports its rows by their dB thresholds
    scenario = Scenario([DistributionSpec.weibull(0.4, 1.0)], 100.0)
    config = ExperimentConfig(scenario, (), (), (Method.IMPROVED_IS,), 1000, 0)
    with pytest.raises(ValueError, match="^this experiment needs a dB threshold$"):
        run_single_estimate(config)


# -- runners --------------------------------------------------------------------


def small_theta_config(theta_grid="0.5:0.2:0.9", runs=2000):
    text = LOGNORMAL4_THETA.replace("theta_grid = 0.2:0.05:0.95", f"theta_grid = {theta_grid}")
    return parse_config(text).override(runs=runs)


def test_theta_sweep_row_layout():
    config = small_theta_config()
    rows = run_theta_sweep(config)
    assert len(rows) == 3 * 2
    assert [r.theta for r in rows] == [0.5, 0.5, 0.7, 0.7, 0.9, 0.9]
    assert [r.method for r in rows[:2]] == [Method.CONVENTIONAL_IS, Method.IMPROVED_IS]
    assert all(r.gamma_db == 25.0 for r in rows)


def test_theta_sweep_singleton_grid():
    config = small_theta_config(theta_grid="0.7:0.1:0.7")
    rows = run_theta_sweep(config)
    assert len(rows) == 2


def test_theta_sweep_rejects_naive():
    config = small_theta_config().override(methods=(Method.NAIVE_MC,))
    with pytest.raises(ValueError, match="naive"):
        run_theta_sweep(config)


def test_threshold_sweep_uses_minmax_thetas():
    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=2000)
    rows = run_threshold_sweep(config)
    assert len(rows) == 3 * 2
    first_gamma = [r for r in rows if r.gamma_db == 20.0]
    scenario = config.scenario.with_threshold_db(20.0)
    plan = select_dominant(scenario)
    expected_improved = theta_star(plan.s, solve_p(scenario, plan).objective_value)
    by_method = {r.method: r for r in first_gamma}
    assert by_method[Method.IMPROVED_IS].theta == pytest.approx(expected_improved, rel=1e-12)
    assert by_method[Method.CONVENTIONAL_IS].theta == pytest.approx(0.6830213615077774, rel=1e-9)


def test_threshold_sweep_can_include_naive():
    config = parse_config(WEIBULL2_THRESHOLDS).override(
        runs=2000, methods=(Method.NAIVE_MC, Method.IMPROVED_IS)
    )
    rows = run_threshold_sweep(config)
    assert [r.method for r in rows[:2]] == [Method.NAIVE_MC, Method.IMPROVED_IS]
    assert rows[0].theta == 0.0


def test_single_estimate_rows():
    config = parse_config(LOGNORMAL4_THETA.replace("theta_grid = 0.2:0.05:0.95\n", ""))
    config = config.override(runs=2000, methods=(Method.NAIVE_MC, Method.CONVENTIONAL_IS, Method.IMPROVED_IS))
    assert config.theta_grid == () and config.gamma_grid_db == ()
    rows = run_single_estimate(config)
    assert [r.method for r in rows] == [
        Method.NAIVE_MC,
        Method.CONVENTIONAL_IS,
        Method.IMPROVED_IS,
    ]


@pytest.mark.parametrize(
    "methods, expected",
    [
        ("naive", {"solve_p": 0, "theta_conventional": 0}),
        ("improved", {"solve_p": 1, "theta_conventional": 0}),
        ("conventional", {"solve_p": 0, "theta_conventional": 1}),
        ("naive,conventional,improved", {"solve_p": 1, "theta_conventional": 1}),
    ],
)
def test_sweep_solves_only_the_parameters_its_methods_use(monkeypatch, methods, expected):
    calls = {name: 0 for name in expected}
    for name in expected:
        solver = getattr(experiments, name)

        def counted(*args, name=name, solver=solver):
            calls[name] += 1
            return solver(*args)

        monkeypatch.setattr(experiments, name, counted)
    config = parse_config(LOGNORMAL4_THETA).override(runs=1000, methods=experiments.parse_methods(methods))
    rows = run_single_estimate(config)
    assert [row.method.value for row in rows] == methods.split(",")
    assert calls == expected


def test_diagnose_solves_each_parameter_once_per_threshold(monkeypatch):
    names = ("solve_p", "solve_p_prime", "theta_conventional")
    calls = {name: 0 for name in names}
    for name in names:
        solver = getattr(experiments, name)

        def counted(*args, name=name, solver=solver):
            calls[name] += 1
            return solver(*args)

        monkeypatch.setattr(experiments, name, counted)
    text = (Path(__file__).parents[1] / "configs" / "weibull4_thresholds.cfg").read_text()
    config = parse_config(text).override(runs=20_000)
    report = run_diagnostics(config)
    assert len(config.gamma_grid_db) == len(report.rows) == 13
    assert calls == {name: 13 for name in names}
    # the minmax objective carried from the sweep is the float solve_p returns
    plan = select_dominant(config.scenario)
    for row in report.rows:
        scenario = config.scenario.with_threshold_db(row.gamma_db)
        assert row.a_value == solve_p(scenario, plan).objective_value


def test_runners_share_one_row_plan():
    # every runner issues its estimates in (gamma, theta, method) order, row
    # i at seed + i; efficiency and diagnostics post-process the
    # (improved, conventional) rows of a threshold sweep
    methods = (Method.NAIVE_MC, Method.CONVENTIONAL_IS, Method.IMPROVED_IS)
    single = parse_config(WEIBULL2_THRESHOLDS.replace("gamma_grid_db = 20:2:24", "gamma_db = 22"))
    point = parse_config(WEIBULL2_THRESHOLDS.replace("20:2:24", "22:1:22"))
    assert sweep_rows_to_csv(run_single_estimate(single.override(runs=5000, methods=methods))) == (
        sweep_rows_to_csv(run_threshold_sweep(point.override(runs=5000, methods=methods)))
    )

    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=5000)
    sweep = run_threshold_sweep(config.override(methods=(Method.IMPROVED_IS, Method.CONVENTIONAL_IS)))
    eff_rows = run_efficiency_sweep(config)
    diag_rows = run_diagnostics(config).rows
    assert len(sweep) == 2 * len(eff_rows) == 2 * len(diag_rows) == 6
    for g, (eff, diag) in enumerate(zip(eff_rows, diag_rows)):
        improved, conventional = sweep[2 * g], sweep[2 * g + 1]
        assert (improved.report.seed, conventional.report.seed) == (5 + 2 * g, 6 + 2 * g)
        alpha_ref = improved.report.alpha_hat
        assert eff.alpha_ref == alpha_ref
        assert eff.xi1 == efficiency(improved.report, alpha_ref).xi
        assert eff.xi2 == efficiency(conventional.report, alpha_ref).xi
        assert diag.theta_improved == improved.theta
        assert diag.theta_conventional == conventional.theta
        assert diag.ratio_improved == optimality_ratio(improved.report.second_moment, alpha_ref)
        assert diag.ratio_conventional == optimality_ratio(conventional.report.second_moment, alpha_ref)


def test_efficiency_rows():
    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=20_000)
    rows = run_efficiency_sweep(config)
    assert [r.gamma_db for r in rows] == [20.0, 22.0, 24.0]
    for row in rows:
        assert row.xi1 >= row.xi2 > 1.0
        assert 0.0 < row.alpha_ref < 1.0
    # both estimators gain faster than the event rarifies
    assert [r.xi1 for r in rows] == sorted(r.xi1 for r in rows)
    assert [r.xi2 for r in rows] == sorted(r.xi2 for r in rows)


def test_diagnostics_verdicts_and_trend():
    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=20_000)
    report = run_diagnostics(config)
    assert len(report.dominance) == 1
    assert report.dominance[0].verdict is DominanceVerdict.SATISFIED
    assert len(report.rows) == 3
    assert report.rows[-1].ratio_improved > report.rows[0].ratio_improved
    for row in report.rows:
        assert row.a_prime >= row.a_value
        assert 0.0 <= row.theta_improved < 1.0
    # the gap is reported at the configured thresholds, 20, 22 and 24 dB
    dominant, light = config.scenario.components
    expected = [2.0 * dominant.cumulative_hazard(g) - light.cumulative_hazard(g) for g in (100.0, 10**2.4)]
    gap = report.dominance[0].gap
    assert len(gap) == 3
    assert [gap[0], gap[-1]] == pytest.approx(expected, rel=1e-12)
    text = report.to_text()
    assert "component 1: satisfied" in text


def test_diagnostics_lognormal_satisfied():
    text = (
        "gamma_grid_db = 25:5:30\nruns = 1000\n"
        "[component]\nfamily = lognormal\nmu_db = 0\nsigma_db = 6\n"
        "[component]\nfamily = lognormal\nmu_db = 0\nsigma_db = 4\n"
        "[component]\nfamily = lognormal\nmu_db = 0\nsigma_db = 4\n"
    )
    report = run_diagnostics(parse_config(text))
    assert all(r.verdict is DominanceVerdict.SATISFIED for r in report.dominance)


# -- CSV ------------------------------------------------------------------------


def test_sweep_csv_shape_and_round_trip():
    config = small_theta_config()
    rows = run_theta_sweep(config)
    csv = sweep_rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == 12
        assert cells[1] in {"conventional", "improved"}
        # shortest round-trip decimals: parsing must restore the value
        assert float(cells[4]) == row.report.second_moment
        assert float(cells[5]) == row.report.second_moment_se
        assert int(cells[10]) == row.report.runs


def test_efficiency_csv_header():
    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=5000)
    csv = efficiency_rows_to_csv(run_efficiency_sweep(config))
    lines = csv.strip().split("\n")
    assert lines[0] == EFFICIENCY_HEADER
    assert len(lines) == 4


def hand_made_report(method, alpha_hat, variance, relative_error, runs, seed):
    return EstimateReport(
        method=method,
        alpha_hat=alpha_hat,
        second_moment=0.1 + 0.2,
        second_moment_se=1e-300,
        variance=variance,
        relative_error=relative_error,
        ci95_low=0.0,
        ci95_high=math.inf,
        runs=runs,
        theta=0.5,
        seed=seed,
    )


def test_each_table_renders_exact_bytes():
    # floats as their shortest round-trip repr, ints and strings as they are
    improved = hand_made_report(Method.IMPROVED_IS, 1e-300, math.nan, math.inf, 65537, 0)
    naive = hand_made_report(Method.NAIVE_MC, 0.0, 0.0, 0.0, 1, 2**64 - 1)
    rows = [
        SweepRow(20.5, Method.IMPROVED_IS, 0.1 + 0.2, improved, 1.25),
        SweepRow(21.0, Method.NAIVE_MC, 0.0, naive, None),
    ]
    assert sweep_rows_to_csv(rows) == (
        SWEEP_HEADER + "\n"
        "20.5,improved,0.30000000000000004,1e-300,0.30000000000000004,1e-300,nan,inf,0.0,inf,65537,0\n"
        "21.0,naive,0.0,0.0,0.30000000000000004,1e-300,0.0,0.0,0.0,inf,1,18446744073709551615\n"
    )
    efficiency_rows = [EfficiencyRow(20.5, 0.1 + 0.2, math.nan, 1e-300), EfficiencyRow(22.0, math.inf, 0.0, 0.5)]
    assert efficiency_rows_to_csv(efficiency_rows) == (
        EFFICIENCY_HEADER + "\n20.5,0.30000000000000004,nan,1e-300\n22.0,inf,0.0,0.5\n"
    )
    assert efficiency_rows_to_csv([]) == EFFICIENCY_HEADER + "\n"
    diagnostic = DiagnosticRow(20.5, 2, 0.1 + 0.2, 0.0, 1e-300, math.inf, math.nan, 1.5)
    dominance = (TailDominanceReport(2, (-0.5, 0.1 + 0.2, -7.0), DominanceVerdict.VIOLATED),)
    assert DiagnosticsReport(dominance, (diagnostic,)).to_text() == (
        "tail dominance (gap = 2*Lambda_dominant - Lambda_component, first -> last threshold)\n"
        "  component 2: violated (gap -0.5 -> -7.0)\n"
        f"{DIAGNOSTICS_HEADER}\n"
        "20.5,2,0.30000000000000004,0.0,1e-300,inf,nan,1.5\n"
    )
    assert DiagnosticsReport((), ()).to_text() == (
        "tail dominance (gap = 2*Lambda_dominant - Lambda_component, first -> last threshold)\n"
        "  all components dominant; nothing to check\n"
        f"{DIAGNOSTICS_HEADER}\n"
    )


@pytest.fixture
def ran(monkeypatch):
    """The estimates the runners run, in order."""
    estimates = []
    run = experiments._run_estimates

    def recorded(batch, workers):
        estimates.extend(batch)
        return run(batch, workers)

    monkeypatch.setattr(experiments, "_run_estimates", recorded)
    return estimates


def chunk_counts(estimates) -> set[int]:
    return {len(estimate.chunks) for estimate in estimates}


# sha256 of the theta sweep below as printed by the chunk kernel that lays
# its replications out as certain hits, undecided and certain misses: hit
# blocks by the first uniform at most its hit uniform, where only the
# twisted rows are drawn, then over-share blocks by the first uniform below
# its share uniform, where every row is drawn, and nothing for the rest.  It
# weighs each hit through log_likelihood_ratio from the sum of its twisted
# draws' hazards, in chunks of 2**17 where a chunk touches at most one
# double a replication and of 2**16 otherwise.  The bytes
# rest on numpy's exp and log, whose AVX-512 and AVX2 code paths round
# differently, and on scipy's special functions, so they are pinned per code
# path for the numpy and scipy releases they were recorded with.  The AVX2
# digest is what an AVX-512 machine prints under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
THETA_SWEEP_SHA256 = {
    "efee1c75f7f7200bba074dea5ae63b03d5a8c57af6d648a1da02b0d3b9dba704",  # AVX-512
    "0e964d37b8d38067c9b40484254604429136e0ec9deb20345c7e1c86a55aa5ad",  # AVX2
}
PINNED_RELEASES = ("2.4", "1.17")


@pytest.mark.skipif(
    (np.__version__.rsplit(".", 1)[0], scipy.__version__.rsplit(".", 1)[0]) != PINNED_RELEASES,
    reason="sweep bytes are pinned for numpy 2.4 and scipy 1.17",
)
def test_lognormal4_theta_sweep_bytes_are_pinned(ran):
    # full chunks and a partial one per row, wide rows and narrow ones; both
    # methods; two workers too
    text = (Path(__file__).parents[1] / "configs" / "lognormal4_theta_sweep.cfg").read_text()
    text = text.replace("theta_grid = 0.2:0.05:0.95", "theta_grid = 0.2:0.15:0.95")
    config = parse_config(text).override(runs=_WIDE_CHUNK_SIZE + 4465, seed=1)
    assert len(config.theta_grid) == 6
    digests = {
        hashlib.sha256(sweep_rows_to_csv(run_theta_sweep(config, workers)).encode()).hexdigest()
        for workers in (1, 2)
    }
    assert chunk_counts(ran) == {2, 3}
    assert len(digests) == 1
    assert digests <= THETA_SWEEP_SHA256


# sha256 of the Weibull threshold sweep below, recorded with the block
# layout: the screen's hit and share uniforms set the blocks and so the
# stream's reads.  Pinned per code path as above.
WEIBULL_SWEEP_SHA256 = {
    "40c9576a306186b1dc5988e98548bd059a907f07ccd4cac8f10e7a214a1657f8",  # AVX-512
    "612428633958cea55a7b63bda71652817af3c3235df2a1c53b3784fa0ccedc42",  # AVX2
}


@pytest.mark.skipif(
    (np.__version__.rsplit(".", 1)[0], scipy.__version__.rsplit(".", 1)[0]) != PINNED_RELEASES,
    reason="sweep bytes are pinned for numpy 2.4 and scipy 1.17",
)
def test_weibull4_threshold_sweep_bytes_are_pinned(ran):
    # one full and one partial chunk of 2**17 per row; both methods at 13
    # thresholds; two workers too
    text = (Path(__file__).parents[1] / "configs" / "weibull4_thresholds.cfg").read_text()
    config = parse_config(text).override(runs=_WIDE_CHUNK_SIZE + 4465)
    assert len(config.gamma_grid_db) == 13
    digests = {
        hashlib.sha256(sweep_rows_to_csv(run_threshold_sweep(config, workers)).encode()).hexdigest()
        for workers in (1, 2)
    }
    assert chunk_counts(ran) == {2}
    assert len(digests) == 1
    assert digests <= WEIBULL_SWEEP_SHA256


# sha256 of the sixteen-component Weibull threshold sweep below, recorded
# with the block layout.  Pinned per code path as above.
WEIBULL16_SWEEP_SHA256 = {
    "a437b4a1b46e934937fbe9848be438ad50428b47ab5609607d67bb6201c7d250",  # AVX-512
    "d3f6e6796ba0f8c28ef015c3c9648335b3b65ef6bfba0fe8f110ee31262f9019",  # AVX2
}


@pytest.mark.skipif(
    (np.__version__.rsplit(".", 1)[0], scipy.__version__.rsplit(".", 1)[0]) != PINNED_RELEASES,
    reason="sweep bytes are pinned for numpy 2.4 and scipy 1.17",
)
def test_weibull16_threshold_sweep_bytes_are_pinned(ran):
    # one full and one partial chunk of 2**17 and sixteen rows per row; both
    # methods at 5 thresholds; two workers too
    text = (Path(__file__).parents[1] / "configs" / "weibull16_thresholds.cfg").read_text()
    config = parse_config(text).override(runs=_WIDE_CHUNK_SIZE + 4465)
    assert len(config.gamma_grid_db) == 5 and config.scenario.n == 16
    digests = {
        hashlib.sha256(sweep_rows_to_csv(run_threshold_sweep(config, workers)).encode()).hexdigest()
        for workers in (1, 2)
    }
    assert chunk_counts(ran) == {2}
    assert len(digests) == 1
    assert digests <= WEIBULL16_SWEEP_SHA256


# A row of at most 2**16 runs is one chunk at either width, so its bytes
# are those it has in chunks of 2**16: conventional and improved IS on
# weibull4 at 26 dB, both wide.  Pinned per code path as above: the two
# paths' exp and log differ in the last digits of both rows.
ONE_CHUNK_ROWS_CSV = {
    # AVX-512
    f"{SWEEP_HEADER}\n"
    "26.0,conventional,0.6351956642576362,1.86590264094806e-05,1.3498943558869958e-07,"
    "2.054239695097673e-08,1.3464333081633348e-07,0.07681808539420078,1.584965906865219e-05,"
    "2.146839375030901e-05,65536,1\n"
    "26.0,improved,0.908798916064409,1.770104008790243e-05,4.909963133859709e-09,"
    "1.0234711121169477e-10,4.596706453840341e-09,0.014961827190502437,1.7181953878243222e-05,"
    "1.822012629756164e-05,65536,2\n",
    # AVX2
    f"{SWEEP_HEADER}\n"
    "26.0,conventional,0.6351956642576362,1.86590264094806e-05,1.349894355886996e-07,"
    "2.054239695097673e-08,1.346433308163335e-07,0.07681808539420078,1.584965906865219e-05,"
    "2.146839375030901e-05,65536,1\n"
    "26.0,improved,0.908798916064409,1.7701040087902435e-05,4.909963133859709e-09,"
    "1.0234711121169478e-10,4.596706453840341e-09,0.014961827190502434,1.7181953878243225e-05,"
    "1.8220126297561644e-05,65536,2\n",
}


@pytest.mark.skipif(
    (np.__version__.rsplit(".", 1)[0], scipy.__version__.rsplit(".", 1)[0]) != PINNED_RELEASES,
    reason="sweep bytes are pinned for numpy 2.4 and scipy 1.17",
)
def test_rows_of_one_chunk_keep_their_bytes_in_wide_chunks(ran):
    text = (Path(__file__).parents[1] / "configs" / "weibull4_thresholds.cfg").read_text()
    text = text.replace("gamma_grid_db = 20:1:32", "gamma_grid_db = 26:1:26")
    rows = run_threshold_sweep(parse_config(text).override(runs=CHUNK_SIZE))
    # conventional and improved IS both touch under one double a replication,
    # so both are wide
    assert [estimators._width(e.chunks[0][0]) for e in ran] == [_WIDE_CHUNK_SIZE] * 2
    assert chunk_counts(ran) == {1}
    assert sweep_rows_to_csv(rows) in ONE_CHUNK_ROWS_CSV


def test_numpy_integer_runs_and_seed_are_reported_and_printed_as_ints():
    # a report keeps no numpy integer: the CSV prints a non-int as a float
    scenario = small_theta_config().scenario
    report = estimators.estimate_naive(scenario, runs=np.int64(1000), seed=np.int64(3))
    assert type(report.runs) is int and type(report.seed) is int
    assert (report.runs, report.seed) == (1000, 3)
    assert report == estimators.estimate_naive(scenario, runs=1000, seed=3)
    csv = sweep_rows_to_csv([SweepRow(25.0, report.method, report.theta, report, None)])
    assert csv.splitlines()[1].endswith(",1000,3")


def test_csv_reproducible_across_workers():
    config = small_theta_config()
    base = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    again = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    parallel = sweep_rows_to_csv(run_theta_sweep(config, workers=4))
    assert base == again == parallel


# -- one chunk pool per sweep ------------------------------------------------------


@pytest.fixture
def pools(monkeypatch):
    """The pools the estimators build, each setting ``cancelled`` once it
    has cancelled a queued chunk."""
    built = []

    class CountingPool(estimators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.cancelled = threading.Event()
            built.append(self)

        def submit(self, fn, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            cancel = future.cancel

            def counted_cancel():
                if cancel():
                    self.cancelled.set()
                    return True
                return False

            future.cancel = counted_cancel
            return future

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_runs_every_chunk_on_one_pool(pools, ran, workers):
    # full chunks and a partial one per row, wide rows and narrow ones
    config = small_theta_config(theta_grid="0.2:0.05:0.95", runs=_WIDE_CHUNK_SIZE + 4465)
    rows = run_theta_sweep(config, workers)
    assert len(rows) == 32
    assert chunk_counts(ran) == {2, 3}
    assert len(pools) == (1 if workers > 1 else 0)


def test_single_chunk_rows_run_on_the_pool(monkeypatch):
    config = small_theta_config(theta_grid="0.2:0.05:0.95", runs=4465)
    serial = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    threads = []
    chunk = estimators._simulate_chunk

    def recorded(*args):
        threads.append(threading.get_ident())
        return chunk(*args)

    monkeypatch.setattr(estimators, "_simulate_chunk", recorded)
    assert sweep_rows_to_csv(run_theta_sweep(config, workers=2)) == serial
    assert len(threads) == 32
    assert threading.get_ident() not in threads


def test_more_workers_than_cores_with_fast_thread_switches_match_serial(ran):
    config = small_theta_config(theta_grid="0.2:0.05:0.95", runs=_WIDE_CHUNK_SIZE + 4465)
    serial = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = sweep_rows_to_csv(run_theta_sweep(config, workers=2 * (os.cpu_count() or 1) + 1))
    finally:
        sys.setswitchinterval(interval)
    assert chunk_counts(ran) == {2, 3}
    assert pooled == serial


class FirstError(ArithmeticError):
    pass


class LaterError(ValueError):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_chunk_raises_the_first_error_in_row_order(monkeypatch, workers):
    # row 5's chunk raises only after row 6's has raised, yet its error is
    # the one reported, as in a serial run, and the pool's threads are gone
    # when the call returns
    config = small_theta_config(theta_grid="0.2:0.05:0.95", runs=1000)
    later_raised = threading.Event()
    started = []
    chunk = estimators._simulate_chunk

    def failing(*args):
        row = args[1] - config.seed
        started.append(row)
        if row == 5:
            later_raised.wait(timeout=5.0 if workers > 1 else 0.0)
            raise FirstError("row 5")
        if row == 6:
            later_raised.set()
            raise LaterError("row 6")
        return chunk(*args)

    monkeypatch.setattr(estimators, "_simulate_chunk", failing)
    before = threading.active_count()
    with pytest.raises(FirstError, match="row 5"):
        run_theta_sweep(config, workers)
    assert threading.active_count() == before
    assert started == list(range(6)) if workers == 1 else 6 in started


def test_a_failing_chunk_cancels_the_queued_ones(pools, monkeypatch):
    # row 0 fails at once; the rows after it hold both threads until a
    # queued chunk has been cancelled, so one always is
    config = small_theta_config(theta_grid="0.2:0.05:0.95", runs=1000)
    started = []
    chunk = estimators._simulate_chunk

    def failing(*args):
        row = args[1] - config.seed
        started.append(row)
        if row == 0:
            raise FirstError("row 0")
        pools[0].cancelled.wait(timeout=5.0)
        return chunk(*args)

    monkeypatch.setattr(estimators, "_simulate_chunk", failing)
    with pytest.raises(FirstError, match="row 0"):
        run_theta_sweep(config, workers=2)
    assert pools[0].cancelled.is_set()
    assert sorted(started) in ([0, 1], [0, 1, 2])


@pytest.mark.parametrize("workers", [1, 2])
def test_every_solve_runs_before_any_chunk(monkeypatch, workers):
    # a later threshold's failing solve is raised before row 0's chunk has
    # run, at any worker count
    config = parse_config(WEIBULL2_THRESHOLDS).override(runs=1000)
    solve = experiments.theta_conventional
    started = []
    chunk = estimators._simulate_chunk

    def failing_solve(scenario):
        if scenario.threshold_db > 20.0:
            raise LaterError("solve")
        return solve(scenario)

    def recorded(*args):
        started.append(args[1])
        return chunk(*args)

    monkeypatch.setattr(experiments, "theta_conventional", failing_solve)
    monkeypatch.setattr(estimators, "_simulate_chunk", recorded)
    with pytest.raises(LaterError, match="solve"):
        run_threshold_sweep(config, workers)
    assert started == []


# -- deep-tail rows ---------------------------------------------------------------


def test_rows_whose_sums_underflow_are_not_exact_or_empty():
    # far in the tail each hit's weight t underflows: at 70 dB its t**2, at
    # 75 and 80 dB t itself; replications still hit, so these rows must
    # neither claim zero spread nor read as rows without a hit
    text = (Path(__file__).parents[1] / "configs" / "weibull4_thresholds.cfg").read_text()
    config = parse_config(text.replace("gamma_grid_db = 20:1:32", "gamma_grid_db = 70:5:80"))
    rows = run_threshold_sweep(config.override(runs=CHUNK_SIZE, methods=(Method.IMPROVED_IS,)))
    assert [row.gamma_db for row in rows] == [70.0, 75.0, 80.0]
    for row in rows:
        # one chunk per row; component 0 is the dominant one
        scenario = config.scenario.with_threshold_db(row.gamma_db)
        screen = estimators._screen(scenario.components, frozenset({0}), row.theta, scenario.threshold_linear)
        assert estimators._simulate_chunk(screen, row.report.seed, 0, CHUNK_SIZE).hits > 0
    spreads = ("second_moment", "second_moment_se", "variance", "relative_error", "ci95_low", "ci95_high")
    deep = rows[0].report
    assert 0.0 < deep.alpha_hat < 1e-250
    assert all(math.isnan(getattr(deep, field)) for field in spreads)
    for row in rows[1:]:
        assert all(math.isnan(getattr(row.report, field)) for field in ("alpha_hat",) + spreads)
    cells = sweep_rows_to_csv(rows).splitlines()[2].split(",")
    assert cells[3:10] == ["nan"] * 7


def test_a_threshold_too_deep_for_theta_below_one_writes_nan_rows(tmp_path, capsys):
    # at 420 dB both budgets A exceed 1e16, so 1 - s/A rounds to 1: each
    # minmax theta is the largest double below 1, every hit's weight
    # underflows, and the rows read nan; the 20 dB rows are kept
    text = (Path(__file__).parents[1] / "configs" / "weibull2_thresholds.cfg").read_text()
    deep = text.replace("gamma_grid_db = 20:1:32", "gamma_grid_db = 20:400:420")
    rows = run_threshold_sweep(parse_config(deep).override(runs=4096))
    assert [(row.gamma_db, row.method) for row in rows] == [
        (20.0, Method.CONVENTIONAL_IS), (20.0, Method.IMPROVED_IS),
        (420.0, Method.CONVENTIONAL_IS), (420.0, Method.IMPROVED_IS),
    ]
    assert all(0.0 < row.report.alpha_hat < 0.01 for row in rows[:2])
    for row in rows[2:]:
        assert row.theta == math.nextafter(1.0, 0.0)
        assert math.isnan(row.report.alpha_hat) and math.isnan(row.report.relative_error)
    cfg = write_config(tmp_path, deep)
    for command in ("threshold-sweep", "efficiency", "diagnose"):
        assert main([command, "--config", cfg, "--runs", "4096"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("420.0,")


# -- CLI ------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_cli_theta_sweep_to_file(tmp_path, capsys):
    cfg = write_config(tmp_path, LOGNORMAL4_THETA.replace("0.2:0.05:0.95", "0.5:0.2:0.7"))
    out = tmp_path / "sweep.csv"
    code = main(["theta-sweep", "--config", cfg, "--out", str(out), "--runs", "2000"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5


def test_cli_stdout_and_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    code = main(
        ["threshold-sweep", "--config", cfg, "--runs", "2000", "--seed", "9", "--method", "improved"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4  # header + 3 thresholds x 1 method
    assert all(",improved," in line for line in lines[1:])
    assert lines[1].split(",")[-1] == "9"


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS.replace("k = 0.4", "k = 0"))
    assert main(["estimate", "--config", cfg]) == 2
    assert "weibull_shape must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_fewer_than_one_worker_before_any_solve(tmp_path, capsys, monkeypatch, workers):
    # a config error, as --runs 0 is, raised before the sweep's solves
    def no_solve(scenario):
        raise AssertionError("solved")

    monkeypatch.setattr(experiments, "theta_conventional", no_solve)
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    assert main(["threshold-sweep", "--config", cfg, "--workers", workers]) == 2
    assert "config error: workers must be >= 1" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["estimate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_run(config, workers):
        raise AssertionError("ran")

    monkeypatch.setitem(cli._COMMANDS, "estimate", (no_run, sweep_rows_to_csv))
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    out = tmp_path / "missing" / "x.csv"
    assert main(["estimate", "--config", cfg, "--runs", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("tailtwist: config error: cannot write output: ")


def test_cli_output_file_of_a_failed_run_is_left_empty(tmp_path, capsys):
    # the file is opened before the run, and written only once it has ended
    cfg = write_config(tmp_path, LOGNORMAL4_THETA)
    out = tmp_path / "sweep.csv"
    out.write_text("stale\n")
    assert main(["theta-sweep", "--config", cfg, "--method", "naive", "--out", str(out)]) == 3
    assert out.read_text() == ""


def test_cli_wrong_experiment_for_config(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    # a threshold-sweep config has no theta grid: that is a config error
    assert main(["theta-sweep", "--config", cfg]) == 2


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, LOGNORMAL4_THETA)
    assert main(["theta-sweep", "--config", cfg, "--method", "naive"]) == 3
    assert "naive MC has no twisting parameter" in capsys.readouterr().err


LOGNORMAL4_THRESHOLDS = LOGNORMAL4_THETA.replace(
    "gamma_db = 25\ntheta_grid = 0.2:0.05:0.95", "gamma_grid_db = 20:2:30"
)


@pytest.mark.parametrize("command", ["efficiency", "diagnose"])
def test_cli_empty_rows_do_not_abort_the_sweep(tmp_path, capsys, command):
    # one run per estimate: no sample variance, and most rows without a hit
    cfg = write_config(tmp_path, LOGNORMAL4_THRESHOLDS)
    assert main([command, "--config", cfg, "--runs", "1"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[-6:]
    assert [row.split(",")[0] for row in rows] == ["20.0", "22.0", "24.0", "26.0", "28.0", "30.0"]
    assert "nan" in out


def test_efficiency_and_diagnostics_mark_undefined_values_nan():
    config = parse_config(LOGNORMAL4_THRESHOLDS).override(runs=1)
    pairs = run_threshold_sweep(config.override(methods=(Method.IMPROVED_IS, Method.CONVENTIONAL_IS)))
    improved, conventional = pairs[::2], pairs[1::2]
    # a single run has no sample variance, so no factor is defined
    for row in run_efficiency_sweep(config):
        assert math.isnan(row.xi1) and math.isnan(row.xi2)
    diagnostics = run_diagnostics(config).rows
    assert len(diagnostics) == 6
    ratios = []
    for diag, imp, conv in zip(diagnostics, improved, conventional):
        for ratio, report in ((diag.ratio_improved, imp.report), (diag.ratio_conventional, conv.report)):
            try:
                expected = optimality_ratio(report.second_moment, imp.report.alpha_hat)
            except ValueError:
                expected = math.nan
            assert ratio == expected or math.isnan(ratio) and math.isnan(expected)
            ratios.append(ratio)
    assert any(math.isnan(r) for r in ratios)


def test_a_weibull_level_whose_ratio_to_the_scale_overflows_writes_nothing_to_stderr(tmp_path):
    # at 3082 dB over a scale of 0.001 the level's ratio to the scale
    # overflows: its hazard is inf, the rows are written, and numpy's
    # overflow warning would be noise on stderr
    text = (Path(__file__).parents[1] / "configs" / "weibull2_thresholds.cfg").read_text()
    text = text.replace("gamma_grid_db = 20:1:32", "gamma_db = 3082").replace("beta = 1\n", "beta = 0.001\n")
    assert text.count("beta = 0.001") == 2
    cfg = write_config(tmp_path, text)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tailtwist.cli", "estimate", "--config", cfg, "--runs", "4465"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 3


def test_a_single_run_reports_no_spread(capsys):
    cfg = str(Path(__file__).parents[1] / "configs" / "weibull2_thresholds.cfg")
    assert main(["estimate", "--config", cfg, "--runs", "1", "--method", "improved", "--seed", "2"]) == 0
    hit = capsys.readouterr().out.splitlines()[1].split(",")
    # one replication has no sample variance: no standard error, no interval
    assert hit[3] in {"1.407421458702348e-06", "1.4074214587023483e-06"}  # AVX-512, AVX2
    assert hit[5:] == ["nan", "nan", "nan", "nan", "nan", "1", "2"]
    assert main(["estimate", "--config", cfg, "--runs", "1", "--method", "naive,improved", "--seed", "3"]) == 0
    misses = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    # a row without a hit keeps its infinite relative error and one-sided bound
    assert [row[1] for row in misses] == ["naive", "improved"]
    assert misses[0][3:] == ["0.0", "0.0", "nan", "nan", "inf", "0.0", "0.95", "1", "3"]
    assert misses[1][3:] == ["0.0", "0.0", "nan", "nan", "inf", "0.0", "inf", "1", "4"]


@pytest.mark.parametrize("workers", [0, -1, True, 2.5])
def test_workers_below_one_rejected(workers):
    # a library caller's ValueError, or TypeError for a bool or a fraction,
    # which is no worker count; the CLI's config error is
    # test_cli_rejects_fewer_than_one_worker_before_any_solve
    count = isinstance(workers, int) and not isinstance(workers, bool)
    error, match = (ValueError, "workers must be >= 1") if count else (TypeError, "workers must be an integer")
    with pytest.raises(error, match=match):
        run_theta_sweep(small_theta_config(), workers=workers)


@pytest.mark.parametrize(
    "command", ["estimate", "theta-sweep", "threshold-sweep", "efficiency", "diagnose"]
)
def test_cli_output_identical_across_workers(tmp_path, capsys, ran, command):
    if command == "theta-sweep":
        text = LOGNORMAL4_THETA.replace("0.2:0.05:0.95", "0.5:0.2:0.7")
    else:
        text = WEIBULL2_THRESHOLDS
    cfg = write_config(tmp_path, text)
    outputs = []
    for workers in ("1", "2"):
        # two chunks or more per row, so workers=2 really runs the pool
        args = [command, "--config", cfg, "--runs", str(_WIDE_CHUNK_SIZE + 1), "--workers", workers]
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert min(chunk_counts(ran)) >= 2
    assert outputs[0] == outputs[1]


def test_cli_diagnose(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    code = main(["diagnose", "--config", cfg, "--runs", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tail dominance" in out
    assert "satisfied" in out
