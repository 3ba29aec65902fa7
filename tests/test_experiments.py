import textwrap
from pathlib import Path

import pytest

from tailtwist import experiments
from tailtwist.cli import main
from tailtwist.dominance import DominanceVerdict, select_dominant
from tailtwist.estimators import CHUNK_SIZE, Method, efficiency, optimality_ratio
from tailtwist.experiments import (
    EFFICIENCY_HEADER,
    MAX_GRID_POINTS,
    SWEEP_HEADER,
    ConfigError,
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


def test_zero_shape_rejected_with_anchored_message():
    text = WEIBULL2_THRESHOLDS.replace("k = 0.4", "k = 0")
    with pytest.raises(ConfigError, match="weibull_shape must be > 0") as exc_info:
        parse_config(text)
    assert "line" in str(exc_info.value)


def test_mixed_families_rejected():
    text = LOGNORMAL4_THETA.replace(
        "family = lognormal\nmu_db = 0\nsigma_db = 4",
        "family = weibull\nk = 0.4\nbeta = 1",
        1,
    )
    assert "weibull" in text
    with pytest.raises(ConfigError, match="mixed families"):
        parse_config(text)


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="unknown key 'shape'"):
        parse_config("gamma_db = 20\n[component]\nfamily = weibull\nshape = 1\n")


def test_wrong_family_parameter_rejected():
    text = "gamma_db = 20\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\nsigma_db = 4\n"
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(text)


def test_bad_grid_rejected():
    with pytest.raises(ConfigError, match="positive step"):
        parse_config("theta_grid = 0.2:0:0.9\ngamma_db = 20\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n")
    with pytest.raises(ConfigError, match="stop >= start"):
        parse_config("theta_grid = 0.9:0.1:0.2\ngamma_db = 20\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n")


def test_exclusive_grids_rejected():
    text = "theta_grid = 0.2:0.1:0.4\ngamma_grid_db = 20:1:22\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n"
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(text)


def test_empty_methods_rejected():
    text = WEIBULL2_THRESHOLDS.replace("methods = conventional,improved", "methods = ")
    with pytest.raises(ConfigError, match="methods"):
        parse_config(text)


def test_missing_gamma_rejected():
    with pytest.raises(ConfigError, match="gamma_db"):
        parse_config("[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'gamma_db'"):
        parse_config("gamma_db = 20\ngamma_db = 21\n[component]\nfamily = weibull\nk = 0.4\nbeta = 1\n")


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


def test_runs_must_be_positive():
    text = WEIBULL2_THRESHOLDS.replace("runs = 5000", "runs = 0")
    with pytest.raises(ConfigError, match="runs"):
        parse_config(text)


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


def test_csv_reproducible_across_workers():
    config = small_theta_config()
    base = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    again = sweep_rows_to_csv(run_theta_sweep(config, workers=1))
    parallel = sweep_rows_to_csv(run_theta_sweep(config, workers=4))
    assert base == again == parallel


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


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["estimate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_wrong_experiment_for_config(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    # a threshold-sweep config has no theta grid: that is a config error
    assert main(["theta-sweep", "--config", cfg]) == 2


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    # variance is identically zero when a single run is requested twice
    text = WEIBULL2_THRESHOLDS.replace("runs = 5000", "runs = 1")
    cfg = write_config(tmp_path, text)
    assert main(["efficiency", "--config", cfg]) == 3


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_theta_sweep(small_theta_config(), workers=workers)
    cfg = write_config(tmp_path, LOGNORMAL4_THETA)
    assert main(["theta-sweep", "--config", cfg, "--runs", "100", "--workers", str(workers)]) == 3
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["estimate", "theta-sweep", "threshold-sweep", "efficiency", "diagnose"]
)
def test_cli_output_identical_across_workers(tmp_path, capsys, command):
    if command == "theta-sweep":
        text = LOGNORMAL4_THETA.replace("0.2:0.05:0.95", "0.5:0.2:0.7")
    else:
        text = WEIBULL2_THRESHOLDS
    cfg = write_config(tmp_path, text)
    outputs = []
    for workers in ("1", "2"):
        # two chunks, so workers=2 really runs the pool
        args = [command, "--config", cfg, "--runs", str(CHUNK_SIZE + 1), "--workers", workers]
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_diagnose(tmp_path, capsys):
    cfg = write_config(tmp_path, WEIBULL2_THRESHOLDS)
    code = main(["diagnose", "--config", cfg, "--runs", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tail dominance" in out
    assert "satisfied" in out
