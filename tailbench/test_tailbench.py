"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q tailbench/test_tailbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, covered, layer_metrics, self_time
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def tt():
    return run.load_package(ROOT / "src")


def span(sid, parent, name, start, end, thread=1):
    return Span(sid, parent, name, thread, float(start), float(end))


def test_covered_merges_overlaps_and_clips_to_the_parent():
    parent = span(1, None, "estimators.estimate_improved", 0, 10)
    kids = [
        span(2, 1, "streams.uniforms", 1, 3),
        span(3, 1, "streams.uniforms", 2, 5),
        span(4, 1, "streams.uniforms", 8, 12),
    ]
    assert covered(parent, kids) == pytest.approx(4.0 + 2.0)
    assert self_time([parent] + kids, "estimators") == pytest.approx(4.0)
    assert self_time([parent] + kids, "streams") == pytest.approx(2 + 3 + 4)


def test_layer_metrics_of_a_two_worker_estimate():
    spans = [
        span(1, None, "estimators.estimate_conventional", 0, 10),
        span(2, 1, "estimators.chunk", 0, 6, thread=2),
        span(3, 1, "estimators.chunk", 0, 8, thread=3),
        span(4, 2, "streams.uniforms", 0, 1, thread=2),
        span(5, 2, "distributions.inverse_cumulative_hazard", 1, 4, thread=2),
        span(6, 5, "normal_tail.upper_tail_quantile_from_log", 1, 3, thread=2),
        span(7, None, "twist_optimizer.solve_p", 10, 10.5),
        span(8, None, "twist_optimizer.solve_p", 11, 11.1),
        span(9, None, "twist_optimizer.solve_p", 12, 12.2),
    ]
    m = layer_metrics(spans, hazard_evals=42, workers=2)
    # estimate: 10 - 8 covered by chunks; chunks: (6 - 4) + 8
    assert m["estimators.self_s"] == pytest.approx(2.0 + 2.0 + 8.0)
    assert m["estimators.pool_util"] == pytest.approx((6 + 8) / (2 * 10))
    assert m["estimators.chunks"] == 2
    assert m["distributions.inv_hazard_s"] == pytest.approx(3.0)
    assert m["normal_tail.quantile_s"] == pytest.approx(2.0)
    assert m["twist_optimizer.solve_p_ms"] == pytest.approx(200.0)
    assert m["twist_optimizer.calls"] == 3
    assert m["twist_optimizer.hazard_evals"] == 42
    assert m["twist_optimizer.theta_conventional_ms"] == 0.0


def test_a_raising_runner_fails_all_its_rows(tt, monkeypatch):
    # no config that parses makes the sweep runners raise, so stand in one that does
    def raises(config, workers):
        raise ArithmeticError("estimate diverged")

    monkeypatch.setattr(tt, "run_threshold_sweep", raises)
    workload = dataclasses.replace(WORKLOADS["weibull4-threshold"], grid="gamma_grid_db = 20:1:21")
    rep = run.run_rep(tt, workload, seed=5, smoke=False)
    assert rep.error == "ArithmeticError: estimate diverged"
    assert rep.attempted == rep.failed == 4
    assert rep.cost_1pct is None


def test_rows_without_an_estimate_are_counted_one_by_one(tt):
    workload = dataclasses.replace(
        WORKLOADS["lognormal4-theta"], grid="gamma_db = 25\ntheta_grid = 0.2:0.05:0.3", runs=1 << 9
    )
    rep = run.run_rep(tt, workload, seed=3, smoke=False)
    zero = sum(r["alpha_hat"] == 0.0 for r in rep.rows)
    assert rep.error is None and rep.attempted == 6
    assert 0 < zero < 6
    assert rep.failed == zero


def _names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "tailbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_without_the_package_it_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "tailbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "tailbench/run.py", "--workload", "lognormal4-theta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
