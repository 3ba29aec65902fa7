#!/usr/bin/env python3
"""tailtwist benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 tailbench/run.py --workload lognormal4-theta --seed 1 --seconds 20 --trace 0

Workloads: lognormal4-theta and weibull4-threshold (see README.md next to
this file for why each exists).  The package is imported
from ``src/`` of the working directory; without it the benchmark exits
with status 1 and prints no result.

--trace 0 times replicate sweeps with tracing off, takes a set-up sample
after each, and reports the end-to-end metrics.  --trace 1 alternates untraced and traced sweeps and
reports the per-layer metrics, the kernel and solver probes and the
tracing overhead.  Either way the outputs are checked, an environment
record is printed, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Details of the run
(every replicate, and in traced runs every span) are written to
``.tailbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import (
    SEED_STRIDE,
    WORKLOADS,
    check_methods_agree,
    check_theta_reference,
    cost_to_1pct,
    parse_sweep,
    row_failed,
)

SETUP_SAMPLES = 15
MIN_REPS = 2
OUT_DIR = ".tailbench_out"
LIMITS = (
    "measured on a machine shared with other tenants: "
    "times cover this process and its children only (no system-wide "
    "tracing), and CPU frequency, caches and co-tenant load are not controlled"
)

# Fresh interpreter to ready: what every CLI invocation pays before work.
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tailtwist, tailtwist.cli\n"
    "tailtwist.parse_config(sys.stdin.read())\n"
    "print('ready', flush=True)\n"
)


def load_package(src: Path):
    if not (src / "tailtwist" / "__init__.py").is_file():
        raise SystemExit(f"tailbench: no tailtwist package under {src}")
    sys.path.insert(0, str(src))
    import tailtwist

    if Path(tailtwist.__file__).resolve().parent != (src / "tailtwist").resolve():
        raise SystemExit(f"tailbench: imported tailtwist from {tailtwist.__file__}, not {src}")
    return tailtwist


def setup_seconds(src: Path, config_text: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(src)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdin.write(config_text)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


@dataclass
class Rep:
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    cost_1pct: float | None
    rows: list = field(default_factory=list)
    error: str | None = None
    layers: dict | None = None
    spans: list | None = None


def run_rep(tt, workload, seed: int, smoke: bool, tracer=None) -> Rep:
    """One sweep: parse the config, run the runner, render its output."""
    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    config = call("experiments.parse_config", tt.parse_config, workload.config_text(seed, smoke))
    runner = workload.runner(tt)
    expected = workload.rows_expected(config)
    output, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = call(f"experiments.{runner.__name__}", runner, config, workload.workers)
        output = call("experiments.render", tt.sweep_rows_to_csv, result)
    except (ValueError, ArithmeticError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    rows = []
    if output is not None:
        try:
            rows = parse_sweep(output)
        except ValueError as exc:
            error = str(exc)
    failed = sum(row_failed(r) for r in rows) + max(expected - len(rows), 0)
    relvar_runs = [r["relative_error"] ** 2 * r["runs"] for r in rows
                   if math.isfinite(r["relative_error"])]
    replications = sum(r["runs"] for r in rows)
    cost = cost_to_1pct(relvar_runs, cpu, replications) if relvar_runs else None
    return Rep(seed, tracer is not None, wall, cpu, expected, failed, cost, rows, error)


def rep_seed(seed: int, index: int) -> int:
    return (seed * 1000 + index) * SEED_STRIDE


def measure(tt, workload, seed, seconds, smoke, traced, setup=None) -> list[Rep]:
    """Replicate sweeps for `seconds`; traced runs alternate untraced and traced.

    Given a list `setup`, each sweep is followed by one set-up sample that is
    appended to it, until it holds at least SETUP_SAMPLES; spreading them over
    the run lets their median ride out bursts of co-tenant load.
    """
    run_rep(tt, workload, rep_seed(seed, 999), smoke=True)  # warm-up, not reported
    src = Path(tt.__file__).resolve().parent.parent
    if setup is not None:
        setup_seconds(src, workload.config_text(rep_seed(seed, 0), smoke))  # warm-up: caches
    reps: list[Rep] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(reps) < MIN_REPS * (2 if traced else 1)
           or (setup is not None and len(setup) < SETUP_SAMPLES)):
        index = len(reps)
        if traced and index % 2 == 1:
            tracer = Tracer()
            tracer.install()
            try:
                rep = run_rep(tt, workload, rep_seed(seed, index), smoke, tracer)
            finally:
                tracer.uninstall()
            rep.layers = layer_metrics(tracer.spans, tracer.hazard_evals, workload.workers)
            rep.spans = [s.to_json() for s in tracer.spans]
            if tracer.missing:
                print(f"tailbench: entry points not found: {tracer.missing}", file=sys.stderr)
        else:
            rep = run_rep(tt, workload, rep_seed(seed, index), smoke)
        reps.append(rep)
        if setup is not None:
            setup.append(setup_seconds(src, workload.config_text(rep.seed, smoke)))
    return reps


def check_outputs(tt, workload, seed: int, reps: list[Rep]) -> list[str]:
    problems = [f"replicate {r.seed}: {r.error}" for r in reps if r.error]
    failed = sum(r.failed for r in reps)
    if failed:
        problems.append(f"{failed} rows without a finite, positive estimate")
    sweeps = [r.rows for r in reps if r.error is None]
    if workload.command == "theta-sweep":
        problems += check_theta_reference(sweeps)
    elif workload.command == "threshold-sweep":
        problems += check_methods_agree(sweeps)

    config = tt.parse_config(workload.repro_config_text(rep_seed(seed, 998)))
    runner = workload.runner(tt)
    one, two = (tt.sweep_rows_to_csv(runner(config, workers)) for workers in (1, 2))
    if one != two:
        problems.append("output differs between workers=1 and workers=2")
    return problems


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(tt, root: Path) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "tailtwist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tailtwist": tt.__version__,
        "git_commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "limits": LIMITS,
    }


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "setup_s": median_of(setup),
        "wall_s": median_of(r.wall_s for r in reps),
        "cpu_s": median_of(r.cpu_s for r in reps),
        "cpu_s_to_1pct": median_of(r.cost_1pct for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(tt, reps: list[Rep], seed: int) -> dict:
    from probes import dominance_probe, kernel_probes, solver_probes

    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    metrics = {k: median_of(r.layers[k] for r in traced) for k in traced[0].layers}
    metrics["trace_overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced) - 1.0
    )
    metrics.update(kernel_probes(tt, rep_seed(seed, 997)))
    metrics.update(solver_probes(tt))
    metrics.update(dominance_probe(tt))
    return metrics


def declared_units(root: Path, kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweeps, for the benchmark's self-test")
    args = parser.parse_args(argv)

    # the chunk pool is the only parallelism; keep native libraries serial
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    root = Path.cwd()
    tt = load_package(root / "src")
    workload = WORKLOADS[args.workload]

    setup = None if args.trace else []
    reps = measure(tt, workload, args.seed, args.seconds, args.smoke, bool(args.trace), setup)
    values = per_layer(tt, reps, args.seed) if args.trace else end_to_end(reps, setup)
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    problems = check_outputs(tt, workload, args.seed, reps)
    env = environment(tt, root)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_s": setup, "problems": problems,
        "metrics": metrics,
        "replicates": [
            {"seed": r.seed, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "cpu_s_to_1pct": r.cost_1pct, "attempted": r.attempted, "failed": r.failed,
             "error": r.error, "layers": r.layers, "spans": r.spans}
            for r in reps
        ],
    }
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps({"env": env}))
    print(f"workload {workload.name}: {len(reps)} sweeps, details in {out_file.relative_to(root)}")
    for name, metric in metrics.items():
        print(f"  {name:58s} {metric['value']!r} {metric['unit']}")
    attempted, failed = sum(r.attempted for r in reps), sum(r.failed for r in reps)
    print(f"  failed_frac {failed / attempted!r}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
