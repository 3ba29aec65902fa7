"""The benchmark's workloads, their inputs and the checks on their outputs.

Each workload mirrors one CLI subcommand: it builds a config document,
calls ``parse_config``, then the runner the CLI dispatches to and the
renderer of its output.  Inputs come only from the workload seed, which
sets the config's base seed.  Why each workload exists is written in
README.md next to this file.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# The components of configs/lognormal4_theta_sweep.cfg and
# configs/weibull4_thresholds.cfg, frozen here so that an edit to those
# example configs cannot change what the benchmark measures between commits.
LOGNORMAL4 = """
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

WEIBULL4 = """
[component]
family = weibull
k = 0.4
beta = 1

[component]
family = weibull
k = 0.8
beta = 1

[component]
family = weibull
k = 0.8
beta = 1

[component]
family = weibull
k = 0.8
beta = 1
"""

# Second moments (conventional, improved) of the lognormal4 theta sweep at
# 25 dB, the reference curve of the package's acceptance suite.
THETA_SWEEP_REFERENCE = {
    0.3: (1.744904803475e-06, 1.43162351180022e-06),
    0.5: (4.06050730679034e-07, 2.3120224916498e-07),
    0.7: (2.08703479000034e-07, 5.49636205211449e-08),
    0.85: (4.55738409657214e-07, 3.52413839666486e-08),
}

SWEEP_COLUMNS = (
    "gamma_db", "method", "theta", "alpha_hat", "second_moment", "std_error",
    "variance", "relative_error", "ci95_low", "ci95_high", "runs", "seed",
)

# Replicate sweeps of one run use base seeds this far apart.  Each sweep row
# draws from base seed + row index, so closer base seeds would make the
# replicates reuse each other's random streams.
SEED_STRIDE = 1000

# Replications per estimate in the self-test's smoke runs: one chunk.
SMOKE_RUNS = 1 << 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand whose runner this workload calls
    grid: str  # the config line that sets the sweep grid
    components: str
    runs: int
    workers: int
    smoke_grid: str

    def config_text(self, seed: int, smoke: bool = False) -> str:
        grid = self.smoke_grid if smoke else self.grid
        runs = SMOKE_RUNS if smoke else self.runs
        head = f"{grid}\nruns = {runs}\nseed = {seed}\nmethods = conventional,improved\n"
        return head + self.components

    def rows_expected(self, config) -> int:
        grid = config.theta_grid if self.command == "theta-sweep" else config.gamma_grid_db
        return len(grid) * len(config.methods)

    def runner(self, tt):
        """The runner that the CLI dispatches to for this workload."""
        return tt.run_theta_sweep if self.command == "theta-sweep" else tt.run_threshold_sweep

    def repro_config_text(self, seed: int) -> str:
        """One row spanning two chunks, for the worker-count byte-identity check."""
        runs = "runs = 65537\n"
        if self.command == "theta-sweep":
            head = "gamma_db = 25\ntheta_grid = 0.85:0.05:0.85\n"
        else:
            head = "gamma_grid_db = 26:1:26\n"
        return head + runs + f"seed = {seed}\nmethods = improved\n" + self.components


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lognormal4-theta",
            command="theta-sweep",
            grid="gamma_db = 25\ntheta_grid = 0.2:0.05:0.95",
            components=LOGNORMAL4,
            runs=1 << 17,
            workers=2,
            smoke_grid="gamma_db = 25\ntheta_grid = 0.2:0.05:0.95",
        ),
        Workload(
            name="weibull4-threshold",
            command="threshold-sweep",
            grid="gamma_grid_db = 20:1:32",
            components=WEIBULL4,
            runs=1 << 18,
            workers=1,
            smoke_grid="gamma_grid_db = 20:3:26",
        ),
    )
}


def parse_sweep(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError("sweep output does not start with the sweep CSV header")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(SWEEP_COLUMNS):
            raise ValueError(f"malformed sweep row: {line!r}")
        row = dict(zip(SWEEP_COLUMNS, fields))
        for key in SWEEP_COLUMNS:
            if key != "method":
                row[key] = float(row[key])
        rows.append(row)
    return rows


def row_failed(row: dict) -> bool:
    return not (math.isfinite(row["alpha_hat"]) and row["alpha_hat"] > 0.0
                and math.isfinite(row["relative_error"]))


def cost_to_1pct(relvar_runs, cpu_s: float, replications: int) -> float:
    """CPU-seconds for 1% relative error: median of RE^2 * runs over the
    estimates, times CPU-seconds per replication, times 1e4."""
    return statistics.median(relvar_runs) * cpu_s / replications * 1e4


def check_theta_reference(sweeps: list[list[dict]]) -> list[str]:
    """Second moments pooled over replicate sweeps against the reference curve.

    Tolerance is the acceptance suite's: the larger of 3 standard errors of
    the pooled second moment and 10% of the reference.
    """
    problems = []
    for theta, refs in THETA_SWEEP_REFERENCE.items():
        for method, ref in zip(("conventional", "improved"), refs):
            rows = [r for rows in sweeps for r in rows
                    if r["method"] == method and math.isclose(r["theta"], theta)]
            if not rows:
                problems.append(f"no {method} row at theta {theta}")
                continue
            mean = statistics.fmean(r["second_moment"] for r in rows)
            se = math.sqrt(sum(r["std_error"] ** 2 for r in rows)) / len(rows)
            if abs(mean - ref) > max(3.0 * se, 0.10 * ref):
                problems.append(
                    f"{method} second moment at theta {theta}: {mean!r} vs "
                    f"reference {ref!r} (pooled SE {se!r}, {len(rows)} sweeps)"
                )
    return problems


def check_methods_agree(sweeps: list[list[dict]]) -> list[str]:
    """Conventional and improved tail estimates, each pooled over replicate
    sweeps, agree within 4 combined standard errors at every threshold."""
    pooled: dict[tuple[float, str], list[dict]] = {}
    for rows in sweeps:
        for r in rows:
            pooled.setdefault((r["gamma_db"], r["method"]), []).append(r)
    problems = []
    for gamma in sorted({g for g, _ in pooled}):
        stats = {}
        for method in ("conventional", "improved"):
            rows = pooled.get((gamma, method), [])
            if not rows:
                problems.append(f"no {method} row at {gamma} dB")
                break
            mean = statistics.fmean(r["alpha_hat"] for r in rows)
            var_of_mean = sum(r["variance"] / r["runs"] for r in rows) / len(rows) ** 2
            stats[method] = (mean, var_of_mean)
        else:
            (a, va), (b, vb) = stats["conventional"], stats["improved"]
            if abs(a - b) > 4.0 * math.sqrt(va + vb):
                problems.append(
                    f"methods disagree at {gamma} dB: conventional {a!r}, "
                    f"improved {b!r}, combined SE {math.sqrt(va + vb)!r}"
                )
    return problems
