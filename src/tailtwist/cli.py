"""Command-line front end.

Subcommands:
    estimate         one estimate per method at the configured threshold
    theta-sweep      second moment across a theta grid
    threshold-sweep  second moment across a threshold grid (minmax theta)
    efficiency       variance-reduction factors across a threshold grid
    diagnose         tail-dominance and optimality diagnostics

Exit codes: 0 success, 2 config error, 3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    DiagnosticsReport,
    efficiency_rows_to_csv,
    parse_config,
    parse_methods,
    run_diagnostics,
    run_efficiency_sweep,
    run_single_estimate,
    run_theta_sweep,
    run_threshold_sweep,
    sweep_rows_to_csv,
)

# subcommand -> (runner, renderer of the runner's result)
_COMMANDS = {
    "estimate": (run_single_estimate, sweep_rows_to_csv),
    "theta-sweep": (run_theta_sweep, sweep_rows_to_csv),
    "threshold-sweep": (run_threshold_sweep, sweep_rows_to_csv),
    "efficiency": (run_efficiency_sweep, efficiency_rows_to_csv),
    "diagnose": (run_diagnostics, DiagnosticsReport.to_text),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailtwist",
        description=(
            "Estimate P(sum of heavy-tailed components > threshold) by "
            "hazard-rate twisting importance sampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--runs", type=int, help="override replications per estimate")
        p.add_argument("--method", help="override methods, comma-separated")
        p.add_argument("--workers", type=int, default=1, help="parallel chunk workers")
    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or the file at ``path`` opened for writing at once,
    so an unwritable path is a config error before any estimate runs."""
    try:
        with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as sink:
            yield sink
    except OSError as exc:
        raise ConfigError(None, f"cannot write output: {exc}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # before any solve runs, as the runs and seed overrides are checked
        if args.workers < 1:
            raise ConfigError(None, "workers must be >= 1")
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(None, f"cannot read config: {exc}")
        config = parse_config(text)
        methods = parse_methods(args.method) if args.method is not None else None
        config = config.override(runs=args.runs, seed=args.seed, methods=methods)
        runner, render = _COMMANDS[args.command]
        with _output(args.out) as sink:
            sink.write(render(runner(config, args.workers)))
    except ConfigError as exc:
        print(f"tailtwist: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"tailtwist: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
