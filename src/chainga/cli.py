"""Command-line experiment runner.

Subcommands: run, ablation, sensitivity, omega-dump. Exit codes: 0 on
success, 1 for configuration errors, 2 for data errors.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .data import DataError
from .harness import (
    ConfigError,
    cmd_ablation,
    cmd_omega_dump,
    cmd_run,
    cmd_sensitivity,
    load_run_config,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="run config or dataset manifest (YAML)")
    sub.add_argument("--out", required=True, help="output directory (file for omega-dump)")
    sub.add_argument("--seeds", type=int, nargs="+", help="override the seed battery")
    sub.add_argument("--subsample", type=int, help="stratified row cap for large datasets")
    sub.add_argument("--threads", type=int,
                     help="threads that score each batch's new masks; results and counters do not depend on it")
    sub.add_argument("--bins", type=int, help="discretization bin count")
    sub.add_argument("--pm", type=float, help="mutation probability")
    sub.add_argument("--alpha", type=float, help="fitness trade-off coefficient")
    sub.add_argument("--k", type=int, help="KNN neighbour count")
    sub.add_argument("--omega-cache", help="path for the gain-ratio matrix cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainga",
        description="Feature selection with a gain-ratio-guided chained multi-population GA",
    )
    parser.add_argument("--version", action="version", version=f"chainga {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_common(commands.add_parser("run", help="seed battery with the configured flags"))
    _add_common(commands.add_parser("ablation", help="six-row operator-flag ablation"))
    sensitivity = commands.add_parser("sensitivity", help="sweep M or S")
    _add_common(sensitivity)
    sensitivity.add_argument("--parameter", required=True, choices=["M", "S", "m", "s"])
    sensitivity.add_argument("--values", required=True, type=int, nargs="+")
    _add_common(commands.add_parser("omega-dump", help="precompute the gain-ratio matrix"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)

    try:
        cfg = load_run_config(
            args.config,
            seeds=args.seeds,
            subsample=args.subsample,
            threads=args.threads,
            bins=args.bins,
            omega_cache=args.omega_cache,
        )
        for key, value in (
            ("mutation_prob", args.pm),
            ("alpha", args.alpha),
            ("knn_k", args.k),
        ):
            if value is not None:
                cfg.evolution[key] = value
        cfg.evolution_config(0)  # fail fast on bad evolution settings

        if args.command == "run":
            cmd_run(cfg, args.out)
        elif args.command == "ablation":
            cmd_ablation(cfg, args.out)
        elif args.command == "sensitivity":
            cmd_sensitivity(cfg, args.parameter, args.values, args.out)
        elif args.command == "omega-dump":
            cmd_omega_dump(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
