"""Command-line experiment runner.

Subcommands: run, ablation, sensitivity. Exit codes: 0 on success, 1 for
configuration errors (a bad command line or an unknown config key
included), 2 for data errors.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .data import DataError
from .harness import ConfigError, cmd_ablation, cmd_run, cmd_sensitivity, load_run_config


class _Parser(argparse.ArgumentParser):
    # a bad command line is a config error (exit 1); exit 2 means a data error
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def _add_flags(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
    sub.add_argument("--config", required=True, help="run config or dataset manifest (YAML)")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--subsample", type=int, help="stratified row cap for large datasets")
    sub.add_argument("--bins", type=int, help="discretization bin count")
    sub.add_argument("--seeds", type=int, nargs="+", help="override the seed battery")
    sub.add_argument("--threads", type=int,
                     help="threads that score each batch's new masks; results and counters do not depend on it")
    sub.add_argument("--pm", type=float, help="mutation probability")
    sub.add_argument("--alpha", type=float, help="fitness trade-off coefficient")
    sub.add_argument("--k", type=int, help="KNN neighbour count")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainga",
        description="Feature selection with a gain-ratio-guided chained multi-population GA",
    )
    parser.add_argument("--version", action="version", version=f"chainga {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_flags(commands.add_parser("run", help="seed battery with the configured flags"))
    _add_flags(commands.add_parser("ablation", help="six-row operator-flag ablation"))
    sensitivity = _add_flags(commands.add_parser("sensitivity", help="sweep M or S"))
    sensitivity.add_argument("--parameter", required=True, choices=["M", "S", "m", "s"])
    sensitivity.add_argument("--values", required=True, type=int, nargs="+")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)

    try:
        overrides = {key: args[key] for key in ("seeds", "subsample", "threads", "bins")}
        cfg = load_run_config(args["config"], **overrides)
        for key, flag in (("mutation_prob", "pm"), ("alpha", "alpha"), ("knn_k", "k")):
            if args[flag] is not None:
                cfg.evolution[key] = args[flag]
        cfg.evolution_config(0)  # fail fast on bad evolution settings

        command, out = args["command"], args["out"]
        if command == "run":
            cmd_run(cfg, out)
        elif command == "ablation":
            cmd_ablation(cfg, out)
        elif command == "sensitivity":
            cmd_sensitivity(cfg, args["parameter"], args["values"], out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
