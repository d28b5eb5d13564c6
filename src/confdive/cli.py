"""Command-line entry point exposing the pipeline as subcommands.

Exit codes: 0 on success, 1 on usage/config errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .pipeline import (
    PipelineConfig,
    UsageError,
    load_config,
    run_collect,
    run_evaluate,
    run_generate,
    run_gridsearch,
    run_train,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="confdive", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--outdir", metavar="PATH", help="output directory (default: out)")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed")
    common.add_argument("--jobs", type=int, metavar="N", help="parallel workers per stage")
    common.add_argument(
        "--threshold", type=float, metavar="T", help="explicit confidence threshold"
    )
    common.add_argument(
        "--loss-mode", choices=("minibatch", "fullbatch"), help="training loss normalization"
    )
    common.add_argument(
        "--emphasis", choices=("off", "aggressive"), help="solver heuristic emphasis"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.add_parser("generate", parents=[common], help="write seeded instance files")
    sub.add_parser("collect", parents=[common], help="solve train instances into solution pools")
    sub.add_parser("train", parents=[common], help="fit the GCNN on collected pools")
    sub.add_parser("gridsearch", parents=[common], help="rank confidence thresholds on the validation split")
    evaluate = sub.add_parser(
        "evaluate", parents=[common], help="compare plain solve vs diving on the test split"
    )
    evaluate.add_argument("--svg", action="store_true", default=None,
                          help="also write one primal-bound chart per instance")
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file, overridden by each flag given; a flag's ``dest`` is its config key."""
    overrides = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        config = _config_from_args(args)
        if args.command == "generate":
            written = run_generate(config)
            print(f"wrote {len(written)} instance files under {config.out / 'instances'}")
        elif args.command == "collect":
            skipped = run_collect(config)
            print(f"collected pools under {config.out / 'pools'}; {len(skipped)} skipped")
        elif args.command == "train":
            _, curve = run_train(config)
            print(
                f"trained {config.epochs} epochs: loss {curve[0]:.4f} -> {curve[-1]:.4f}; "
                f"model at {config.out / 'model.txt'}"
            )
        elif args.command == "gridsearch":
            report = run_gridsearch(config)
            print(f"grid search done: best t={report.best_t:g} "
                  f"(report at {config.out / 'gridsearch.csv'})")
        elif args.command == "evaluate":
            _, summary = run_evaluate(config)
            for label, (mean_pi, _) in summary.items():
                print(f"{label}: mean primal integral {mean_pi:.3f}")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        traceback.print_exception(type(exc), exc, exc.__traceback__.tb_next, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
