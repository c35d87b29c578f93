"""Command-line entry point.

Subcommands mirror the pipeline stages: {commands}.
`COMMANDS` is the one table of them. `--seed`, `--out`, `--workers` and
`--epochs` override the config keys `master_seed`, `out_dir`, `workers` and
`train.epochs`; `--observer` only selects work. The
VOBS_OUT environment variable sets the default output root.

`--workers` (config key `workers`, default 1) runs {forked} in
forked workers with one BLAS thread each, with
{fan_outs} per task;
outputs are byte-identical for any value.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
3 I/O or data-format error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import pipeline
from .config import default_out_root, load_config
from .errors import ConfigError, DataFormatError, NumericalError, VobsError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load(args, epochs=None):
    return load_config(args.config, seed=args.seed, out_dir=args.out,
                       workers=args.workers, epochs=epochs)


# Each runner looks its stage up on `pipeline` when it runs, so a wrapper set
# on that module's global (perfbench's tracer) is the one that runs.

def _simulate(args) -> None:
    manifest = pipeline.simulate_corpus(_load(args))
    totals = manifest["totals"]
    regimes = manifest["regimes"]
    print(f"simulated {totals['n_trajectories']} trajectories, "
          f"{totals['n_frames']} frames "
          f"(low-g: {regimes['low_g']}, high-g: {regimes['high_g']})")


def _dataset(args) -> None:
    c = pipeline.build_dataset(_load(args))
    print(f"dataset built: {c['train']} train / {c['val']} val windows, "
          f"{c['test_trajectories']} test trajectories")


def _train(args) -> None:
    names = None if args.observer is None else [args.observer]
    for res in pipeline.train_all(_load(args, epochs=args.epochs), names):
        print(f"trained '{res['observer']}': {res['epochs']} epochs, "
              f"best val loss {res['best_val_loss']:.6g}")


def _evaluate(args) -> None:
    print(pipeline.evaluate_run(_load(args)), end="")


def _report(args) -> None:
    print(pipeline.render_report(args.out), end="")


class Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], None]
    flags: tuple = ()    # (flag, `add_argument` keywords) of each option of its own
    stage: bool = True   # reads a run config, so takes --config, --seed, --out, --workers
    fan_out: str = ""    # one task of its forked workers, if it forks any


COMMANDS = {
    "simulate": Command("generate the maneuver corpus", _simulate, fan_out="one maneuver"),
    "dataset": Command("split, scale, and window the corpus", _dataset),
    "train": Command("train learned observers", _train, fan_out="one observer", flags=(
        ("--observer", dict(default=None, help="train only this configured observer")),
        ("--epochs", dict(type=int, default=None, help="override the epoch count")))),
    "evaluate": Command("run observers on the test split", _evaluate,
                        fan_out="one (observer, test trajectory) pair"),
    "report": Command("re-render tables from a stored report", _report, stage=False, flags=(
        ("--out", dict(required=True, help="run directory holding eval/report.csv")),)),
}


def _series(words, conjunction: str) -> str:
    """`words` as an English list: "a, b and c"."""
    *rest, last = words
    return f"{', '.join(rest)} {conjunction} {last}" if rest else last


_FAN_OUTS = {name: c.fan_out for name, c in COMMANDS.items() if c.fan_out}
__doc__ = __doc__.format(commands=", ".join(COMMANDS), forked=_series(_FAN_OUTS, "and"),
                         fan_outs=_series(_FAN_OUTS.values(), "or"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vobs",
                     description="vehicle velocity/yaw-rate observer workbench")
    subs = parser.add_subparsers(dest="command", required=True)
    stage_flags = (
        ("--config", dict(required=True, help="run configuration YAML")),
        ("--seed", dict(type=int, default=None, help="override the master seed")),
        ("--out", dict(default=None, help="output directory (default root from ${VOBS_OUT} "
                                          f"or '{default_out_root()}')")),
        ("--workers", dict(type=int, default=None, help=(
            f"forked workers with one BLAS thread each: "
            f"{_series(_FAN_OUTS.values(), 'or')} per task; outputs are byte-identical "
            f"for any value"))),
    )
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.set_defaults(parser=sub)  # an unknown option is a usage error of `name`
        for flag, options in (stage_flags if command.stage else ()) + command.flags:
            sub.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        COMMANDS[args.command].run(args)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
