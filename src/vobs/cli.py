"""Command-line entry point.

Subcommands mirror the pipeline stages: simulate, dataset, train, evaluate,
report, gradcheck. Every flag overrides the corresponding config key; the
VOBS_OUT environment variable sets the default output root.

`--workers` (config key `workers`, default 1) runs simulate, train and
evaluate in forked workers with one BLAS thread each, one maneuver, one
observer or one (observer, test trajectory) pair per task; outputs are
byte-identical for any value.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
3 I/O or data-format error.
"""

from __future__ import annotations

import argparse
import sys

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


def _add_common(sub):
    sub.add_argument("--config", required=True,
                     help="run configuration YAML")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    sub.add_argument("--out", default=None,
                     help=f"output directory (default root from ${'{'}VOBS_OUT{'}'} "
                          f"or '{default_out_root()}')")
    sub.add_argument("--workers", type=int, default=None,
                     help="forked workers with one BLAS thread each: one maneuver, "
                          "one observer or one (observer, test trajectory) pair per "
                          "task; outputs are byte-identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vobs",
                     description="vehicle velocity/yaw-rate observer workbench")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate the maneuver corpus")
    _add_common(sim)

    data = subs.add_parser("dataset", help="split, scale, and window the corpus")
    _add_common(data)

    train = subs.add_parser("train", help="train learned observers")
    _add_common(train)
    train.add_argument("--observer", default=None,
                       help="train only this configured observer")
    train.add_argument("--epochs", type=int, default=None,
                       help="override the epoch count")

    ev = subs.add_parser("evaluate", help="run observers on the test split")
    _add_common(ev)
    ev.add_argument("--no-traces", action="store_true",
                    help="skip writing per-trajectory estimate traces")

    rep = subs.add_parser("report", help="re-render tables from a stored report")
    rep.add_argument("--out", required=True, help="run directory holding eval/report.csv")

    grad = subs.add_parser("gradcheck", help="verify gradients against finite differences")
    grad.add_argument("--out", default=".", help="directory for gradcheck.csv")
    grad.add_argument("--corrupt", action="store_true",
                      help="deliberately corrupt one gradient block (self-test)")
    return parser


def _load(args, epochs=None):
    return load_config(args.config, seed=args.seed, out_dir=args.out,
                       workers=args.workers, epochs=epochs)


def _dispatch(args) -> int:
    if args.command == "simulate":
        manifest = pipeline.simulate_corpus(_load(args))
        totals = manifest["totals"]
        regimes = manifest["regimes"]
        print(f"simulated {totals['n_trajectories']} trajectories, "
              f"{totals['n_frames']} frames "
              f"(low-g: {regimes['low_g']}, high-g: {regimes['high_g']})")
        return EXIT_OK

    if args.command == "dataset":
        info = pipeline.build_dataset(_load(args))
        c = info["counts"]
        print(f"dataset built: {c['train']} train / {c['val']} val windows, "
              f"{c['test_trajectories']} test trajectories")
        return EXIT_OK

    if args.command == "train":
        cfg = _load(args, epochs=args.epochs)
        if args.observer is not None:
            results = [pipeline.train_observer_model(cfg, args.observer)]
        else:
            results = pipeline.train_all(cfg)
        for res in results:
            print(f"trained '{res['observer']}': {res['epochs']} epochs, "
                  f"best val loss {res['best_val_loss']:.6g}")
        return EXIT_OK

    if args.command == "evaluate":
        cfg = _load(args)
        report = pipeline.evaluate_run(cfg, write_traces=not args.no_traces)
        from .evaluation import format_report_text
        print(format_report_text(report), end="")
        return EXIT_OK

    if args.command == "report":
        print(pipeline.render_report(args.out), end="")
        return EXIT_OK

    if args.command == "gradcheck":
        worst = pipeline.run_gradient_check(args.out, corrupt=args.corrupt)
        print(f"max relative gradient error: {worst:.3e}")
        if worst >= 1e-4:
            raise NumericalError(
                f"gradient check failed: {worst:.3e} >= 1e-4")
        print("gradient check passed")
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
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
