"""Command-line front end.

Subcommands:
  eval            single grid point of a scenario
  sweep           full scenario sweep
  validate        check a config without running it
  list-scenarios  show the packaged scenario files

Exit codes: 0 success, 1 validation failure, 2 numerical-accuracy
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import AccuracyError, ParameterError
from .scenario import (
    ScenarioError,
    builtin_scenarios,
    emit,
    load_config,
    run_scenario,
    validate_config,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCURACY = 2
EXIT_IO = 3


def _add_run_flags(sub):
    sub.add_argument("scenario", help="scenario file path or built-in name")
    sub.add_argument("--seed", type=int, default=None, help="override RNG seed")
    sub.add_argument("--trials", type=int, default=None,
                     help="override Monte Carlo trial count")
    sub.add_argument("--methods", default=None,
                     help="comma-separated subset: closed-form,quadrature,monte-carlo")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path ('-' = stdout)")
    sub.add_argument("--workers", type=int, default=1,
                     help="largest process pool for grid points (>= 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: `main` may run many times
    in one (perfbench calls it in-process), and each
    `parse_args` starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="jamsec",
        description="Secrecy metrics for jammer-assisted vehicular links",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate one grid point")
    _add_run_flags(ev)
    ev.add_argument("--at", type=float, required=True,
                    help="axis value to evaluate at")

    sw = subs.add_parser("sweep", help="run a full scenario sweep")
    _add_run_flags(sw)

    va = subs.add_parser("validate", help="validate a scenario config")
    va.add_argument("scenario", help="scenario file path or built-in name")

    subs.add_parser("list-scenarios", help="list packaged scenarios")
    return parser


def _methods_arg(raw):
    if raw is None:
        return None
    return [m.strip() for m in raw.split(",") if m.strip()]


def _describe(exc: AccuracyError) -> str:
    """The failure's message, the cell it was raised for (when a scenario
    run set one) and its best value and error estimate, on one line."""
    parts = [str(exc)]
    cell = exc.cell
    if cell is not None:
        zeta = cell["threshold_db"]
        parts.append(f"variant {cell['variant'] or 'none'}, metric {cell['metric']}, "
                     f"threshold {'none' if zeta is None else f'{zeta:g}dB'}, "
                     f"{cell['axis']} {cell['axis_value']!r}, method {cell['method']}")
    parts.append(f"best {exc.best!r}, error_estimate {exc.error_estimate!r}")
    return "; ".join(parts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name, desc in builtin_scenarios().items():
                first = desc.splitlines()[0] if desc else ""
                print(f"{name}: {first}" if first else name)
            return EXIT_OK

        if args.command == "validate":
            diags = validate_config(load_config(args.scenario))
            for d in diags:
                print(d, file=sys.stderr)
            return EXIT_OK if not diags else EXIT_VALIDATION

        grid = [args.at] if args.command == "eval" else None
        table = run_scenario(
            args.scenario,
            seed=args.seed,
            trials=args.trials,
            methods=_methods_arg(args.methods),
            grid=grid,
            workers=args.workers,
        )
        emit(table, format=args.format, destination=args.out)
        return EXIT_OK
    except ScenarioError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return EXIT_VALIDATION
    except ParameterError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AccuracyError as exc:
        print(f"numerical failure: {_describe(exc)}", file=sys.stderr)
        return EXIT_ACCURACY
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
