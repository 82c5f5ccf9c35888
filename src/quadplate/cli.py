"""Command-line entry point.

Verbs: sectprops, mapcheck, modal.  Exit codes: 0 success,
2 input validation failure (also a case too large for memory),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .cases import (
    builtin_case_names,
    emit,
    load_case,
    run_mapcheck,
    run_modal,
    run_sectprops,
)
from .errors import NumericalError, ValidationError


def _add_common(parser: argparse.ArgumentParser, modal: bool = False):
    parser.add_argument(
        "--case", required=True,
        help=f"case file path or built-in name {builtin_case_names()}",
    )
    parser.add_argument("--scheme", default=None,
                        choices=["bilinear", "serendipity8", "pascal6", "all"])
    parser.add_argument("--gauss", type=int, default=None, metavar="N")
    parser.add_argument("--format", default="csv",
                        choices=["csv", "json", "plot"])
    parser.add_argument("--out", default="-", metavar="PATH")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the random-quad built-in")
    if modal:
        parser.add_argument("--modes", type=int, default=None, metavar="K")
        parser.add_argument("--normalization", default=None,
                            choices=["plain", "per_pi2"])
        parser.add_argument("--rotary", action="store_true", default=None,
                            help="include rotary inertia in the mass matrix")
        parser.add_argument("--shapes", action="store_true",
                            help="sample mode shapes for plot output")


def _overrides(args) -> dict:
    if args.verb == "mapcheck":
        if args.scheme is not None:
            raise ValidationError("mapcheck reports every scheme; --scheme "
                                  "applies to sectprops and modal")
        if args.gauss is not None:
            raise ValidationError("mapcheck uses no quadrature; --gauss "
                                  "applies to sectprops and modal")
    overrides = {"scheme": args.scheme, "gauss": args.gauss}
    if args.verb == "modal":
        overrides.update({
            "modes": args.modes,
            "normalization": args.normalization,
            "rotary": args.rotary,
            "mode_shapes": True if args.shapes else None,
        })
    return overrides


@functools.cache
def _parser() -> tuple:
    """The argument parser and its verb parsers by name, built on the
    first call and reused: parsing returns a fresh namespace and leaves
    the parsers unchanged."""
    parser = argparse.ArgumentParser(
        prog="quadplate",
        description="quadrilateral mapping schemes and thin-plate modal "
                    "analysis",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    _add_common(sub.add_parser(
        "sectprops", help="area and moments of inertia of a single quad"))
    _add_common(sub.add_parser(
        "mapcheck", help="poles, shape-function checks, map deviations"))
    _add_common(sub.add_parser(
        "modal", help="free-vibration frequency tables"), modal=True)
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with a verb's own arguments parsed by
    that verb's parser alone: the top-level pass would only hand them on.
    Leftover arguments are the top-level parser's error, as there."""
    parser, verbs = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:  # help, or a missing or unknown verb
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.verb = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    runners = {"sectprops": run_sectprops, "mapcheck": run_mapcheck,
               "modal": run_modal}
    try:
        # Input magnitudes near the ends of the double range overflow in
        # products such as t**3 or |J|**4: a numerical failure, not a
        # warning beside a report of infinities.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            case = load_case(args.case, seed=args.seed,
                             overrides=_overrides(args))
            report = runners[args.verb](case)
        emit(report, fmt=args.format, destination=args.out)
    except ArithmeticError as exc:
        print(f"quadplate: numerical failure: {exc} (input magnitudes "
              f"beyond the floating-point range)", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"quadplate: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"quadplate: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"quadplate: invalid input: case too large for the available "
              f"memory ({str(exc) or 'MemoryError'})", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"quadplate: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
