"""Command-line entry point.

Verbs: sectprops, mapcheck, modal, compare.  Exit codes: 0 success,
2 input validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .cases import (
    builtin_case_names,
    emit,
    load_case,
    run_compare,
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


def _overrides(args, modal: bool) -> dict:
    overrides = {"scheme": args.scheme, "gauss": args.gauss}
    if modal:
        overrides.update({
            "modes": args.modes,
            "normalization": args.normalization,
            "rotary": args.rotary,
            "mode_shapes": True if args.shapes else None,
        })
    return overrides


def main(argv=None) -> int:
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
    compare = sub.add_parser(
        "compare", help="modal run under two schemes, tabulated differences")
    _add_common(compare, modal=True)
    compare.add_argument("--schemes", default="bilinear,pascal6",
                         help="comma-separated pair of schemes")

    args = parser.parse_args(argv)
    modal = args.verb in ("modal", "compare")
    try:
        case = load_case(args.case, seed=args.seed,
                         overrides=_overrides(args, modal))
        if args.verb == "sectprops":
            report = run_sectprops(case)
        elif args.verb == "mapcheck":
            report = run_mapcheck(case)
        elif args.verb == "modal":
            report = run_modal(case)
        else:
            schemes = tuple(s.strip() for s in args.schemes.split(","))
            report = run_compare(case, schemes=schemes)
        emit(report, fmt=args.format, destination=args.out)
    except ValidationError as exc:
        print(f"quadplate: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"quadplate: cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"quadplate: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
