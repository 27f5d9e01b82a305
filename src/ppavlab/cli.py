"""Command line runner for the named checks.

Results print to stdout as JSON lines, one object per check:
{check_id, status, witnesses, elapsed_ms}.  Exit code 0 when every
selected check passes, 1 on any failure or internal error, 2 on usage
problems such as unknown check ids.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .checks import CHECKS, RunOptions, UnknownCheck, run_checks, select_checks
from .standard_construction import FACTOR_PRODUCT_LIMIT


# Upper limits on the size flags, set by timing the checks they feed on a
# 2-core host: --gmax 40 takes xi-kernel-type and theta-principal about 2.4 s
# together; at --ydim 32 the slowest factor lists the limits admit, eight 1s
# and 14,16, build in 2.5 and 2.2 s (a factor limit of 40 would admit 5,40
# at 5.6 s).  build_standard holds the limit on prod(g + 1).
GMAX_LIMIT = 40
YDIM_LIMIT = 32
FACTOR_LIMIT = 16


def _positive_int(text: str, limit: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(f"{value} is not in 1..{limit}")
    return value


def _gmax(text: str) -> int:
    return _positive_int(text, GMAX_LIMIT)


def _ydim(text: str) -> int:
    return _positive_int(text, YDIM_LIMIT)


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        factors = tuple(_positive_int(part, FACTOR_LIMIT)
                        for part in text.split(",") if part.strip())
    except argparse.ArgumentTypeError:
        factors = ()
    if not factors:
        raise argparse.ArgumentTypeError(
            f"factors must be a comma list of counts in 1..{FACTOR_LIMIT}")
    if math.prod(g + 1 for g in factors) > FACTOR_PRODUCT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"the product of (factor + 1) must be at most {FACTOR_PRODUCT_LIMIT}")
    return factors


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppav-lab",
        description="Exact checks over polarized lattice constructions.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run named checks (default: all)")
    run_p.add_argument("--check", action="append", dest="checks", metavar="ID",
                       help="check id to run; repeatable")
    run_p.add_argument("--gmax", type=_gmax, default=6,
                       help=f"largest genus for the per-genus sweeps (1..{GMAX_LIMIT})")
    run_p.add_argument("--factors", type=_parse_factors, default=None,
                       metavar="a,b,..",
                       help=f"factor genera for standard-build, each in 1..{FACTOR_LIMIT}, "
                            f"with prod(g + 1) <= {FACTOR_PRODUCT_LIMIT}")
    run_p.add_argument("--ydim", type=_ydim, default=None,
                       help=f"matching torus dimension for standard-build (1..{YDIM_LIMIT})")
    run_p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized property checks")
    run_p.add_argument("--json", dest="json_path", default=None,
                       help="also write the JSON lines to this file")
    run_p.add_argument("--list", action="store_true", dest="list_checks",
                       help="list registered check ids with their summaries and exit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.ydim is not None and args.factors is None:
        # the default standard-build grid sets its own Y dimensions
        parser.error("--ydim needs --factors")
    if args.list_checks:
        for check_id, check in CHECKS.items():
            print(f"{check_id}\t{(check.__doc__ or '').strip()}")
        return 0
    options = RunOptions(gmax=args.gmax, factors=args.factors,
                         ydim=args.ydim, seed=args.seed)
    try:
        selected = select_checks(args.checks)
    except UnknownCheck as exc:
        print(str(exc), file=sys.stderr)
        return 2
    json_file = None
    if args.json_path:
        # opened before any check runs, so a path that cannot be written is a usage error
        try:
            json_file = open(args.json_path, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"--json: cannot write {args.json_path}: {exc.strerror}")
    with json_file or contextlib.nullcontext():
        results = run_checks(selected, options)
        lines = [json.dumps(r._asdict()) for r in results]
        for line in lines:
            print(line)
        if json_file:
            json_file.write("\n".join(lines) + "\n")
    return 0 if all(r.status == "pass" for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
