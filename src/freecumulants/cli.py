"""Command line harness for the lattice tools and identity checks.

Exit codes: 0 all requested work passed, 1 at least one check failed,
2 usage errors (unknown subcommand, malformed partition text, bad flag).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .checks import ALL_CHECKS, CheckReport, json_object, replay_report, run_check
from .errors import CapacityError
from .partitions import (
    MAX_ENUM_N,
    LatticeKind,
    Partition,
    enumerate_partitions,
    format_partition,
    join,
    kreweras,
    moebius,
    parse_partition,
    quotient,
)


# what evaluating a malformed report or spec raises
MALFORMED = (ValueError, LookupError, TypeError, AttributeError)


def _lattice(value: str) -> LatticeKind:
    return LatticeKind.NONCROSSING if value == "nc" else LatticeKind.FULL


def _check_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="largest tuple length to cover")
    sub.add_argument("--dim", type=int, default=None, help="matrix dimension d (or tensor points)")
    sub.add_argument("--seed", type=int, default=None, help="base seed for drawn model data")
    sub.add_argument("--max-order", type=int, default=None, help="moment/cumulant capacity D")
    sub.add_argument("--spec", type=str, default=None,
                     help="json model spec file replacing the seeded random model")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freecumulants",
        description="exact checks for cumulant identities on partition lattices",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list all partitions of {1..n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lattice", choices=("nc", "full"), default="nc")
    p.add_argument("--interval-only", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("moebius", help="Moebius function, bottom-to-top or of a given pair")
    p.add_argument("pair", nargs="*", metavar="PARTITION",
                   help="optional pi sigma in block or bar notation")
    p.add_argument("--n", type=int, default=None, help="tuple length for the full interval")
    p.add_argument("--lattice", choices=("nc", "full"), default="nc")

    p = subs.add_parser("kreweras", help="Kreweras complement of a noncrossing partition")
    p.add_argument("partition", metavar="PARTITION")

    p = subs.add_parser("quotient", help="collapse the blocks of RHO inside SIGMA")
    p.add_argument("sigma", metavar="SIGMA")
    p.add_argument("rho", metavar="RHO")

    p = subs.add_parser("join", help="least common coarsening of two partitions")
    p.add_argument("pi", metavar="PI")
    p.add_argument("sigma", metavar="SIGMA")
    p.add_argument("--lattice", choices=("nc", "full"), default="full")

    p = subs.add_parser("check", help="run one identity check")
    p.add_argument("identity", nargs="?", choices=sorted(ALL_CHECKS), default=None)
    p.add_argument("--replay", type=str, default=None,
                   help="json report file; re-evaluates its recorded failing instance")
    _check_flags(p)

    p = subs.add_parser("check-all", help="run every identity check at default bounds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(report: CheckReport, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True), file=out)
        return
    line = f"{report.status.upper():4s} {report.identity} ({report.cases} cases, {report.wall_time:.2f}s)"
    print(line, file=out)
    if report.witness is not None:
        for k, v in report.witness.items():
            print(f"     {k}: {json.dumps(v) if isinstance(v, dict) else v}", file=out)


def _run_one(identity: str, **kwargs) -> CheckReport:
    t0 = time.perf_counter()
    try:
        return run_check(identity, **kwargs)
    except CapacityError as exc:
        witness = {"error": f"setup: {exc}"}
        params = {k: v for k, v in kwargs.items() if v is not None and k != "spec_data"}
        return CheckReport(identity, "fail", params, 0, witness, time.perf_counter() - t0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    try:
        if args.command == "enumerate":
            parts = enumerate_partitions(args.n, _lattice(args.lattice), args.interval_only)
            if args.format == "json":
                print(json.dumps([format_partition(p) for p in parts]), file=out)
            else:
                for p in parts:
                    print(format_partition(p), file=out)
            return 0

        if args.command == "moebius":
            kind = _lattice(args.lattice)
            if args.pair:
                if len(args.pair) != 2:
                    parser.error("moebius takes zero or two partition arguments")
                pi, sigma = map(parse_partition, args.pair)
            elif args.n is not None:
                if args.n > MAX_ENUM_N:
                    raise CapacityError(f"moebius over n={args.n} exceeds the bound MAX_ENUM_N={MAX_ENUM_N}")
                pi, sigma = Partition.discrete(args.n), Partition.full(args.n)
            else:
                parser.error("moebius needs --n or an explicit pair")
            print(moebius(pi, sigma, kind), file=out)
            return 0

        if args.command == "kreweras":
            print(format_partition(kreweras(parse_partition(args.partition))), file=out)
            return 0

        if args.command == "quotient":
            sigma, rho = parse_partition(args.sigma), parse_partition(args.rho)
            print(format_partition(quotient(sigma, rho)), file=out)
            return 0

        if args.command == "join":
            pi, sigma = parse_partition(args.pi), parse_partition(args.sigma)
            print(format_partition(join(pi, sigma, _lattice(args.lattice))), file=out)
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        if args.replay is not None:
            try:
                with open(args.replay) as fh:
                    report = replay_report(json.load(fh))
            except (OSError, *MALFORMED) as exc:
                print(f"error: cannot replay {args.replay}: {exc}", file=sys.stderr)
                return 2
        elif args.identity is None:
            parser.error("check needs an identity name or --replay")
        else:
            try:
                spec_data = None
                if args.spec is not None:
                    with open(args.spec) as fh:
                        spec_data = json_object(json.load(fh), "a spec")
            except (OSError, ValueError, TypeError) as exc:
                print(f"error: cannot load {args.spec}: {exc}", file=sys.stderr)
                return 2
            try:
                report = _run_one(args.identity, n=args.n, dimension=args.dim, seed=args.seed,
                                  max_order=args.max_order, spec_data=spec_data)
            except MALFORMED as exc:
                # malformed flags or spec data; a capacity limit is a FAIL report instead
                print(f"error: {args.identity}: {exc}", file=sys.stderr)
                return 2
        _emit(report, args.format, out)
        return 0 if report.passed else 1

    if args.command == "check-all":
        ok = True
        for identity in ALL_CHECKS:
            report = _run_one(identity, seed=args.seed)
            _emit(report, args.format, out)
            ok = ok and report.passed
        return 0 if ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
