"""Command-line surface.

Usage:
    cubebound bound first --h 3 --delta 1/321
    cubebound bound second --h 133 --delta 1/321 --K-offset 20
    cubebound reproduce
    cubebound empirical count --x-min 10 --x-max 20 --threshold 2 --h 3
    cubebound empirical mertens --limit 1000000
    cubebound empirical nu --d 31

The CLI parses arguments, calls the library and renders its results; it
holds no reproduction constant. reproduce takes its defaults from
AggregateConfig(), its verdict from aggregate.reproduction_checks, and its
five quantities, with the rounding of their display (up for <=, down for
>=), from aggregate.REFERENCE_LIMITS. Each parser names its handler, which
returns the result and the exit code. Every run prints one JSON document
(manifest + result) to stdout, whose manifest records every parsed option
except --out and --timestamp, and except the ignored --jobs; the
human-readable summary derived from that document goes to stderr. Exit
codes: 0 success/PASS, 1 usage error, 2 computation failure (an unreadable
or unwritable cache or an unwritable --out file included), 3 reproduction
FAIL (an --h-max that truncates the nonzero tail included). Documents are
byte-reproducible when --timestamp is pinned. reproduce --jobs N is
accepted and ignored; the pipeline runs serially. No command takes
--rel-tol: every tilted integral is certified to 1e-12 relative.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .aggregate import (
    REFERENCE_LIMITS,
    AggregateConfig,
    AggregateReport,
    display_round,
    final_constants,
    reproduction_checks,
)
from .bounds import clamped_K, first_bound, second_bound_detail
from .errors import DomainError, FactorizationError, PrecisionError
from .lognum import LogNumber


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction_arg(text: str) -> Fraction:
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    return fr


def _lognum_doc(x: LogNumber) -> dict:
    return {"sign": x.sign, "log_mag": x.log_mag, "sci": x.to_sci()}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON document to this file")
    common.add_argument(
        "--timestamp",
        default=None,
        help="fixed ISO timestamp for byte-reproducible documents (default: now)",
    )

    paper = AggregateConfig()  # the defaults reproduce the paper's constants
    parser = _Parser(prog="cubebound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate one bound coefficient")
    bsub = bound.add_subparsers(dest="variant", required=True)
    for variant in ("first", "second"):
        bp = bsub.add_parser(variant, parents=[common])
        bp.set_defaults(run=_cmd_bound, subcommand=variant)
        bp.add_argument("--h", type=int, required=True)
        bp.add_argument("--delta", type=_fraction_arg, required=True, metavar="P/Q")
        if variant == "second":
            bp.add_argument("--K-offset", dest="K_offset", type=int, default=paper.K_offset)
            bp.add_argument(
                "--alpha",
                type=float,
                default=None,
                help="fixed tilt for every k-term instead of optimising",
            )

    rep = sub.add_parser(
        "reproduce",
        parents=[common],
        help="run the full pipeline and check the five reference constants",
    )
    rep.set_defaults(run=_cmd_reproduce)
    rep.add_argument("--delta", type=_fraction_arg, default=paper.delta, metavar="P/Q")
    rep.add_argument("--H", type=int, default=paper.H)
    rep.add_argument("--split", type=int, default=paper.split_h)
    rep.add_argument("--h-max", type=int, default=paper.h_max)
    rep.add_argument("--K-offset", dest="K_offset", type=int, default=paper.K_offset)
    rep.add_argument("--s-lower", type=float, default=paper.S_lower)
    rep.add_argument("--jobs", type=int, help="accepted and ignored; the pipeline runs serially")

    emp = sub.add_parser("empirical", help="desk-scale counting and checks")
    emp.set_defaults(run=_cmd_empirical)
    esub = emp.add_subparsers(dest="variant", required=True)
    cnt = esub.add_parser("count", parents=[common])
    cnt.add_argument("--x-min", type=int, required=True)
    cnt.add_argument("--x-max", type=int, required=True)
    cnt.add_argument("--threshold", type=int, required=True)
    cnt.add_argument("--h", type=int, required=True)
    cnt.add_argument("--cache", help="binary (prime, root) table cache path")
    mer = esub.add_parser("mertens", parents=[common])
    mer.add_argument("--limit", type=int, required=True)
    nup = esub.add_parser("nu", parents=[common])
    nup.add_argument("--d", type=int, required=True)
    return parser


# parsed attributes that are not parameters of the computation
_NOT_PARAMETERS = ("command", "variant", "out", "timestamp", "jobs", "run")


def _manifest(args) -> dict:
    return {
        "command": " ".join(filter(None, (args.command, getattr(args, "variant", None)))),
        "parameters": {k: str(v) for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "tool_version": __version__,
        "timestamp": args.timestamp or datetime.now(timezone.utc).isoformat(),
        "seed": None,  # every command is deterministic
    }


def _cmd_bound(args) -> tuple[dict, int]:
    if args.variant == "first":
        value = first_bound(args.h, args.delta)
        result = {"h": args.h, "delta": str(args.delta), "coefficient": _lognum_doc(value)}
    else:
        K = clamped_K(args.h, args.K_offset)
        detail = second_bound_detail(args.h, args.delta, K, args.alpha)
        per_k = [
            {
                "k": c.k, "alpha": c.alpha, "evaluations": c.evaluations,
                "term": _lognum_doc(c.term_value),
            }
            for c in detail.tilt_choices
        ]
        result = {
            "h": args.h, "delta": str(args.delta), "K": K,
            "coefficient": _lognum_doc(detail.total),
            "boundary_term": _lognum_doc(detail.boundary_term),
            "per_k": per_k,
        }
    return result, 0


def _report_doc(report: AggregateReport) -> dict:
    rows = [(name, getattr(report, field), op) for name, field, op, _ in REFERENCE_LIMITS]
    return {
        "ok": report.ok,
        "failure": report.failure,
        **{f.name: getattr(report, f.name) for f in fields(AggregateConfig)},
        "delta": str(report.delta),  # a Fraction is not JSON
        **{name: _lognum_doc(value) for name, value, _ in rows},
        "margin": _lognum_doc(report.margin),
        "count_proportion": _lognum_doc(report.count_proportion),
        # each quantity is quoted on the adverse side of its reference limit
        "display": {n: display_round(v, "up" if op == "<=" else "down") for n, v, op in rows},
        "per_h": [
            {
                "h": t.h,
                "method": t.method,
                "K": t.K,
                "coefficient": _lognum_doc(t.coefficient),
                "weighted": _lognum_doc(t.weighted),
                "alpha_k": [c.alpha for c in t.tilt_choices],
            }
            for t in report.per_h_terms
        ],
    }


def _cmd_reproduce(args) -> tuple[dict, int]:
    cfg = AggregateConfig(
        delta=args.delta,
        H=args.H,
        split_h=args.split,
        h_max=args.h_max,
        K_offset=args.K_offset,
        S_lower=args.s_lower,
    )
    report = final_constants(cfg)
    checks, overall = reproduction_checks(report)
    result = {
        "report": _report_doc(report),
        "checks": checks,
        "overall_pass": overall,
    }
    return result, 0 if overall else 3


def _cmd_empirical(args) -> tuple[dict, int]:
    from . import empirical  # here, so that bound and reproduce runs never load numpy

    if args.variant == "nu":
        return {"d": args.d, "nu": empirical.nu(args.d)}, 0

    if args.variant == "mertens":
        sums = empirical.prime_sums(args.limit)
        result = {
            "limit": args.limit,
            "deviations": [[x, dev] for x, dev in sums.deviations],
            "deviation_bounds": [[x, b] for (x, _), b in zip(sums.deviations, sums.bounds)],
            "max_abs_deviation": max(abs(dev) for _, dev in sums.deviations),
            "mean_nu": sums.mean_nu,
        }
        return result, 0

    job = empirical.RangeJob(args.x_min, args.x_max, args.threshold, args.h)
    table = None
    if args.cache:
        if os.path.exists(args.cache):
            try:
                table = empirical.load_root_table(args.cache)
            except DomainError as exc:
                print(f"warning: rebuilding root-table cache: {exc}", file=sys.stderr)
        if table is None or table.limit < job.count_limit:
            table = empirical.build_root_table(job.count_limit)
            empirical.save_root_table(args.cache, table)

    def progress(lo: int, hi: int) -> None:
        print(f"segment {lo}..{hi} done", file=sys.stderr)

    count = empirical.empirical_T(job, table, progress=progress)
    result = {
        "x_min": job.x_min, "x_max": job.x_max, "threshold": job.threshold,
        "h": job.h, "count": count, "scanned": job.x_max - job.x_min,
        "note": (
            "exact desk-scale count; asymptotic bound coefficients carry o(1) "
            "terms that are material at this range size"
        ),
    }
    return result, 0


def _render_human(manifest: dict, result: dict) -> str:
    lines = [f"# {manifest['command']} ({manifest['timestamp']})"]
    if manifest["command"].startswith("bound"):
        lines.append(f"coefficient = {result['coefficient']['sci']}"
                     f"  (sign {result['coefficient']['sign']},"
                     f" log_mag {result['coefficient']['log_mag']:.6f})")
        for row in result.get("per_k", []):
            lines.append(
                f"  k={row['k']:>3}  alpha={row['alpha']:.6g}  term={row['term']['sci']}"
            )
    elif manifest["command"] == "reproduce":
        rep = result["report"]
        for key, shown in rep["display"].items():
            lines.append(f"{key:>12} = {rep[key]['sci']}  (display {shown})")
        for check in result["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status}: {check['name']}  [{check['computed']}]")
        lines.append("overall: " + ("PASS" if result["overall_pass"] else "FAIL"))
        if rep["failure"]:
            lines.append(f"failure: {rep['failure']}")
    elif manifest["command"] == "empirical count":
        lines.append(f"count = {result['count']} of {result['scanned']} values")
    elif manifest["command"] == "empirical mertens":
        for x, dev in result["deviations"]:
            lines.append(f"  x={x:>10}  deviation={dev:+.6f}")
        lines.append(f"max |deviation| = {result['max_abs_deviation']:.6f}")
        lines.append(f"mean nu(p) = {result['mean_nu']:.6f}")
    elif manifest["command"] == "empirical nu":
        lines.append(f"nu({result['d']}) = {result['nu']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result, code = args.run(args)
        manifest = _manifest(args)
        document = json.dumps({"manifest": manifest, "result": result},
                              sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(document)
    except (DomainError, PrecisionError, FactorizationError, OSError) as exc:
        print(f"cubebound: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(document)
    sys.stderr.write(_render_human(manifest, result))
    return code


def entrypoint() -> None:
    sys.exit(main())
