"""Command-line entry point: ``reembed <subcommand> [flags] <jobfile>``.

Exit codes: 0 on success, 2 when a budget abort left a check inconclusive,
1 on any error, a command-line usage error included.  A warning the library
raises prints as one ``reembed: warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields

from .groebner import DEFAULT_STEP_LIMIT
from .jobs import JobSpec, parse_job, run_job
from .parse import ParseError

# every flag stores into the JobSpec field of its dest name
SPEC_FIELDS = {f.name for f in fields(JobSpec)}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2,
    which this command reserves for an inconclusive check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def nonnegative_int(text):
    """An integer of at least 0; argparse reports anything else as an
    invalid value of this type."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser():
    top = _Parser(
        prog="reembed",
        description="Exact re-embeddings of affine algebras: linear fans, "
                    "cotangent classes, elimination bases, border basis "
                    "schemes.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("jobfile", help="job file (ring + content lines)")
        p.add_argument("--json", action="store_true", dest="json_out",
                       help="emit a JSON report")
        p.add_argument("--budget", type=nonnegative_int,
                       default=DEFAULT_STEP_LIMIT,
                       help="pair-reduction step budget, at least 0 "
                            "(default 10^6)")

    p = sub.add_parser("gb", help="reduced basis under a chosen ordering")
    p.add_argument("--ordering", default="degrevlex", dest="ordering_spec",
                   metavar="ORDERING",
                   help="degrevlex | lex | elim(z1,z2,...) | weight matrix "
                        "as JSON rows")
    common(p)

    p = sub.add_parser("gfan-linear",
                       help="fan of a linear ideal (marked reduced bases)")
    common(p)

    p = sub.add_parser("cotangent",
                       help="cotangent classes of the linear part")
    p.add_argument("--fan", action="store_true", dest="show_fan",
                   help="also list every leading-term set")
    common(p)

    p = sub.add_parser("reembed", help="search for separating re-embeddings")
    p.add_argument("--alg", choices=("gfan", "cotangent"), default="gfan")
    p.add_argument("--size", type=int, default=None,
                   help="separating tuple size, --alg gfan only "
                        "(default: linear-part dim)")
    p.add_argument("--all", action="store_true", dest="all_results",
                   help="with --alg gfan, collect every verified tuple "
                        "instead of the first (--alg cotangent always does)")
    common(p)

    p = sub.add_parser("bbs", help="border basis scheme construction")
    p.add_argument("--reembed", action="store_true", dest="chain_reembed",
                   help="chain the defining ideal into the re-embedding "
                        "search")
    common(p)

    return top


def main(argv=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _run(argv)
        finally:
            for w in caught:
                print(f"reembed: warning: {w.message}", file=sys.stderr)


def _run(argv):
    args = build_parser().parse_args(argv)
    try:
        with open(args.jobfile, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        spec = parse_job(text, command=args.command)
        for name, value in vars(args).items():
            if name in SPEC_FIELDS:
                setattr(spec, name, value)
        report = run_job(spec)
    except ParseError as e:
        print(f"error: {args.jobfile}:{e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(report.render(spec.json_out))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
