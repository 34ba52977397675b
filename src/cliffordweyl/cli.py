"""Command-line front end: evaluate expressions or run verification suites.

Two modes share one flag surface.  With a positional expression the tool
parses and evaluates it in the algebra named by --algebra and prints the
canonical form.  With --suite it runs one named verification suite and
emits a deterministic JSON report (stdout, or the --json path).  Timing
goes to stderr so repeated runs stay byte-identical on stdout.

Exit codes: 0 all checks passed, 1 a suite reported failures, 2 usage or
input error (an expression nested too deeply for the parser included).
"""

import argparse
import sys

from .algebra import AlgebraError
from .exprs import ParseError, evaluate, parse, parse_algebra
from .suites import SuiteUsageError, report_bytes, run_suite, suite_names


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cliffordweyl",
        description="Exact computation in Clifford-Weyl algebras and their "
        "polynomial deformations.",
        epilog="Suites: " + ", ".join(suite_names()),
    )
    ap.add_argument(
        "expression",
        nargs="?",
        help="element expression to evaluate (needs --algebra)",
    )
    ap.add_argument(
        "--algebra",
        metavar="DESC",
        help="algebra descriptor: cw:<n>,<2k> or ore:<n>",
    )
    ap.add_argument("--suite", metavar="NAME", help="verification suite to run")
    ap.add_argument(
        "--seed",
        metavar="U64",
        default="0",
        help="seed for randomized checks (default 0)",
    )
    ap.add_argument(
        "--json",
        metavar="PATH",
        dest="json_path",
        help="write the JSON report to PATH instead of stdout",
    )
    ap.add_argument(
        "--maxdeg", metavar="D", type=int, help="degree bound for sampled elements"
    )
    ap.add_argument(
        "--cases", metavar="N", type=int, help="randomized case count per block"
    )
    return ap


def _parse_seed(ap, text):
    try:
        seed = int(text, 0)
    except ValueError:
        ap.error("--seed must be an integer")
    if not 0 <= seed < 1 << 64:
        ap.error("--seed must fit in an unsigned 64-bit integer")
    return seed


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    if (args.expression is None) == (args.suite is None):
        ap.error("give exactly one of: an expression, or --suite NAME")
    seed = _parse_seed(ap, args.seed)

    try:
        algebra = parse_algebra(args.algebra) if args.algebra else None
    except AlgebraError as exc:
        ap.error(str(exc))

    if args.expression is not None:
        if algebra is None:
            ap.error("expression evaluation needs --algebra")
        try:
            element = evaluate(parse(args.expression), algebra)
        except (ParseError, AlgebraError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except RecursionError:
            print("error: expression nested too deeply", file=sys.stderr)
            return 2
        print(element)
        return 0

    try:
        result = run_suite(
            args.suite,
            seed=seed,
            algebra=algebra,
            maxdeg=args.maxdeg,
            cases=args.cases,
        )
    except SuiteUsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    payload = report_bytes(result)
    if args.json_path:
        with open(args.json_path, "wb") as fh:
            fh.write(payload)
        print(
            "%s: %d cases, %d failures -> %s"
            % (result.suite, result.cases, len(result.failures), args.json_path)
        )
    else:
        sys.stdout.write(payload.decode())
    print(
        "suite %s finished in %.3fs (%s)"
        % (result.suite, result.wall_time, "pass" if result.passed else "FAIL"),
        file=sys.stderr,
    )
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
