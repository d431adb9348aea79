"""Command-line front end.

Exit codes: 0 when everything requested passed (above the floor), 1 when at
least one check failed above its floor, 2 for usage or parse errors (the
offending token is reported on standard error), for an output file that
cannot be written and for a run that ran out of memory, 3 for an engine
fault: the evaluator disagreed with its independent oracle or with itself,
or the two readings of the lemma differ, which is a bug in this package
rather than a failed identity (reported on standard error).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .indices import format_index, hoffman_dual, parse_index
from .modp import EngineFault, primes_in, residues
from .suite import run_battery
from .verify import CHECKS, CheckReport, check

PRIMES_ENV = "FMZV_DEFAULT_PRIMES"


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep or not text.isascii() or not lo.isdigit() or not hi.isdigit():
        raise ValueError(f"bad prime window {text!r}, expected LO:HI")
    return int(lo), int(hi)


def _window_from(args, fallback: tuple[int, int] | None = None) -> tuple[int, int]:
    if args.primes:
        return _parse_window(args.primes)
    env = os.environ.get(PRIMES_ENV)
    if env:
        return _parse_window(env)
    if fallback is not None:
        return fallback
    raise ValueError(f"a prime window is required: pass --primes LO:HI or set {PRIMES_ENV}")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(doc: dict, rows: list[str]) -> str:
    # json.dumps(doc, indent=2) + "\n", with the top-level "results", None
    # in ``doc``, as the list ``rows``, each already rendered as json.dumps
    # renders an item at that depth.  An indent makes json.dumps use its
    # pure-Python encoder, so the rows, nearly all of a report, are formatted
    # from one template instead, and only the rest of the document is
    # dumped.  Strings escape their newlines, so a newline followed by two
    # spaces only starts a key of the top level.
    text = json.dumps(doc, indent=2)
    array = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return text.replace('\n  "results": null', '\n  "results": ' + array, 1) + "\n"


_CHECK_ROW = '    {\n      "p": %d,\n      "lhs": %d,\n      "rhs": %d,\n      "pass": %s\n    }'
_VALUE_ROW = '    {\n      "p": %d,\n      "value": %d\n    }'


def render_json(report: CheckReport) -> str:
    if report.mode == "symbolic":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    rows = [_CHECK_ROW % (r.p, r.lhs, r.rhs, "true" if r.ok else "false") for r in report.results]
    return _dump(report.to_json_dict(rows=False), rows)


def render_csv(report: CheckReport) -> str:
    if report.mode == "symbolic":
        return "equal\n" + ("true" if report.equal else "false") + "\n"
    lines = ["p,lhs,rhs,pass"]
    for r in report.results:
        lines.append(f"{r.p},{r.lhs},{r.rhs},{'true' if r.ok else 'false'}")
    return "\n".join(lines) + "\n"


def _params_text(params: dict) -> str:
    bits = []
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        bits.append(f"{key}={value}")
    return "  ".join(bits)


def render_table(report: CheckReport) -> str:
    lines = [f"check: {report.identity}  {_params_text(report.params)}"]
    if report.mode == "symbolic":
        lines.append(f"result: {'EQUAL' if report.equal else 'DIFFER'}")
        if not report.equal:
            lines.append(f"  lhs: {report.lhs}")
            lines.append(f"  rhs: {report.rhs}")
    else:
        lines.append(f"floor: {report.floor}")
        main = report.above_floor
        sub = report.results[: len(report.results) - len(main)]
        width = max((len(str(r.p)) for r in report.results), default=1)
        vwidth = max(
            [3] + [max(len(str(r.lhs)), len(str(r.rhs))) for r in report.results]
        )

        def block(rows):
            out = [f"  {'p':>{width}}  {'lhs':>{vwidth}}  {'rhs':>{vwidth}}  pass"]
            for r in rows:
                out.append(
                    f"  {r.p:>{width}}  {r.lhs:>{vwidth}}  {r.rhs:>{vwidth}}  "
                    f"{'yes' if r.ok else 'NO'}"
                )
            return out

        if sub:
            lines.append("sub-floor primes (informative):")
            lines.extend(block(sub))
        if main:
            lines.append("checked primes:")
            lines.extend(block(main))
    lines.append(
        f"summary: {'PASS' if report.passed else 'FAIL'}  "
        f"checked={report.checked} failed_above_floor={report.failed_above_floor}"
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


def _finish_report(report: CheckReport, args) -> int:
    _emit(_RENDERERS[args.format](report), args.output)
    return 0 if report.passed else 1


def _add_output_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument("--output", metavar="PATH", help="write output to a file")


def _add_numeric_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--primes", metavar="LO:HI", help="prime window, inclusive")
    parser.add_argument("--floor", type=int, help="override the pass/fail floor")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored (default: 1): every check runs in one process",
    )
    _add_output_opts(parser)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on first use and reused by every later call of main in the
    # process; parsing leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="fmzv",
        description="Word-algebra and mod-p checks for finite multiple zeta value identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="Hoffman dual of an index")
    p_dual.add_argument("index", help="comma-separated parts, e.g. 2,3,1,2")
    p_dual.set_defaults(handler=_cmd_dual)

    p_zeta = sub.add_parser("zeta", help="harmonic-sum residues over a prime window")
    p_zeta.add_argument("--index", required=True)
    p_bern = sub.add_parser("bernoulli", help="B_(p-k) mod p over a prime window")
    p_bern.add_argument("--k", type=int, required=True)
    for p, handler in ((p_zeta, _cmd_zeta), (p_bern, _cmd_bernoulli)):
        p.add_argument("--primes", metavar="LO:HI")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH")
        p.set_defaults(handler=handler)

    p_check = sub.add_parser("check", help="run one identity checker")
    p_check.set_defaults(handler=_cmd_check)
    csub = p_check.add_subparsers(dest="check_command", required=True)
    # int flags are converted by argparse, the others by their parser when
    # the check runs, so a bad token is reported like any other usage error
    for name, entry in CHECKS.items():
        p = csub.add_parser(name, help=entry.help)
        for option, parse in entry.flags:
            p.add_argument(option, required=True, type=int if parse is int else None)
        (_add_numeric_opts if entry.numeric else _add_output_opts)(p)

    p_suite = sub.add_parser("suite", help="run the full verification battery")
    p_suite.add_argument("--max-weight", type=int, default=7)
    p_suite.add_argument("--max-n", type=int, default=3)
    p_suite.add_argument("--primes", metavar="LO:HI")
    p_suite.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored (default: 1): the word-algebra steps run in one pool "
        "of one worker per usable CPU",
    )
    p_suite.add_argument("--format", choices=("table", "json"), default="table")
    p_suite.add_argument("--output", metavar="PATH")
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def _cmd_dual(args) -> int:
    k = parse_index(args.index)
    sys.stdout.write(format_index(hoffman_dual(k)) + "\n")
    return 0


def _value_table(identity: str, params: dict, rows: list[tuple[int, int]], args) -> int:
    # one "p,value" line per (prime, value) row, or the same rows as a JSON
    # document
    if args.format == "json":
        doc = {"identity": identity, "params": params, "results": None}
        _emit(_dump(doc, [_VALUE_ROW % row for row in rows]), args.output)
    else:
        _emit("".join(f"{p},{v}\n" for p, v in rows), args.output)
    return 0


def _cmd_zeta(args) -> int:
    k = parse_index(args.index)
    lo, hi = _window_from(args)
    ps = primes_in(lo, hi)
    if not ps:
        raise ValueError(f"no primes in window [{lo}, {hi}]")
    params = {"index": list(k), "primes": [lo, hi]}
    return _value_table("zeta", params, [(p, memo[k]) for p, memo in residues([k], ps)], args)


def _cmd_bernoulli(args) -> int:
    lo, hi = _window_from(args)
    ps = [p for p in primes_in(lo, hi) if p >= args.k + 2]
    if not ps:
        raise ValueError(f"no primes p >= k+2 in window [{lo}, {hi}]")
    params = {"k": args.k, "primes": [lo, hi]}
    rows = [(p, memo[p - args.k]) for p, memo in residues((), ps, [args.k])]
    return _value_table("bernoulli", params, rows, args)


def _cmd_check(args) -> int:
    name = args.check_command
    entry = CHECKS[name]
    options = {}
    if entry.numeric:
        options = {"window": _window_from(args), "floor": args.floor}
    values = [parse(getattr(args, option[2:])) for option, parse in entry.flags]
    return _finish_report(check(name, *values, **options), args)


def _cmd_suite(args) -> int:
    window = _window_from(args, fallback=(2, 200))
    lines: list[str] = []
    steps = run_battery(
        max_weight=args.max_weight,
        max_n=args.max_n,
        window=window,
        log=lines.append,
    )
    ok = all(s.passed for s in steps)
    if args.format == "json":
        doc = {
            "suite": {
                "max_weight": args.max_weight,
                "max_n": args.max_n,
                "primes": list(window),
            },
            "steps": [
                {"step": s.name, "pass": s.passed, "detail": s.detail}
                | ({"error": s.error} if s.error else {})
                for s in steps
            ],
            "pass": ok,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines.append(f"suite: {'PASS' if ok else 'FAIL'} ({len(steps)} steps)")
        _emit("\n".join(lines) + "\n", args.output)
    faults = [s for s in steps if s.error]
    for s in faults:
        print(f"fmzv: engine fault in step {s.name}: {s.error}", file=sys.stderr)
    return 3 if faults else 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"fmzv: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("fmzv: error: out of memory: the input is too large to check here", file=sys.stderr)
        return 2
    except EngineFault as exc:
        print(f"fmzv: engine fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
