"""Command line interface: check / trace / lv / fuzz / report.

Exit codes: 0 pass, 1 verification failure, 2 input or flag error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dualtrace import make_dual, pairing_functorial, trace
from .generate import GenParams
from .instances import ParseError, omega_doc, parse_file
from .suites import SUITE_NAMES, parse_report, report_emit, run_suite


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spantrace")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate an instance file")
    p_check.add_argument("file")

    p_trace = sub.add_parser("trace", help="trace every named endomorphism")
    p_trace.add_argument("file")

    p_lv = sub.add_parser("lv", help="verify the pushforward trace identity of the file")
    p_lv.add_argument("file")

    p_fuzz = sub.add_parser("fuzz", help="run a verification suite on random instances")
    p_fuzz.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_fuzz.add_argument("--seed", required=True, type=int)
    p_fuzz.add_argument("--count", required=True, type=int)
    p_fuzz.add_argument("--max-set", type=int, default=GenParams.max_set)
    p_fuzz.add_argument(
        "--max-rank", type=int, default=GenParams.max_rank,
        help="per-degree rank cap; values above 2 act as 2",
    )
    p_fuzz.add_argument("--deg-min", type=int, default=GenParams.deg_min)
    p_fuzz.add_argument("--deg-max", type=int, default=GenParams.deg_max)
    p_fuzz.add_argument("--modulus", type=int, default=GenParams.modulus)

    p_rep = sub.add_parser("report", help="re-emit a JSON report")
    p_rep.add_argument("file", nargs="?", default="-")
    p_rep.add_argument("--format", required=True, choices=("text", "json"))
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "check":
        inst = parse_file(args.file)
        print(
            f"ok: {len(inst.spaces)} spaces, {len(inst.maps)} maps, "
            f"{len(inst.objects)} objects, {len(inst.spans)} spans, "
            f"{len(inst.morphisms)} morphisms"
            + (", lv diagram" if inst.lv else "")
            + (", base change" if inst.base_change else "")
        )
        return 0

    if args.command == "trace":
        inst = parse_file(args.file)
        try:
            out = {name: omega_doc(trace(m, make_dual(m.source)).omega)
                   for name, m in inst.morphisms.items() if m.source == m.target}
        except Exception as e:  # a fault in the program under test, not in the file
            return _verification_raised(e)
        print(json.dumps(out, sort_keys=True, indent=1))
        return 0

    if args.command == "lv":
        inst = parse_file(args.file)
        if inst.lv is None:
            raise ParseError("/lv", "file has no lv diagram")
        try:
            res = pairing_functorial(inst.lv)
        except Exception as e:  # as for trace
            return _verification_raised(e)
        print(
            json.dumps(
                {"pushed": omega_doc(res.pushed), "rhs": omega_doc(res.rhs),
                 "equal": res.equal},
                sort_keys=True,
                indent=1,
            )
        )
        return 0 if res.equal else 1

    if args.command == "fuzz":
        params = GenParams(
            max_set=args.max_set,
            max_rank=args.max_rank,
            deg_min=args.deg_min,
            deg_max=args.deg_max,
            modulus=args.modulus,
        )
        report = run_suite(args.suite, args.seed, args.count, params)
        sys.stdout.write(report_emit(report, "json"))
        return 0 if report.ok else 1

    if args.command == "report":
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        doc = parse_report(text)
        sys.stdout.write(report_emit(doc, args.format))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def _verification_raised(e: Exception) -> int:
    """A fault while verifying a parsed file: a failed verification, exit 1."""
    print(f"error: verification raised {type(e).__name__}: {e}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
