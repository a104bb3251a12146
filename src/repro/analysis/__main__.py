"""CLI: the determinism gate, linter and flow engine over one parse.

Usage::

    python -m repro.analysis lint                    # analyze src/repro
    python -m repro.analysis lint --strict --debt src/repro  # the CI gate
    python -m repro.analysis lint --json report.json tests/
    python -m repro.analysis lint --select D001,D002 src/repro
    python -m repro.analysis lint --write-debt src/repro

Without ``--strict`` the command reports and exits 0 (informational).
With it, any unsuppressed finding of either rule set — including a
suppression missing its justification (``S001``) — exits 1, which is
what CI enforces on ``src/repro``.

``--debt`` ratchets suppression debt: the count of ``# repro: allow``
pragmas per (rule, module) may only stay equal or drop relative to the
checked-in baseline (:data:`DEBT_BASELINE`). Pay debt down, then re-run
with ``--write-debt`` to lower the ceiling.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.common import debt_regressions, debt_to_json, \
    load_debt_baseline
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import RULES

#: Default suppression-debt baseline (repo-relative, checked in).
DEBT_BASELINE = Path("tests/analysis/debt_baseline.json")


def _gate_debt(debt, args) -> int:
    total = sum(sum(per.values()) for per in debt.values())
    for rule, per_path in debt.items():
        print(f"debt {rule}: {sum(per_path.values())} pragma(s) "
              f"in {len(per_path)} module(s)")
    print(f"debt total: {total} pragma(s)")
    baseline_path = Path(args.debt_baseline)
    if args.write_debt:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(debt_to_json(debt))
        print(f"wrote {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(f"error: no debt baseline at {baseline_path} "
              f"(create it with --write-debt)", file=sys.stderr)
        return 2
    problems = debt_regressions(debt, load_debt_baseline(baseline_path))
    for problem in problems:
        print(f"DEBT: {problem}", file=sys.stderr)
    if problems:
        print(f"DEBT: suppression debt may only go down — fix the "
              f"finding or justify lowering the bar in review "
              f"({baseline_path})", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    select = None
    if args.select:
        select = {r.strip().upper() for r in args.select.split(",")}
        known = {**RULES, **FLOW_RULES}
        unknown = select - set(known)
        if unknown:
            print(f"error: unknown rules {sorted(unknown)}; "
                  f"known: {sorted(known)}", file=sys.stderr)
            return 2
    report = analyze_paths(paths, select=select)
    print(report.render_text())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"wrote {args.json}")
    status = 0
    if args.debt or args.write_debt:
        status = _gate_debt(report.debt, args)
    if args.strict and report.active():
        print(f"STRICT: {len(report.active())} unsuppressed finding(s)",
              file=sys.stderr)
        status = status or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis for the determinism contract.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="run every determinism rule (D001-D005, U001, "
                     "S001) over one parse")
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)")
    lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any unsuppressed finding (the CI gate)")
    lint.add_argument(
        "--json", metavar="PATH",
        help="also write the machine-readable report to PATH")
    lint.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to report (default: all)")
    lint.add_argument(
        "--debt", action="store_true",
        help="gate suppression debt against the baseline; exits 1 if "
             "any (rule, module) pragma count rose")
    lint.add_argument(
        "--write-debt", action="store_true",
        help="write the current debt as the new baseline")
    lint.add_argument(
        "--debt-baseline", metavar="PATH", default=str(DEBT_BASELINE),
        help=f"debt baseline location (default: {DEBT_BASELINE})")
    lint.set_defaults(func=cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
