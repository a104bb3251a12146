"""CLI: run the determinism linter and the interprocedural flow engine.

Usage::

    python -m repro.analysis lint                    # lint src/repro
    python -m repro.analysis lint --strict src/repro # the CI gate
    python -m repro.analysis lint --json report.json tests/
    python -m repro.analysis lint --select D001,D002 src/repro
    python -m repro.analysis flow src/repro          # call-graph pass
    python -m repro.analysis flow --strict --debt src/repro
    python -m repro.analysis flow --write-debt src/repro

Without ``--strict`` both commands report and exit 0 (informational).
With it, any unsuppressed finding — including a suppression missing its
justification (``S001``) — exits 1, which is what CI enforces on
``src/repro``. ``lint --strict`` additionally folds in the flow
engine's findings (the two rule sets are disjoint), so the one gate
covers both passes.

``flow --debt`` ratchets suppression debt: the count of
``# repro: allow`` pragmas per (rule, module) may only stay equal or
drop relative to the checked-in baseline
(:data:`DEBT_BASELINE`). Pay debt down, then re-run with
``--write-debt`` to lower the ceiling.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.common import (count_debt, debt_regressions,
                                   debt_to_json, load_debt_baseline)
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import RULES, Finding, lint_paths

#: Default suppression-debt baseline (repo-relative, checked in).
DEBT_BASELINE = Path("tests/analysis/debt_baseline.json")


def _check_paths(raw) -> list:
    paths = [Path(p) for p in raw]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return []
    return paths


def _parse_select(raw, known):
    if not raw:
        return None, None
    select = {r.strip().upper() for r in raw.split(",")}
    unknown = select - set(known)
    if unknown:
        return None, (f"error: unknown rules {sorted(unknown)}; "
                      f"known: {sorted(known)}")
    return select, None


def cmd_lint(args) -> int:
    paths = _check_paths(args.paths)
    if not paths:
        return 2
    known = dict(RULES)
    if args.strict:
        known.update(FLOW_RULES)
    select, err = _parse_select(args.select, known)
    if err:
        print(err, file=sys.stderr)
        return 2
    report = lint_paths(paths, select=select)
    if args.strict:
        # The strict gate covers both passes: fold in the flow engine's
        # findings (a file that does not parse is already lint's P000).
        report.findings += [f for f in analyze_paths(
            paths, select=select).findings if f.rule != "P000"]
        report.findings.sort(key=Finding.sort_key)
        report.rules = known
    print(report.render_text())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"wrote {args.json}")
    if args.strict and report.active():
        print(f"STRICT: {len(report.active())} unsuppressed finding(s)",
              file=sys.stderr)
        return 1
    return 0


def cmd_flow(args) -> int:
    paths = _check_paths(args.paths)
    if not paths:
        return 2
    select, err = _parse_select(args.select, FLOW_RULES)
    if err:
        print(err, file=sys.stderr)
        return 2
    report = analyze_paths(paths, select=select)
    print(report.render_text())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"wrote {args.json}")
    status = 0
    if args.write_debt or args.debt:
        debt = count_debt(paths)
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
    elif args.debt:
        if not baseline_path.exists():
            print(f"error: no debt baseline at {baseline_path} "
                  f"(create it with --write-debt)", file=sys.stderr)
            return 2
        problems = debt_regressions(debt,
                                    load_debt_baseline(baseline_path))
        for problem in problems:
            print(f"DEBT: {problem}", file=sys.stderr)
        if problems:
            print(f"DEBT: suppression debt may only go down — fix the "
                  f"finding or justify lowering the bar in review "
                  f"({baseline_path})", file=sys.stderr)
            status = 1
    if args.strict and report.active():
        print(f"STRICT: {len(report.active())} unsuppressed finding(s)",
              file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis for the determinism contract.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint_parser = sub.add_parser(
        "lint", help="run the determinism linter (rules D001, D005, U001, "
                     "S001)")
    lint_parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any unsuppressed finding, folding in the flow "
             "engine's interprocedural findings (the CI gate)")
    lint_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the machine-readable report to PATH")
    lint_parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to report (default: all)")
    lint_parser.set_defaults(func=cmd_lint)

    flow_parser = sub.add_parser(
        "flow", help="run the interprocedural flow engine "
                     "(flow-aware D002-D004, H001/H002)")
    flow_parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)")
    flow_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any unsuppressed finding")
    flow_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the machine-readable report to PATH")
    flow_parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to report (default: all)")
    flow_parser.add_argument(
        "--debt", action="store_true",
        help="gate suppression debt against the baseline; exits 1 if "
             "any (rule, module) pragma count rose")
    flow_parser.add_argument(
        "--write-debt", action="store_true",
        help="write the current debt as the new baseline")
    flow_parser.add_argument(
        "--debt-baseline", metavar="PATH", default=str(DEBT_BASELINE),
        help=f"debt baseline location (default: {DEBT_BASELINE})")
    flow_parser.set_defaults(func=cmd_flow)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
