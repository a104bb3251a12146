"""CLI: run paper experiments and print (or save) their tables.

Usage::

    python -m repro.experiments                 # everything, quick scale
    python -m repro.experiments fig12 fig13     # a subset
    python -m repro.experiments --full tab1     # paper-sized run
    python -m repro.experiments --workers 4 fig12   # parallel grid cells
    python -m repro.experiments --markdown out.md
    python -m repro.experiments --workers 2 --markdown EXPERIMENTS.md
    python -m repro.experiments trace fig9      # Perfetto span trace
    python -m repro.experiments trace fig9 --telemetry --prometheus m.txt
    python -m repro.experiments watch slo       # live timeline dashboard
    python -m repro.experiments list            # ids + one-line summaries
    python -m repro.experiments --sanitize fig9 # invariant-checked run

Independent simulation runs fan out over ``--workers`` processes (or
``REPRO_WORKERS``); results are bit-identical to serial runs. Finished
runs persist in an on-disk cache (``.repro_cache/`` or
``$REPRO_CACHE_DIR``), so re-invocations are served without simulating —
the per-experiment cache line shows where results came from.

The markdown report is a pure function of (scale, seed): wall times and
cache lines go to stdout only. When the ``--markdown`` file already has a
``<!-- REPORT -->`` marker line, only the text after that line is
rewritten, so a hand-written head above it survives regeneration.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from repro.experiments import runner
from repro.experiments.base import FULL, QUICK
from repro.experiments.registry import EXPERIMENTS, run_experiment

#: Where a hand-kept document's generated report section begins.
REPORT_MARKER = "<!-- REPORT -->"


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Observability subcommands keep their own flag sets; everything else
    # flows through the legacy positional-ids interface below.
    if argv and argv[0] == "trace":
        from repro.experiments import tracecli
        return tracecli.cmd_trace(argv[1:])
    if argv and argv[0] == "watch":
        from repro.experiments import watchcli
        return watchcli.cmd_watch(argv[1:])
    if argv and argv[0] == "list":
        from repro.experiments.registry import describe_experiments
        for experiment_id, description in describe_experiments().items():
            print(f"{experiment_id:14s} {description}")
        return 0
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the NMAP paper's tables and figures.")
    parser.add_argument("ids", nargs="*", default=[],
                        help=f"experiment ids (default: all of "
                             f"{', '.join(EXPERIMENTS)})")
    parser.add_argument("--full", action="store_true",
                        help="paper-sized scale (8 cores, longer runs)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="processes for independent runs (default: "
                             "$REPRO_WORKERS or serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the persistent "
                             "run cache")
    parser.add_argument("--sanitize", action="store_true",
                        help="run with the simulation sanitizer armed "
                             "(REPRO_SANITIZE=1): kernel invariants are "
                             "checked at runtime; results are "
                             "bit-identical, wall time up to 2x")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write a markdown report to PATH "
                             f"(after its {REPORT_MARKER} marker, if it "
                             "has one)")
    args = parser.parse_args(argv)

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")
    scale = FULL if args.full else QUICK
    if args.no_cache:
        import os
        os.environ["REPRO_RUN_CACHE"] = "0"
    if args.sanitize:
        import os
        os.environ["REPRO_SANITIZE"] = "1"

    results = []
    all_ok = True
    for experiment_id in ids:
        runner.reset_cache_stats()
        # perf_counter, not time.time: the elapsed line must not jump
        # with NTP/wall-clock adjustments (determinism lint D001).
        t0 = time.perf_counter()
        result = run_experiment(experiment_id, scale, workers=args.workers)
        elapsed = time.perf_counter() - t0
        stats = runner.cache_stats()
        text = result.render()
        print(text)
        print(f"({elapsed:.1f}s; {stats.describe()})\n")
        results.append(result)
        all_ok &= result.all_expectations_met

    if args.markdown:
        write_markdown(args.markdown, results, scale.name)
        print(f"wrote {args.markdown}")
    return 0 if all_ok else 1


def write_markdown(path: str, results, scale_name: str) -> None:
    """Write the report to ``path``. If the file already has a line
    holding only :data:`REPORT_MARKER`, keep everything above that line
    and replace only what follows it; otherwise write a standalone
    report."""
    try:
        with open(path, encoding="utf-8") as fh:
            old = fh.read()
    except FileNotFoundError:
        old = ""
    report = render_markdown(results, scale_name)
    marker = re.search(f"^{re.escape(REPORT_MARKER)}$", old, re.MULTILINE)
    if marker:
        text = old[:marker.start()] + REPORT_MARKER + "\n\n" + report
    else:
        text = "# NMAP reproduction — experiment results\n\n" + report
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def render_markdown(results, scale_name: str) -> str:
    """One section per experiment. No host timings: the text depends
    only on the scale and the results."""
    lines = [f"Scale: `{scale_name}`. Every table/figure of the paper's "
             "evaluation, regenerated on the simulated substrate. "
             "'Shape checks' are the reproduction criteria from DESIGN.md.",
             ""]
    for result in results:
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
