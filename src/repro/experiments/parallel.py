"""Parallel execution of independent simulation runs.

Grid cells, fig16's per-manager runs and the fleet experiments' cells
are embarrassingly parallel: each is its own seeded server or fleet, so
fanning them out over a :class:`~concurrent.futures.ProcessPoolExecutor`
changes wall-clock only — every result is bit-identical to the serial
run (enforced by test). :func:`run_many` is the one fan-out for jobs of
either kind. Workers use :func:`runner.run_cached`, so they both consult
and populate the persistent disk cache; the parent seeds its in-process
memo from the returned results so figure pairs (12/13, 14/15) still
share runs.

Worker count resolution, most specific wins:

1. an explicit ``workers=`` argument,
2. the ambient :func:`using_workers` context (set by the CLI /
   ``run_experiment``),
3. the ``REPRO_WORKERS`` environment variable,
4. serial (1).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.runner import Result, RunConfig

#: One fan-out unit: a server or fleet configuration and how long to
#: run it.
Job = Tuple[RunConfig, int]

_ambient_workers: Optional[int] = None


def resolve_workers(explicit: Optional[int] = None) -> int:
    """The worker count to use (see module docstring for precedence)."""
    if explicit is not None:
        return max(1, int(explicit))
    if _ambient_workers is not None:
        return max(1, _ambient_workers)
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}") from None
    return 1


@contextmanager
def using_workers(workers: Optional[int]):
    """Ambient worker count for code that can't thread a parameter.

    ``run_experiment`` wraps each harness in this so the fig12-fig16
    harnesses (whose ``run(scale)`` signature is fixed by the registry)
    pick up the CLI's ``--workers`` without plumbing changes.
    """
    global _ambient_workers
    prev = _ambient_workers
    _ambient_workers = workers
    try:
        yield
    finally:
        _ambient_workers = prev


def _worker_run(job: Tuple[int, RunConfig, int]) -> Tuple[int, Result]:
    """Executed in the pool: run one configuration through the cache."""
    index, config, duration_ns = job
    return index, runner.run_cached(config, duration_ns)


def run_many(jobs: Sequence[Job],
             workers: Optional[int] = None) -> List[Result]:
    """Run every (config, duration) job; results in job order.

    Serial when the resolved worker count is 1 (or there is at most one
    uncached job) — that path is byte-for-byte the classic loop, so
    opting out of parallelism is always safe.
    """
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(jobs) <= 1:
        return [runner.run_cached(config, duration) for config, duration
                in jobs]

    results: List[Optional[Result]] = [None] * len(jobs)
    pending: List[int] = []
    for i, (config, duration) in enumerate(jobs):
        cached = runner.peek_cached(config, duration)
        if cached is not None:
            results[i] = cached
        else:
            pending.append(i)
    if len(pending) <= 1:
        for i in pending:
            results[i] = runner.run_cached(*jobs[i])
        return results  # type: ignore[return-value]

    n_workers = min(n_workers, len(pending))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(_worker_run, (i, jobs[i][0], jobs[i][1]))
                   for i in pending]
        for future in as_completed(futures):
            i, result = future.result()
            results[i] = result
            config, duration = jobs[i]
            runner.seed_cache(config, duration, result)
            runner.record_fresh_run(result)
    return results  # type: ignore[return-value]
