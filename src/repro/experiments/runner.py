"""Cached run execution shared by all experiments.

Figs. 12/13 (and 14/15) report latency and energy of the *same* runs, so
the runner memoizes results by configuration within the process — the
energy figure reuses the latency figure's simulations. This is the one
run cache: a :class:`~repro.system.ServerConfig` runs as a
:class:`~repro.system.ServerSystem`, a
:class:`~repro.cluster.config.FleetConfig` through
:func:`~repro.cluster.fleet.run_fleet`, and both kinds share the memo,
the disk store and the counters (their keys cannot collide: the config
class is part of the canonical form).

Two cache levels:

* **memo** — in-process dict, same as ever (identity-preserving).
* **disk** — a persistent pickle store keyed by the stable config hash
  (:mod:`repro.experiments.confighash`), namespaced by MODEL_VERSION, so
  repeated CLI/benchmark invocations and parallel worker processes reuse
  simulations across process boundaries. Location:
  ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` under the working directory;
  disable entirely with ``REPRO_RUN_CACHE=0``.

:func:`cache_stats` counts memo hits, disk hits, and fresh runs (plus the
fresh runs' aggregate events/sec) so reports can show where results came
from. :func:`clear_cache` drops both levels — the disk side removes only
the current MODEL_VERSION namespace, which is what keeps benchmark
isolation working: a cleared process re-simulates from scratch.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.experiments.confighash import MODEL_VERSION, run_key
from repro.system import RunResult, ServerConfig, ServerSystem

if TYPE_CHECKING:
    from repro.cluster.config import FleetConfig
    from repro.cluster.fleet import FleetResult

#: What the cache runs, and what it answers with. The fleet simulator
#: (``repro.cluster.fleet``) is imported only for a fleet.
RunConfig = Union[ServerConfig, "FleetConfig"]
Result = Union[RunResult, "FleetResult"]

_cache: Dict[str, Result] = {}
_cache_dir_override: Optional[Path] = None


@dataclass
class CacheStats:
    """Where run_cached answers came from, since the last reset."""

    memo_hits: int = 0
    disk_hits: int = 0
    fresh_runs: int = 0
    disk_writes: int = 0
    #: Aggregate event-kernel figures over the fresh runs (a fleet adds
    #: its nodes' events and its slowest node's wall time).
    fresh_events_fired: int = 0
    fresh_wall_s: float = 0.0

    @property
    def hits(self) -> int:
        return self.memo_hits + self.disk_hits

    @property
    def fresh_events_per_sec(self) -> float:
        if self.fresh_wall_s <= 0:
            return 0.0
        return self.fresh_events_fired / self.fresh_wall_s

    def describe(self) -> str:
        parts = [f"{self.fresh_runs} simulated",
                 f"{self.memo_hits} memo hits",
                 f"{self.disk_hits} disk hits"]
        if self.fresh_wall_s > 0:
            parts.append(f"{self.fresh_events_per_sec:,.0f} events/s "
                         f"over fresh runs")
        return "cache: " + ", ".join(parts)


_stats = CacheStats()


# --------------------------------------------------------------------- #
# Disk store
# --------------------------------------------------------------------- #

def disk_cache_enabled() -> bool:
    """Persistent caching is on unless REPRO_RUN_CACHE=0."""
    return os.environ.get("REPRO_RUN_CACHE", "1") != "0"


def cache_dir() -> Path:
    """The on-disk namespace for the current model version."""
    if _cache_dir_override is not None:
        base = _cache_dir_override
    else:
        base = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
    return base / MODEL_VERSION


def set_cache_dir(path: Optional[os.PathLike]) -> None:
    """Override the cache base directory (None restores the default)."""
    global _cache_dir_override
    _cache_dir_override = Path(path) if path is not None else None


def _disk_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def _disk_load(key: str) -> Optional[Result]:
    if not disk_cache_enabled():
        return None
    try:
        with open(_disk_path(key), "rb") as fh:
            result = pickle.load(fh)
    except (OSError, pickle.PickleError, EOFError, AttributeError,
            ImportError, IndexError):
        # Missing, torn, or stale-format entry: treat as a miss.
        return None
    if isinstance(result, RunResult):
        return result
    # Unpickling a fleet result has already imported its module.
    from repro.cluster.fleet import FleetResult
    return result if isinstance(result, FleetResult) else None


def _disk_store(key: str, result: Result) -> None:
    if not disk_cache_enabled():
        return
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent grid workers may race on one key.
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, _disk_path(key))
        except BaseException:
            os.unlink(tmp)
            raise
        _stats.disk_writes += 1
    except OSError:
        # Read-only or full filesystem: caching is best-effort.
        pass


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #

def _key(config: RunConfig, duration_ns: int) -> str:
    return run_key(config, duration_ns)


def record_fresh_run(result: Result) -> None:
    """Count one simulated (not cache-served) run in :func:`cache_stats`."""
    nodes = ((result,) if isinstance(result, RunResult)
             else result.node_results)
    perfs = [node.perf for node in nodes]
    _stats.fresh_runs += 1
    _stats.fresh_events_fired += sum(perf.events_fired for perf in perfs)
    _stats.fresh_wall_s += max((perf.wall_s for perf in perfs), default=0.0)


def run_cached(config: RunConfig, duration_ns: int) -> Result:
    """Run (or fetch the memoized/persisted result of) one configuration."""
    key = _key(config, duration_ns)
    result = _cache.get(key)
    if result is not None:
        _stats.memo_hits += 1
        return result
    result = _disk_load(key)
    if result is not None:
        _stats.disk_hits += 1
        _cache[key] = result
        return result
    if isinstance(config, ServerConfig):
        result = ServerSystem(config).run(duration_ns)
    else:
        from repro.cluster.fleet import run_fleet
        result = run_fleet(config, duration_ns)
    record_fresh_run(result)
    _cache[key] = result
    _disk_store(key, result)
    return result


def peek_cached(config: RunConfig, duration_ns: int) -> Optional[Result]:
    """Memoized/persisted result if present; never simulates."""
    key = _key(config, duration_ns)
    result = _cache.get(key)
    if result is not None:
        _stats.memo_hits += 1
        return result
    result = _disk_load(key)
    if result is not None:
        _stats.disk_hits += 1
        _cache[key] = result
    return result


def seed_cache(config: RunConfig, duration_ns: int, result: Result) -> None:
    """Install a result computed elsewhere (a parallel worker) in the memo.

    Workers persist to disk themselves; seeding only the memo avoids a
    duplicate write while keeping figure pairs (12/13, 14/15) identity-
    cached in the coordinating process.
    """
    _cache[_key(config, duration_ns)] = result


def clear_cache() -> None:
    """Drop all memoized runs *and* the on-disk namespace.

    Tests and benchmarks use this for isolation; only the current
    MODEL_VERSION directory is removed, never other versions' results.
    """
    _cache.clear()
    directory = cache_dir()
    if directory.is_dir():
        shutil.rmtree(directory, ignore_errors=True)


def cache_stats() -> CacheStats:
    """Counters since the last :func:`reset_cache_stats`."""
    return _stats


def reset_cache_stats() -> None:
    global _stats
    _stats = CacheStats()
