"""The Figs. 12-15 evaluation grid, shared between the four experiments.

Figs. 12/13 sweep {intel_powersave, ondemand, performance, NMAP-simpl,
NMAP} x {menu, disable, c6only} x {low, medium, high} x {memcached,
nginx}; Figs. 14/15 sweep {NCAP-menu, NCAP, NMAP-simpl, NMAP} with menu.
Latency and energy come from the same runs, so the grid is computed once
per process (the runner memoizes by configuration).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.experiments import parallel
from repro.experiments.base import ExperimentScale
from repro.system import ServerConfig

if TYPE_CHECKING:
    from repro.system import RunResult

FIG12_GOVERNORS = ("intel_powersave", "ondemand", "performance",
                   "nmap-simpl", "nmap")
FIG14_GOVERNORS = ("ncap-menu", "ncap", "nmap-simpl", "nmap")
SLEEP_POLICIES = ("menu", "disable", "c6only")
LOAD_LEVELS = ("low", "medium", "high")
APPS = ("memcached", "nginx")

GridKey = Tuple[str, str, str, str]  # (app, level, governor, sleep)


def cell_config(app: str, level: str, governor: str, sleep: str,
                scale: ExperimentScale, **overrides) -> ServerConfig:
    """The configuration of one grid cell.

    ``overrides`` are further ``ServerConfig`` fields laid over the
    cell, e.g. ``datapath`` (the RX backend, ``repro.datapath``) or
    ``pipeline`` (a match-action RX program, ``repro.p4``). Without
    them the cell keeps the classic grid's configuration (and cache
    key).
    """
    return ServerConfig(app=app, load_level=level, freq_governor=governor,
                        idle_governor=sleep, n_cores=scale.n_cores,
                        seed=scale.seed, **overrides)


def run_grid(governors, sleeps, scale: ExperimentScale,
             apps=APPS, levels=LOAD_LEVELS,
             workers: Optional[int] = None,
             **overrides) -> Dict[GridKey, RunResult]:
    """Run every (app, level, governor, sleep) combination.

    Cells are independent seeded systems, so with ``workers`` > 1 (or an
    ambient/environment worker count — see
    :func:`repro.experiments.parallel.resolve_workers`) they fan out over
    a process pool; per-cell results are identical to a serial run.
    ``overrides`` apply uniformly to every cell (see :func:`cell_config`).
    """
    keys: List[GridKey] = [(app, level, governor, sleep)
                           for app in apps
                           for level in levels
                           for governor in governors
                           for sleep in sleeps]
    jobs = [(cell_config(*key, scale, **overrides), scale.duration_ns)
            for key in keys]
    results = parallel.run_many(jobs, workers=workers)
    return dict(zip(keys, results))


def baseline_energy(results: Dict[GridKey, RunResult], app: str,
                    level: str) -> float:
    """Energy of performance+menu (the figures' normalization baseline)."""
    key = (app, level, "performance", "menu")
    if key not in results:
        raise KeyError(f"grid is missing the baseline cell {key}")
    return results[key].energy_j
