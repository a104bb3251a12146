"""Canonical workload profiles: the paper's load levels, per core.

Sec. 6.1: memcached receives 30K/290K/750K RPS and nginx 18K/48K/56K RPS
across an 8-core server with even RSS spread. Everything in the simulator
scales per core, so profiles are expressed as *per-core* rates and the
system multiplies by the configured core count — quick experiments run 2
cores at identical per-core load.

Burst peaks grow sub-linearly with mean load (short intense bursts at low
load, long dense bursts at high load), matching the paper's observation
that burst onsets look alike across levels — the property that lets
NMAP's thresholds survive load changes without re-profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.units import MS
from repro.workload.shapes import BurstLoad

LOW, MEDIUM, HIGH = "low", "medium", "high"
LEVELS = (LOW, MEDIUM, HIGH)


@dataclass(frozen=True)
class LoadLevel:
    """One load level of one application (per-core rates)."""

    name: str
    mean_rps_per_core: float
    peak_rps_per_core: float
    period_ns: int = 100 * MS
    rise_frac: float = 0.05

    @property
    def duty(self) -> float:
        """Burst duty implied by mean = peak * duty * (1 - rise)."""
        return self.mean_rps_per_core / (
            self.peak_rps_per_core * (1.0 - self.rise_frac))

    def shape(self, phase_ns: int = 0) -> BurstLoad:
        """Build the burst shape for this level."""
        return BurstLoad(peak_rps=self.peak_rps_per_core,
                         period_ns=self.period_ns, duty=self.duty,
                         rise_frac=self.rise_frac, phase_ns=phase_ns)


@dataclass(frozen=True)
class WorkloadProfile:
    """All load levels of one application."""

    app: str
    levels: Dict[str, LoadLevel]
    paper_total_rps: Dict[str, float]  # the 8-core totals quoted in Sec. 6.1

    def level(self, name: str) -> LoadLevel:
        try:
            return self.levels[name]
        except KeyError:
            raise ValueError(f"unknown load level {name!r}; "
                             f"known: {sorted(self.levels)}") from None


# memcached: 30K/290K/750K total over 8 cores -> 3.75K/36.25K/93.75K per core.
MEMCACHED_LEVELS = WorkloadProfile(
    app="memcached",
    levels={
        LOW: LoadLevel(LOW, mean_rps_per_core=3_750,
                       peak_rps_per_core=15_000),
        MEDIUM: LoadLevel(MEDIUM, mean_rps_per_core=36_250,
                          peak_rps_per_core=145_000),
        HIGH: LoadLevel(HIGH, mean_rps_per_core=93_750,
                        peak_rps_per_core=187_500),
    },
    paper_total_rps={LOW: 30_000, MEDIUM: 290_000, HIGH: 750_000})

# nginx: 18K/48K/56K total over 8 cores -> 2.25K/6K/7K per core.
NGINX_LEVELS = WorkloadProfile(
    app="nginx",
    levels={
        LOW: LoadLevel(LOW, mean_rps_per_core=2_250,
                       peak_rps_per_core=5_600),
        MEDIUM: LoadLevel(MEDIUM, mean_rps_per_core=6_000,
                          peak_rps_per_core=15_000),
        HIGH: LoadLevel(HIGH, mean_rps_per_core=7_000,
                        peak_rps_per_core=17_500),
    },
    paper_total_rps={LOW: 18_000, MEDIUM: 48_000, HIGH: 56_000})

_PROFILES = {"memcached": MEMCACHED_LEVELS, "nginx": NGINX_LEVELS}


def levels_for(app: str) -> WorkloadProfile:
    """The canonical load profile of ``app`` (memcached or nginx)."""
    try:
        return _PROFILES[app]
    except KeyError:
        raise ValueError(f"unknown application {app!r}; "
                         f"known: {sorted(_PROFILES)}") from None
