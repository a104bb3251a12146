"""Event-loop performance counters: model counters and host numbers.

The simulator is the hot loop of every experiment, so speedups there must
be measured, not asserted. :class:`PerfSnapshot` captures the kernel-level
counters of one run (events scheduled/fired/cancelled, heap high-water
mark) plus the wall-clock time the caller measured.

Counter semantics:

* ``events_scheduled`` — pushes into the queue (``schedule``/``push``).
* ``events_fired`` — callbacks actually executed.
* ``events_cancelled`` — events cancelled before firing (lazy-deleted).
* ``heap_peak`` — maximum heap length observed, cancelled entries
  included (lazy cancellation keeps them in the heap until popped).

The counters are model outputs, a pure function of (config, seed):
:meth:`PerfSnapshot.register_into` writes them into a result's
telemetry. Wall time and the rates derived from it are host numbers:
they live only on ``result.perf``, and :func:`host_registry` exports
them for benchmarks and reports, apart from any result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.obs.registry import TelemetryRegistry


@dataclass
class PerfSnapshot:
    """Immutable summary of one simulator run's kernel counters."""

    events_scheduled: int = 0
    events_fired: int = 0
    events_cancelled: int = 0
    #: Always 0: the kernel keeps no event freelist. Kept only because
    #: ``simbench/run.py`` reads it for ``sim.recycle_ratio``.
    events_recycled: int = 0
    heap_peak: int = 0
    #: Wall-clock seconds the measured section took (0 when not timed).
    #: A host number: never exported into a result's telemetry.
    wall_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Fired events per wall-clock second (0 when not timed)."""
        if self.wall_s <= 0:
            return 0.0
        return self.events_fired / self.wall_s

    @property
    def cancel_ratio(self) -> float:
        """Fraction of scheduled events that were cancelled."""
        if self.events_scheduled <= 0:
            return 0.0
        return self.events_cancelled / self.events_scheduled

    def register_into(self, registry, subsystem: str = "sim") -> None:
        """Export the model counters as gauges of a telemetry registry."""
        gauges = [
            ("sim_events_scheduled", "Events pushed into the queue",
             self.events_scheduled),
            ("sim_events_fired", "Event callbacks executed",
             self.events_fired),
            ("sim_events_cancelled", "Events cancelled before firing",
             self.events_cancelled),
            ("sim_heap_peak", "Maximum event-heap length observed",
             self.heap_peak),
            ("sim_cancel_ratio", "Fraction of scheduled events cancelled",
             self.cancel_ratio),
        ]
        for name, help_text, value in gauges:
            registry.gauge(name, help_text, subsystem=subsystem).set(value)


def host_registry(perf: PerfSnapshot) -> TelemetryRegistry:
    """The host numbers of ``perf`` as a registry of their own.

    The one exporter of wall time: ``benchmarks/perf_smoke.py`` and
    ``trace --prometheus`` read it next to the model telemetry, so
    results stay free of numbers that differ between identical runs.
    """
    registry = TelemetryRegistry()
    registry.gauge("sim_wall_seconds",
                   "Wall-clock seconds of the measured run",
                   subsystem="sim").set(perf.wall_s)
    registry.gauge("sim_events_per_sec",
                   "Fired events per wall-clock second",
                   subsystem="sim").set(perf.events_per_sec)
    return registry


@dataclass
class LockstepPerf:
    """Counters of one fleet lockstep drive (``repro.cluster``).

    ``windows`` counts *base* windows (duration / LB wire latency,
    rounded up) — invariant across stride coalescing and shard counts,
    so it is safe to compare across execution modes. ``strides`` counts
    the actual barrier-to-barrier spans executed: equal to ``windows``
    with adaptive lookahead off, smaller when idle windows coalesce.
    ``shards``/``wall_s`` describe the execution, not the model — parity
    tests must not compare them. None of these fields is exported into
    the fleet's telemetry; read them here.
    """

    #: Base lockstep windows the drive covered.
    windows: int = 0
    #: Barrier-to-barrier spans actually executed (<= windows).
    strides: int = 0
    #: Longest single stride, in base windows.
    max_stride: int = 0
    #: Worker processes the nodes were partitioned over (1 = in-process).
    shards: int = 1
    #: Wall-clock seconds of the whole fleet run.
    wall_s: float = 0.0
    #: Wall-clock seconds each shard worker spent inside span execution
    #: (sharded runs only; empty in-process). Execution detail like
    #: ``wall_s`` — parity comparisons must skip it.
    shard_span_wall_s: List[float] = field(default_factory=list)

    @property
    def coalesce_ratio(self) -> float:
        """Base windows per executed stride (1.0 = no coalescing)."""
        if self.strides <= 0:
            return 1.0
        return self.windows / self.strides

    @property
    def shard_imbalance(self) -> float:
        """Slowest shard's span wall over the mean (1.0 = balanced).

        The lockstep barrier waits for the slowest shard every stride,
        so this ratio is the attributable sharded-slowdown factor: 2.0
        means half the other workers' time was spent blocked."""
        walls = self.shard_span_wall_s
        if not walls:
            return 1.0
        mean = sum(walls) / len(walls)
        if mean <= 0:
            return 1.0
        return max(walls) / mean
