"""Adaptive NMAP: on-line threshold re-profiling (the paper's future work).

Sec. 4.2 requires re-profiling when the *application* changes and leaves
on-line adjustment as future work. This extension periodically refreshes
NI_TH / CU_TH from live traffic using the same measurement rule as the
offline profiler: it keeps a rolling :class:`ThresholdProfiler`, and at
each re-profiling interval — provided the engine is currently in CPU
Utilization based Mode, i.e. the system is keeping up and the measured
polling behaviour reflects *healthy* operation — swaps the refreshed
thresholds in.
"""

from __future__ import annotations

from typing import Optional

from repro.core.decision import MODE_CPU_UTIL
from repro.core.nmap import NmapGovernor, NmapThresholds
from repro.core.profiling import ThresholdProfiler
from repro.units import S


class AdaptiveNmapGovernor(NmapGovernor):
    """NMAP with periodic on-line threshold refresh."""

    name = "nmap-adaptive"

    def __init__(self, sim, processor, core_id: int, napi,
                 thresholds: NmapThresholds,
                 reprofile_period_ns: int = 1 * S,
                 min_interrupts: int = 200,
                 **kwargs):
        super().__init__(sim, processor, core_id, napi, thresholds, **kwargs)
        if reprofile_period_ns <= 0:
            raise ValueError("re-profiling period must be positive")
        self.reprofile_period_ns = reprofile_period_ns
        self.min_interrupts = min_interrupts
        self.reprofiles = 0
        self._profiler: Optional[ThresholdProfiler] = None
        self._reprofile_timer = None

    def start(self) -> None:
        super().start()
        self._profiler = ThresholdProfiler(self.monitor.napi)
        self._reprofile_timer = self.sim.every(self.reprofile_period_ns,
                                               self._maybe_reprofile)

    def stop(self) -> None:
        if self._reprofile_timer is not None:
            self._reprofile_timer.stop()
            self._reprofile_timer = None
        if self._profiler is not None:
            self._profiler.detach()
            self._profiler = None
        super().stop()

    def _maybe_reprofile(self) -> None:
        profiler = self._profiler
        if profiler is None:
            return
        enough = profiler._interrupts_seen >= self.min_interrupts
        healthy = self.engine.mode == MODE_CPU_UTIL
        ni = profiler.ni_threshold()
        cu = profiler.cu_threshold()
        if enough and healthy and ni is not None and cu is not None:
            self.thresholds = NmapThresholds(ni_th=max(1.0, ni),
                                             cu_th=max(1e-6, cu))
            self.monitor.ni_threshold = self.thresholds.ni_th
            self.engine.cu_threshold = self.thresholds.cu_th
            self.reprofiles += 1
        # Start a fresh measurement window either way.
        profiler.detach()
        self._profiler = ThresholdProfiler(self.monitor.napi)
