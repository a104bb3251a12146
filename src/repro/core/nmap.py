"""The full NMAP governor (Sec. 4.2).

Per core: a :class:`ModeTransitionMonitor` watches the NAPI context and a
:class:`DecisionEngine` switches between Network Intensive Mode (P0,
utilization governor disabled) and CPU Utilization based Mode (fallback
governor re-enabled). The periodic timer uses the paper's 10 ms interval.

NMAP needs only two thresholds (NI_TH, CU_TH) obtained by lightweight
offline profiling — no application model, no per-request instrumentation,
and no sub-10 µs V/F transitions, which is what makes it deployable on
processors with ~500 µs re-transition latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decision import DecisionEngine
from repro.core.monitor import ModeTransitionMonitor
from repro.governors.base import FreqGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.units import MS


@dataclass(frozen=True)
class NmapThresholds:
    """The two profiled thresholds of Sec. 4.2.

    Attributes:
        ni_th: polling-mode packets per interrupt that trigger Network
            Intensive Mode.
        cu_th: polling/interrupt packet ratio below which the engine
            falls back to the CPU-utilization governor.
    """

    ni_th: float
    cu_th: float

    def __post_init__(self) -> None:
        if self.ni_th <= 0 or self.cu_th <= 0:
            raise ValueError("thresholds must be positive")


class NmapGovernor(FreqGovernor):
    """NMAP for one core."""

    name = "nmap"

    def __init__(self, sim, processor, core_id: int, napi,
                 thresholds: NmapThresholds,
                 fallback: FreqGovernor = None,
                 timer_period_ns: int = 10 * MS):
        super().__init__(sim, processor, core_id)
        self.thresholds = thresholds
        self.fallback = fallback or OndemandGovernor(sim, processor, core_id)
        self.engine = DecisionEngine(processor, core_id, self.fallback,
                                     cu_threshold=thresholds.cu_th)
        self.monitor = ModeTransitionMonitor(
            napi, ni_threshold=thresholds.ni_th,
            notify=self._notify, report=self._report)
        self.timer_period_ns = timer_period_ns
        self._timer = None

    def _notify(self) -> None:
        self.engine.on_notification(self.sim.now)

    def _report(self, poll_cnt: int, intr_cnt: int) -> None:
        self.engine.on_report(poll_cnt, intr_cnt, self.sim.now)

    @property
    def mode(self) -> str:
        """Current power-management mode of this core."""
        return self.engine.mode

    def register_into(self, reg) -> None:
        """Register the decision engine's mode entries and the fallback's
        utilization samples."""
        core = str(self.core_id)
        reg.counter("nmap_mode_entries_total", "Decision-engine mode entries",
                    read=lambda: self.engine.ni_entries,
                    subsystem="governor", core=core, mode="net-intensive")
        reg.counter("nmap_mode_entries_total",
                    read=lambda: self.engine.cu_entries,
                    subsystem="governor", core=core, mode="cpu-util")
        self.fallback.register_into(reg)

    def start(self) -> None:
        super().start()
        self.fallback.start()
        self._timer = self.sim.every(self.timer_period_ns,
                                     self.monitor.on_timer)

    def stop(self) -> None:
        super().stop()
        self.fallback.stop()
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self.monitor.detach()
