"""NMAP-simpl: the ksoftirqd-driven simplification (Sec. 4.1).

ksoftirqd is woken exactly when the softirq handler cannot drain the NIC
queues within its budgets — a ready-made "excessive packet processing"
signal that needs no thresholds and no profiling. NMAP-simpl maximizes
V/F on ksoftirqd wake-up and resumes the utilization governor when
ksoftirqd goes back to sleep.

Its weakness (shown in Figs. 12/14): deferral to ksoftirqd happens *after*
the softirq has already burned its iteration/time budget, so at high load
the boost arrives too late and the SLO is violated — the motivation for
the full ratio-based NMAP.
"""

from __future__ import annotations

from repro.core.decision import MODE_CPU_UTIL, MODE_NET_INTENSIVE
from repro.governors.base import FreqGovernor
from repro.governors.ondemand import OndemandGovernor


class NmapSimplGovernor(FreqGovernor):
    """NMAP-simpl for one core."""

    name = "nmap-simpl"

    def __init__(self, sim, processor, core_id: int, ksoftirqd,
                 fallback: FreqGovernor = None):
        super().__init__(sim, processor, core_id)
        self.ksoftirqd = ksoftirqd
        self.fallback = fallback or OndemandGovernor(sim, processor, core_id)
        self.trace = sim.trace
        self._mode_channel = f"core{core_id}.nmap_mode"
        self.mode = MODE_CPU_UTIL
        self.ni_entries = 0
        self.cu_entries = 0
        ksoftirqd.wake_listeners.append(self._on_ksoftirqd_wake)
        ksoftirqd.sleep_listeners.append(self._on_ksoftirqd_sleep)

    def _on_ksoftirqd_wake(self, thread) -> None:
        if not self.started or self.mode == MODE_NET_INTENSIVE:
            return
        self.mode = MODE_NET_INTENSIVE
        self.ni_entries += 1
        self.fallback.suspend()
        self.request(0)
        if self.trace is not None:
            self.trace.record(self._mode_channel, self.sim.now, 1)

    def _on_ksoftirqd_sleep(self, thread) -> None:
        if not self.started or self.mode == MODE_CPU_UTIL:
            return
        self.mode = MODE_CPU_UTIL
        self.cu_entries += 1
        self.fallback.resume(enforce=True)
        if self.trace is not None:
            self.trace.record(self._mode_channel, self.sim.now, 0)

    def register_into(self, reg) -> None:
        """Register the fallback's utilization samples."""
        self.fallback.register_into(reg)

    def start(self) -> None:
        super().start()
        self.fallback.start()

    def stop(self) -> None:
        super().stop()
        self.fallback.stop()
        self.ksoftirqd.wake_listeners.remove(self._on_ksoftirqd_wake)
        self.ksoftirqd.sleep_listeners.remove(self._on_ksoftirqd_sleep)
