"""Decision Engine (Algorithm 2).

Chooses between two power-management modes for one core:

* **Network Intensive Mode** — entered on a monitor notification:
  suspend ("disable") the CPU-utilization governor and maximize V/F.
* **CPU Utilization based Mode** — entered when the periodic
  polling/interrupt ratio drops below ``CU_TH``: enforce a
  utilization-based P-state immediately and re-enable the governor.
"""

from __future__ import annotations

from typing import Optional

MODE_CPU_UTIL = "cpu-util"
MODE_NET_INTENSIVE = "net-intensive"


class DecisionEngine:
    """Algorithm 2 for one core."""

    def __init__(self, processor, core_id: int, fallback_governor,
                 cu_threshold: float):
        if cu_threshold <= 0:
            raise ValueError("CU_TH must be positive")
        self.processor = processor
        self.core_id = core_id
        self.fallback = fallback_governor
        self.cu_threshold = cu_threshold
        self.trace = processor.sim.trace
        self._mode_channel = f"core{core_id}.nmap_mode"
        self.mode = MODE_CPU_UTIL
        self.ni_entries = 0
        self.cu_entries = 0
        self.last_ratio: Optional[float] = None

    def on_notification(self, now_ns: int = 0) -> None:
        """Monitor says polling exceeded NI_TH: go network-intensive."""
        if self.mode == MODE_NET_INTENSIVE:
            # Already boosted; nothing to change (Alg. 2 is idempotent here).
            return
        self.mode = MODE_NET_INTENSIVE
        self.ni_entries += 1
        self.fallback.suspend()
        self.processor.request_pstate(self.core_id, 0)
        if self.trace is not None:
            self.trace.record(self._mode_channel, now_ns, 1)

    def on_report(self, poll_cnt: int, intr_cnt: int, now_ns: int = 0) -> None:
        """Periodic window report: maybe fall back to CPU-util mode."""
        if self.mode != MODE_NET_INTENSIVE:
            return
        if intr_cnt > 0:
            ratio = poll_cnt / intr_cnt
        else:
            # No interrupt-mode packets: either dead quiet (fall back) or
            # saturated polling (stay boosted).
            ratio = float("inf") if poll_cnt > 0 else 0.0
        self.last_ratio = ratio
        if ratio < self.cu_threshold:
            self.mode = MODE_CPU_UTIL
            self.cu_entries += 1
            # Enforce a utilization-based state now, then re-enable the
            # governor (Alg. 2 l.10-11).
            self.fallback.resume(enforce=True)
            if self.trace is not None:
                self.trace.record(self._mode_channel, now_ns, 0)
