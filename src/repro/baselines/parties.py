"""A Parties-style long-term feedback power manager (Sec. 6.3 / Fig. 16).

Every 500 ms it computes the P99 of responses completed in the window and
steps the V/F state by the *slack* (SLO minus measured P99): violations
step the frequency up, generous slack steps it down. The long decision
interval is the point — it cannot react to sub-100 ms bursts, so ~27% of
requests miss the SLO in the paper's changing-load experiment while NMAP
stays under 1%.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.units import MS


class PartiesManager:
    """Windowed tail-latency feedback controller (chip-wide steps)."""

    name = "parties"

    def __init__(self, sim, processor, client, slo_ns: int,
                 period_ns: int = 500 * MS,
                 up_slack: float = 0.10, down_slack: float = 0.45,
                 violation_step: int = 2, initial_index: Optional[int] = None):
        if slo_ns <= 0 or period_ns <= 0:
            raise ValueError("SLO and period must be positive")
        if not 0.0 <= up_slack < down_slack <= 1.0:
            raise ValueError("need 0 <= up_slack < down_slack <= 1")
        self.sim = sim
        self.processor = processor
        self.client = client
        self.slo_ns = slo_ns
        self.period_ns = period_ns
        self.up_slack = up_slack
        self.down_slack = down_slack
        self.violation_step = violation_step
        self.trace = sim.trace
        mid = processor.pstates.max_index // 2
        self.index = initial_index if initial_index is not None else mid
        self.adjustments = 0
        self._timer = None
        self._seen = 0

    def start(self) -> None:
        self._apply()
        self._timer = self.sim.every(self.period_ns, self._on_period)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def _window_p99_ns(self) -> Optional[float]:
        latencies = self.client.latencies_ns()
        window = latencies[self._seen:]
        self._seen = latencies.size
        if window.size == 0:
            return None
        return float(np.percentile(window, 99))

    def _on_period(self) -> None:
        p99 = self._window_p99_ns()
        if p99 is None:
            return
        slack = (self.slo_ns - p99) / self.slo_ns
        table = self.processor.pstates
        if slack < 0:
            self.index = table.clamp(self.index - self.violation_step)
        elif slack < self.up_slack:
            self.index = table.clamp(self.index - 1)
        elif slack > self.down_slack:
            self.index = table.clamp(self.index + 1)
        else:
            return
        self.adjustments += 1
        self._apply()

    def _apply(self) -> None:
        for cid in range(self.processor.n_cores):
            self.processor.request_pstate(cid, self.index)
        if self.trace is not None:
            self.trace.record("parties.index", self.sim.now, self.index)
