"""Software NCAP (the paper's comparison implementation, Sec. 6.3).

NCAP identifies latency-critical requests at the NIC and measures their
rate over a monitoring period. When the rate exceeds a threshold it
maximizes the V/F state of **all** cores (it models chip-wide DVFS) and —
in its original configuration — disables the sleep states; when the rate
falls it decays the V/F one state per period until the CPU-utilization
governors take over again. ``NCAP-menu`` keeps the menu idle governor
while boosted.

The hardware NCAP monitors inside the NIC every ~1 ms; the software
version uses a slightly longer period (5 ms default), as the paper notes.
"""

from __future__ import annotations

from typing import List

from repro.governors.cpuidle import DisableIdleGovernor
from repro.units import MS, S

STATE_NORMAL = "normal"
STATE_BOOST = "boost"
STATE_DECAY = "decay"


class NcapManager:
    """System-wide NCAP power manager.

    Args:
        sim: the simulator.
        processor: the processor whose cores NCAP manages.
        nic: the NIC whose aggregate Rx rate is monitored.
        fallbacks: one utilization governor per core (suspended while
            NCAP holds the cores boosted).
        threshold_rps: boost when windowed Rx rate exceeds this (tuned per
            application to satisfy the SLO at high load, as in the paper).
        period_ns: monitoring period (software NCAP: 1 ms — slightly
            longer than the hardware implementation's, per Sec. 6.3).
        disable_sleep_in_boost: original NCAP disables C-states while
            boosted; NCAP-menu sets this False.
    """

    name = "ncap"

    def __init__(self, sim, processor, nic, fallbacks: List,
                 threshold_rps: float, period_ns: int = 1 * MS,
                 disable_sleep_in_boost: bool = True,
                 decay_every: int = 5):
        if threshold_rps <= 0:
            raise ValueError("threshold must be positive")
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if len(fallbacks) != processor.n_cores:
            raise ValueError("need one fallback governor per core")
        self.sim = sim
        self.processor = processor
        self.nic = nic
        self.fallbacks = fallbacks
        self.threshold_rps = threshold_rps
        self.period_ns = period_ns
        self.disable_sleep_in_boost = disable_sleep_in_boost
        #: Lower the V/F one state every ``decay_every`` quiet periods —
        #: the paper's "gradually decreases the V/F".
        self.decay_every = max(1, decay_every)
        self.trace = sim.trace

        self.state = STATE_NORMAL
        self.boosts = 0
        self._timer = None
        self._last_rx = 0
        self._decay_index = 0
        self._quiet_periods = 0
        self._saved_idle_governors = None
        self._disable_idle = DisableIdleGovernor()

    def start(self) -> None:
        for gov in self.fallbacks:
            gov.start()
        self._last_rx = self.nic.rx_data_packets
        self._timer = self.sim.every(self.period_ns, self._on_period)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        for gov in self.fallbacks:
            gov.stop()
        self._restore_idle_governors()

    # ------------------------------------------------------------------ #

    def _windowed_rps(self) -> float:
        # NCAP's NIC filter counts latency-critical *request* packets
        # (e.g. GETs), not ACKs or raw traffic.
        rx = self.nic.rx_data_packets
        delta = rx - self._last_rx
        self._last_rx = rx
        return delta * S / self.period_ns

    def _on_period(self) -> None:
        rps = self._windowed_rps()
        if rps > self.threshold_rps:
            self._enter_boost()
        elif self.state == STATE_BOOST:
            self.state = STATE_DECAY
            self._decay_index = 0
            self._quiet_periods = 0
        elif self.state == STATE_DECAY:
            self._quiet_periods += 1
            if self._quiet_periods % self.decay_every == 0:
                self._decay_step()

    def _enter_boost(self) -> None:
        if self.state != STATE_BOOST:
            self.boosts += 1
            self.state = STATE_BOOST
            for gov in self.fallbacks:
                gov.suspend()
            if self.disable_sleep_in_boost:
                self._disable_idle_governors()
            if self.trace is not None:
                self.trace.record("ncap.state", self.sim.now, 1)
        # Chip-wide boost: all cores to P0, every period while excessive.
        for cid in range(self.processor.n_cores):
            self.processor.request_pstate(cid, 0)

    def _decay_step(self) -> None:
        """Lower all cores one P-state per quiet period until released."""
        self._decay_index += 1
        if self._decay_index >= self.processor.pstates.max_index:
            self._release()
            return
        for cid in range(self.processor.n_cores):
            self.processor.request_pstate(cid, self._decay_index)
        # Release early once the utilization governors would choose an
        # equal-or-slower state anyway.
        decisions = [gov.decide(gov.measure_utilization())
                     for gov in self.fallbacks]
        if decisions and min(decisions) >= self._decay_index:
            self._release()

    def _release(self) -> None:
        self.state = STATE_NORMAL
        self._restore_idle_governors()
        for gov in self.fallbacks:
            gov.resume(enforce=True)
        if self.trace is not None:
            self.trace.record("ncap.state", self.sim.now, 0)

    # -- sleep-state handling ---------------------------------------------#

    def _disable_idle_governors(self) -> None:
        if self._saved_idle_governors is not None:
            return
        self._saved_idle_governors = [c.idle_governor
                                      for c in self.processor.cores]
        for core in self.processor.cores:
            core.idle_governor = self._disable_idle

    def _restore_idle_governors(self) -> None:
        if self._saved_idle_governors is None:
            return
        for core, gov in zip(self.processor.cores,
                             self._saved_idle_governors):
            core.idle_governor = gov
        self._saved_idle_governors = None
