"""Frequency-governor base classes.

One governor instance manages one core (the per-core DVFS model). P-state
requests are routed through :meth:`Processor.request_pstate` so the DVFS
domain policy (per-core vs chip-wide) applies uniformly.

:class:`UtilGovernorBase` adds the sampling machinery shared by all
CPU-utilization-based governors, plus the ``suspend``/``resume`` hooks
NMAP's Decision Engine uses to "disable the ondemand governor" in Network
Intensive Mode (Algorithm 2) and to re-enforce a utilization-based state
when falling back.
"""

from __future__ import annotations

from typing import Optional

from repro.units import MS


class FreqGovernor:
    """Base frequency governor for one core."""

    name = "base"

    def __init__(self, sim, processor, core_id: int):
        self.sim = sim
        self.processor = processor
        self.core_id = core_id
        self.core = processor.cores[core_id]
        self.started = False

    def start(self) -> None:
        """Begin governing (schedule timers, set initial state)."""
        self.started = True

    def stop(self) -> None:
        """Stop governing (cancel timers)."""
        self.started = False

    def request(self, index: int) -> None:
        """Route a P-state request through the processor's DVFS domain."""
        self.processor.request_pstate(self.core_id, index)

    def register_into(self, reg) -> None:
        """Register this governor's decision counters (none by default)."""


class UtilGovernorBase(FreqGovernor):
    """Shared machinery for CPU-utilization-sampling governors.

    Samples utilization every ``sampling_period_ns`` (10 ms in the paper's
    setup) and delegates the P-state decision to :meth:`decide`.
    """

    name = "util-base"

    def __init__(self, sim, processor, core_id: int,
                 sampling_period_ns: int = 10 * MS):
        super().__init__(sim, processor, core_id)
        if sampling_period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.sampling_period_ns = sampling_period_ns
        self.suspended = False
        self._timer = None
        self._last_sample_time = sim.now
        self._last_busy_ns = 0
        self.samples = 0
        self.last_utilization = 0.0

    # -- measurement ---------------------------------------------------- #

    def _busy_metric_ns(self) -> int:
        """Cumulative 'busy' nanoseconds; override to change the metric."""
        return self.core.busy_ns

    def measure_utilization(self) -> float:
        """Utilization in [0, 1] since the previous sample."""
        self.core._account()  # flush residency up to now
        now = self.sim.now
        busy = self._busy_metric_ns()
        elapsed = now - self._last_sample_time
        delta = busy - self._last_busy_ns
        self._last_sample_time = now
        self._last_busy_ns = busy
        if elapsed <= 0:
            return self.last_utilization
        self.last_utilization = min(1.0, max(0.0, delta / elapsed))
        return self.last_utilization

    # -- decision ------------------------------------------------------- #

    def decide(self, utilization: float) -> int:
        """Map a utilization sample to a target P-state index."""
        raise NotImplementedError

    def _on_sample(self) -> None:
        util = self.measure_utilization()
        self.samples += 1
        if not self.suspended:
            self.request(self.decide(util))

    def register_into(self, reg) -> None:
        reg.counter("governor_samples_total", "Utilization samples taken",
                    read=lambda: self.samples, subsystem="governor",
                    core=str(self.core_id))

    # -- lifecycle -------------------------------------------------------#

    def start(self) -> None:
        super().start()
        self._last_sample_time = self.sim.now
        self._last_busy_ns = self._busy_metric_ns()
        self._timer = self.sim.every(self.sampling_period_ns, self._on_sample)

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # -- NMAP / NCAP integration ------------------------------------------#

    def suspend(self) -> None:
        """Stop acting on samples (sampling continues, decisions do not)."""
        self.suspended = True

    def resume(self, enforce: bool = True) -> None:
        """Re-enable decisions; optionally enforce one immediately."""
        self.suspended = False
        if enforce and self.started:
            util = self.measure_utilization()
            self.request(self.decide(util))
