"""Offline threshold profiling (Sec. 4.2).

NMAP obtains its two thresholds from one lightweight profiling run at the
load used to set the SLO (the latency-load inflection point — the "high"
level in our canonical profiles):

* ``NI_TH`` — the **maximum** number of packets processed in polling mode
  per interrupt, observed over the first interrupts from the start of a
  request burst. The paper observes the first 100 interrupts; our
  simulated NIC moderates at a 10 µs gap, so 100 interrupts span only
  ~1 ms of the burst onset — we default to 400 interrupts so the window
  covers the same early-burst fraction the paper's measurement does.
* ``CU_TH`` — the **average** polling/interrupt packet ratio over a
  single request burst.

:class:`ThresholdProfiler` collects both statistics from a NAPI context;
:func:`profile_thresholds` runs a complete profiling simulation for an
application and returns ready-to-use :class:`NmapThresholds`.

The paper leaves on-line re-profiling as future work; we ship a minimal
version: :class:`OnlineReprofiler` re-runs the measurement on live
traffic and can be polled for refreshed thresholds.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.nmap import NmapThresholds
from repro.netstack.napi import MODE_POLLING, NapiContext


class ThresholdProfiler:
    """Collects per-interrupt polling counts and mode totals from a NAPI."""

    def __init__(self, napi: NapiContext, n_interrupts: int = 400):
        if n_interrupts <= 0:
            raise ValueError("n_interrupts must be positive")
        self.napi = napi
        self.n_interrupts = n_interrupts
        self.per_interrupt_polling: List[int] = []
        self.total_poll = 0
        self.total_intr = 0
        self._current = 0
        self._interrupts_seen = 0
        napi.poll_listeners.append(self._on_poll)
        napi.irq_listeners.append(self._on_irq)

    def detach(self) -> None:
        self.napi.poll_listeners.remove(self._on_poll)
        self.napi.irq_listeners.remove(self._on_irq)

    def _on_irq(self, napi: NapiContext) -> None:
        if self._interrupts_seen > 0 and \
                len(self.per_interrupt_polling) < self.n_interrupts:
            self.per_interrupt_polling.append(self._current)
        self._current = 0
        self._interrupts_seen += 1

    def _on_poll(self, napi: NapiContext, n_packets: int, mode: str) -> None:
        if mode == MODE_POLLING:
            self._current += n_packets
            self.total_poll += n_packets
        else:
            self.total_intr += n_packets

    # -- results ----------------------------------------------------------#

    def ni_threshold(self) -> Optional[float]:
        """Max polling packets per interrupt over the early burst."""
        samples = list(self.per_interrupt_polling)
        if len(samples) < self.n_interrupts and self._current > 0:
            samples.append(self._current)
        if not samples:
            return None
        return float(max(samples))

    def cu_threshold(self) -> Optional[float]:
        """Average polling/interrupt ratio over the profiled burst."""
        if self.total_intr == 0:
            return None
        return self.total_poll / self.total_intr


def profile_thresholds(app: str = "memcached", level: str = "high",
                       n_cores: int = 2, seed: int = 42,
                       n_periods: int = 2,
                       ni_margin: float = 1.0,
                       cu_margin: float = 1.0) -> NmapThresholds:
    """Run a profiling simulation and derive NMAP's thresholds.

    The profiling run uses the performance governor (the system behaves
    "well" at the SLO-setting load), spans ``n_periods`` burst periods,
    and aggregates across cores: NI_TH takes the max, CU_TH the mean.
    ``*_margin`` multiply the measured values (1.0 = the paper's rule).
    """
    from repro.system import ServerConfig, ServerSystem  # lazy: avoid cycle
    from repro.workload.profiles import levels_for

    load_level = levels_for(app).level(level)
    config = ServerConfig(app=app, load_level=level, n_cores=n_cores,
                          freq_governor="performance", idle_governor="menu",
                          seed=seed)
    system = ServerSystem(config)
    profilers = [ThresholdProfiler(napi) for napi in system.stack.rx.napis]
    system.run(duration_ns=n_periods * load_level.period_ns)

    ni_values = [p.ni_threshold() for p in profilers]
    cu_values = [p.cu_threshold() for p in profilers]
    ni_values = [v for v in ni_values if v is not None]
    cu_values = [v for v in cu_values if v is not None]
    if not ni_values or not cu_values:
        raise RuntimeError(
            f"profiling run saw no traffic for {app}/{level}; "
            "increase the profiling duration")
    ni = max(ni_values) * ni_margin
    cu = (sum(cu_values) / len(cu_values)) * cu_margin
    return NmapThresholds(ni_th=max(1.0, ni), cu_th=max(1e-6, cu))


class OnlineReprofiler:
    """Minimal on-line threshold refresh (the paper's future work).

    Attach to a NAPI context on a live system; after ``n_interrupts``
    interrupts worth of traffic, :meth:`thresholds` returns refreshed
    values (None until enough data has been seen).
    """

    def __init__(self, napi: NapiContext, n_interrupts: int = 400):
        self._profiler = ThresholdProfiler(napi, n_interrupts)

    def thresholds(self) -> Optional[NmapThresholds]:
        ni = self._profiler.ni_threshold()
        cu = self._profiler.cu_threshold()
        if ni is None or cu is None:
            return None
        return NmapThresholds(ni_th=ni, cu_th=cu)

    def detach(self) -> None:
        self._profiler.detach()
