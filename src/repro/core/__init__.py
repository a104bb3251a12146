"""NMAP: Network packet processing Mode-Aware Power management.

The paper's contribution (Sec. 4). Two flavours:

* :class:`NmapSimplGovernor` — triggers Network Intensive Mode on
  ksoftirqd wake-ups and falls back when ksoftirqd sleeps (Sec. 4.1).
* :class:`NmapGovernor` — the full design: a Mode Transition Monitor
  (Algorithm 1) counts packets per NAPI mode and notifies a Decision
  Engine (Algorithm 2), which maximizes V/F when polling exceeds NI_TH
  and returns to the CPU-utilization governor when the polling/interrupt
  ratio drops below CU_TH (Sec. 4.2).

Thresholds come from the lightweight offline profiler in
:mod:`repro.core.profiling`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "monitor": ("ModeTransitionMonitor",),
    "decision": ("DecisionEngine", "MODE_CPU_UTIL", "MODE_NET_INTENSIVE"),
    "nmap": ("NmapGovernor", "NmapThresholds"),
    "nmap_simpl": ("NmapSimplGovernor",),
    "profiling": ("OnlineReprofiler", "ThresholdProfiler",
                  "profile_thresholds"),
    "adaptive": ("AdaptiveNmapGovernor",),
    "sleep_integration": ("ModeAwareIdleGovernor",),
})
