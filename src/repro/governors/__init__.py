"""Linux power-management governors (frequency and idle).

Frequency governors (cpufreq/intel_pstate equivalents, Sec. 2.2):
``performance``, ``powersave``, ``userspace``, ``ondemand``,
``conservative``, and ``intel_powersave`` (CPU utilization measured as C0
residency, which pins P0 when C-states are disabled — the footnote the
paper relies on in Sec. 6.2).

Idle (cpuidle) policies: ``menu`` (predictive), ``disable`` (never sleep),
``c6only`` (always the deepest state) — the three sleep policies of
Sec. 5.2 / Fig. 8.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("FreqGovernor", "UtilGovernorBase"),
    "static": ("PerformanceGovernor", "PowersaveGovernor",
               "UserspaceGovernor"),
    "ondemand": ("OndemandGovernor",),
    "conservative": ("ConservativeGovernor",),
    "intel_pstate": ("IntelPowersaveGovernor",),
    "cpuidle": ("MenuIdleGovernor", "DisableIdleGovernor",
                "C6OnlyIdleGovernor"),
    "registry": ("FREQ_GOVERNORS", "IDLE_GOVERNORS", "make_freq_governor",
                 "make_idle_governor"),
})
