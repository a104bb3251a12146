"""Name-based governor construction (mirrors scaling_governor sysfs names)."""

from __future__ import annotations

from typing import Dict

from repro._lazy import load, lookup

#: Frequency governors constructible by name, as ``"module:class"``
#: specs: only the chosen governor's module is imported.
FREQ_GOVERNORS: Dict[str, str] = {
    "performance": "repro.governors.static:PerformanceGovernor",
    "powersave": "repro.governors.static:PowersaveGovernor",
    "userspace": "repro.governors.static:UserspaceGovernor",
    "ondemand": "repro.governors.ondemand:OndemandGovernor",
    "conservative": "repro.governors.conservative:ConservativeGovernor",
    "intel_powersave": "repro.governors.intel_pstate:IntelPowersaveGovernor",
}

#: Idle governors constructible by name.
IDLE_GOVERNORS: Dict[str, str] = {
    "menu": "repro.governors.cpuidle:MenuIdleGovernor",
    "disable": "repro.governors.cpuidle:DisableIdleGovernor",
    "c6only": "repro.governors.cpuidle:C6OnlyIdleGovernor",
}


def make_freq_governor(name: str, sim, processor, core_id: int, **params):
    """Instantiate the frequency governor ``name`` for one core."""
    cls = load(lookup(FREQ_GOVERNORS, name, "frequency governor"))
    return cls(sim, processor, core_id, **params)


def make_idle_governor(name: str, **params):
    """Instantiate the idle governor ``name`` (shared across cores)."""
    return load(lookup(IDLE_GOVERNORS, name, "idle governor"))(**params)
