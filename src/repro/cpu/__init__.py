"""CPU substrate: P/C-states, execution engine, DVFS, power accounting.

This package models the processor the paper evaluates on (Intel Xeon Gold
6134: 8 cores, per-core DVFS, 16 P-states from 1.2 to 3.2 GHz) plus the
three other processors whose transition latencies Tables 1 and 2 report.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "pstate": ("PState", "PStateTable"),
    "cstate": ("CState", "CStateTable"),
    "power": ("PowerModel", "EnergyMeter"),
    "core": ("Core", "Work", "PRIORITY_HARDIRQ", "PRIORITY_SOFTIRQ",
             "PRIORITY_TASK"),
    "dvfs": ("DvfsController", "TransitionLatencyModel"),
    "profiles": ("ProcessorProfile", "PROCESSOR_PROFILES", "XEON_GOLD_6134"),
    "topology": ("Processor",),
})
