"""Deterministic fault injection (see docs/FAULTS.md).

Public API::

    from repro.faults import FaultPlan, FaultWindow, make_plan

    plan = make_plan("loss-burst", duration_ns=300 * MS)
    config = ServerConfig(fault_plan=plan, retry=RetryPolicy())
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "plan": ("KINDS", "FaultPlan", "FaultWindow", "merged"),
    "scenarios": ("SCENARIOS", "make_plan"),
})
