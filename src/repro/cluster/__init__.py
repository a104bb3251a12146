"""Multi-node fleet co-simulation (load balancing + power budgeting).

``repro.cluster`` scales the single-server model out: N full
:class:`~repro.system.ServerSystem` nodes — each with its own event
kernel, NIC, network stack, application, and power management — run in
deterministic conservative lockstep behind a simulated L4/L7 load
balancer, optionally under a fleet-wide RAPL-style power budget.

Public surface::

    from repro.cluster import FleetConfig, FleetSystem, run_fleet

    result = run_fleet(FleetConfig(n_nodes=4, policy="power-aware"),
                       duration_ns=300 * MS)
    print(result.slo_result().describe())

See ``docs/CLUSTER.md`` for the co-simulation model and its determinism
guarantees.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("FleetConfig",),
    "fleet": ("FleetResult", "FleetSystem", "run_fleet"),
    "lb": ("POLICIES", "DispatchPolicy", "NodeView", "make_policy"),
    "power": ("BudgetArbiter",),
})
