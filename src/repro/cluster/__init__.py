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

from repro.cluster.config import FleetConfig
from repro.cluster.fleet import FleetResult, FleetSystem, run_fleet
from repro.cluster.lb import POLICIES, DispatchPolicy, NodeView, make_policy
from repro.cluster.power import BudgetArbiter, PowerBudgetCoordinator
from repro.cluster.sharded import ShardedFleetSystem

__all__ = [
    "FleetConfig", "FleetSystem", "FleetResult", "run_fleet",
    "DispatchPolicy", "NodeView", "POLICIES", "make_policy",
    "PowerBudgetCoordinator", "BudgetArbiter", "ShardedFleetSystem",
]
