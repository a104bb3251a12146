"""Fleet configuration: node template, dispatch policy, session model,
power budget, and the lockstep lookahead."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.cluster.health import HealthPolicy
from repro.faults.plan import FaultPlan
from repro.obs.timeline import TimelineConfig
from repro.sim.rng import derive_stream
from repro.system import ServerConfig
from repro.units import MS


@dataclass
class FleetConfig:
    """Everything needed to build one fleet experiment.

    Per-node randomness derives from ``seed`` via
    :func:`repro.sim.rng.derive_stream`, so the ``node`` template's own
    ``seed``/``arrival_seed`` fields are ignored — every node gets an
    independent stream family, and the fleet-level streams (arrival
    schedule, session draws, LB tie-breaking) are independent of all of
    them.
    """

    #: Template applied to every node (seed fields are overridden).
    node: ServerConfig = field(default_factory=ServerConfig)
    n_nodes: int = 2
    #: Dispatch policy name (``repro.cluster.lb.POLICIES``).
    policy: str = "round-robin"
    policy_params: dict = field(default_factory=dict)
    #: LB -> node wire latency. Doubles as the conservative-lockstep
    #: lookahead: a dispatch decided at a window's start cannot reach a
    #: node before the window ends, so per-window dispatch with
    #: start-of-window node state is exact, not an approximation. Must
    #: not exceed the node's client wire latency.
    lb_wire_latency_ns: int = 5_000
    #: Fixed pool of client sessions. The L4 balancer is
    #: connection-affine: a session sticks to its node, so a smaller
    #: pool (or more nodes) leaves fewer sessions per node and the
    #: law of small numbers skews per-node load.
    n_sessions: int = 64
    #: Zipf exponent of the per-session weight distribution; 0 = uniform.
    session_skew: float = 0.0
    #: Fleet-wide power budget (watts), split by the fleet's
    #: :class:`~repro.cluster.power.BudgetArbiter` and enforced as
    #: per-node P-state caps; None disables budgeting.
    fleet_budget_w: Optional[float] = None
    #: Budget redistribution cadence (rounded up to lockstep windows).
    budget_period_ns: int = 10 * MS
    #: LB health checking / failover (``repro.cluster.health``); None
    #: disables it — the dispatch paths are then untouched and fleet
    #: results stay bit-identical to pre-health behaviour. Setting a
    #: policy forces the windowed dispatch path even for feedback-free
    #: policies (health inference needs per-window observation).
    health: Optional[HealthPolicy] = None
    #: Per-node fault plans (``repro.faults``), overriding the node
    #: template's ``fault_plan`` for the named nodes only.
    node_fault_plans: Dict[int, FaultPlan] = field(default_factory=dict)
    #: Per-node :class:`ServerConfig` field overrides (e.g. a different
    #: ``freq_governor`` on some nodes — a mixed-governor fleet).
    #: Applied by :meth:`node_config` after the seed/fault overrides, so
    #: they may not override seeds.
    node_overrides: Dict[int, dict] = field(default_factory=dict)
    #: Shards the fleet's nodes are split over, clamped to ``n_nodes``.
    #: One (default) runs every node in-process; more make
    #: :class:`~repro.cluster.fleet.FleetSystem` start that many worker
    #: processes stepped through the same window barriers
    #: (``repro.cluster.sharded``). Results are bit-identical for every
    #: value — the shard count is an execution detail, like
    #: ``repro.experiments.parallel.run_many``'s worker count.
    shards: int = 1
    #: Adaptive lookahead: the lockstep driver may coalesce up to this
    #: many consecutive windows into one stride when no dispatch, health
    #: observation, or budget decision could occur inside them (see
    #: docs/CLUSTER.md). 1 disables coalescing and reproduces the
    #: window-by-window loop literally; results are bit-identical for
    #: every value — strides only skip provably-idle barrier work.
    max_stride_windows: int = 64
    #: Fleet-level windowed time-series sampling + monitors + flight
    #: recorder (``repro.obs.timeline``). Samples are taken at lockstep
    #: barriers (the interval is rounded up to whole windows), master-
    #: side for monitors/ring, worker-side for the rows — so sharded and
    #: in-process timelines are bit-identical. None samples nothing and
    #: keeps runs bit-identical to pre-timeline behaviour.
    timeline: Optional[TimelineConfig] = None
    seed: int = 0

    def with_overrides(self, **kwargs) -> "FleetConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)

    def node_seed(self, node_id: int) -> int:
        """The independent master seed of node ``node_id``."""
        return derive_stream(self.seed, "node", node_id)

    def node_config(self, node_id: int) -> ServerConfig:
        """The concrete :class:`ServerConfig` of node ``node_id``."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range "
                             f"[0, {self.n_nodes})")
        # Nodes never sample their own timelines in a fleet: sampling is
        # fleet-level (lockstep-barrier cadence, driven by the master).
        overrides = dict(seed=self.node_seed(node_id), arrival_seed=None,
                         timeline=None)
        plan = self.node_fault_plans.get(node_id)
        if plan is not None:
            overrides["fault_plan"] = plan
        extra = self.node_overrides.get(node_id)
        if extra:
            if "seed" in extra or "arrival_seed" in extra:
                raise ValueError(
                    "node_overrides may not override seeds: per-node "
                    "randomness derives from the fleet seed")
            overrides.update(extra)
        return self.node.with_overrides(**overrides)

    def arrival_seed(self) -> int:
        """Seed of the fleet-wide arrival schedule generator."""
        return derive_stream(self.seed, "fleet", "client")
