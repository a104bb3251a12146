"""Declarative match-action pipeline programs (frozen, hashable).

A :class:`PipelineProgram` is run *configuration*, exactly like a
:class:`~repro.faults.plan.FaultPlan`: a tuple of frozen
:class:`TableStage` dataclasses, each a tuple of :class:`TableEntry`
rules, validated at construction and canonicalized field-by-field by
``repro.experiments.confighash`` — two runs with the same program (and
seed) hit the same cache line, and any edit to a table changes the key.

Match model: every entry names one *field* of the packet metadata
vector, an integer ``value``, and an optional ``mask`` (ternary/TCAM
semantics: the entry matches when ``field_value & mask == value &
mask``). Entries are first-match-wins in declaration order; a stage
with no matching entry applies its ``miss_action`` (``"continue"`` or
``"drop"``). All fields are deterministic functions of the packet, so a
program adds no randomness anywhere:

``session``
    The flow id itself (connection affinity: one entry per session).
``flow_hash``
    The RSS mix of the flow id (splitmix64 finalizer) — what a
    Toeplitz-style hash-RSS table would see.
``size_class``
    ``ceil(log2(size_bytes))`` — frame-size bucketing.
``kind``
    0 for data frames (requests), 1 for bare ACKs.
``priority``
    0 for latency-critical request payloads (what NCAP's NIC filter
    counts), 1 for everything else. Every data frame is a request, so
    this equals ``kind``; it stays a field of its own so programs can
    name the intent.

Action model (kind-specific knobs live on the entry):

``steer``
    Pin matching packets to NIC queue ``queue``, overriding hash RSS —
    programmable RSS/flow pinning as a table.
``drop``
    Discard before the RX ring (an ACL). Feeds the fault-injection
    accounting surface: drops land on the ``fault.p4.drop`` trace
    channel and the client counts them like wire loss.
``mirror``
    Count-and-copy to an analyzer port (the copy leaves the model);
    the original continues. Lands on ``fault.p4.mirror``.
``meter``
    Deterministic token bucket (``rate_pps`` tokens/s, ``burst_pkts``
    depth). Conforming packets continue; excess packets are dropped
    (``exceed_action="drop"``) or marked-and-forwarded (``"mark"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

FIELD_SESSION = "session"
FIELD_FLOW_HASH = "flow_hash"
FIELD_SIZE_CLASS = "size_class"
FIELD_KIND = "kind"
FIELD_PRIORITY = "priority"

FIELDS = (FIELD_SESSION, FIELD_FLOW_HASH, FIELD_SIZE_CLASS, FIELD_KIND,
          FIELD_PRIORITY)

ACTION_STEER = "steer"
ACTION_DROP = "drop"
ACTION_MIRROR = "mirror"
ACTION_METER = "meter"

ACTIONS = (ACTION_STEER, ACTION_DROP, ACTION_MIRROR, ACTION_METER)

#: Meter overflow behaviours.
EXCEED_ACTIONS = ("drop", "mark")

COST_MODELS = ("nic", "core")


def size_class_of(size_bytes: int) -> int:
    """The ``size_class`` metadata value of a frame: ceil(log2(size))."""
    return max(0, int(size_bytes) - 1).bit_length()


@dataclass(frozen=True)
class TableEntry:
    """One match-action rule of a table stage."""

    field: str
    value: int
    mask: Optional[int] = None
    action: str = ACTION_STEER
    #: ``steer``: target NIC queue (validated against the run's queue
    #: count when the engine is built).
    queue: Optional[int] = None
    #: ``meter``: token refill rate, packets per second.
    rate_pps: float = 0.0
    #: ``meter``: bucket depth in packets.
    burst_pkts: int = 0
    #: ``meter``: what happens to non-conforming packets.
    exceed_action: str = "drop"

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown match field {self.field!r}; "
                             f"known: {list(FIELDS)}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; "
                             f"known: {list(ACTIONS)}")
        if self.value < 0:
            raise ValueError("match value must be >= 0")
        if self.mask is not None and self.mask < 0:
            raise ValueError("match mask must be >= 0")
        if self.action == ACTION_STEER:
            if self.queue is None or self.queue < 0:
                raise ValueError("steer entry needs a queue >= 0")
        elif self.queue is not None:
            raise ValueError(f"{self.action} entry must not name a queue")
        if self.action == ACTION_METER:
            if self.rate_pps <= 0:
                raise ValueError("meter entry needs rate_pps > 0")
            if self.burst_pkts < 1:
                raise ValueError("meter entry needs burst_pkts >= 1")
            if self.exceed_action not in EXCEED_ACTIONS:
                raise ValueError(f"unknown exceed_action "
                                 f"{self.exceed_action!r}; known: "
                                 f"{list(EXCEED_ACTIONS)}")
        elif self.rate_pps or self.burst_pkts:
            raise ValueError(f"{self.action} entry must not carry "
                             f"meter parameters")

    def matches(self, field_value: int) -> bool:
        """Exact or ternary match of one metadata value."""
        if self.mask is None:
            return field_value == self.value
        return (field_value & self.mask) == (self.value & self.mask)


@dataclass(frozen=True)
class TableStage:
    """One match-action table: ordered entries, first-match-wins."""

    name: str
    entries: Tuple[TableEntry, ...] = ()
    #: Cycles charged per packet traversing this stage (hit or miss).
    cycles_per_packet: float = 0.0
    #: Applied when no entry matches: "continue" or "drop".
    miss_action: str = "continue"

    def __post_init__(self):
        if not self.name:
            raise ValueError("table stage needs a name")
        if not isinstance(self.entries, tuple):
            # Tolerate lists at construction for ergonomics; store a
            # tuple so the stage stays hashable and canonicalizes stably.
            object.__setattr__(self, "entries", tuple(self.entries))
        if self.cycles_per_packet < 0:
            raise ValueError("cycles_per_packet must be >= 0")
        if self.miss_action not in ("continue", "drop"):
            raise ValueError(f"unknown miss_action {self.miss_action!r}; "
                             f"known: ['continue', 'drop']")


@dataclass(frozen=True)
class PipelineProgram:
    """Parser → N table stages → deparser, as one hashable config value.

    An empty program (no stages, zero parser/deparser cycles) is falsy
    and equivalent to no program at all: the system never builds an
    engine and the run is bit-identical to one without ``repro.p4``
    (enforced by ``tests/p4/test_parity.py``). A truthy *identity*
    program — stages that match nothing and cost nothing — builds the
    engine but must still be bit-identical; that is the subsystem's
    zero-cost contract.
    """

    stages: Tuple[TableStage, ...] = ()
    #: Cycles charged per packet by the parser (before any table).
    parser_cycles: float = 0.0
    #: Cycles charged per *forwarded* packet by the deparser (dropped
    #: packets never reach it).
    deparser_cycles: float = 0.0
    #: Where traversal cycles are charged: "nic" (offload model — the
    #: pipeline adds deterministic latency at ``nic_hz``, host cores
    #: are untouched) or "core" (host model — cycles are submitted as
    #: softirq-priority work to the queue's retrieval core).
    cost_model: str = "nic"
    #: The NIC pipeline clock for the "nic" cost model.
    nic_hz: float = 1_000_000_000.0

    def __post_init__(self):
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))
        if self.parser_cycles < 0 or self.deparser_cycles < 0:
            raise ValueError("parser/deparser cycles must be >= 0")
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"unknown cost_model {self.cost_model!r}; "
                             f"known: {list(COST_MODELS)}")
        if self.nic_hz <= 0:
            raise ValueError("nic_hz must be positive")
        seen = []
        for stage in self.stages:
            if stage.name in seen:
                raise ValueError(f"duplicate table stage name "
                                 f"{stage.name!r}")
            seen.append(stage.name)

    def __bool__(self) -> bool:
        return (bool(self.stages) or self.parser_cycles > 0
                or self.deparser_cycles > 0)

    def table_names(self) -> Tuple[str, ...]:
        """Stage names in traversal order."""
        return tuple(stage.name for stage in self.stages)

    def max_steer_queue(self) -> int:
        """Highest queue any steer entry targets (-1 when none steer)."""
        queues = [entry.queue for stage in self.stages
                  for entry in stage.entries
                  if entry.action == ACTION_STEER]
        return max(queues, default=-1)


def chained(*programs: PipelineProgram) -> PipelineProgram:
    """Compose programs into one: stages concatenate in order, parser
    and deparser costs sum. All inputs must agree on the cost model and
    NIC clock (mixing charge targets in one pipeline is a config error,
    not a merge)."""
    programs = [p for p in programs if p is not None]
    if not programs:
        return PipelineProgram()
    models = [(p.cost_model, p.nic_hz) for p in programs]
    if any(m != models[0] for m in models[1:]):
        raise ValueError("chained programs must share cost_model/nic_hz")
    return PipelineProgram(
        stages=tuple(stage for p in programs for stage in p.stages),
        parser_cycles=sum(p.parser_cycles for p in programs),
        deparser_cycles=sum(p.deparser_cycles for p in programs),
        cost_model=programs[0].cost_model,
        nic_hz=programs[0].nic_hz)


__all__ = ["FIELDS", "ACTIONS", "TableEntry", "TableStage",
           "PipelineProgram", "chained", "size_class_of"]
