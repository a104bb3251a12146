"""The pipeline engine: executes one PipelineProgram on the RX path.

Built by :class:`~repro.system.ServerSystem` **only when the config
carries a truthy program** — a ``pipeline=None`` (or empty-program) run
never constructs an engine and the NIC's receive path is untouched, so
it is bit-identical to a build of the code without this package
(enforced by ``tests/p4/test_parity.py``; the same test holds a truthy
*identity* program bit-identical too, because matching nothing and
costing nothing changes no event).

The engine is installed as :attr:`MultiQueueNic.pipeline` — a first-
class optional attribute consulted inside the *class*
:meth:`~repro.nic.nic.MultiQueueNic.receive`, deliberately **not** an
instance-dict shadow: fault injectors shadow ``receive`` in the
instance dict and delegate to the class method, so injected wire loss
composes in front of the pipeline (loss happens on the wire, before
the NIC parses anything) instead of silently bypassing it.

Steering: the pipeline owns queue selection. Packets that hit a
``steer`` entry go to that queue; everything else falls back to the
same hash RSS the backends use (``nic.rss.queue_for``) — which is also
what the caller-precomputed ACK-train qid would have been, so an
identity program steers bit-identically.

Cost accounting (``program.cost_model``):

* ``"nic"`` — offload model: traversal cycles convert to nanoseconds at
  ``program.nic_hz`` and delay the RX-ring enqueue by one scheduled
  event. Host cores never see the work; pipeline depth shows up as
  latency (and, through later pickup, energy).
* ``"core"`` — host model: traversal cycles are submitted as
  softirq-priority :class:`~repro.cpu.core.Work` to the queue's
  retrieval core (the irq-storm charging pattern), contending with the
  very poll loops that will drain the packet.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cpu.core import PRIORITY_SOFTIRQ, Work
from repro.nic.queue import RxItem
from repro.nic.rss import _mix
from repro.p4.program import (ACTION_DROP, ACTION_METER, ACTION_MIRROR,
                              ACTION_STEER, FIELD_FLOW_HASH, FIELD_SESSION,
                              FIELD_SIZE_CLASS, FIELDS, PipelineProgram,
                              size_class_of)
from repro.units import S


class _TableRuntime:
    """Mutable per-stage state: compiled lookup, counters, meter buckets."""

    __slots__ = ("stage", "entries", "cycles_per_packet", "miss_drop",
                 "index", "index_field", "meter_state", "hits", "misses",
                 "steers", "drops", "mirrors", "marks", "meter_exceeded",
                 "cycles_total")

    def __init__(self, stage):
        self.stage = stage
        self.entries = stage.entries
        self.cycles_per_packet = stage.cycles_per_packet
        self.miss_drop = stage.miss_action == "drop"
        # Fast path: a table whose entries are all exact matches on one
        # field compiles to a dict (first entry wins on duplicates,
        # preserving first-match-wins semantics).
        self.index: Optional[Dict[int, int]] = None
        self.index_field = ""
        if self.entries and all(e.mask is None for e in self.entries):
            fields = [e.field for e in self.entries]
            if all(f == fields[0] for f in fields):
                self.index_field = fields[0]
                index: Dict[int, int] = {}
                for i, entry in enumerate(self.entries):
                    index.setdefault(entry.value, i)
                self.index = index
        #: Per-entry token buckets: [tokens, last_refill_ns].
        self.meter_state: List[List] = [
            [float(e.burst_pkts), 0] if e.action == ACTION_METER else None
            for e in self.entries]
        self.hits = 0
        self.misses = 0
        self.steers = 0
        self.drops = 0
        self.mirrors = 0
        self.marks = 0
        self.meter_exceeded = 0
        self.cycles_total = 0.0

    def lookup(self, meta: Dict[str, int]) -> Optional[int]:
        """Index of the first matching entry, or None on a miss."""
        if self.index is not None:
            return self.index.get(meta[self.index_field])
        for i, entry in enumerate(self.entries):
            if entry.matches(meta[entry.field]):
                return i
        return None


class PipelineEngine:
    """One node's live pipeline: program + NIC + cost-charging wiring."""

    def __init__(self, program: PipelineProgram, nic, sim,
                 processor=None, backend=None):
        self.program = program
        self.nic = nic
        self.sim = sim
        self.trace = sim.trace
        top = program.max_steer_queue()
        if top >= nic.n_queues:
            raise ValueError(
                f"steer entry targets queue {top}, but the NIC has "
                f"{nic.n_queues} queues")
        self._tables = [_TableRuntime(stage) for stage in program.stages]
        self._parser_cycles = program.parser_cycles
        self._deparser_cycles = program.deparser_cycles
        self._ns_per_cycle = S / program.nic_hz
        #: Queue id -> the Core charged under the "core" cost model;
        #: None selects the "nic" (offload) model.
        self._cores = None
        if program.cost_model == "core":
            if processor is None or backend is None:
                raise ValueError("cost_model='core' needs the processor "
                                 "and the RX backend to charge cycles")
            self._cores = [
                processor.cores[backend.retrieval_core_for_queue(q)]
                for q in range(nic.n_queues)]
        # The metadata fields this program actually matches on, in
        # canonical FIELDS order (parse only what the program reads).
        used = frozenset(entry.field for stage in program.stages
                         for entry in stage.entries)
        self._need = tuple(f for f in FIELDS if f in used)

        # Aggregate counters (merged into RunResult.telemetry).
        self.parsed = 0
        self.forwarded = 0
        self.dropped = 0
        self.mirrored = 0
        self.marked = 0
        self.steered = 0
        #: Tail drops at delayed ("nic"-model) enqueue time: the packet
        #: had already been accepted off the wire, so the client's
        #: ``dropped`` counter does not see these.
        self.ring_dropped = 0
        self.cycles_total = 0.0
        self.parser_cycles_total = 0.0
        self.deparser_cycles_total = 0.0

    # ------------------------------------------------------------------ #

    def _meta(self, packet: RxItem) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for field in self._need:
            if field == FIELD_SESSION:
                out[field] = packet.flow_id
            elif field == FIELD_FLOW_HASH:
                out[field] = _mix(packet.flow_id)
            elif field == FIELD_SIZE_CLASS:
                out[field] = size_class_of(packet.size_bytes)
            else:  # kind and priority: requests 0, bare ACKs 1
                out[field] = 1 if packet.is_ack else 0
        return out

    def rx(self, packet: RxItem) -> bool:
        """The NIC receive path under a program; False = dropped here."""
        self.parsed += 1
        cycles = self._parser_cycles
        self.parser_cycles_total += self._parser_cycles
        meta = self._meta(packet) if self._need else None
        qid = -1
        dropped = False
        for rt in self._tables:
            cycles += rt.cycles_per_packet
            rt.cycles_total += rt.cycles_per_packet
            i = rt.lookup(meta) if rt.entries else None
            if i is None:
                rt.misses += 1
                if rt.miss_drop:
                    dropped = True
                    break
                continue
            rt.hits += 1
            entry = rt.entries[i]
            action = entry.action
            if action == ACTION_STEER:
                qid = entry.queue
                rt.steers += 1
            elif action == ACTION_DROP:
                rt.drops += 1
                dropped = True
                break
            elif action == ACTION_MIRROR:
                rt.mirrors += 1
                self.mirrored += 1
                if self.trace is not None:
                    self.trace.record("fault.p4.mirror", self.sim.now, 1)
            else:  # meter
                state = rt.meter_state[i]
                now = self.sim.now
                tokens = state[0] + (now - state[1]) * entry.rate_pps / S
                if tokens > entry.burst_pkts:
                    tokens = float(entry.burst_pkts)
                state[1] = now
                if tokens >= 1.0:
                    state[0] = tokens - 1.0
                else:
                    state[0] = tokens
                    rt.meter_exceeded += 1
                    if entry.exceed_action == "drop":
                        dropped = True
                        break
                    rt.marks += 1
                    self.marked += 1
        if qid >= 0:
            self.steered += 1
        else:
            # The shared default: the same hash RSS every backend uses
            # (and the value ACK trains precompute), so a program with
            # no matching steer entry steers bit-identically.
            qid = self.nic.rss.queue_for(packet.flow_id)
        if not dropped:
            cycles += self._deparser_cycles
            self.deparser_cycles_total += self._deparser_cycles
        self.cycles_total += cycles
        if self._cores is not None:
            # Host model: classification contends with retrieval.
            if cycles > 0:
                self._cores[qid].submit(
                    Work(cycles, PRIORITY_SOFTIRQ, label="p4.pipeline"))
            if dropped:
                return self._count_drop()
            self.forwarded += 1
            return self.nic.enqueue_rx(packet, qid)
        # Offload model: classification delays the ring enqueue.
        if dropped:
            return self._count_drop()
        self.forwarded += 1
        delay_ns = int(cycles * self._ns_per_cycle)
        if delay_ns <= 0:
            return self.nic.enqueue_rx(packet, qid)
        sim = self.sim
        sim.queue.push(sim.now + delay_ns, self._arrive, (packet, qid))
        return True

    def _count_drop(self) -> bool:
        self.dropped += 1
        if self.trace is not None:
            self.trace.record("fault.p4.drop", self.sim.now, 1)
        return False

    def _arrive(self, packet: RxItem, qid: int) -> None:
        """Delayed ("nic" cost model) ring enqueue."""
        if not self.nic.enqueue_rx(packet, qid):
            self.ring_dropped += 1

    # ------------------------------------------------------------------ #

    def register_into(self, reg) -> None:
        """Register pipeline counters; table actions once they apply."""
        for name, help_text, attr, labels in (
                ("p4_packets_total", "Packets entering the pipeline",
                 "parsed", {"verdict": "parsed"}),
                ("p4_packets_total", "", "forwarded",
                 {"verdict": "forwarded"}),
                ("p4_packets_total", "", "dropped", {"verdict": "dropped"}),
                ("p4_steered_total", "Packets whose queue came from a steer "
                 "entry", "steered", {}),
                ("p4_mirrored_total", "Packets copied to the mirror port",
                 "mirrored", {}),
                ("p4_marked_total", "Meter-exceeding packets forwarded with "
                 "a mark", "marked", {}),
                ("p4_ring_dropped_total", "Delayed enqueues tail-dropped at "
                 "the RX ring", "ring_dropped", {}),
                ("p4_stage_cycles_total", "Cycles charged per stage",
                 "parser_cycles_total", {"stage": "parser"}),
                ("p4_stage_cycles_total", "", "deparser_cycles_total",
                 {"stage": "deparser"})):
            reg.counter(name, help_text,
                        read=lambda attr=attr: getattr(self, attr),
                        subsystem="p4", **labels)
        for rt in self._tables:
            table = {"subsystem": "p4", "table": rt.stage.name}
            reg.counter("p4_table_hits_total", "Table lookups that matched",
                        read=lambda rt=rt: rt.hits, **table)
            reg.counter("p4_table_misses_total", "Table lookups that missed",
                        read=lambda rt=rt: rt.misses, **table)
            reg.counter("p4_stage_cycles_total",
                        read=lambda rt=rt: rt.cycles_total, subsystem="p4",
                        stage=rt.stage.name)
            for action, attr in (("steer", "steers"), ("drop", "drops"),
                                 ("mirror", "mirrors"), ("mark", "marks"),
                                 ("meter-exceeded", "meter_exceeded")):
                reg.counter("p4_table_actions_total",
                            "Actions applied by table and kind",
                            read=lambda rt=rt, a=attr: getattr(rt, a) or None,
                            action=action, **table)

__all__ = ["PipelineEngine"]
