"""The multi-queue NIC device model."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.nic.interrupt import InterruptModerator
from repro.nic.packet import Packet
from repro.nic.queue import NicQueue
from repro.nic.rss import RssDistributor
from repro.units import US


class MultiQueueNic:
    """A multi-queue NIC with RSS steering and per-queue moderation.

    Each queue is bound to an interrupt handler (the queue's NAPI context)
    via :meth:`bind`. The NAPI context owns the queue's interrupt-enable
    state: while polling it calls :meth:`disable_irq`; on drain it calls
    :meth:`enable_irq`, which re-arms a pending interrupt if work remains.

    Transmit is modelled as a wire delay to the client sink plus a
    Tx-completion descriptor pushed back onto the queue for the poll loop
    to clean (Fig. 1's Tx path).
    """

    def __init__(self, sim, n_queues: int,
                 rss: Optional[RssDistributor] = None,
                 itr_gap_ns: int = 10 * US,
                 wire_latency_ns: int = 5 * US,
                 rx_capacity: int = 4096):
        if n_queues < 1:
            raise ValueError("need at least one queue")
        self.sim = sim
        self.queues: List[NicQueue] = [NicQueue(q, rx_capacity)
                                       for q in range(n_queues)]
        self.rss = rss or RssDistributor(n_queues)
        if self.rss.n_queues != n_queues:
            raise ValueError("RSS distributor sized for a different queue count")
        self.moderators = [InterruptModerator(itr_gap_ns) for _ in range(n_queues)]
        self.wire_latency_ns = wire_latency_ns
        self._handlers: List[Optional[Callable[[int], None]]] = [None] * n_queues
        self._irq_enabled = [True] * n_queues
        self._irq_pending_ev: List[Optional[object]] = [None] * n_queues
        #: Per-queue RX doorbells (``repro.datapath`` poll-mode backend):
        #: called synchronously as ``doorbell(qid)`` when a packet lands
        #: while the queue's interrupt is masked. None until a backend
        #: arms one, so the interrupt-driven path pays nothing.
        self._rx_doorbells: Optional[List[Optional[Callable[[int], None]]]] = None
        self.rx_packets = 0
        #: Rx packets that carry a request payload (what NCAP's NIC-level
        #: latency-critical-request filter counts).
        self.rx_data_packets = 0
        self.tx_packets = 0
        #: Span tracing enabled (set by the system builder when a run
        #: samples requests); guards the per-packet stamp so the untraced
        #: hot path pays nothing.
        self.tracing = False
        #: Consumed bare-ACK packets, returned by the poll loop for the
        #: stack's ACK generator to re-stamp (ACK floods of multi-segment
        #: responses otherwise allocate one short-lived Packet per ACK).
        self.free_acks: List[Packet] = []
        #: The match-action pipeline (``repro.p4.PipelineEngine``), or
        #: None for raw RSS. Installed here — on the class receive path,
        #: not as an instance-dict shadow — so fault-injected wire loss
        #: (which shadows :meth:`receive` and delegates to the class
        #: method) composes *in front of* the pipeline.
        self.pipeline = None

    @property
    def n_queues(self) -> int:
        return len(self.queues)

    def bind(self, queue_id: int, handler: Callable[[int], None]) -> None:
        """Attach the interrupt handler (NAPI context) for ``queue_id``."""
        self._handlers[queue_id] = handler

    def set_rx_doorbell(self, queue_id: int,
                        doorbell: Optional[Callable[[int], None]]) -> None:
        """Arm a synchronous RX-arrival doorbell for ``queue_id``.

        Fired from :meth:`receive` when the queue's interrupt is masked
        — the hook a poll-mode driver uses to cut an empty-poll spin
        short the instant work arrives. Fault injectors shadow
        :meth:`receive` in the instance dict while delegating to the
        class method, so the doorbell survives fault scenarios.
        """
        if self._rx_doorbells is None:
            self._rx_doorbells = [None] * self.n_queues
        self._rx_doorbells[queue_id] = doorbell

    # ------------------------------------------------------------------ #
    # Rx path
    # ------------------------------------------------------------------ #

    def receive(self, packet: Packet, qid: Optional[int] = None) -> bool:
        """A packet arrives from the wire; returns False if dropped.

        ``qid`` short-circuits RSS steering when the caller already knows
        the queue (an ACK train hashes the same flow every segment).
        With a pipeline installed, queue selection belongs to the
        program: the caller's hint is ignored (its unsteered fallback is
        the same hash RSS, so an identity program picks the same queue).
        """
        if self.pipeline is not None:
            return self.pipeline.rx(packet)
        if qid is None:
            qid = self.rss.queue_for(packet.flow_id)
        return self.enqueue_rx(packet, qid)

    def enqueue_rx(self, packet: Packet, qid: int) -> bool:
        """Land a packet on RX queue ``qid``; returns False on tail drop.

        The post-classification half of :meth:`receive` — the pipeline
        engine calls this directly once it has chosen (or delayed to)
        the queue.
        """
        queue = self.queues[qid]
        if not queue.push_rx(packet):
            return False
        self.rx_packets += 1
        if packet.kind == Packet.KIND_DATA and packet.request is not None:
            self.rx_data_packets += 1
            if self.tracing:
                ctx = packet.request.trace
                if ctx is not None:
                    ctx.nic_rx_ns = self.sim.now
        # Inline the common no-op guards: under load the interrupt is
        # masked or already pending for nearly every packet of a burst,
        # so one batched irq event serves N arrivals (moderation + NAPI).
        if self._irq_enabled[qid] and self._irq_pending_ev[qid] is None:
            self._maybe_raise_irq(qid)
        elif self._rx_doorbells is not None:
            doorbell = self._rx_doorbells[qid]
            if doorbell is not None:
                doorbell(qid)
        return True

    def _maybe_raise_irq(self, qid: int) -> None:
        if not self._irq_enabled[qid]:
            return
        if self._irq_pending_ev[qid] is not None:
            return
        if not self.queues[qid].has_work:
            return
        fire_at = self.moderators[qid].next_fire_time(self.sim.now)
        self._irq_pending_ev[qid] = self.sim.schedule_at(
            fire_at, self._fire_irq, qid)

    def _fire_irq(self, qid: int) -> None:
        self._irq_pending_ev[qid] = None
        if not self._irq_enabled[qid] or not self.queues[qid].has_work:
            return
        self.moderators[qid].record_fire(self.sim.now)
        handler = self._handlers[qid]
        if handler is None:
            raise RuntimeError(f"queue {qid} has no bound interrupt handler")
        handler(qid)

    # ------------------------------------------------------------------ #
    # IRQ enable/disable (driven by NAPI)
    # ------------------------------------------------------------------ #

    def irq_enabled(self, qid: int) -> bool:
        return self._irq_enabled[qid]

    def disable_irq(self, qid: int) -> None:
        """Mask the queue's interrupt (NAPI entering polling)."""
        self._irq_enabled[qid] = False
        ev = self._irq_pending_ev[qid]
        if ev is not None:
            self.sim.cancel(ev)
            self._irq_pending_ev[qid] = None

    def enable_irq(self, qid: int) -> None:
        """Unmask the queue's interrupt; re-arms if work is pending."""
        self._irq_enabled[qid] = True
        self._maybe_raise_irq(qid)

    # ------------------------------------------------------------------ #
    # Tx path
    # ------------------------------------------------------------------ #

    def transmit(self, packet: Packet, qid: int,
                 sink: Callable[[Packet], None],
                 sink_at: Optional[Callable[[Packet, int], None]] = None) -> None:
        """Send a packet: wire delay to ``sink``, completion to the queue.

        When the receiver is purely passive (the open-loop client only
        records the delivery), ``sink_at`` lets it be notified
        synchronously with the future delivery timestamp — no wire-delay
        event per response enters the heap.
        """
        self.tx_packets += 1
        self.queues[qid].push_txc()
        self._maybe_raise_irq(qid)
        if sink_at is not None:
            sink_at(packet, self.sim.now + self.wire_latency_ns)
        else:
            self.sim.schedule(self.wire_latency_ns, sink, packet)
