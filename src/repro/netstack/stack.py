"""Wiring of the network stack over a processor and a NIC.

Creates, per core: a task scheduler and a socket queue, then hands the
RX side to the configured datapath backend (``repro.datapath``) — by
default the kernel NAPI path, which adds a ksoftirqd thread and a NAPI
context bound to the matching NIC queue (the testbed topology: one
queue per core, RSS steering flows evenly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cpu.topology import Processor
from repro.netstack.ksoftirqd import KsoftirqdThread
from repro.netstack.napi import NapiConfig, NapiContext
from repro.netstack.socket import SocketQueue
from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.osched.scheduler import CoreScheduler
from repro.units import MS


@dataclass(frozen=True)
class StackConfig:
    """Network-stack tunables."""

    napi: NapiConfig = field(default_factory=NapiConfig)
    timeslice_ns: int = 1 * MS
    mss_bytes: int = 1448
    #: Gap between consecutive ACKs of one response arriving back
    #: (serialization on the wire plus client-side processing).
    ack_spacing_ns: int = 8_000
    #: Schedule a multi-segment response's ACK flood as one chained train
    #: event instead of one heap entry per segment (same arrival times;
    #: the heap stays shallow). False restores the legacy per-ACK
    #: scheduling and its exact event ordering.
    batch_acks: bool = True


class NetworkStack:
    """Per-core RX machinery plus the Tx path back to the client.

    The RX side (how packets leave the NIC queues) is pluggable: the
    ``datapath`` name selects an :class:`~repro.datapath.base.RxBackend`
    from :mod:`repro.datapath` — the kernel NAPI path by default, or a
    kernel-bypass backend (busy poll, Metronome sleep&wake). The stack
    itself owns what every backend shares: per-core task schedulers and
    socket queues, delivery stamping, and the Tx/ACK path.
    """

    def __init__(self, sim, processor: Processor, nic: MultiQueueNic,
                 config: Optional[StackConfig] = None,
                 datapath: str = "napi",
                 datapath_params: Optional[dict] = None,
                 rng=None):
        if nic.n_queues != processor.n_cores:
            raise ValueError("expect one NIC queue per core")
        self.sim = sim
        self.processor = processor
        self.nic = nic
        self.config = config or StackConfig()
        #: RandomStreams of the run (backends derive private streams);
        #: optional so bare unit-test stacks need not provide one.
        self.rng = rng
        #: Span tracing enabled (set by the system builder); guards the
        #: per-packet boundary stamps.
        self.tracing = False
        self._response_sink: Optional[Callable[[Packet], None]] = None
        #: Optional synchronous variant ``response_sink_at(packet, t_ns)``
        #: for passive receivers (pure recorders): the NIC then notifies
        #: at transmit time with the delivery timestamp instead of
        #: scheduling one wire-delay event per response. Paired with
        #: ``response_sink`` — rebinding the sink clears it (see setter).
        self.response_sink_at: Optional[Callable[[Packet, int], None]] = None

        self.schedulers: List[CoreScheduler] = []
        self.sockets: List[SocketQueue] = []
        #: NAPI machinery, populated by the "napi" backend's build();
        #: empty under kernel-bypass backends (the legacy aggregate
        #: accessors below then read as zero).
        self.ksoftirqds: List[KsoftirqdThread] = []
        self.napis: List[NapiContext] = []
        for core in processor.cores:
            sched = CoreScheduler(sim, core,
                                  timeslice_ns=self.config.timeslice_ns)
            self.schedulers.append(sched)
            self.sockets.append(SocketQueue(core.core_id))
        # Imported here: repro.datapath sits above the netstack layer
        # (its backends import this module's siblings).
        from repro.datapath.registry import make_rx_backend
        self.rx = make_rx_backend(datapath, self, **(datapath_params or {}))
        self.rx.build()

    @property
    def response_sink(self) -> Optional[Callable[[Packet], None]]:
        """Called as ``response_sink(packet)`` when a response reaches the
        client side of the wire; set by the system builder."""
        return self._response_sink

    @response_sink.setter
    def response_sink(self, sink: Optional[Callable[[Packet], None]]) -> None:
        # A new receiver invalidates any synchronous fast-path variant
        # wired for the previous one (tests swap in their own clients).
        self._response_sink = sink
        self.response_sink_at = None

    def _deliver(self, packet: Packet, core_id: int) -> None:
        if self.tracing:
            request = packet.request
            if request is not None and request.trace is not None:
                request.trace.sock_ns = self.sim.now
        self.sockets[core_id].deliver(packet)

    def send_response(self, request, core_id: int) -> None:
        """Transmit a response for ``request`` from ``core_id``.

        The response is segmented at the MSS: every segment leaves a Tx
        completion for the poll loop, and — for TCP workloads
        (``request.acked_response``) — draws one inbound ACK per segment
        after a round trip, which the softirq must also process.
        """
        if self.response_sink is None:
            raise RuntimeError("response_sink not wired")
        if self.tracing and request.trace is not None:
            request.trace.tx_ns = self.sim.now
        n_segments = max(1, -(-int(request.response_bytes)
                              // self.config.mss_bytes))
        last_size = (int(request.response_bytes)
                     - (n_segments - 1) * self.config.mss_bytes)
        packet = Packet(flow_id=request.flow_id,
                        size_bytes=max(64, last_size),
                        created_ns=self.sim.now, request=request)
        # Extra segments: Tx completions only (payload carried by `packet`).
        if n_segments > 1:
            self.nic.queues[core_id].push_txc(n_segments - 1)
        self.nic.transmit(packet, core_id, self.response_sink,
                          sink_at=self.response_sink_at)
        if request.acked_response:
            rtt = 2 * self.nic.wire_latency_ns
            if self.config.batch_acks and n_segments > 1:
                # The whole train steers to one queue; hash the flow once.
                qid = self.nic.rss.queue_for(request.flow_id)
                self.sim.schedule(rtt, self._ack_train, request.flow_id,
                                  n_segments, qid)
            else:
                for i in range(n_segments):
                    self.sim.schedule(rtt + i * self.config.ack_spacing_ns,
                                      self._ack_arrives, request.flow_id)

    def _ack_train(self, flow_id: int, n_left: int, qid: int) -> None:
        """One chained event delivers a segment train's ACKs in sequence.

        Arrival times match the legacy per-ACK scheduling exactly; only
        one heap entry per in-flight train exists at a time, so an nginx
        burst (~70 segments per response) no longer floods the heap.
        """
        self._ack_arrives(flow_id, qid)
        if n_left > 1:
            self.sim.schedule(self.config.ack_spacing_ns, self._ack_train,
                              flow_id, n_left - 1, qid)

    def _ack_arrives(self, flow_id: int, qid: Optional[int] = None) -> None:
        free = self.nic.free_acks
        if free:
            ack = free.pop()
            ack.flow_id = flow_id
            ack.created_ns = self.sim.now
        else:
            ack = Packet(flow_id=flow_id, size_bytes=64,
                         created_ns=self.sim.now, kind=Packet.KIND_ACK)
        self.nic.receive(ack, qid)

    # Aggregate counters used by experiments ---------------------------- #

    def total_pkts_interrupt_mode(self) -> int:
        return sum(n.pkts_interrupt_mode for n in self.napis)

    def total_pkts_polling_mode(self) -> int:
        return sum(n.pkts_polling_mode for n in self.napis)

    def total_ksoftirqd_wakeups(self) -> int:
        return sum(k.wake_count for k in self.ksoftirqds)
