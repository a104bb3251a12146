"""DPDK-style poll-mode RX: dedicated cores spin on the rings.

A configurable number of *poll cores* (the first ``n_poll_cores`` core
ids) run one :class:`PollThread` each and host no application worker;
every NIC queue is owned by exactly one poll core and has its interrupt
permanently masked. The thread alternates between burst retrievals
(Tx-completion cleaning first, then Rx, at userspace-driver per-packet
costs — no skb/softirq tax) and short *spin chunks* that model the
empty-poll loop: real :class:`~repro.cpu.core.Work` that keeps the core
busy, so it never enters the idle path and the energy model charges
full active power around the clock — the busy-poll tax.

Spinning as discrete chunks would add up to ``spin_gap_ns`` of
discovery latency, so the NIC's RX doorbell (armed only by this
backend) terminates the in-flight spin chunk the instant a packet lands
in one of the thread's queues: the elapsed spin time stays charged, the
remainder is discarded, and the next dispatch grabs the burst — packet
pickup is immediate, like a real PMD, while an idle ring costs only
one event per spin gap instead of one per loop iteration.

Delivery: RSS still steers flows across all queues; packets from queue
``q`` are delivered to the socket of worker core ``workers[q % len
(workers)]``, so the application spreads over the remaining cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cpu.core import PRIORITY_TASK, Work
from repro.datapath.base import (MODE_BUSY_POLL, RxBackend, RxModeHub,
                                 check_bypass_params)
from repro.datapath.steering import spread_queues
from repro.netstack.napi import MODE_POLLING, stamp_poll_grab
from repro.nic.queue import grab_burst
from repro.osched.thread import SimThread
from repro.units import S


class PollThread(SimThread):
    """The poll-mode driver loop of one dedicated core."""

    def __init__(self, backend: "PollModeBackend", scheduler,
                 queue_ids: List[int]):
        core = scheduler.core
        super().__init__(f"pollrx/{core.core_id}")
        self.backend = backend
        self.core = core
        self.queue_ids = queue_ids
        #: Mode-source listener lists (NAPI duck-type contract).
        self.poll_listeners: List = []
        self.irq_listeners: List = []
        self.batches = 0
        self.spins = 0
        self.pkts_busy_poll = 0
        #: The spin chunk currently on the core, if any — the doorbell's
        #: early-termination target. Cleared before every dispatch.
        self._spin_inflight: Optional[Work] = None
        self._spin_shell: Optional[Work] = None
        self._batch_shell: Optional[Work] = None
        self._pending_deliver: list = []
        self._pending_n_rx = 0
        scheduler.add_thread(self)

    # -- retrieval ------------------------------------------------------ #

    def _grab(self):
        """One burst over this thread's queues (round-robin, budgeted)."""
        be = self.backend
        nic = be.stack.nic
        deliver: list = []
        n_rx = 0
        n_items = 0
        cycles = 0.0
        for qid in self.queue_ids:
            queue = nic.queues[qid]
            # ``queue.has_work``, read without the property frame.
            if not queue.rx and queue.txc_pending <= 0:
                continue
            data, q_rx, q_items, q_cycles = grab_burst(
                queue, nic.free_acks, be.burst_size,
                be.txc_cycles_per_packet, be.ack_cycles_per_packet,
                be.rx_cycles_per_packet)
            cycles += be.poll_overhead_cycles + q_cycles
            n_rx += q_rx
            n_items += q_items
            if data:
                if be.tracing:
                    stamp_poll_grab(be.stack.sim.now, data)
                target = be.worker_for_queue[qid]
                deliver.extend((pkt, target) for pkt in data)
        return deliver, n_rx, n_items, cycles

    def next_work(self) -> Optional[Work]:
        self._spin_inflight = None
        deliver, n_rx, n_items, cycles = self._grab()
        if n_items == 0:
            # Empty poll: spin for one gap. Charged at the current
            # clock; a packet arrival terminates the chunk early via
            # the NIC doorbell. (``_freq_hz`` is ``core.frequency_hz``
            # without the property frame: this runs once per spin.)
            spin_cycles = max(1.0,
                              self.backend.spin_gap_ns
                              * self.core._freq_hz / S)
            work = self._spin_shell
            if work is None:
                self._spin_shell = work = Work(
                    spin_cycles, PRIORITY_TASK,
                    label=f"pollrx.spin.c{self.core.core_id}")
            else:
                work.cycles_total = work.cycles_remaining = spin_cycles
                # The thread wrapper overwrote on_complete on the last lap.
                work.on_complete = None
            self._spin_inflight = work
            self.spins += 1
            return work
        work = self._batch_shell
        if work is None:
            self._batch_shell = work = Work(
                cycles, PRIORITY_TASK, on_complete=self._batch_done,
                label=f"pollrx.burst.c{self.core.core_id}")
        else:
            work.cycles_total = work.cycles_remaining = cycles
            work.on_complete = self._batch_done
        self._pending_deliver = deliver
        self._pending_n_rx = n_rx
        self.batches += 1
        return work

    def _batch_done(self, work: Work) -> None:
        deliver, self._pending_deliver = self._pending_deliver, []
        n_rx = self._pending_n_rx
        stack = self.backend.stack
        for pkt, target in deliver:
            stack._deliver(pkt, target)
        self.pkts_busy_poll += n_rx
        if n_rx and self.poll_listeners:
            # Canonical label for mode consumers (the NMAP monitor
            # counts MODE_POLLING packets); accounting bins the packets
            # under MODE_BUSY_POLL above.
            for listener in self.poll_listeners:
                listener(self, n_rx, MODE_POLLING)

    # -- doorbell ------------------------------------------------------- #

    def on_doorbell(self, qid: int) -> None:
        """A packet landed on one of our queues: cut the spin short."""
        work = self._spin_inflight
        if work is None:
            return  # mid-batch (or mid-dispatch): the next grab sees it
        self._spin_inflight = None
        core = self.scheduler.core
        if not core.pause(work):
            return
        # Complete the chunk now: the elapsed spin time is already
        # charged, the remainder is discarded, and the scheduler
        # re-dispatches this thread — whose next grab finds the packet.
        work.on_complete(work)
        core.kick()


class PollModeBackend(RxBackend):
    """Busy-poll RX on dedicated cores (interrupts permanently masked)."""

    name = "poll"

    def __init__(self, stack, n_poll_cores: int = 1, burst_size: int = 32,
                 rx_cycles_per_packet: float = 1_500.0,
                 ack_cycles_per_packet: float = 500.0,
                 txc_cycles_per_packet: float = 100.0,
                 poll_overhead_cycles: float = 300.0,
                 spin_gap_ns: int = 4_000):
        super().__init__(stack)
        check_bypass_params(burst_size)
        if n_poll_cores < 1:
            raise ValueError("n_poll_cores must be >= 1")
        if spin_gap_ns <= 0:
            raise ValueError("spin_gap_ns must be positive")
        self.n_poll_cores = n_poll_cores
        self.burst_size = burst_size
        self.rx_cycles_per_packet = rx_cycles_per_packet
        self.ack_cycles_per_packet = ack_cycles_per_packet
        self.txc_cycles_per_packet = txc_cycles_per_packet
        self.poll_overhead_cycles = poll_overhead_cycles
        self.spin_gap_ns = spin_gap_ns
        self.threads: List[PollThread] = []
        #: Queue id -> worker core id receiving its data packets.
        self.worker_for_queue: List[int] = []
        #: Queue id -> poll core id that drains it (the retrieval core).
        self._owner_for_queue: List[int] = []
        self._worker_core_ids: List[int] = []
        self._hubs: Dict[int, RxModeHub] = {}

    def build(self) -> None:
        stack = self.stack
        n_cores = stack.processor.n_cores
        if self.n_poll_cores >= n_cores:
            raise ValueError(
                f"datapath='poll' needs at least one worker core: "
                f"n_poll_cores={self.n_poll_cores} with {n_cores} cores")
        poll_ids = list(range(self.n_poll_cores))
        self._worker_core_ids = list(range(self.n_poll_cores, n_cores))
        n_queues = stack.nic.n_queues
        self.worker_for_queue = spread_queues(n_queues,
                                              self._worker_core_ids)
        # Partition the queues over the poll cores and mask every IRQ:
        # discovery is polling (plus the doorbell) from here on.
        self._owner_for_queue = spread_queues(n_queues, poll_ids)
        by_core: Dict[int, List[int]] = {cid: [] for cid in poll_ids}
        for qid in range(n_queues):
            stack.nic.disable_irq(qid)
            by_core[self._owner_for_queue[qid]].append(qid)
        for cid in poll_ids:
            thread = PollThread(self, stack.schedulers[cid], by_core[cid])
            for qid in by_core[cid]:
                stack.nic.set_rx_doorbell(qid, thread.on_doorbell)
            self.threads.append(thread)

    def start(self) -> None:
        for thread in self.threads:
            thread.wake()

    # -- wiring introspection ------------------------------------------- #

    def worker_core_ids(self) -> List[int]:
        return list(self._worker_core_ids)

    def retrieval_core_for_queue(self, qid: int) -> int:
        return self._owner_for_queue[qid]

    def mode_source(self, core_id: int):
        if core_id < self.n_poll_cores:
            return self.threads[core_id]
        hub = self._hubs.get(core_id)
        if hub is None:
            self._hubs[core_id] = hub = RxModeHub()
        return hub

    # -- accounting ----------------------------------------------------- #

    def register_into(self, reg) -> None:
        for thread in self.threads:
            cid = thread.core.core_id
            self._count_pkts(reg, cid, MODE_BUSY_POLL,
                             lambda thread=thread: thread.pkts_busy_poll)
            self._counter(reg, "datapath_poll_loops_total",
                          "Burst retrievals completed", cid,
                          lambda thread=thread: thread.batches)
            self._counter(reg, "datapath_empty_polls_total",
                          "Spin chunks executed (empty polls)", cid,
                          lambda thread=thread: thread.spins)
