"""Metronome-style intermittent RX: sleep&wake packet retrieval.

Each core runs a :class:`MetronomeThread` beside its application worker
(sharing the core's round-robin scheduler, as Metronome's right-sized
retrieval tasks share CPUs with the application). The thread's cycle:

1. **sleep** — no work is produced; the core is free to serve requests
   or enter C-states. A one-shot timer is armed for the current sleep
   interval, *quantized up* to the timer resolution and stretched by a
   deterministic overshoot (the paper's hr_sleep analysis: kernel
   timers fire late, never early).
2. **wake** — the timer fires; the thread charges a wake cost plus one
   burst retrieval at userspace-driver per-packet costs. The first
   batch after a wake is the interrupt-analog (listeners see
   ``MODE_INTERRUPT``; packets bin as ``intermittent``), follow-up
   batches that keep draining a backlog are polling (``polling`` bin).
3. **adapt** — on re-arming, an empty wake doubles the sleep interval
   (up to ``max_sleep_ns``) and a saturated wake (a full burst or
   more) halves it (down to ``min_sleep_ns``) — Metronome's occupancy
   feedback at this model's fidelity.

The ``nmap-hybrid`` variant couples step 3 to NMAP: while the per-core
decision engine reports Network Intensive mode the thread retrieves at
``min_sleep_ns``; in CPU-utilization mode the adaptive rule applies.
Interrupts stay masked on every queue — discovery is purely
timer-driven, so a packet can wait up to one (overshot) sleep interval
before pickup: the latency/energy knob the duel experiment sweeps.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.decision import MODE_NET_INTENSIVE
from repro.cpu.core import PRIORITY_TASK, Work
from repro.datapath.base import (MODE_INTERMITTENT, RxBackend,
                                 check_bypass_params)
from repro.datapath.steering import spread_queues
from repro.netstack.napi import (MODE_INTERRUPT, MODE_POLLING,
                                 stamp_poll_grab)
from repro.nic.queue import grab_burst
from repro.osched.thread import SimThread
from repro.sim.rng import RandomStreams


class MetronomeThread(SimThread):
    """The intermittent retrieval task of one (core, queue) pair."""

    def __init__(self, backend: "MetronomeBackend", scheduler,
                 queue_id: int, rng):
        core = scheduler.core
        super().__init__(f"metronome/{core.core_id}")
        self.backend = backend
        self.core = core
        self.queue_id = queue_id
        self._rng = rng
        #: Mode-source listener lists (NAPI duck-type contract).
        self.poll_listeners: List = []
        self.irq_listeners: List = []
        #: Set by the nmap-hybrid backend: the core's NMAP decision
        #: engine, whose ``mode`` drives the sleep interval.
        self.engine = None
        self.timer_wakes = 0
        self.batches = 0
        self.pkts_intermittent = 0
        self.pkts_polling = 0
        self._sleep_ns = float(backend.initial_sleep_ns)
        self._timer_ev = None
        self._woke = False
        self._wake_pkts = 0
        self._pending_deliver: list = []
        self._pending_n_rx = 0
        self._pending_first = False
        self._batch_shell: Optional[Work] = None
        scheduler.add_thread(self)

    # -- timer ---------------------------------------------------------- #

    @property
    def sleep_ns(self) -> int:
        """The current (adapted) sleep interval."""
        return int(self._sleep_ns)

    def _next_sleep_ns(self) -> int:
        be = self.backend
        engine = self.engine
        if engine is not None and engine.mode == MODE_NET_INTENSIVE:
            # NMAP says the stack would be polling: retrieve at the
            # floor until the mode signal relaxes.
            self._sleep_ns = float(be.min_sleep_ns)
            return be.min_sleep_ns
        if be.adaptive:
            if self._wake_pkts == 0:
                self._sleep_ns = min(float(be.max_sleep_ns),
                                     self._sleep_ns * be.sleep_multiplier)
            elif self._wake_pkts >= be.burst_size:
                self._sleep_ns = max(float(be.min_sleep_ns),
                                     self._sleep_ns / be.sleep_multiplier)
        return int(self._sleep_ns)

    def arm_timer(self) -> None:
        """Arm the one-shot retrieval timer for the next wake."""
        be = self.backend
        requested_ns = self._next_sleep_ns()
        # hr_sleep semantics: quantize up to the timer grid, then land
        # late by a fixed overshoot plus deterministic per-arm jitter.
        grid_ns = be.timer_resolution_ns
        actual_ns = -(-requested_ns // grid_ns) * grid_ns + be.overshoot_ns
        if be.overshoot_jitter_ns > 0:
            actual_ns += int(self._rng.random() * be.overshoot_jitter_ns)
        sim = be.stack.sim
        self._timer_ev = sim.queue.push(sim.now + actual_ns,
                                        self._timer_fire, ())

    def _timer_fire(self) -> None:
        self._timer_ev = None
        self.timer_wakes += 1
        self._woke = True
        for listener in self.irq_listeners:
            listener(self)
        self.wake()

    # -- retrieval ------------------------------------------------------ #

    def next_work(self) -> Optional[Work]:
        be = self.backend
        first = self._woke
        self._woke = False
        if first:
            self._wake_pkts = 0
        queue = be.stack.nic.queues[self.queue_id]
        deliver, n_rx, n_items, cycles = grab_burst(
            queue, be.stack.nic.free_acks, be.burst_size,
            be.txc_cycles_per_packet, be.ack_cycles_per_packet,
            be.rx_cycles_per_packet)
        if n_items == 0 and not first:
            # Backlog drained: adapt and go back to sleep.
            self.arm_timer()
            return None
        cycles += be.poll_overhead_cycles
        if first:
            # The hr_sleep return path: timer fire + context switch,
            # charged even when the wake finds an empty ring.
            cycles += be.wake_cycles
        self._wake_pkts += n_items
        if be.tracing and deliver:
            stamp_poll_grab(be.stack.sim.now, deliver)
        work = self._batch_shell
        if work is None:
            self._batch_shell = work = Work(
                cycles, PRIORITY_TASK, on_complete=self._batch_done,
                label=f"metronome.burst.c{self.core.core_id}")
        else:
            work.cycles_total = work.cycles_remaining = cycles
            # The thread wrapper overwrote on_complete on the last lap.
            work.on_complete = self._batch_done
        self._pending_deliver = deliver
        self._pending_n_rx = n_rx
        self._pending_first = first
        self.batches += 1
        return work

    def _batch_done(self, work: Work) -> None:
        deliver, self._pending_deliver = self._pending_deliver, []
        n_rx = self._pending_n_rx
        first = self._pending_first
        stack = self.backend.stack
        core_id = self.core.core_id
        for pkt in deliver:
            stack._deliver(pkt, core_id)
        if first:
            self.pkts_intermittent += n_rx
        else:
            self.pkts_polling += n_rx
        if self.poll_listeners:
            # Canonical labels for mode consumers: the wake batch is the
            # interrupt-analog, drain batches are polling.
            mode = MODE_INTERRUPT if first else MODE_POLLING
            for listener in self.poll_listeners:
                listener(self, n_rx, mode)


class MetronomeBackend(RxBackend):
    """Adaptive sleep&wake retrieval on every core (IRQs masked)."""

    name = "metronome"

    def __init__(self, stack, burst_size: int = 32,
                 rx_cycles_per_packet: float = 1_500.0,
                 ack_cycles_per_packet: float = 500.0,
                 txc_cycles_per_packet: float = 100.0,
                 poll_overhead_cycles: float = 300.0,
                 wake_cycles: float = 900.0,
                 min_sleep_ns: int = 5_000,
                 max_sleep_ns: int = 200_000,
                 initial_sleep_ns: int = 50_000,
                 sleep_multiplier: float = 2.0,
                 timer_resolution_ns: int = 1_000,
                 overshoot_ns: int = 2_000,
                 overshoot_jitter_ns: int = 1_000,
                 adaptive: bool = True):
        super().__init__(stack)
        check_bypass_params(burst_size, min_sleep_ns, max_sleep_ns)
        if not min_sleep_ns <= initial_sleep_ns <= max_sleep_ns:
            raise ValueError("initial_sleep_ns must lie in "
                             "[min_sleep_ns, max_sleep_ns]")
        if sleep_multiplier <= 1.0:
            raise ValueError("sleep_multiplier must be > 1")
        for name, value in (("min_sleep_ns", min_sleep_ns),
                            ("timer_resolution_ns", timer_resolution_ns),
                            ("overshoot_ns", overshoot_ns),
                            ("overshoot_jitter_ns", overshoot_jitter_ns)):
            if not isinstance(value, int):
                # An int: the retrieval timer is pushed onto the
                # integer clock.
                raise ValueError(f"{name} must be an int")
        if timer_resolution_ns <= 0:
            raise ValueError("timer_resolution_ns must be positive")
        if overshoot_ns < 0 or overshoot_jitter_ns < 0:
            raise ValueError("overshoot must be >= 0")
        self.burst_size = burst_size
        self.rx_cycles_per_packet = rx_cycles_per_packet
        self.ack_cycles_per_packet = ack_cycles_per_packet
        self.txc_cycles_per_packet = txc_cycles_per_packet
        self.poll_overhead_cycles = poll_overhead_cycles
        self.wake_cycles = wake_cycles
        self.min_sleep_ns = min_sleep_ns
        self.max_sleep_ns = max_sleep_ns
        self.initial_sleep_ns = initial_sleep_ns
        self.sleep_multiplier = sleep_multiplier
        self.timer_resolution_ns = timer_resolution_ns
        self.overshoot_ns = overshoot_ns
        self.overshoot_jitter_ns = overshoot_jitter_ns
        self.adaptive = adaptive
        self.threads: List[MetronomeThread] = []

    def build(self) -> None:
        stack = self.stack
        # Overshoot jitter draws from independently derived per-core
        # streams: creating them never perturbs any other stream.
        streams = stack.rng if stack.rng is not None else RandomStreams(0)
        # One queue per core: the shared steering spread is the identity
        # map, so queue q's retrieval thread shares core q with the
        # application worker — bit-identical to the pre-helper wiring.
        consumer_for_queue = spread_queues(
            stack.nic.n_queues,
            [core.core_id for core in stack.processor.cores])
        for qid, cid in enumerate(consumer_for_queue):
            stack.nic.disable_irq(qid)
            rng = streams.stream(f"datapath.metronome.c{cid}")
            self.threads.append(MetronomeThread(
                self, stack.schedulers[cid], qid, rng))

    def start(self) -> None:
        for thread in self.threads:
            thread.arm_timer()

    # -- wiring introspection ------------------------------------------- #

    def mode_source(self, core_id: int) -> MetronomeThread:
        return self.threads[core_id]

    # -- accounting ----------------------------------------------------- #

    def register_into(self, reg) -> None:
        for thread in self.threads:
            cid = thread.core.core_id
            self._count_pkts(reg, cid, MODE_INTERMITTENT,
                             lambda thread=thread: thread.pkts_intermittent)
            self._count_pkts(reg, cid, MODE_POLLING,
                             lambda thread=thread: thread.pkts_polling)
            self._counter(reg, "datapath_sleep_wakes_total",
                          "Retrieval timer wakes", cid,
                          lambda thread=thread: thread.timer_wakes)
            self._counter(reg, "datapath_poll_loops_total",
                          "Burst retrievals completed", cid,
                          lambda thread=thread: thread.batches)
            reg.gauge("datapath_sleep_ns",
                      "Adapted sleep interval at run end",
                      read=lambda thread=thread: thread.sleep_ns,
                      subsystem="datapath", backend=self.name,
                      core=str(cid))


class NmapHybridBackend(MetronomeBackend):
    """Metronome whose sleep interval follows the NMAP mode signal."""

    name = "nmap-hybrid"

    def bind_governors(self, governors) -> None:
        # validate_server_config admits only NMAP-family governors here.
        for thread, gov in zip(self.threads, governors):
            thread.engine = gov.engine
