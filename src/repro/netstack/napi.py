"""NAPI: budgeted poll loops transitioning between interrupt and polling.

One :class:`NapiContext` exists per NIC queue (one queue per core in the
testbed topology). Its life cycle:

1. **interrupt mode** — interrupts enabled, core free for the application.
2. An interrupt fires: the hardirq handler runs (HARDIRQ priority), masks
   the queue's interrupt, and raises the NET_RX softirq.
3. **polling (softirq)** — poll iterations of up to ``poll_budget`` items
   run at SOFTIRQ priority. A drained queue ends the session and re-enables
   the interrupt. A session exceeding ``max_iterations``, the two-jiffy
   time limit, or the total packet budget is *deferred to ksoftirqd*
   (Sec. 2.1's three conditions; the reschedule-flag condition is subsumed
   by the iteration/time limits at this fidelity).
4. **polling (ksoftirqd)** — the ksoftirqd thread pulls further poll
   batches at TASK priority, sharing the core fairly with the application,
   until the queue drains.

Mode attribution follows the paper's measurement: packets handled by the
*first* poll invocation after a hardware interrupt count as interrupt-mode
processing; packets handled by re-polls or by ksoftirqd count as
polling-mode. Listeners observe every poll completion, every interrupt,
and ksoftirqd deferral — the hooks NMAP's Mode Transition Monitor uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cpu.core import PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ, PRIORITY_TASK, Work
from repro.nic.queue import grab_burst

MODE_INTERRUPT = "interrupt"
MODE_POLLING = "polling"

STATE_IRQ = "irq"
STATE_SOFTIRQ = "softirq"
STATE_KSOFTIRQD = "ksoftirqd"


def stamp_poll_grab(sim_now: int, rx_packets: list,
                    deferred: bool = False) -> None:
    """Record the rx-queue -> poll-batch boundary on sampled requests.

    ``rx_packets`` holds the batch's requests (:func:`grab_burst`
    consumes the ACKs). Shared by every RX backend; ``deferred`` marks a
    batch pulled by ksoftirqd rather than the softirq (bypass backends
    never defer).
    """
    for request in rx_packets:
        ctx = request.trace
        if ctx is not None:
            ctx.poll_ns = sim_now
            ctx.via_ksoftirqd = deferred


@dataclass(frozen=True)
class NapiConfig:
    """Tunables of the NAPI machinery (Linux defaults unless noted)."""

    poll_budget: int = 64            # packets per napi_poll invocation
    total_budget: int = 5_000        # netdev_budget (rarely binding here)
    # Continuous-softirq time before deferring to ksoftirqd. Linux bounds
    # this by netdev_budget_usecs plus __do_softirq restarts; the paper's
    # testbed defers well under a millisecond of solid polling.
    time_limit_ns: int = 600_000
    max_iterations: int = 50         # repeated-failure-to-drain limit
    irq_cycles: float = 1_800        # hardirq handler cost
    poll_overhead_cycles: float = 800   # per-iteration fixed cost
    # Full Rx path (driver + skb + protocol + socket delivery). ~2.7 µs at
    # 3.2 GHz, ~7 µs at 1.2 GHz: a slow core saturates on softirq work at
    # burst peaks — the overload NAPI's polling mode / ksoftirqd absorb.
    rx_cycles_per_packet: float = 8_500
    #: Bare TCP ACKs (nginx's multi-segment responses draw an ACK flood).
    ack_cycles_per_packet: float = 3_500
    txc_cycles_per_packet: float = 400

    def __post_init__(self) -> None:
        if self.poll_budget <= 0 or self.total_budget <= 0:
            raise ValueError("budgets must be positive")
        if self.max_iterations <= 0 or self.time_limit_ns <= 0:
            raise ValueError("limits must be positive")


class NapiContext:
    """The NAPI instance of one (queue, core) pair."""

    def __init__(self, sim, core, nic, queue_id: int,
                 config: Optional[NapiConfig] = None,
                 deliver: Optional[Callable] = None):
        self.sim = sim
        self.core = core
        self.nic = nic
        self.queue_id = queue_id
        self.config = config or NapiConfig()
        #: Called as ``deliver(request, core_id)`` for each Rx request.
        self.deliver = deliver
        #: Set by the stack wiring; woken on deferral.
        self.ksoftirqd = None

        self.state = STATE_IRQ
        self._session_start_ns = 0
        self._session_iterations = 0
        self._session_packets = 0
        self._next_poll_is_interrupt_mode = False
        #: Span tracing enabled (``sim.spans`` set); guards the
        #: per-batch stamping loop so untraced runs pay nothing.
        self.tracing = sim.spans is not None

        # Reusable Work shells, one per lifecycle slot. The state machine
        # guarantees at most one of each is in flight (irq masked while
        # polling; the next poll is only submitted after the previous
        # one's completion), so the shell can be re-armed in place
        # instead of allocating a Work + result closure per batch.
        self._hardirq_work: Optional[Work] = None
        self._softirq_work: Optional[Work] = None
        self._deferred_work: Optional[Work] = None
        self._softirq_rx: list = []
        self._softirq_n = 0
        self._deferred_rx: list = []
        self._deferred_n = 0

        # Lifetime counters.
        self.irq_count = 0
        self.sessions = 0
        self.deferrals = 0
        self.pkts_interrupt_mode = 0
        self.pkts_polling_mode = 0
        #: Completed poll batches (the timeline's generic poll_loops
        #: column; bypass backends count their bursts the same way).
        self.poll_count = 0

        #: Called as ``listener(napi, n_packets, mode)`` per poll completion
        #: (n_packets counts Rx packets only; mode is MODE_*).
        self.poll_listeners: List[Callable] = []
        #: Called as ``listener(napi)`` on each hardware interrupt.
        self.irq_listeners: List[Callable] = []

    # ------------------------------------------------------------------ #
    # Interrupt entry
    # ------------------------------------------------------------------ #

    def on_interrupt(self, queue_id: int) -> None:
        """Hardware interrupt entry point (bound to the NIC queue)."""
        assert queue_id == self.queue_id
        if self.state != STATE_IRQ:
            raise RuntimeError("interrupt delivered while polling (irq mask bug)")
        self.irq_count += 1
        self.nic.disable_irq(self.queue_id)
        for listener in self.irq_listeners:
            listener(self)
        work = self._hardirq_work
        if work is None:
            self._hardirq_work = work = Work(
                self.config.irq_cycles, PRIORITY_HARDIRQ,
                on_complete=self._irq_done,
                label=f"hardirq.q{self.queue_id}")
        else:
            work.cycles_remaining = work.cycles_total
        self.core.submit(work)

    def _irq_done(self, work: Work) -> None:
        self.state = STATE_SOFTIRQ
        self.sessions += 1
        self._session_start_ns = self.sim.now
        self._session_iterations = 0
        self._session_packets = 0
        self._next_poll_is_interrupt_mode = True
        self._submit_softirq_poll()

    # ------------------------------------------------------------------ #
    # Poll batches
    # ------------------------------------------------------------------ #

    def _submit_softirq_poll(self) -> None:
        cfg = self.config
        rx_packets, n_rx, _, cycles = grab_burst(
            self.nic.queues[self.queue_id], self.nic.free_acks,
            cfg.poll_budget, cfg.txc_cycles_per_packet,
            cfg.ack_cycles_per_packet, cfg.rx_cycles_per_packet)
        cycles += cfg.poll_overhead_cycles
        if self.tracing and rx_packets:
            stamp_poll_grab(self.sim.now, rx_packets)
        work = self._softirq_work
        if work is None:
            self._softirq_work = work = Work(
                cycles, PRIORITY_SOFTIRQ, on_complete=self._softirq_done,
                label=f"napi.q{self.queue_id}")
        else:
            work.cycles_total = work.cycles_remaining = cycles
        self._softirq_rx = rx_packets
        self._softirq_n = n_rx
        self.core.submit(work)

    def _softirq_done(self, work: Work) -> None:
        self._poll_done(self._softirq_rx, self._softirq_n)

    def make_deferred_work(self) -> Optional[Work]:
        """Next poll batch as TASK work, for ksoftirqd. None when drained."""
        if self.state != STATE_KSOFTIRQD:
            return None
        if not self.nic.queues[self.queue_id].has_work:
            self._finish_session()
            return None
        cfg = self.config
        rx_packets, n_rx, _, cycles = grab_burst(
            self.nic.queues[self.queue_id], self.nic.free_acks,
            cfg.poll_budget, cfg.txc_cycles_per_packet,
            cfg.ack_cycles_per_packet, cfg.rx_cycles_per_packet)
        cycles += cfg.poll_overhead_cycles
        if self.tracing and rx_packets:
            stamp_poll_grab(self.sim.now, rx_packets, deferred=True)
        work = self._deferred_work
        if work is None:
            self._deferred_work = work = Work(
                cycles, PRIORITY_TASK, on_complete=self._deferred_done,
                label=f"ksoftirqd.q{self.queue_id}")
        else:
            work.cycles_total = work.cycles_remaining = cycles
            # The thread wrapper overwrote on_complete on the last lap.
            work.on_complete = self._deferred_done
        self._deferred_rx = rx_packets
        self._deferred_n = n_rx
        return work

    def _deferred_done(self, work: Work) -> None:
        self._poll_done(self._deferred_rx, self._deferred_n)

    def _poll_done(self, rx_packets: list, n: int) -> None:
        """Account one finished poll batch; ``n`` counts all Rx items
        (data + consumed ACKs), ``rx_packets`` the deliverable ones."""
        if self._next_poll_is_interrupt_mode:
            self._next_poll_is_interrupt_mode = False
            mode = MODE_INTERRUPT
            self.pkts_interrupt_mode += n
        else:
            mode = MODE_POLLING
            self.pkts_polling_mode += n
        self.poll_count += 1
        self._session_packets += n
        deliver = self.deliver
        if deliver is not None:
            core_id = self.core.core_id
            for pkt in rx_packets:
                deliver(pkt, core_id)
        for listener in self.poll_listeners:
            listener(self, n, mode)
        # Drained (NicQueue.has_work, inlined): the session ends.
        queue = self.nic.queues[self.queue_id]
        if not queue.rx and not queue.txc_pending:
            self._finish_session()
            return
        if self.state == STATE_SOFTIRQ:
            cfg = self.config
            self._session_iterations += 1
            if (self._session_iterations >= cfg.max_iterations
                    or self.sim.now - self._session_start_ns
                    >= cfg.time_limit_ns
                    or self._session_packets >= cfg.total_budget):
                self._defer_to_ksoftirqd()
            else:
                self._submit_softirq_poll()
        # In STATE_KSOFTIRQD the thread pulls the next batch itself.

    def _defer_to_ksoftirqd(self) -> None:
        if self.ksoftirqd is None:
            # No ksoftirqd wired (unit tests): keep polling in softirq.
            self._submit_softirq_poll()
            return
        self.state = STATE_KSOFTIRQD
        self.deferrals += 1
        self.ksoftirqd.wake()

    def _finish_session(self) -> None:
        self.state = STATE_IRQ
        self.nic.enable_irq(self.queue_id)
