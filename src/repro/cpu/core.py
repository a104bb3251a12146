"""Preemptible, frequency-aware core execution engine.

A :class:`Core` executes :class:`Work` items — batches of CPU cycles with a
completion callback. Three priority levels model the Linux execution
contexts the paper's mechanisms live in:

* ``PRIORITY_HARDIRQ`` — NIC interrupt handlers,
* ``PRIORITY_SOFTIRQ`` — NAPI poll loops (preempt tasks, as in Linux),
* ``PRIORITY_TASK`` — application threads and ksoftirqd (scheduled fairly
  by :class:`repro.osched.scheduler.CoreScheduler`).

Work durations are computed from the core's *current* frequency, and a
frequency change re-computes the in-flight work's completion exactly — so
a DVFS boost arriving mid-burst genuinely shortens pending processing,
which is the effect NMAP exploits.

Idle handling: when no work is pending the core consults its cpuidle
governor for a C-state; a wake event pays the state's exit latency plus,
for cache-flushing states (CC6), a cache refill penalty (Sec. 5.2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.cpu.cstate import CState, CStateTable
from repro.cpu.power import EnergyMeter, PowerModel
from repro.cpu.pstate import PStateTable
from repro.units import MS, S, US, cycles_to_ns

PRIORITY_HARDIRQ = 0
PRIORITY_SOFTIRQ = 1
PRIORITY_TASK = 2
_N_PRIORITIES = 3


class Work:
    """A schedulable batch of CPU cycles.

    Attributes:
        label: debugging tag.
        priority: one of the ``PRIORITY_*`` constants.
        cycles_remaining: cycles left to execute (float; updated on pause,
            preemption, and frequency changes).
        on_complete: called as ``on_complete(work)`` when the last cycle
            retires.
        owner: opaque back-reference for the submitting component.
    """

    __slots__ = ("label", "priority", "cycles_total", "cycles_remaining",
                 "on_complete", "owner")

    def __init__(self, cycles: float, priority: int,
                 on_complete: Optional[Callable[["Work"], None]] = None,
                 label: str = "", owner=None):
        if cycles < 0:
            raise ValueError(f"work cycles must be >= 0, got {cycles}")
        if not 0 <= priority < _N_PRIORITIES:
            raise ValueError(f"invalid priority {priority}")
        self.label = label
        self.priority = priority
        self.cycles_total = float(cycles)
        self.cycles_remaining = float(cycles)
        self.on_complete = on_complete
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Work {self.label!r} prio={self.priority} "
                f"{self.cycles_remaining:.0f}/{self.cycles_total:.0f}cy>")


class Core:
    """One CPU core: execution, P-state, C-state, and energy accounting."""

    def __init__(self, sim, core_id: int, pstate_table: PStateTable,
                 cstate_table: Optional[CStateTable] = None,
                 power_model: Optional[PowerModel] = None,
                 meter: Optional[EnergyMeter] = None,
                 rng=None,
                 cache_penalty_fraction: float = 0.5):
        self.sim = sim
        self.core_id = core_id
        self.pstates = pstate_table
        self.cstates = cstate_table or CStateTable.default()
        self.power_model = power_model or PowerModel(pstate_table)
        self.meter = meter or EnergyMeter(f"core{core_id}")
        self.rng = rng
        self.trace = sim.trace
        self._cstate_channel = f"core{core_id}.cstate"
        self._pstate_channel = f"core{core_id}.pstate"
        #: Fraction of the worst-case cache refill penalty actually paid on
        #: a CC6 wake (real workloads re-touch only part of the cache).
        self.cache_penalty_fraction = float(cache_penalty_fraction)

        #: Set by the system builder; consulted on idle entry/exit.
        self.idle_governor = None
        #: While idle, the governor is re-consulted this often (the
        #: scheduler-tick path real cpuidle governors piggyback on); the
        #: selection may only deepen. 0 disables re-selection.
        self.idle_reselect_period_ns = 4 * MS
        self._reselect_ev = None
        #: Dwell in (idle) CC0 before actually entering a deeper state —
        #: the kernel's idle-loop entry path. Micro-idles between requests
        #: never reach a deep state, which is why even an
        #: always-deepest policy (c6only) does not thrash CC6.
        self.idle_entry_delay_ns = 10 * US
        self._deep_entry_ev = None

        self.pstate_index: int = 0
        self._cc0 = self.cstates.cc0
        self._deepest_index = self.cstates.deepest.index
        self.cstate: CState = self._cc0
        #: Current clock, cached off the P-state table (hot path: work
        #: checkpointing/completion touches it per work item).
        self._freq_hz: float = pstate_table.freq_of(0)
        #: Memoized (active, pstate, cstate) -> watts; the model's inputs
        #: are fixed per run, and state flips are frequent.
        self._power_memo: Dict[tuple, float] = {}

        self._current: Optional[Work] = None
        self._run_start_ns: int = 0
        self._completion_ev = None
        self._pending: List[Deque[Work]] = [deque() for _ in range(_N_PRIORITIES)]
        #: Total queued items across all priorities (kept in sync so the
        #: hot idle/wake checks don't iterate the deques).
        self._pending_n = 0
        self._waking = False
        self._wake_ev = None
        #: True while a completion callback runs: work it submits waits
        #: until ``_complete`` picks the highest-priority item, rather
        #: than starting at once only to be preempted in the same instant.
        self._completing = False
        self._idle_start_ns: Optional[int] = sim.now

        # Cumulative residency accounting (governors sample deltas).
        self.busy_ns = 0
        self.idle_ns = 0
        self.c0_residency_ns = 0
        self.cstate_residency_ns: Dict[str, int] = {s.name: 0 for s in self.cstates}
        self._acct_last = sim.now
        self._acct_busy = False  # busy or waking counts as busy

        self.works_completed = 0
        #: Effective P-state changes applied (telemetry; no-op requests
        #: for the current state don't count).
        self.pstate_changes = 0
        #: Called as ``listener(core)`` after each effective P-state change
        #: (used by the processor for uncore frequency scaling).
        self.pstate_listeners = []
        self._update_power()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def frequency_hz(self) -> float:
        """Current effective clock frequency."""
        return self._freq_hz

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def _account(self) -> None:
        now = self.sim.now
        dt = now - self._acct_last
        if dt <= 0:
            self._acct_last = now
            return
        if self._acct_busy:
            self.busy_ns += dt
            self.c0_residency_ns += dt
            self.cstate_residency_ns["CC0"] += dt
        else:
            self.idle_ns += dt
            self.cstate_residency_ns[self.cstate.name] += dt
            if self.cstate.index == 0:
                self.c0_residency_ns += dt
        self._acct_last = now

    def _update_power(self) -> None:
        # A waking core is not yet executing: it draws idle-CC0-level
        # power (ungating, cache refill) rather than full active power.
        active = self._acct_busy and not self._waking
        cstate = self.cstate if not self._acct_busy else self._cc0
        key = (active, self.pstate_index, cstate.index)
        watts = self._power_memo.get(key)
        if watts is None:
            watts = self.power_model.core_power(
                active=active, pstate=self.pstates[self.pstate_index],
                cstate=cstate)
            self._power_memo[key] = watts
        self.meter.set_power(self.sim.now, watts)

    def finalize(self) -> None:
        """Flush accounting/energy up to the current simulation time."""
        self._account()
        self.meter.accrue(self.sim.now)

    # ------------------------------------------------------------------ #
    # Work submission and execution
    # ------------------------------------------------------------------ #

    def submit(self, work: Work) -> None:
        """Enqueue work; preempts lower-priority work and wakes idle cores.

        Work submitted from a completion callback starts when the
        callback returns (the highest-priority pending item first)."""
        current = self._current
        if current is not None and work.priority < current.priority:
            self._preempt_current()
            current = None
        self._pending[work.priority].append(work)
        self._pending_n += 1
        if current is None and not self._waking and not self._completing:
            # No idle accounting open: the core is between two items in
            # CC0 (the owner of a paused item submitting), so it starts
            # at once.
            if self._idle_start_ns is None:
                self._start_next()
            else:
                self._wake_and_start()

    def pause(self, work: Work) -> bool:
        """Remove ``work`` from the core (running or queued).

        Updates ``work.cycles_remaining`` if it was running. Returns True
        if the work was found. The caller is responsible for either
        re-submitting other work or calling :meth:`kick`.
        """
        if self._current is work:
            self._checkpoint_current()
            self._cancel_completion()
            self._current = None
            return True
        try:
            self._pending[work.priority].remove(work)
            self._pending_n -= 1
            return True
        except ValueError:
            return False

    def kick(self) -> None:
        """Start the next pending work (or go idle) if the core is free."""
        if self._current is None and not self._waking:
            if self._idle_start_ns is None:
                self._start_next()
            else:
                self._wake_and_start()

    def _preempt_current(self) -> None:
        work = self._current
        assert work is not None
        self._checkpoint_current()
        self._cancel_completion()
        self._pending[work.priority].appendleft(work)
        self._pending_n += 1
        self._current = None

    def _checkpoint_current(self) -> None:
        work = self._current
        assert work is not None
        elapsed = self.sim.now - self._run_start_ns
        consumed = elapsed * self._freq_hz / S
        work.cycles_remaining = max(0.0, work.cycles_remaining - consumed)
        self._run_start_ns = self.sim.now

    def _cancel_completion(self) -> None:
        if self._completion_ev is not None:
            self._completion_ev.cancel()
            self._completion_ev = None

    def _wake_and_start(self) -> None:
        """Leave idle (paying the C-state's wake latency) and run the next
        work item. Called with the idle accounting open."""
        if not self._pending_n:
            return  # stays idle
        cstate = self.cstate
        deep = cstate.index > 0
        if deep:
            latency = self.cstates.sample_exit_latency(cstate, self.rng)
            if cstate.flushes_caches:
                latency += int(self.cstates.cache_refill_penalty_ns
                               * self.cache_penalty_fraction)
        # Close the idle period; busy or waking counts as busy.
        sim = self.sim
        now = sim.now
        idle_dur = now - self._idle_start_ns
        self._idle_start_ns = None
        if self._reselect_ev is not None:
            self._reselect_ev.cancel()
            self._reselect_ev = None
        if self._deep_entry_ev is not None:
            self._deep_entry_ev.cancel()
            self._deep_entry_ev = None
        self._account()
        self._acct_busy = True
        if deep:
            self._waking = True
            self.cstate = self._cc0
            if self.trace is not None:
                self.trace.record(self._cstate_channel, now, 0)
        self._update_power()
        if self.idle_governor is not None:
            self.idle_governor.on_idle_end(self, idle_dur)
        if deep:
            self._wake_ev = sim.queue.push(now + latency, self._wake_done, ())
        else:
            self._start_next()

    def _wake_done(self) -> None:
        self._waking = False
        self._wake_ev = None
        self._account()
        self._update_power()
        self._start_next()

    def _start_next(self) -> None:
        """Run the highest-priority pending item, or go idle. The core is
        free and awake, with no idle accounting open (so it is accounted
        busy: ``_go_idle`` and ``_wake_and_start`` flip the two together)."""
        if not self._pending_n:
            self._go_idle()
            return
        pending = self._pending
        work = (pending[PRIORITY_HARDIRQ] or pending[PRIORITY_SOFTIRQ]
                or pending[PRIORITY_TASK]).popleft()
        self._pending_n -= 1
        self._current = work
        sim = self.sim
        now = sim.now
        self._run_start_ns = now
        # Inlined cycles_to_ns (this runs once per work item).
        cycles = work.cycles_remaining
        if cycles <= 0:
            duration = 0
        else:
            duration = int(round(cycles * S / self._freq_hz))
            if duration < 1:
                duration = 1
        self._completion_ev = sim.queue.push(now + duration, self._complete,
                                             ())

    def _complete(self) -> None:
        work = self._current
        self._completion_ev = None
        work.cycles_remaining = 0.0
        self._current = None
        self.works_completed += 1
        on_complete = work.on_complete
        if on_complete is not None:
            self._completing = True
            on_complete(work)
            self._completing = False
        if self._current is None and not self._waking:
            if self._idle_start_ns is None:
                self._start_next()
            else:
                self._wake_and_start()

    def _go_idle(self) -> None:
        if self._idle_start_ns is not None:
            return  # already idle
        now = self.sim.now
        self._idle_start_ns = now
        chosen = self._cc0
        if self.idle_governor is not None:
            chosen = self.idle_governor.select(self)
        # Dwell in idle CC0 first; short idles never reach the state.
        dwell = chosen.index > 0 and self.idle_entry_delay_ns > 0
        target = self._cc0 if dwell else chosen
        # Leave busy straight into the target state: one power change.
        self._account()
        self._acct_busy = False
        self._enter_cstate(target)
        if dwell:
            self._deep_entry_ev = self.sim.queue.push(
                now + self.idle_entry_delay_ns, self._enter_deep, (chosen,))
        self._arm_reselect()

    def _enter_deep(self, cstate: CState) -> None:
        self._deep_entry_ev = None
        if self._idle_start_ns is None:
            return
        self._enter_cstate(cstate)

    def _arm_reselect(self) -> None:
        if (self.idle_reselect_period_ns > 0
                and self.idle_governor is not None
                and self.cstate.index < self._deepest_index):
            self._reselect_ev = self.sim.queue.push(
                self.sim.now + self.idle_reselect_period_ns,
                self._idle_reselect, ())

    def _idle_reselect(self) -> None:
        """Tick-driven re-selection: an over-long idle may deepen its state."""
        self._reselect_ev = None
        if self._idle_start_ns is None:
            return
        elapsed = self.sim.now - self._idle_start_ns
        chosen = self.idle_governor.select(self, idle_elapsed_ns=elapsed)
        if chosen.index > self.cstate.index:
            self._enter_cstate(chosen)
        self._arm_reselect()

    def _enter_cstate(self, cstate: CState) -> None:
        self._account()
        self.cstate = cstate
        self._update_power()
        if self.trace is not None:
            self.trace.record(self._cstate_channel, self.sim.now,
                              cstate.index)

    # ------------------------------------------------------------------ #
    # Frequency control (called by the DVFS controller)
    # ------------------------------------------------------------------ #

    def set_pstate_index(self, index: int) -> None:
        """Apply a new P-state *now* (latency handled by DvfsController)."""
        index = self.pstates.clamp(index)
        if index == self.pstate_index:
            return
        if self._current is not None:
            self._checkpoint_current()
            self._cancel_completion()
        self._account()
        self.pstate_index = index
        self._freq_hz = self.pstates.freq_of(index)
        self.pstate_changes += 1
        self._update_power()
        if self.trace is not None:
            self.trace.record(self._pstate_channel, self.sim.now, index)
        for listener in self.pstate_listeners:
            listener(self)
        if self._current is not None:
            duration = cycles_to_ns(self._current.cycles_remaining,
                                    self._freq_hz)
            self._completion_ev = self.sim.schedule(duration, self._complete)
