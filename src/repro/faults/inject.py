"""Fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

Constructed by :class:`~repro.system.ServerSystem` **only when the
config carries a non-empty plan** — a healthy run never builds an
injector, schedules no activation events, and installs no shadows, so
it is bit-identical to a build of the code without this module
(enforced by ``tests/faults/test_parity.py``).

Mechanisms, per fault kind:

* ``nic-loss`` / ``node-crash`` shadow :meth:`MultiQueueNic.receive` in
  the *instance* dict for the window (the SimSanitizer
  bound-method-swap pattern): packets are dropped before they touch an
  RX ring, so queue accounting, interrupts, and energy see exactly what
  real loss looks like. Deactivation deletes the shadow, restoring the
  class method — zero residue.
* ``queue-overflow`` shrinks the victim queues' ``rx_capacity`` for the
  window and restores the saved values after.
* ``irq-storm`` submits a periodic train of spurious
  ``PRIORITY_HARDIRQ`` work items to the victim cores. The NAPI state
  machine is untouched — storms steal exactly the cycle budget real
  spurious interrupts would.
* ``throttle`` applies :meth:`Processor.set_pstate_cap` for the window
  (RAPL-style package clamp) and restores the previous cap after.
* ``dvfs-stuck`` wraps the victim cores' DVFS transition-latency model
  with a delegating multiplier — every transition (and re-transition)
  settles ``factor``× slower while the window is active.
* ``core-offline`` parks each victim core behind an unkillable
  highest-priority hog work item sized to outlast the window; the hog
  is paused (removed) at window end. ``node-crash`` is the same on all
  cores, plus the RX blackout.

Determinism: stochastic faults draw from a per-window stream
``derive_stream(seed, "faults", window_index)``, so fault noise is
independent of the arrival/service/DVFS streams — a faulted run sees
the *same inputs* as the healthy run, which is what makes per-governor
comparisons under faults controlled experiments.
"""

from __future__ import annotations

# Audited (D002): ``random`` generators here are constructed exclusively
# as ``random.Random(derive_stream(...))`` in _activate below.
import random
from typing import Dict, List, Optional

from repro.cpu.core import PRIORITY_HARDIRQ, Work
from repro.faults import plan as fp
from repro.sim.rng import derive_stream
from repro.units import S


class _StuckLatencyModel:
    """Delegating DVFS latency model that settles ``factor``× slower."""

    def __init__(self, inner, factor: float):
        self._inner = inner
        self._factor = factor

    def sample_latency_ns(self, from_index: int, to_index: int,
                          retransition: bool, rng=None) -> int:
        # The inner draw consumes the same stream state as a healthy
        # run's would, so un-faulted transitions stay aligned.
        base = self._inner.sample_latency_ns(from_index, to_index,
                                             retransition, rng)
        return int(base * self._factor)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FaultInjector:
    """Schedules and applies one node's fault plan."""

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self.nic = system.nic
        self.processor = system.processor
        self.trace = self.sim.trace
        self.plan: fp.FaultPlan = system.config.fault_plan
        self._seed = system.config.seed

        n = len(self.plan.windows)
        self.active = [False] * n
        #: Per-window cleanup state (saved shadows, hogs, caps, ...).
        self._state: List[Optional[dict]] = [None] * n

        # Counters (merged into RunResult.telemetry by the system).
        self.activations: Dict[str, int] = {}
        self.rx_dropped = 0
        self.rx_corrupted = 0
        self.crash_rx_dropped = 0
        self.storm_ticks = 0

        for i, window in enumerate(self.plan.windows):
            self.sim.schedule_at(window.start_ns, self._activate, i)
            self.sim.schedule_at(window.end_ns, self._deactivate, i)

    # ------------------------------------------------------------------ #

    def _victim_cores(self, window: fp.FaultWindow) -> List[int]:
        if window.cores:
            return [cid for cid in window.cores
                    if 0 <= cid < self.processor.n_cores]
        return list(range(self.processor.n_cores))

    def _record(self, window: fp.FaultWindow, value: int) -> None:
        if self.trace is not None:
            self.trace.record(f"fault.{window.kind}", self.sim.now, value)

    def _activate(self, i: int) -> None:
        window = self.plan.windows[i]
        self.active[i] = True
        self.activations[window.kind] = \
            self.activations.get(window.kind, 0) + 1
        self._record(window, 1)
        kind = window.kind
        if kind == fp.KIND_NIC_LOSS:
            rng = random.Random(derive_stream(self._seed, "faults", i))
            self._state[i] = self._install_loss(window, rng)
        elif kind == fp.KIND_QUEUE_OVERFLOW:
            self._state[i] = self._shrink_queues(window)
        elif kind == fp.KIND_IRQ_STORM:
            self._state[i] = self._start_storm(i, window)
        elif kind == fp.KIND_THROTTLE:
            self._state[i] = self._apply_cap(window)
        elif kind == fp.KIND_DVFS_STUCK:
            self._state[i] = self._stick_dvfs(window)
        elif kind == fp.KIND_CORE_OFFLINE:
            self._state[i] = self._park_cores(window)
        elif kind == fp.KIND_NODE_CRASH:
            state = self._install_blackout()
            state.update(self._park_cores(window))
            self._state[i] = state

    def _deactivate(self, i: int) -> None:
        window = self.plan.windows[i]
        self.active[i] = False
        self._record(window, 0)
        state = self._state[i]
        self._state[i] = None
        if state is None:
            return
        if "receive" in state:
            # Delete the instance-dict shadow; attribute lookup falls
            # back to the class method (the healthy RX path).
            del self.nic.receive
        if "capacities" in state:
            for queue, capacity in state["capacities"]:
                queue.rx_capacity = capacity
        if "storm_ev" in state:
            ev = state["storm_ev"][0]
            if ev is not None:
                self.sim.cancel(ev)
        if "cap_index" in state:
            self.processor.set_pstate_cap(state["cap_index"])
        if "models" in state:
            for ctrl, model in state["models"]:
                ctrl.model = model
        if "hogs" in state:
            for core, hog in state["hogs"]:
                core.pause(hog)
                core.kick()

    # -- nic-loss / node-crash ------------------------------------------ #

    def _install_loss(self, window: fp.FaultWindow,
                      rng: random.Random) -> dict:
        nic = self.nic
        injector = self
        prob = window.prob
        both = window.prob + window.corrupt_prob
        saved = type(nic).receive  # the class method; shadow delegates

        def receive(packet, qid=None):
            draw = rng.random()
            if draw < prob:
                injector.rx_dropped += 1
                return False
            if draw < both:
                # Corrupted frames fail checksum at the NIC: counted
                # apart from clean drops, but equally discarded.
                injector.rx_corrupted += 1
                return False
            return saved(nic, packet, qid)

        nic.receive = receive
        return {"receive": True}

    def _install_blackout(self) -> dict:
        nic = self.nic
        injector = self

        def receive(packet, qid=None):
            injector.crash_rx_dropped += 1
            return False

        nic.receive = receive
        return {"receive": True}

    # -- queue-overflow -------------------------------------------------- #

    def _shrink_queues(self, window: fp.FaultWindow) -> dict:
        saved = []
        for cid in self._victim_cores(window):
            queue = self.nic.queues[cid]
            saved.append((queue, queue.rx_capacity))
            queue.rx_capacity = window.rx_capacity
        return {"capacities": saved}

    # -- irq-storm -------------------------------------------------------- #

    def _start_storm(self, i: int, window: fp.FaultWindow) -> dict:
        period_ns = max(1, int(S / window.rate_hz))
        victims = [self.processor.cores[cid]
                   for cid in self._victim_cores(window)]
        # One mutable slot so the tick chain and the deactivator see the
        # same pending-event reference.
        state = {"storm_ev": [None]}

        def tick():
            state["storm_ev"][0] = None
            if not self.active[i]:
                return
            self.storm_ticks += 1
            for core in victims:
                core.submit(Work(window.cycles, PRIORITY_HARDIRQ,
                                 label="fault.irq-storm"))
            if self.sim.now + period_ns < window.end_ns:
                state["storm_ev"][0] = self.sim.schedule(period_ns, tick)

        state["storm_ev"][0] = self.sim.schedule(0, tick)
        return state

    # -- throttle --------------------------------------------------------- #

    def _apply_cap(self, window: fp.FaultWindow) -> dict:
        processor = self.processor
        prev = processor.pstate_cap_index
        # Compose with fleet power budgeting last-writer-wins: never
        # *relax* a cap the budget coordinator tightened.
        processor.set_pstate_cap(max(prev, window.cap_index))
        return {"cap_index": prev}

    # -- dvfs-stuck ------------------------------------------------------- #

    def _stick_dvfs(self, window: fp.FaultWindow) -> dict:
        saved = []
        for cid in self._victim_cores(window):
            ctrl = self.processor.dvfs[cid]
            saved.append((ctrl, ctrl.model))
            ctrl.model = _StuckLatencyModel(ctrl.model, window.factor)
        return {"models": saved}

    # -- core-offline / node-crash parking -------------------------------- #

    def _park_cores(self, window: fp.FaultWindow) -> dict:
        f0 = self.processor.pstates.p0.freq_hz
        # Sized to outlast the window at the fastest possible clock
        # (x4 margin); the deactivator removes it long before it retires.
        cycles = window.duration_ns * f0 / S * 4.0
        hogs = []
        for cid in self._victim_cores(window):
            core = self.processor.cores[cid]
            hog = Work(cycles, PRIORITY_HARDIRQ, label="fault.offline-hog")
            core.submit(hog)
            hogs.append((core, hog))
        return {"hogs": hogs}

    # ------------------------------------------------------------------ #

    def register_into(self, reg) -> None:
        """Register fault counters; a kind's windows once it activates."""
        for kind in fp.KINDS:
            reg.counter("fault_windows_total", "Fault windows activated",
                        read=lambda kind=kind: (self.activations.get(kind)
                                                or None),
                        subsystem="faults", kind=kind)
        reg.counter("fault_rx_dropped_total",
                    "Packets dropped by injected NIC loss",
                    read=lambda: self.rx_dropped, subsystem="faults")
        reg.counter("fault_rx_corrupted_total",
                    "Packets discarded as corrupted by injected loss",
                    read=lambda: self.rx_corrupted, subsystem="faults")
        reg.counter("fault_crash_rx_dropped_total",
                    "Packets blackholed while the node was crashed",
                    read=lambda: self.crash_rx_dropped, subsystem="faults")
        reg.counter("fault_irq_storm_ticks_total",
                    "Spurious-interrupt storm ticks fired",
                    read=lambda: self.storm_ticks, subsystem="faults")
