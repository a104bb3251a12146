"""An idealized per-request DVFS baseline (Adrenaline/Rubik/µDPM style).

Sec. 5.1's argument: short-term schemes that pick a V/F state *per
request* assume near-instant transitions (tens of ns in Adrenaline), but
commodity processors charge a re-transition latency of up to ~530 µs for
back-to-back writes — so most of their V/F decisions never take effect.

This baseline makes the argument executable. On every request delivery it
requests a V/F state sized to finish the request within a per-request
latency budget (the SLO divided by a headroom factor), and drops back to
Pmin when its core's socket queue drains. Run it twice:

* ``ideal_transitions=True`` replaces the processor's latency model with
  a near-zero one — the scheme works (its SLO holds at low energy);
* ``ideal_transitions=False`` keeps the measured re-transition model —
  the rapid-fire writes thrash in the settle window and the SLO breaks.

The accompanying ablation benchmark quantifies the gap.
"""

from __future__ import annotations

from repro.cpu.dvfs import (FULL_DOWN, FULL_UP, SMALL_DOWN_HIGH,
                            SMALL_DOWN_LOW, SMALL_UP_HIGH, SMALL_UP_LOW,
                            TransitionLatencyModel)
from repro.units import US


def ideal_latency_model(n_states: int,
                        latency_ns: int = 50) -> TransitionLatencyModel:
    """A fantasy voltage regulator: ~50 ns transitions, no penalty."""
    table = {category: (float(latency_ns), 0.0) for category in (
        SMALL_DOWN_HIGH, SMALL_UP_HIGH, FULL_DOWN, FULL_UP,
        SMALL_DOWN_LOW, SMALL_UP_LOW)}
    return TransitionLatencyModel(n_states=n_states,
                                  base_latency_ns=latency_ns,
                                  base_latency_std_ns=0,
                                  retransition_ns=table)


class PerRequestDvfsManager:
    """Per-request V/F selection over all cores of a processor."""

    name = "per-request-dvfs"

    def __init__(self, sim, processor, stack, slo_ns: int,
                 headroom: float = 8.0,
                 ideal_transitions: bool = False):
        if slo_ns <= 0:
            raise ValueError("SLO must be positive")
        if headroom <= 1.0:
            raise ValueError("headroom must exceed 1")
        self.sim = sim
        self.processor = processor
        self.stack = stack
        self.budget_ns = slo_ns / headroom
        self.ideal_transitions = ideal_transitions
        self.decisions = 0
        self._saved_models = None
        self._drain_timer = None

    def start(self) -> None:
        if self.ideal_transitions:
            ideal = ideal_latency_model(len(self.processor.pstates))
            self._saved_models = [ctrl.model for ctrl in self.processor.dvfs]
            for ctrl in self.processor.dvfs:
                ctrl.model = ideal
        for socket in self.stack.sockets:
            socket.consumer = _ConsumerShim(socket.consumer, self, socket)
        # Per-request schemes drop the V/F as soon as the queue drains;
        # poll at a fine grain to model that reaction.
        self._drain_timer = self.sim.every(100 * US, self._check_drained)

    def stop(self) -> None:
        if self._drain_timer is not None:
            self._drain_timer.stop()
            self._drain_timer = None
        if self._saved_models is not None:
            for ctrl, model in zip(self.processor.dvfs, self._saved_models):
                ctrl.model = model
            self._saved_models = None
        for socket in self.stack.sockets:
            shim = socket.consumer
            if isinstance(shim, _ConsumerShim):
                socket.consumer = shim.inner

    def _check_drained(self) -> None:
        for socket in self.stack.sockets:
            if len(socket) == 0:
                self.on_drain(socket)

    # ------------------------------------------------------------------ #

    def on_delivery(self, socket) -> None:
        """A request hit a socket: pick a V/F state for the backlog."""
        core_id = socket.core_id
        core = self.processor.cores[core_id]
        backlog = max(1, len(socket))
        # Cycles needed: approximate with the newest request's cost times
        # the backlog (the scheme's own simplification).
        newest = socket.peek_newest()
        per_request = (newest.service_cycles if newest is not None
                       else 5_000.0)
        needed_hz = per_request * backlog / (self.budget_ns / 1e9)
        index = self.processor.pstates.index_for_frequency(needed_hz)
        self.decisions += 1
        self.processor.request_pstate(core_id, index)

    def on_drain(self, socket) -> None:
        """Queue empty: race to the bottom for energy."""
        self.decisions += 1
        self.processor.request_pstate(socket.core_id,
                                      self.processor.pstates.max_index)


class _ConsumerShim:
    """Wraps the socket's consumer to observe deliveries (then forwards)."""

    def __init__(self, inner, manager: PerRequestDvfsManager, socket):
        self.inner = inner
        self.manager = manager
        self.socket = socket

    def wake(self) -> None:
        self.manager.on_delivery(self.socket)
        if self.inner is not None:
            self.inner.wake()
