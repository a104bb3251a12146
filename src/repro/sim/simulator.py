"""The simulator core loop."""

from __future__ import annotations

import os
from heapq import heappop as _heappop
from typing import Any, Callable, Optional

from repro.sim.event import Event, EventQueue
from repro.sim.perf import PerfSnapshot


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` is set to 1/true/on/yes."""
    return os.environ.get(name, "").lower() in ("1", "true", "on", "yes")


class Simulator:
    """Single-threaded discrete-event simulator with an integer-ns clock.

    Typical use::

        sim = Simulator()
        sim.schedule(10 * US, my_callback, arg)
        sim.run_until(1 * S)

    ``sanitize=True`` (or the ``REPRO_SANITIZE=1`` environment variable,
    consulted when the argument is None) attaches a
    :class:`~repro.analysis.sanitize.SimSanitizer`: runtime invariant
    checks (causality, lockstep lookahead, energy conservation) with
    bit-identical results. The default path is untouched — the
    sanitizer shadows methods in the instance dict only.
    """

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        self.now: int = 0
        #: The event queue. Per-event hot paths push through it directly
        #: as ``queue.push(time, fn, args)`` (absolute integer time, not
        #: before ``now``), skipping :meth:`schedule`'s frame; the
        #: causality check on every pop still holds them to the clock
        #: in sanitized runs.
        self.queue = EventQueue()
        self._events_processed = 0
        #: The attached SimSanitizer, or None for the zero-cost default.
        self.sanitizer = None
        #: The run's TraceRecorder, or None when channel tracing is off.
        #: Recording components bind it at construction.
        self.trace = None
        #: The run's SpanLog, or None when span sampling is off. Stamp
        #: sites bind ``tracing = sim.spans is not None`` at construction.
        self.spans = None
        if sanitize is None:
            sanitize = env_flag("REPRO_SANITIZE")
        if sanitize:
            from repro.analysis.sanitize import SimSanitizer
            self.sanitizer = SimSanitizer(self)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.queue.push(self.now + int(delay), fn, args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` (ns)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now={self.now}")
        return self.queue.push(int(time), fn, args)

    def cancel(self, ev: Event) -> None:
        """Cancel a previously scheduled event."""
        ev.cancel()

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        entry = self.queue.pop()
        if entry is None:
            return False
        self.now, ev = entry
        self._events_processed += 1
        ev.fn(*ev.args)
        return True

    def run_until(self, t_end: int) -> None:
        """Run events up to and including time ``t_end``, then set now=t_end.

        This IS the simulation: every fired event passes through this
        loop, so the queue's pop step is inlined here (heap access and
        cancelled-head dropping) rather than paid as extra call frames
        per event. Fired and dropped events are tallied in locals and
        credited once when the loop returns.
        """
        queue = self.queue
        heap = queue._heap
        heappop = _heappop
        processed = dropped = 0
        try:
            while heap:
                time, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    dropped += 1
                    continue
                if time > t_end:
                    break
                heappop(heap)
                self.now = time
                processed += 1
                ev.fn(*ev.args)
        finally:
            self._events_processed += processed
            queue.cancelled_popped += dropped
        if t_end > self.now:
            self.now = t_end

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fired)."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break

    def perf_snapshot(self, wall_s: float = 0.0) -> PerfSnapshot:
        """Kernel counters of this simulator (see :mod:`repro.sim.perf`)."""
        return self.queue.perf_snapshot(events_fired=self._events_processed,
                                        wall_s=wall_s)

    def every(self, period: int, fn: Callable[..., Any], *args: Any,
              start_delay: Optional[int] = None) -> "PeriodicTimer":
        """Run ``fn(*args)`` every ``period`` ns. Returns a stoppable timer."""
        return PeriodicTimer(self, period, fn, args, start_delay=start_delay)


class PeriodicTimer:
    """A repeating timer; ``stop()`` cancels future firings."""

    def __init__(self, sim: Simulator, period: int, fn: Callable[..., Any],
                 args: tuple, start_delay: Optional[int] = None):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        self._stopped = False
        first = period if start_delay is None else start_delay
        self._ev = sim.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._ev = self._sim.schedule(self.period, self._fire)
        self._fn(*self._args)

    def stop(self) -> None:
        """Stop the timer; no further firings occur."""
        self._stopped = True
        if self._ev is not None:
            self._ev.cancel()
            self._ev = None