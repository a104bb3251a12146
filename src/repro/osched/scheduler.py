"""Per-core round-robin task scheduler.

Approximates CFS at the fidelity the paper needs: all task-priority
threads on a core (the pinned application worker and ksoftirqd) share the
CPU in round-robin timeslices, and softirq work preempts them (handled by
the core's priority levels). The fairness between ksoftirqd and the
application is what causes application starvation under heavy polling —
the phenomenon ksoftirqd exists to bound (Sec. 2.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.cpu.core import PRIORITY_TASK, Work
from repro.osched.thread import RUNNABLE, RUNNING, SLEEPING, SimThread
from repro.units import MS


class CoreScheduler:
    """Round-robin scheduler owning the task-priority work of one core."""

    def __init__(self, sim, core, timeslice_ns: int = 1 * MS):
        if not isinstance(timeslice_ns, int) or timeslice_ns <= 0:
            # An int: the slice timer is pushed onto the integer clock.
            raise ValueError("timeslice must be a positive int")
        self.sim = sim
        self.core = core
        self.timeslice_ns = timeslice_ns
        self.runnable: Deque[SimThread] = deque()
        self.current: Optional[SimThread] = None
        self._current_work: Optional[Work] = None
        self._slice_ev = None
        #: Anchor of the slice-tick grid (the dispatch instant). Ticks
        #: conceptually fire every ``timeslice_ns`` from here, but only
        #: the ones that can preempt (contention present) are scheduled.
        self._slice_start = 0
        self.preemptions = 0

    def add_thread(self, thread: SimThread) -> None:
        """Attach a (sleeping) thread to this scheduler."""
        if thread.scheduler is not None:
            raise ValueError(f"thread {thread.name!r} already attached")
        thread.scheduler = self

    def wake(self, thread: SimThread) -> None:
        """SLEEPING -> RUNNABLE; dispatches if the core's task slot is free."""
        if thread.scheduler is not self:
            raise ValueError(f"thread {thread.name!r} belongs to another scheduler")
        if thread.state != SLEEPING:
            return
        thread.state = RUNNABLE
        self.runnable.append(thread)
        thread.notify_wake()
        if self.current is None:
            self._dispatch()
        elif self._slice_ev is None:
            # Contention just appeared: materialize the next tick of the
            # dispatch-anchored grid. A sole runnable thread runs with no
            # timer at all (its ticks would only re-arm themselves), which
            # kills the per-work schedule/cancel churn of the common
            # uncontended case while preserving the exact preemption
            # instants of an always-armed timer.
            sim = self.sim
            ts = self.timeslice_ns
            now = sim.now
            self._slice_ev = sim.queue.push(
                now + ts - (now - self._slice_start) % ts,
                self._slice_expired, ())

    def _dispatch(self) -> None:
        while self.runnable:
            thread = self.runnable.popleft()
            work = thread.take_work()
            if work is None:
                thread.state = SLEEPING
                thread.notify_sleep()
                continue
            if work.priority != PRIORITY_TASK:
                raise ValueError("scheduler threads must produce TASK work")
            self.current = thread
            self._current_work = work
            thread.state = RUNNING
            sim = self.sim
            now = self._slice_start = sim.now
            if self.runnable:
                self._slice_ev = sim.queue.push(now + self.timeslice_ns,
                                                self._slice_expired, ())
            self.core.submit(work)
            return
        self.current = None
        self._current_work = None

    def _work_done(self, work: Work) -> None:
        """Completion callback of every chunk a thread hands out (set by
        :meth:`SimThread.take_work`)."""
        thread = work.owner
        original = thread._pre_complete
        slice_ev = self._slice_ev
        if slice_ev is not None:
            slice_ev.cancel()
            self._slice_ev = None
        self.current = None
        self._current_work = None
        if original is not None:
            original(work)
        # Round-robin: the thread re-queues at the tail; if it has no more
        # work the next dispatch puts it to sleep (emitting the sleep event).
        thread.state = RUNNABLE
        self.runnable.append(thread)
        if self.current is None:
            self._dispatch()

    def _slice_expired(self) -> None:
        self._slice_ev = None
        thread, work = self.current, self._current_work
        if thread is None or work is None:
            return
        if not self.runnable:
            # Sole runnable thread: it continues untimed; wake() re-joins
            # the tick grid when contention next appears.
            return
        if not self.core.pause(work):
            return  # completed in this same instant; _work_done handles it
        self.preemptions += 1
        thread.park(work)
        thread.state = RUNNABLE
        self.runnable.append(thread)
        self.current = None
        self._current_work = None
        self._dispatch()
