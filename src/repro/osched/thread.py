"""Schedulable threads.

A :class:`SimThread` produces :class:`~repro.cpu.core.Work` chunks on
demand (one request's service, one deferred NAPI poll batch, ...). The
scheduler pulls the next chunk when the thread gets CPU time; a thread with
no chunk goes to sleep and must be woken with :meth:`wake`.

Wake/sleep transitions are observable through listener lists — this is the
signal NMAP-simpl consumes from ksoftirqd (Sec. 4.1).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.core import Work

SLEEPING = "sleeping"
RUNNABLE = "runnable"
RUNNING = "running"


class SimThread:
    """Base class for schedulable threads.

    Subclasses override :meth:`next_work` to supply work chunks. The
    scheduler is attached by :meth:`CoreScheduler.add_thread`.
    """

    def __init__(self, name: str):
        self.name = name
        self.state = SLEEPING
        self.scheduler = None
        self._paused_work: Optional[Work] = None
        #: The in-flight chunk's pre-wrap completion callback, run by
        #: the scheduler's completion handler. One chunk is in flight per
        #: thread at a time (a preempted chunk is parked and resumed
        #: before the next one is pulled), so a single slot replaces a
        #: per-chunk closure.
        self._pre_complete: Optional[Callable[[Work], None]] = None
        #: Called with (thread,) on SLEEPING -> RUNNABLE transitions.
        self.wake_listeners: List[Callable[["SimThread"], None]] = []
        #: Called with (thread,) when the thread runs out of work.
        self.sleep_listeners: List[Callable[["SimThread"], None]] = []
        self.wake_count = 0
        self.sleep_count = 0

    # -- subclass interface -------------------------------------------- #

    def next_work(self) -> Optional[Work]:
        """Return the next work chunk, or None to go to sleep."""
        raise NotImplementedError

    # -- scheduler interface ------------------------------------------- #

    def wake(self) -> None:
        """Make the thread runnable (no-op unless sleeping)."""
        if self.state != SLEEPING:
            return  # an attached thread's scheduler would ignore it too
        if self.scheduler is None:
            raise RuntimeError(f"thread {self.name!r} not attached to a scheduler")
        self.scheduler.wake(self)

    def take_work(self) -> Optional[Work]:
        """Paused work if any, else a freshly wrapped chunk from next_work:
        its completion goes to the scheduler (which finds the thread as
        ``work.owner``) and from there to the chunk's own callback."""
        if self._paused_work is not None:
            work, self._paused_work = self._paused_work, None
            return work
        work = self.next_work()
        if work is None:
            return None
        self._pre_complete = work.on_complete
        work.on_complete = self.scheduler._work_done
        work.owner = self
        return work

    def park(self, work: Work) -> None:
        """Store preempted work to resume on the next dispatch."""
        if self._paused_work is not None:
            raise RuntimeError(f"thread {self.name!r} already holds paused work")
        self._paused_work = work

    def notify_wake(self) -> None:
        self.wake_count += 1
        for listener in self.wake_listeners:
            listener(self)

    def notify_sleep(self) -> None:
        self.sleep_count += 1
        for listener in self.sleep_listeners:
            listener(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name!r} {self.state}>"
