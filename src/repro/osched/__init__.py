"""Minimal OS task scheduling: threads plus a per-core round-robin scheduler.

Models the property NMAP-simpl depends on: ksoftirqd runs at the *same*
priority as application threads (Sec. 2.1), so heavy deferred packet
processing steals CPU time from the application fairly, and the wake/sleep
events of ksoftirqd are visible scheduling signals.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "thread": ("SimThread",),
    "scheduler": ("CoreScheduler",),
})
