"""Discrete-event simulation kernel.

Provides the integer-nanosecond event queue and simulator loop every other
subsystem is built on, plus seeded random-number streams and a lightweight
trace recorder for time-series instrumentation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "event": ("Event", "EventQueue"),
    "simulator": ("Simulator",),
    "rng": ("RandomStreams",),
    "trace": ("TraceRecorder",),
})
