"""Time, frequency, and energy units used throughout the simulator.

The simulation clock is an integer number of **nanoseconds**. All module
APIs take and return nanoseconds for time, hertz for frequency, and watts /
joules for power / energy. These constants exist so call sites read as
``10 * MS`` rather than ``10_000_000``.
"""

from __future__ import annotations

#: One nanosecond (the base tick).
NS = 1
#: One microsecond in nanoseconds.
US = 1_000
#: One millisecond in nanoseconds.
MS = 1_000_000
#: One second in nanoseconds.
S = 1_000_000_000

#: One kilohertz / megahertz / gigahertz in hertz.
KHZ = 1_000
MHZ = 1_000_000
GHZ = 1_000_000_000


def cycles_to_ns(cycles: float, freq_hz: float) -> int:
    """Time (ns) to execute ``cycles`` at ``freq_hz``, rounded up to ≥1 ns."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    if cycles <= 0:
        return 0
    return max(1, int(round(cycles * S / freq_hz)))


def ns_to_cycles(t_ns: float, freq_hz: float) -> float:
    """Number of cycles executed in ``t_ns`` at ``freq_hz``."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return t_ns * freq_hz / S
