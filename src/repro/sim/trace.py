"""Trace recording: append-only channels of integer (time, value) samples.

Experiments subscribe probes (ksoftirqd wakeups, P-state changes, packets
per NAPI mode, C-state entries, ...) to named channels; the metrics layer
bins and renders them. Recording is optional and cheap when disabled:
instead of branching on ``enabled`` per call, a disabled recorder swaps
its ``record`` attribute for a no-op bound method, so the hot path pays
one attribute lookup and an empty call — no conditional.

Each channel is two packed ``array('q')`` columns, times and values, so
a sample costs 16 bytes rather than a tuple and two boxed ints. Every
probe records integers (indices, counts, 0/1 flags); anything else
raises ``TypeError`` at the record site.

Reading back is array-oriented: :meth:`to_arrays` copies a channel's
columns into ``(times, values)`` ndarrays once and memoizes the result
(keyed by the channel's sample count, so late appends invalidate
naturally), which keeps the metrics layer from rebuilding arrays on
every access. :meth:`samples` builds its list of pairs on demand.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Tuple

import numpy as np

_EMPTY_TIMES = np.empty(0, dtype=np.int64)
_EMPTY_VALUES = np.empty(0, dtype=float)


class TraceRecorder:
    """Named channels of timestamped integer samples."""

    def __init__(self, enabled: bool = True):
        #: channel -> (times, values) packed int64 columns.
        self._channels: Dict[str, Tuple[array, array]] = {}
        #: Memoized (n_samples, times, values) per channel.
        self._arrays: Dict[str, Tuple[int, np.ndarray, np.ndarray]] = {}
        self.enabled = enabled  # property: swaps the record method

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, flag: bool) -> None:
        """Toggle recording by swapping the ``record`` fast path.

        Enabled exposes the class method (which appends unconditionally);
        disabled shadows it with a no-op in the instance dict.
        """
        self._enabled = bool(flag)
        if self._enabled:
            self.__dict__.pop("record", None)
        else:
            self.__dict__["record"] = self._record_disabled

    def record(self, channel: str, time_ns: int, value: int = 1) -> None:
        """Append ``(time_ns, value)`` to ``channel`` (no-op when disabled).

        Both must be integers: a non-integer value raises ``TypeError``
        and leaves the channel as it was.
        """
        columns = self._channels.get(channel)
        if columns is None:
            # Built before it is registered, so a bad first value leaves
            # no empty channel behind.
            self._channels[channel] = (array("q", (time_ns,)),
                                       array("q", (value,)))
            return
        columns[1].append(value)  # first: a bad value stores nothing
        columns[0].append(time_ns)

    def _record_disabled(self, channel: str, time_ns: int,
                         value: int = 1) -> None:
        return None

    # ------------------------------------------------------------------ #
    # Read-back
    # ------------------------------------------------------------------ #

    def channels(self) -> Iterable[str]:
        """Names of channels that received at least one sample."""
        return self._channels.keys()

    def samples(self, channel: str) -> List[Tuple[int, int]]:
        """All samples of ``channel`` in record order (empty if none),
        as a list built on each call."""
        columns = self._channels.get(channel)
        if columns is None:
            return []
        return list(zip(*columns))

    def to_arrays(self, channel: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` of a channel as (int64, float) ndarrays.

        Bulk accessor for the metrics layer: the conversion happens once
        per channel and is memoized against the sample count, so repeated
        reads (binning, percentiles, exports) are O(1). The arrays are
        copies: a live view would pin the column's buffer, and the next
        ``record`` into the channel would raise ``BufferError``.
        """
        columns = self._channels.get(channel)
        if columns is None:
            return _EMPTY_TIMES, _EMPTY_VALUES
        n = len(columns[0])
        cached = self._arrays.get(channel)
        if cached is not None and cached[0] == n:
            return cached[1], cached[2]
        times = np.array(columns[0], dtype=np.int64)
        values = np.array(columns[1], dtype=float)
        self._arrays[channel] = (n, times, values)
        return times, values

    def times(self, channel: str) -> np.ndarray:
        """Sample times of ``channel`` as an int64 array."""
        return self.to_arrays(channel)[0]

    def values(self, channel: str) -> np.ndarray:
        """Sample values of ``channel`` as a float array."""
        return self.to_arrays(channel)[1]

    def clear(self) -> None:
        """Drop all recorded samples."""
        self._channels.clear()
        self._arrays.clear()

    def __contains__(self, channel: str) -> bool:
        return channel in self._channels

    # ------------------------------------------------------------------ #
    # Pickling (RunResults carry their recorder into the run cache)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        # The swapped bound method and the array memo are derived state;
        # each column pickles as one bytes payload.
        return {"enabled": self._enabled, "channels": self._channels}

    def __setstate__(self, state: dict) -> None:
        self._channels = state["channels"]
        self._arrays = {}
        self.enabled = state["enabled"]
