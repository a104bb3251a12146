"""Trace recording: append-only channels of integer (time, value) samples.

Experiments subscribe probes (ksoftirqd wakeups, P-state changes, packets
per NAPI mode, C-state entries, ...) to named channels; the metrics layer
bins and renders them. A traced run's recorder is ``sim.trace``; an
untraced run leaves it None, and every record site guards on that, so
the off path makes no call here at all.

Each channel is two packed ``array('q')`` columns, times and values, so
a sample costs 16 bytes rather than a tuple and two boxed ints. Every
probe records integers (indices, counts, 0/1 flags); anything else
raises ``TypeError`` at the record site.

Reading back is array-oriented: :meth:`to_arrays` copies a channel's
columns into ``(times, values)`` ndarrays; callers that read a channel
more than once keep the returned pair. :meth:`samples` builds its list
of pairs on demand.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Tuple

import numpy as np


class TraceRecorder:
    """Named channels of timestamped integer samples."""

    def __init__(self):
        #: channel -> (times, values) packed int64 columns; each column
        #: pickles as one bytes payload.
        self._channels: Dict[str, Tuple[array, array]] = {}

    def record(self, channel: str, time_ns: int, value: int = 1) -> None:
        """Append ``(time_ns, value)`` to ``channel``.

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

        The arrays are fresh copies on each call: a live view would pin
        the column's buffer, and the next ``record`` into the channel
        would raise ``BufferError``.
        """
        times, values = self._channels.get(channel, ((), ()))
        return (np.array(times, dtype=np.int64),
                np.array(values, dtype=float))

    def __contains__(self, channel: str) -> bool:
        return channel in self._channels
