"""Typed telemetry instruments: Counter, Gauge, log-bucketed Histogram.

A :class:`TelemetryRegistry` holds uniquely-named instruments with label
sets (``core="0"``, ``subsystem="netstack"``), mirroring the Prometheus
data model so the text exporter is a direct rendering. Asking twice for
one (name, labels) returns the same instrument, and registering one name
under two different types is an error. A component registers its
counters once, as :class:`Observed` instruments that read the owner's
live count; :meth:`TelemetryRegistry.freeze` turns them into plain ones.

Histograms bucket by powers of two — the right shape for nanosecond
latencies spanning six orders of magnitude — and support bulk
observation from numpy arrays so end-of-run merges stay cheap.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

LabelKey = Tuple[Tuple[str, str], ...]

#: Highest finite bucket exponent: 2**40 ns ≈ 1100 s, far past any
#: simulated latency; larger observations land in the overflow bucket.
_MAX_EXP = 40


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up (inc by {n})")
        self.value += n

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state


class Gauge:
    """A point-in-time value that can move either way."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, n: Union[int, float] = 1) -> None:
        self.value += n

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state


class Histogram:
    """A log2-bucketed histogram of non-negative values (typically ns).

    Bucket ``k`` (k >= 1) counts observations in ``(2**(k-1), 2**k]``;
    bucket 0 counts values <= 1. Values above ``2**_MAX_EXP`` land in the
    overflow bucket. Counts live in a sparse dict keyed by exponent.
    """

    __slots__ = ("buckets", "count", "sum")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    @staticmethod
    def bucket_index(value: Union[int, float]) -> int:
        if value <= 1:
            return 0
        exp = math.ceil(math.log2(value))
        # Guard float rounding at exact powers of two.
        if (1 << (exp - 1)) >= value:
            exp -= 1
        return min(exp, _MAX_EXP + 1)

    def observe(self, value: Union[int, float]) -> None:
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """Bulk-observe an array (the end-of-run merge path)."""
        arr = np.asarray(values)
        if arr.size == 0:
            return
        if np.any(arr < 0):
            raise ValueError("histogram values must be >= 0")
        clipped = np.maximum(arr.astype(np.float64), 1.0)
        idx = np.ceil(np.log2(clipped)).astype(np.int64)
        # Same power-of-two rounding guard as the scalar path.
        idx = np.where((idx > 0) & (2.0 ** (idx - 1) >= clipped),
                       idx - 1, idx)
        idx = np.minimum(idx, _MAX_EXP + 1)
        for exp, n in zip(*np.unique(idx, return_counts=True)):
            exp = int(exp)
            self.buckets[exp] = self.buckets.get(exp, 0) + int(n)
        self.count += int(arr.size)
        self.sum += float(arr.sum())

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for exp in sorted(k for k in self.buckets if k <= _MAX_EXP):
            running += self.buckets[exp]
            out.append((float(1 << exp), running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q`` quantile (0-1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for exp in sorted(self.buckets):
            running += self.buckets[exp]
            if running >= target:
                return float(1 << min(exp, _MAX_EXP + 1))
        return float(1 << (_MAX_EXP + 1))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __getstate__(self):
        return (self.buckets, self.count, self.sum)

    def __setstate__(self, state):
        self.buckets, self.count, self.sum = state


class Observed:
    """A counter or gauge whose ``value`` is ``read()``, a zero-argument
    reader of its owner's live count. A reader returns None while its
    series is absent; :meth:`TelemetryRegistry.freeze` drops those."""

    __slots__ = ("read",)

    def __init__(self, read: Callable) -> None:
        self.read = read

    value = property(lambda self: self.read())


Instrument = Union[Counter, Gauge, Histogram, Observed]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class TelemetryRegistry:
    """Named, labelled instruments of one run (or one process)."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}
        #: name -> (kind, help text); a name has exactly one kind.
        self._meta: Dict[str, Tuple[str, str]] = {}

    # ----------------------------------------------------------------- #
    # Registration / lookup
    # ----------------------------------------------------------------- #

    @staticmethod
    def _label_key(labels: Dict[str, object]) -> LabelKey:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get(self, kind: str, name: str, help: str,
             labels: Dict[str, object],
             read: Optional[Callable] = None) -> Instrument:
        if not name:
            raise ValueError("instrument name must be non-empty")
        meta = self._meta.get(name)
        if meta is None:
            self._meta[name] = (kind, help)
        elif meta[0] != kind:
            raise ValueError(f"{name!r} already registered as {meta[0]}, "
                             f"cannot re-register as {kind}")
        elif help and not meta[1]:
            self._meta[name] = (kind, help)
        key = (name, self._label_key(labels))
        instrument = self._instruments.get(key)
        if read is not None:
            if instrument is not None:
                raise ValueError(f"{name!r} {dict(key[1])} already registered")
            instrument = self._instruments[key] = Observed(read)
        elif instrument is None:
            instrument = self._instruments[key] = _KINDS[kind]()
        return instrument

    def counter(self, name: str, help: str = "",
                read: Optional[Callable] = None, **labels) -> Counter:
        """The counter ``name{labels}``; :class:`Observed` given ``read``."""
        return self._get("counter", name, help, labels, read)  # type: ignore

    def gauge(self, name: str, help: str = "",
              read: Optional[Callable] = None, **labels) -> Gauge:
        """The gauge ``name{labels}``; :class:`Observed` given ``read``."""
        return self._get("gauge", name, help, labels, read)  # type: ignore

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        return self._get("histogram", name, help, labels)  # type: ignore

    def merge_from(self, other: "TelemetryRegistry", **extra_labels) -> None:
        """Fold another registry's instruments into this one.

        Every instrument of ``other`` is re-registered here under its
        labels plus ``extra_labels`` (e.g. ``node="3"``) — how a fleet
        run merges its per-node registries into one fleet-wide registry
        without renaming any instrument. Counters add, gauges take the
        source value, histograms merge buckets/count/sum. Colliding
        label sets (possible only if ``extra_labels`` is not
        distinguishing) accumulate rather than error.
        """
        for name, labels, kind, instrument in other.items():
            merged_labels = dict(labels)
            for key, value in extra_labels.items():
                merged_labels[key] = str(value)
            target = self._get(kind, name, other.help_of(name), merged_labels)
            if isinstance(instrument, Histogram):
                for exp, n in instrument.buckets.items():
                    target.buckets[exp] = target.buckets.get(exp, 0) + n
                target.count += instrument.count
                target.sum += instrument.sum
            elif kind == "counter":
                target.inc(instrument.value)
            else:
                target.set(instrument.value)

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._instruments)

    def help_of(self, name: str) -> str:
        meta = self._meta.get(name)
        return meta[1] if meta else ""

    def items(self) -> Iterator[Tuple[str, Dict[str, str], str, Instrument]]:
        """Yields ``(name, labels, kind, instrument)`` in sorted order."""
        for (name, label_key) in sorted(self._instruments):
            yield (name, dict(label_key), self._meta[name][0],
                   self._instruments[(name, label_key)])

    def value(self, name: str, **labels) -> Union[int, float]:
        """The scalar value of a counter/gauge (histograms: the count)."""
        key = (name, self._label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            raise KeyError(f"no instrument {name!r} with labels {labels}")
        if isinstance(instrument, Histogram):
            return instrument.count
        return instrument.value

    def total(self, name: str) -> Union[int, float]:
        """Sum of a counter/gauge across all label sets."""
        values = [inst.value for (n, _), inst in self._instruments.items()
                  if n == name and not isinstance(inst, Histogram)]
        if not values:
            raise KeyError(f"no scalar instrument named {name!r}")
        return sum(values)

    def select(self, name: str, **labels) -> List[Instrument]:
        """The instruments named ``name`` whose label sets carry every
        given label, in registration order."""
        want = self._label_key(labels)
        return [inst for (n, key), inst in self._instruments.items()
                if n == name and all(pair in key for pair in want)]

    def sum_of(self, name: str, **labels) -> Union[int, float]:
        """Sum of a counter/gauge over :meth:`select`; 0 when none is
        registered."""
        return sum(inst.value for inst in self.select(name, **labels))

    def freeze(self) -> None:
        """Replace each :class:`Observed` in place by a plain instrument
        holding its current value, so the registry pickles. A None value
        drops the instrument, and its name's meta if none is left."""
        for key, instrument in list(self._instruments.items()):
            if isinstance(instrument, Observed):
                value = instrument.read()
                if value is None:
                    del self._instruments[key]
                    continue
                kind = self._meta[key[0]][0]
                plain = self._instruments[key] = _KINDS[kind]()
                plain.value = value
        names = {name for name, _ in self._instruments}
        self._meta = {n: m for n, m in self._meta.items() if n in names}

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Plain nested dict (for JSON reports): name -> label-str -> value."""
        out: Dict[str, Dict[str, object]] = {}
        for name, labels, kind, instrument in self.items():
            label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if isinstance(instrument, Histogram):
                value: object = {"count": instrument.count,
                                 "sum": instrument.sum,
                                 "mean": instrument.mean,
                                 "buckets": dict(sorted(
                                     instrument.buckets.items()))}
            else:
                value = instrument.value
            out.setdefault(name, {})[label_str] = value
        return out
