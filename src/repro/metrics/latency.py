"""Latency statistics: percentiles, CDFs, SLO fractions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def percentile_ns(latencies_ns: np.ndarray, pct: float) -> float:
    """The ``pct``-th percentile of a latency sample (ns)."""
    if len(latencies_ns) == 0:
        raise ValueError("empty latency sample")
    if not 0 <= pct <= 100:
        raise ValueError("percentile must be in [0, 100]")
    return float(np.percentile(latencies_ns, pct))


def fraction_over(latencies_ns: np.ndarray, threshold_ns: float) -> float:
    """Fraction of samples strictly above ``threshold_ns``.

    NaN samples would silently count as "not over" (NaN comparisons are
    False), understating SLO violations — reject them instead.
    """
    lat = np.asarray(latencies_ns, dtype=float)
    if lat.size == 0:
        raise ValueError("empty latency sample")
    if np.isnan(lat).any():
        raise ValueError("latency sample contains NaN")
    return float(np.count_nonzero(lat > threshold_ns) / lat.size)


def cdf_points(latencies_ns: np.ndarray,
               n_points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
    """(x, F(x)) points of the empirical CDF, downsampled to n_points."""
    lat = np.sort(np.asarray(latencies_ns, dtype=float))
    if lat.size == 0:
        raise ValueError("empty latency sample")
    n_points = min(n_points, lat.size)
    idx = np.linspace(0, lat.size - 1, n_points).astype(int)
    x = lat[idx]
    y = (idx + 1) / lat.size
    return x, y


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one run's latency sample."""

    count: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_sample(cls, latencies_ns: np.ndarray) -> "LatencyStats":
        lat = np.asarray(latencies_ns, dtype=float)
        if lat.size == 0:
            raise ValueError("empty latency sample")
        return cls(count=int(lat.size),
                   mean_ns=float(lat.mean()),
                   p50_ns=float(np.percentile(lat, 50)),
                   p95_ns=float(np.percentile(lat, 95)),
                   p99_ns=float(np.percentile(lat, 99)),
                   max_ns=float(lat.max()))

    def describe(self) -> str:
        """One-line human-readable summary (times in µs)."""
        return (f"n={self.count} mean={self.mean_ns / 1e3:.1f}µs "
                f"p50={self.p50_ns / 1e3:.1f}µs p95={self.p95_ns / 1e3:.1f}µs "
                f"p99={self.p99_ns / 1e3:.1f}µs max={self.max_ns / 1e3:.1f}µs")
