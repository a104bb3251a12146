"""Load shapes: time-varying request rates, and arrival generation.

A :class:`LoadShape` is a rate function ``rate_at(t_ns) -> requests/s``
with a known ``peak_rps`` upper bound. Arrivals are drawn from the
corresponding non-homogeneous Poisson process by vectorized thinning.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.units import MS, S

ArrayLike = Union[float, np.ndarray]

#: Candidates per rate evaluation in :func:`generate_arrivals`: bounds
#: the rate function's temporaries without changing a single arrival.
THINNING_BLOCK = 1 << 16


class LoadShape:
    """Base class: a bounded, time-varying request rate."""

    #: Upper bound on rate_at over all t (used for thinning).
    peak_rps: float = 0.0

    def rate_at(self, t_ns: ArrayLike) -> ArrayLike:
        """Instantaneous rate (requests/second) at time ``t_ns``."""
        raise NotImplementedError

    def mean_rps(self) -> float:
        """Long-run average rate."""
        raise NotImplementedError


class ConstantLoad(LoadShape):
    """A fixed-rate (homogeneous Poisson) load."""

    def __init__(self, rps: float):
        if rps < 0:
            raise ValueError("rate must be >= 0")
        self.rps = float(rps)
        self.peak_rps = self.rps

    def rate_at(self, t_ns: ArrayLike) -> ArrayLike:
        return np.broadcast_to(self.rps, np.shape(t_ns)).copy() \
            if isinstance(t_ns, np.ndarray) else self.rps

    def mean_rps(self) -> float:
        return self.rps


class BurstLoad(LoadShape):
    """Repetitive trapezoidal bursts separated by idle gaps (Fig. 2's load).

    Each period of ``period_ns`` contains one burst occupying ``duty`` of
    the period: the rate ramps to ``peak_rps`` over ``rise_frac`` of the
    burst, holds, then ramps down over the same fraction. The long-run
    mean is ``peak * duty * (1 - rise_frac)``.
    """

    def __init__(self, peak_rps: float, period_ns: int = 100 * MS,
                 duty: float = 0.5, rise_frac: float = 0.2,
                 phase_ns: int = 0):
        if peak_rps <= 0:
            raise ValueError("peak rate must be positive")
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if not 0.0 <= rise_frac < 0.5:
            raise ValueError("rise_frac must be in [0, 0.5)")
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.peak_rps = float(peak_rps)
        self.period_ns = int(period_ns)
        self.duty = float(duty)
        self.rise_frac = float(rise_frac)
        self.phase_ns = int(phase_ns)

    def rate_at(self, t_ns: ArrayLike) -> ArrayLike:
        t = (np.asarray(t_ns, dtype=float) + self.phase_ns) % self.period_ns
        burst_len = self.duty * self.period_ns
        x = t / burst_len  # position within the burst, in [0, 1/duty)
        rise = self.rise_frac
        if rise > 0:
            up = np.clip(x / rise, 0.0, 1.0)
            down = np.clip((1.0 - x) / rise, 0.0, 1.0)
            envelope = np.minimum(np.minimum(up, down), 1.0)
        else:
            envelope = np.ones_like(x)
        rate = np.where(x < 1.0, envelope * self.peak_rps, 0.0)
        if np.ndim(t_ns) == 0:
            return float(rate)
        return rate

    def mean_rps(self) -> float:
        return self.peak_rps * self.duty * (1.0 - self.rise_frac)


class PiecewiseLoad(LoadShape):
    """Concatenation of shapes over time segments (changing-load runs).

    ``segments`` is a list of ``(start_ns, shape)`` with increasing
    starts; each shape is evaluated with time relative to its segment
    start, so bursts restart at each load change.
    """

    def __init__(self, segments: Sequence[Tuple[int, LoadShape]]):
        if not segments:
            raise ValueError("need at least one segment")
        starts = [s for s, _ in segments]
        if starts != sorted(starts):
            raise ValueError("segment starts must be increasing")
        self.segments: List[Tuple[int, LoadShape]] = list(segments)
        self.peak_rps = max(shape.peak_rps for _, shape in segments)
        self._starts = np.array(starts, dtype=float)

    def rate_at(self, t_ns: ArrayLike) -> ArrayLike:
        t = np.asarray(t_ns, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        idx = np.searchsorted(self._starts, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        out = np.empty_like(t)
        for i, (start, shape) in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                out[mask] = shape.rate_at(t[mask] - start)
        return float(out[0]) if scalar else out

    def mean_rps(self) -> float:
        return float(np.mean([shape.mean_rps() for _, shape in self.segments]))


class ScaledLoad(LoadShape):
    """A shape with its rate multiplied by a constant factor.

    Profiles express *per-core* rates; the system scales by core count.
    """

    def __init__(self, base: LoadShape, factor: float):
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.factor = float(factor)
        self.peak_rps = base.peak_rps * self.factor

    def rate_at(self, t_ns: ArrayLike) -> ArrayLike:
        return self.base.rate_at(t_ns) * self.factor

    def mean_rps(self) -> float:
        return self.base.mean_rps() * self.factor


def diurnal(duration_ns: int, period_ns: int, duty: float,
            peak_rps: float, trough_rps: float) -> PiecewiseLoad:
    """An idle-heavy day/night trace: each ``period_ns`` opens with a
    ``duty``-fraction burst at ``peak_rps``, then idles at
    ``trough_rps`` — the datacenter utilization pattern where adaptive
    lockstep lookahead pays off (most windows carry nothing)."""
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if period_ns <= 0 or duration_ns <= 0:
        raise ValueError("period and duration must be positive")
    segments: List[Tuple[int, LoadShape]] = []
    burst_ns = int(period_ns * duty)
    t = 0
    while t < duration_ns:
        segments.append((t, ConstantLoad(peak_rps)))
        segments.append((t + burst_ns, ConstantLoad(trough_rps)))
        t += period_ns
    return PiecewiseLoad(segments)


def generate_arrivals(shape: LoadShape, duration_ns: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Arrival times (sorted int64 ns) over [0, duration) by thinning.

    Candidates are a homogeneous Poisson process at ``shape.peak_rps``;
    each candidate at time t is kept with probability rate(t)/peak.

    Each chunk draws all of its candidate gaps, then one uniform per
    candidate before the horizon. Those two draw arrays are the only
    full-size temporaries: the rate test and the int64 conversion run
    over blocks of :data:`THINNING_BLOCK` candidates, which leaves the
    result bit-identical to a one-shot pass over the chunk.
    """
    if duration_ns <= 0:
        raise ValueError("duration must be positive")
    peak = shape.peak_rps
    if peak <= 0:
        return np.empty(0, dtype=np.int64)
    expected = peak * duration_ns / S
    arrivals: List[np.ndarray] = []
    t_cursor = 0.0
    # Draw candidate gaps in chunks until we pass the horizon.
    chunk = max(1024, int(expected * 1.2))
    while t_cursor < duration_ns:
        times = rng.exponential(S / peak, size=chunk)
        np.cumsum(times, out=times)
        times += t_cursor
        t_cursor = float(times[-1])
        n = int(np.searchsorted(times, duration_ns))
        if n == 0:
            continue
        times = times[:n]
        uniforms = rng.random(n)
        for lo in range(0, n, THINNING_BLOCK):
            block = times[lo:lo + THINNING_BLOCK]
            accept = uniforms[lo:lo + THINNING_BLOCK] < (
                np.asarray(shape.rate_at(block)) / peak)
            arrivals.append(block[accept].astype(np.int64))
    if not arrivals:
        return np.empty(0, dtype=np.int64)
    # Gaps are non-negative and chunks resume at the previous chunk's
    # last candidate, so the concatenation is already sorted.
    return np.concatenate(arrivals)
