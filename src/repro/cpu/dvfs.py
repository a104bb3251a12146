"""Per-core DVFS controller with transition and *re-transition* latency.

ACPI tables advertise a 10 µs V/F transition latency, but Sec. 5.1 of the
paper measures that a transition requested while the previous one is still
settling takes far longer — the *re-transition latency* — up to ~530 µs on
server Xeons (Table 1). This module models both: a request against a
settled core costs the base latency; a request that lands inside the
previous transition's settle window costs the processor-specific
re-transition latency (direction- and distance-interpolated from the six
measured transitions).

This is what defeats per-request DVFS schemes (Adrenaline, Rubik, µDPM) on
commodity hardware: rapid-fire requests each reset the settle window, so
the effective frequency lags by hundreds of microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.units import US

#: Canonical transition categories measured in Table 1.
SMALL_DOWN_HIGH = "small_down_high"  # Pmax   -> Pmax-1
SMALL_UP_HIGH = "small_up_high"      # Pmax-1 -> Pmax
FULL_DOWN = "full_down"              # Pmax   -> Pmin
FULL_UP = "full_up"                  # Pmin   -> Pmax
SMALL_DOWN_LOW = "small_down_low"    # Pmin+1 -> Pmin
SMALL_UP_LOW = "small_up_low"        # Pmin   -> Pmin+1

_CATEGORIES = (SMALL_DOWN_HIGH, SMALL_UP_HIGH, FULL_DOWN, FULL_UP,
               SMALL_DOWN_LOW, SMALL_UP_LOW)


@dataclass(frozen=True)
class TransitionLatencyModel:
    """Latency model for one processor.

    ``retransition_ns`` maps the six measured categories to
    ``(mean_ns, std_ns)``. Arbitrary transitions interpolate between the
    small-step and full-swing means of the matching direction.
    """

    n_states: int
    base_latency_ns: int = 10 * US
    base_latency_std_ns: int = 1 * US
    retransition_ns: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [c for c in _CATEGORIES if c not in self.retransition_ns]
        if missing:
            raise ValueError(f"missing transition categories: {missing}")
        if self.n_states < 2:
            raise ValueError("need at least two P-states")

    def _interp(self, from_index: int, to_index: int) -> Tuple[float, float]:
        up = to_index < from_index  # lower index = higher frequency
        distance = abs(from_index - to_index)
        if up:
            small = self._avg(SMALL_UP_HIGH, SMALL_UP_LOW)
            full = self.retransition_ns[FULL_UP]
        else:
            small = self._avg(SMALL_DOWN_HIGH, SMALL_DOWN_LOW)
            full = self.retransition_ns[FULL_DOWN]
        if self.n_states <= 2 or distance <= 1:
            return small
        t = (distance - 1) / (self.n_states - 2)
        mean = small[0] + t * (full[0] - small[0])
        std = small[1] + t * (full[1] - small[1])
        return mean, std

    def _avg(self, cat_a: str, cat_b: str) -> Tuple[float, float]:
        (ma, sa), (mb, sb) = self.retransition_ns[cat_a], self.retransition_ns[cat_b]
        return (ma + mb) / 2, (sa + sb) / 2

    def mean_latency_ns(self, from_index: int, to_index: int,
                        retransition: bool) -> float:
        """Expected latency without measurement noise."""
        if not retransition:
            return float(self.base_latency_ns)
        return self._interp(from_index, to_index)[0]

    def sample_latency_ns(self, from_index: int, to_index: int,
                          retransition: bool, rng=None) -> int:
        """Latency draw (Gaussian around the category mean, >= 1 µs)."""
        if not retransition:
            mean, std = float(self.base_latency_ns), float(self.base_latency_std_ns)
        else:
            mean, std = self._interp(from_index, to_index)
        if rng is None:
            return max(1 * US, int(mean))
        return max(1 * US, int(rng.gauss(mean, std)))


class DvfsController:
    """Applies P-state requests to a core after the modelled latency.

    A request arriving while the previous transition is still settling is
    penalized with the re-transition latency and supersedes the pending
    change (last-writer-wins, like repeated MSR writes).
    """

    def __init__(self, sim, core, latency_model: TransitionLatencyModel,
                 rng=None):
        if latency_model.n_states != len(core.pstates):
            raise ValueError("latency model sized for a different P-state table")
        self.sim = sim
        self.core = core
        self.model = latency_model
        self.rng = rng
        self.target_index: int = core.pstate_index
        self.transitions = 0
        self.retransitions = 0
        self._pending_ev = None
        self._settle_until = 0

    def request(self, index: int) -> Optional[int]:
        """Request P-state ``index``; returns the latency charged (ns).

        Returns None when the request is a no-op (already the target).
        """
        index = self.core.pstates.clamp(index)
        if index == self.target_index:
            return None
        retransition = self.sim.now < self._settle_until
        latency = self.model.sample_latency_ns(
            self.core.pstate_index, index, retransition, self.rng)
        if self._pending_ev is not None:
            self.sim.cancel(self._pending_ev)
        self.target_index = index
        self.transitions += 1
        if retransition:
            self.retransitions += 1
        self._settle_until = self.sim.now + latency
        self._pending_ev = self.sim.schedule(latency, self._apply, index)
        return latency

    def _apply(self, index: int) -> None:
        self._pending_ev = None
        self.core.set_pstate_index(index)
