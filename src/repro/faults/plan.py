"""Fault plans: declarative, hashable schedules of degradation windows.

A :class:`FaultPlan` is part of the run *configuration*: a tuple of
:class:`FaultWindow` entries, each naming a fault kind, an activity
window on the simulated clock, and kind-specific knobs. Plans are
frozen dataclasses so :mod:`repro.experiments.confighash` canonicalizes
them like any other config field — two runs with the same plan (and
seed) hit the same cache line, and a changed plan changes the key.

Stochastic faults (per-packet loss, corruption) draw from a dedicated
stream derived as ``derive_stream(seed, "faults", window_index)``, so
fault noise never perturbs arrival, service, or DVFS streams: a faulted
run's *inputs* are identical to the healthy run's, which is what makes
"governor X under loss burst" a controlled comparison.

Fault taxonomy (see docs/FAULTS.md for the full story):

``nic-loss``
    Bernoulli packet drop/corruption on the receive wire. Corrupted
    frames fail checksum and are counted separately, but both outcomes
    discard the packet before it reaches an RX queue.
``queue-overflow``
    Shrinks the per-queue RX ring capacity for the window, forcing
    tail drops under bursts that the normal ring would absorb.
``irq-storm``
    A periodic train of spurious hard-IRQ work items on the victim
    cores — flaky hardware or an interrupt livelock neighbour. The
    NAPI state machine itself is untouched; storms contend for the
    same cycle budget its handlers need.
``throttle``
    RAPL-style thermal throttling: caps the whole package's P-state
    via :meth:`repro.cpu.topology.Processor.set_pstate_cap` for the
    window, then lifts the cap.
``dvfs-stuck``
    Multiplies DVFS transition latency for the window — a stuck
    voltage regulator. Governors that re-target frequently pay the
    most.
``core-offline``
    Parks victim cores behind an unkillable highest-priority hog for
    the window — a hotplug offline or a runaway SMM handler.
``node-crash``
    Fleet-level fail-stop: the node's NIC blackholes all traffic and
    every core is parked until the window ends (crash + reboot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

KIND_NIC_LOSS = "nic-loss"
KIND_QUEUE_OVERFLOW = "queue-overflow"
KIND_IRQ_STORM = "irq-storm"
KIND_THROTTLE = "throttle"
KIND_DVFS_STUCK = "dvfs-stuck"
KIND_CORE_OFFLINE = "core-offline"
KIND_NODE_CRASH = "node-crash"

KINDS = (
    KIND_NIC_LOSS,
    KIND_QUEUE_OVERFLOW,
    KIND_IRQ_STORM,
    KIND_THROTTLE,
    KIND_DVFS_STUCK,
    KIND_CORE_OFFLINE,
    KIND_NODE_CRASH,
)


@dataclass(frozen=True)
class FaultWindow:
    """One fault, active on ``[start_ns, end_ns)`` of the simulated clock."""

    kind: str
    start_ns: int
    end_ns: int
    #: ``nic-loss``: per-packet drop probability.
    prob: float = 0.0
    #: ``nic-loss``: per-packet corruption probability (also discards).
    corrupt_prob: float = 0.0
    #: ``irq-storm``: spurious interrupts per second on each victim core.
    rate_hz: float = 0.0
    #: ``irq-storm``: cycles burned by each spurious handler.
    cycles: float = 1800.0
    #: ``throttle``: package P-state cap index (clamped to the table).
    cap_index: int = 0
    #: ``dvfs-stuck``: transition-latency multiplier.
    factor: float = 1.0
    #: ``queue-overflow``: RX ring capacity during the window.
    rx_capacity: int = 0
    #: Victim core ids (``irq-storm`` / ``core-offline``); empty = all.
    cores: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {list(KINDS)}")
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ValueError(f"bad fault window [{self.start_ns}, "
                             f"{self.end_ns})")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if not 0.0 <= self.corrupt_prob <= 1.0:
            raise ValueError(f"corrupt_prob must be in [0, 1], "
                             f"got {self.corrupt_prob}")
        if self.prob + self.corrupt_prob > 1.0:
            raise ValueError("prob + corrupt_prob must not exceed 1")
        if self.kind == KIND_NIC_LOSS and self.prob + self.corrupt_prob <= 0:
            raise ValueError("nic-loss window needs prob or corrupt_prob")
        if self.kind == KIND_IRQ_STORM and self.rate_hz <= 0:
            raise ValueError("irq-storm window needs rate_hz > 0")
        if self.kind == KIND_QUEUE_OVERFLOW and self.rx_capacity < 1:
            raise ValueError("queue-overflow window needs rx_capacity >= 1")
        if self.kind == KIND_DVFS_STUCK and self.factor < 1.0:
            raise ValueError("dvfs-stuck factor must be >= 1")
        if self.cap_index < 0:
            raise ValueError("cap_index must be >= 0")
        if self.cycles <= 0:
            raise ValueError("cycles must be > 0")

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault windows for one node's run.

    An empty plan is equivalent to no plan at all: the injector is
    never constructed and the run is bit-identical to a healthy one
    (enforced by ``tests/faults/test_parity.py``).
    """

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        # Tolerate lists at construction for ergonomics; store a tuple
        # so the plan stays hashable and canonicalizes stably.
        if not isinstance(self.windows, tuple):
            object.__setattr__(self, "windows", tuple(self.windows))
        # Windows of the same kind — and any two windows that shadow the
        # NIC receive path (nic-loss, node-crash) — must not overlap:
        # the injector's install/restore discipline is save-at-activate,
        # restore-at-deactivate, which interleaved shadows would break.
        shadowers = (KIND_NIC_LOSS, KIND_NODE_CRASH)
        by_group: dict = {}
        for window in self.windows:
            group = "rx-shadow" if window.kind in shadowers else window.kind
            by_group.setdefault(group, []).append(window)
        for group, windows in by_group.items():
            windows = sorted(windows, key=lambda w: w.start_ns)
            for prev, cur in zip(windows, windows[1:]):
                if cur.start_ns < prev.end_ns:
                    raise ValueError(
                        f"overlapping {group} fault windows: "
                        f"[{prev.start_ns}, {prev.end_ns}) and "
                        f"[{cur.start_ns}, {cur.end_ns})")

    def __bool__(self) -> bool:
        return bool(self.windows)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct fault kinds in schedule order (first activation)."""
        seen = []
        for window in self.windows:
            if window.kind not in seen:
                seen.append(window.kind)
        return tuple(seen)


def merged(*plans: "FaultPlan") -> FaultPlan:
    """Combine plans into one, windows ordered by (start, kind)."""
    windows = [w for plan in plans for w in plan.windows]
    windows.sort(key=lambda w: (w.start_ns, w.kind, w.end_ns))
    return FaultPlan(windows=tuple(windows))


__all__ = ["FaultWindow", "FaultPlan", "merged", "KINDS"]
