"""Fleet-level power budgeting: one watt budget, N nodes.

RAPL-style budgeting periodically redistributes a global budget across
the fleet in proportion to each node's recent busy time (with a
guaranteed floor so an idle node can always ramp back up), then enforces
each share as a per-node P-state cap via
:meth:`repro.cpu.topology.Processor.set_pstate_cap`.

The budget math lives in :class:`BudgetArbiter`, which is deliberately
*pure*: it sees only power ladders and busy-time integers, never a
simulator or a processor. :class:`~repro.cluster.fleet.FleetSystem`
drives it at lockstep barriers from its node backend's ``ladders`` and
``busy()`` and ships the caps back through the backend, so in-process
and sharded fleets run the identical arithmetic on the same integers.

Budgeting is observation-only on the measurement path: :func:`busy_ns`
reads each core's lazily-flushed ``busy_ns`` counter raw, never forcing
an accounting flush, so enabling the budget does not perturb a node's
energy-meter accrual points (float accumulation order is part of the
determinism contract).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.units import MS


def power_ladder(processor) -> List[float]:
    """Worst-case node watts at each P-state index (all cores busy).

    Index 0 (fastest) draws the most; the ladder is what maps a watt
    share to the fastest affordable cap. Pure read of the power model —
    safe to compute in a worker process and ship to the arbiter.
    """
    model = processor.power_model
    cc0 = processor.cstates.cc0
    ladder = []
    for i in range(len(processor.pstates)):
        pstate = processor.pstates[i]
        ladder.append(processor.n_cores
                      * model.core_power(True, pstate, cc0)
                      + model.uncore_power(pstate))
    return ladder


def busy_ns(system) -> int:
    """Sum of per-core busy residency, read without flushing."""
    return sum(core.busy_ns for core in system.processor.cores)


class BudgetArbiter:
    """The pure budget arithmetic: ladders + busy deltas -> P-state caps.

    Holds no reference to simulators or processors; every decision is a
    deterministic function of the constructor arguments and the busy
    counters passed to :meth:`maybe_rebalance`.
    """

    def __init__(self, ladders: Sequence[Sequence[float]], budget_w: float,
                 period_ns: int = 10 * MS, floor_frac: float = 0.5,
                 initial_busy: Optional[Sequence[int]] = None):
        if budget_w <= 0:
            raise ValueError("budget must be positive")
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= floor_frac <= 1.0:
            raise ValueError("floor_frac must be in [0, 1]")
        self.ladders = [list(ladder) for ladder in ladders]
        self.budget_w = float(budget_w)
        self.period_ns = int(period_ns)
        #: Fraction of the budget split evenly regardless of load; the
        #: rest follows demand. A non-zero floor keeps a freshly loaded
        #: node from being starved at the cap until the next period.
        self.floor_frac = float(floor_frac)
        self.rebalances = 0
        self._last_check_ns = 0
        self._last_busy = ([0] * len(self.ladders) if initial_busy is None
                           else [int(b) for b in initial_busy])

    @property
    def n_nodes(self) -> int:
        return len(self.ladders)

    def cap_for_share(self, node_index: int, share_w: float) -> int:
        """Fastest P-state index whose worst-case draw fits ``share_w``."""
        ladder = self.ladders[node_index]
        for i, watts in enumerate(ladder):
            if watts <= share_w:
                return i
        return len(ladder) - 1

    def shares(self, loads: Sequence[int]) -> List[float]:
        """Per-node watt shares for the given busy-time deltas."""
        n = self.n_nodes
        floor = self.budget_w * self.floor_frac / n
        spare = self.budget_w * (1.0 - self.floor_frac)
        total = sum(loads)
        if total <= 0:
            return [floor + spare / n] * n
        return [floor + spare * load / total for load in loads]

    def next_fire_ns(self) -> int:
        """Earliest instant :meth:`maybe_rebalance` would fire."""
        return self._last_check_ns + self.period_ns

    def next_fire_barrier(self, now_ns: int, window_ns: int) -> int:
        """The first lockstep-window start at/after ``now_ns`` where a
        rebalance fires.

        The fleet drivers call :meth:`maybe_rebalance` only at window
        starts (multiples of ``window_ns``), so an adaptive-lookahead
        stride may run past intermediate window boundaries but must
        never run past this barrier — skipping it would skip a cap
        redistribution the windowed loop would have applied.
        """
        fire = self.next_fire_ns()
        barrier = -(-fire // window_ns) * window_ns
        return barrier if barrier > now_ns else now_ns

    def maybe_rebalance(self, now_ns: int,
                        busy: Sequence[int]) -> Optional[List[int]]:
        """Caps to apply if a period has elapsed, else None.

        ``busy`` is each node's cumulative busy time at ``now_ns``; the
        arbiter differences it against the previous firing's snapshot.
        """
        if now_ns - self._last_check_ns < self.period_ns:
            return None
        self._last_check_ns = now_ns
        busy = [int(b) for b in busy]
        loads = [b - prev for b, prev in zip(busy, self._last_busy)]
        self._last_busy = busy
        self.rebalances += 1
        return [self.cap_for_share(i, share)
                for i, share in enumerate(self.shares(loads))]
