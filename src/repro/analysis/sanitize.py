"""Runtime simulation sanitizer: model invariants checked while running.

Enabled by ``REPRO_SANITIZE=1`` (picked up by every
:class:`~repro.sim.simulator.Simulator` built afterwards) or explicitly
with ``Simulator(sanitize=True)``. Installation is a bound-method
swap: the sanitizer shadows ``run_until`` and ``step`` in the
*instance* dict, so an unsanitized simulator carries not a single extra
branch and a sanitized one is bit-identical — every check is read-only
with respect to simulation state, and the shadows pop and fire events
exactly as the production loop does.

Invariants checked:

* **Causality / monotonic clock** — no fired event may carry a
  timestamp behind ``sim.now`` (catches past-time pushes that bypass
  ``schedule``'s guard, heap corruption, and backwards ``run_until``).
* **Fleet lockstep lookahead** — a :class:`~repro.cluster.fleet.
  FleetSystem` window may only dispatch arrivals inside its own
  ``[start, end)`` span, and no node may run past the window end
  (``repro.cluster.fleet`` calls :meth:`SimSanitizer.check_dispatch`
  and :meth:`SimSanitizer.check_lockstep_window`).
* **Energy conservation** — at the measurement boundary, per-core meter
  energies plus uncore must reproduce the RAPL-style package total
  within a relative epsilon (``repro.system`` calls
  :meth:`SimSanitizer.check_energy`).

Violations raise :class:`SanitizerError`. A sanitized run of any
experiment produces bit-identical results (latency arrays, float
energy) to the unsanitized run — enforced by
``tests/analysis/test_sanitized_parity.py`` — at under 2x the wall
cost (gated in ``benchmarks/perf_smoke.py``).
"""

from __future__ import annotations

from heapq import heappop as _heappop
from typing import Optional

from repro.sim.simulator import env_flag
from repro.units import S


class SanitizerError(RuntimeError):
    """A simulation invariant was violated at runtime."""


def check_dispatch_bounds(node_id: int, created_ns: int,
                          window_start: int, window_end: int) -> None:
    """A window may only dispatch arrivals created inside it.

    Module-level twin of :meth:`SimSanitizer.check_dispatch` for
    drivers that hold no simulator — the sharded fleet master runs the
    balancer without a single local event kernel but must enforce the
    same lookahead discipline.
    """
    if not window_start <= created_ns < window_end:
        raise SanitizerError(
            f"lookahead violation: arrival at {created_ns} "
            f"dispatched to node {node_id} inside window "
            f"[{window_start}, {window_end}) — the balancer used "
            f"state it could not yet have observed")


def check_dispatch_snapshot(node_id: int, snapshot_key, live_key) -> None:
    """A feedback dispatch must decide on what the node shows now.

    The balancer reads node state once per window; that snapshot stays
    exact only if nothing changes a node while the window dispatches
    and every dispatch updates the routed node's key.
    """
    if snapshot_key != live_key:
        raise SanitizerError(
            f"stale dispatch snapshot: node {node_id} was dispatched "
            f"against key {snapshot_key!r}, but a live read gives "
            f"{live_key!r}")


def check_stride_plan(stride_start: int, stride_end: int, window_ns: int,
                      next_arrival_ns: Optional[int],
                      budget_barrier_ns: Optional[int],
                      monitor_idle: bool) -> None:
    """Validate one adaptive-lookahead stride before it runs.

    A stride coalesces lockstep windows and is exact only when nothing
    the window-by-window loop would have done inside it can occur: no
    arrival to dispatch past the first window, no power-budget firing,
    no health observation with anything to observe. Called by the fleet
    drivers under ``REPRO_SANITIZE=1`` (master-side; the per-node
    lookahead bound stays with :meth:`SimSanitizer.check_lockstep_window`
    as before).
    """
    if stride_end <= stride_start:
        raise SanitizerError(
            f"stride violation: empty stride [{stride_start}, "
            f"{stride_end})")
    if stride_end - stride_start > window_ns:
        first_window_end = stride_start + window_ns
        if next_arrival_ns is not None \
                and next_arrival_ns < stride_end:
            raise SanitizerError(
                f"stride violation: stride [{stride_start}, {stride_end}) "
                f"would swallow the arrival at {next_arrival_ns} — its "
                f"dispatch belongs to window start "
                f"{next_arrival_ns - next_arrival_ns % window_ns}")
        if budget_barrier_ns is not None \
                and stride_end > budget_barrier_ns:
            raise SanitizerError(
                f"stride violation: stride [{stride_start}, {stride_end}) "
                f"crosses the power-budget barrier at {budget_barrier_ns}")
        if not monitor_idle:
            raise SanitizerError(
                f"stride violation: stride [{stride_start}, {stride_end}) "
                f"would skip health observations of active nodes "
                f"(first window ends {first_window_end})")


class SimSanitizer:
    """Checked shadows of one simulator's hot methods.

    Constructed by ``Simulator(sanitize=True)``; never instantiate for
    an unsanitized simulator — attaching swaps the instance's methods.
    """

    def __init__(self, sim):
        self.sim = sim
        self.events_checked = 0
        self.windows_checked = 0
        self.energy_checks = 0
        #: Opt-in periodic energy-conservation variant: when armed (via
        #: REPRO_SANITIZE_ENERGY_WINDOWS=1 on top of REPRO_SANITIZE=1),
        #: fleet lockstep loops call :meth:`check_energy_window` every
        #: window instead of only at the measurement boundary.
        self.periodic_energy = env_flag("REPRO_SANITIZE_ENERGY_WINDOWS")
        self.energy_window_checks = 0
        self._energy_floor = {}
        # Instance-dict shadows: the class methods stay untouched for
        # every other simulator.
        sim.run_until = self._run_until
        sim.step = self._step

    # -- the run loop --------------------------------------------------- #

    def _step(self) -> bool:
        sim = self.sim
        entry = sim.queue.pop()
        if entry is None:
            return False
        time, ev = entry
        if time < sim.now:
            raise SanitizerError(
                f"causality violation: event {ev!r} fires at {time} "
                f"behind the clock (now={sim.now})")
        sim.now = time
        sim._events_processed += 1
        ev.fn(*ev.args)
        self.events_checked += 1
        return True

    def _run_until(self, t_end: int) -> None:
        """Checked mirror of ``Simulator.run_until``.

        Same drain loop plus the causality checks. Event ordering and
        ``now`` stepping are identical, so results are bit-identical.
        """
        sim = self.sim
        if t_end < sim.now:
            raise SanitizerError(
                f"run_until({t_end}) would move the clock backwards "
                f"(now={sim.now})")
        queue = sim.queue
        heap = queue._heap
        heappop = _heappop
        processed = dropped = 0
        now = sim.now
        try:
            while heap:
                time, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    dropped += 1
                    continue
                if time > t_end:
                    break
                if time < now:
                    raise SanitizerError(
                        f"causality violation: event {ev!r} fires at "
                        f"{time} behind the clock (now={now})")
                heappop(heap)
                sim.now = now = time
                processed += 1
                ev.fn(*ev.args)
        finally:
            self.events_checked += processed
            sim._events_processed += processed
            queue.cancelled_popped += dropped
        if t_end > sim.now:
            sim.now = t_end

    # -- cross-subsystem invariants ------------------------------------- #

    def check_lockstep_window(self, node_id: int, window_start: int,
                              window_end: int) -> None:
        """A node must never outrun its conservative lockstep window."""
        self.windows_checked += 1
        now = self.sim.now
        if now > window_end:
            raise SanitizerError(
                f"lookahead violation: node {node_id} advanced to "
                f"{now}, past its lockstep window "
                f"[{window_start}, {window_end}]")

    def check_lockstep_stride(self, node_id: int, stride_start: int,
                              stride_end: int, n_windows: int) -> None:
        """Stride-aware variant of :meth:`check_lockstep_window`.

        An adaptive-lookahead stride spans ``n_windows`` base windows;
        the node must respect the *stride* bound (each base window it
        covers was proven dispatch-free, so the per-window bound
        degenerates to the stride bound). Window accounting stays exact:
        the base windows are credited to ``windows_checked`` so a
        sanitized strided run reports the same coverage as a windowed
        one.
        """
        self.windows_checked += n_windows - 1
        self.check_lockstep_window(node_id, stride_start, stride_end)

    def check_dispatch(self, node_id: int, created_ns: int,
                       window_start: int, window_end: int) -> None:
        """A window may only dispatch arrivals created inside it."""
        check_dispatch_bounds(node_id, created_ns, window_start, window_end)

    def check_energy_window(self, package_energy, t_ns: int) -> None:
        """Periodic (per lockstep window) energy-conservation variant.

        Strictly read-only: :meth:`EnergyMeter.accrue` mutates the
        meter's accumulator and checkpoint (changing later float
        accumulation order), so this check *projects* each meter's
        energy at ``t_ns`` without touching it. Checks that every
        meter's checkpoint is inside the window, power is non-negative,
        and projected energy never decreases between windows.
        """
        self.energy_window_checks += 1
        meters = list(package_energy.core_meters.items())
        meters.append(("uncore", package_energy._uncore))
        floors = self._energy_floor
        for name, meter in meters:
            last = meter._last_time
            if last > t_ns:
                raise SanitizerError(
                    f"energy window violation: meter {name} checkpoint "
                    f"at {last} is past the window end {t_ns}")
            power = meter._power_w
            if power < 0.0:
                raise SanitizerError(
                    f"energy window violation: meter {name} draws "
                    f"{power} W (negative)")
            projected = meter._energy_j + power * (t_ns - last) / S
            floor = floors.get(name)
            if floor is not None \
                    and projected < floor - 1e-9 * max(1.0, abs(floor)):
                raise SanitizerError(
                    f"energy window violation: meter {name} projects "
                    f"{projected} J at {t_ns}, below the previous "
                    f"window's {floor} J — energy went backwards")
            floors[name] = projected

    def check_energy(self, package_energy, package_j: float,
                     cores_j: float, rel_tol: float = 1e-9) -> None:
        """Per-core meters + uncore must reproduce the package total.

        Read-only: the meters were already integrated to the
        measurement boundary when the summary was built, so re-reading
        their accumulated joules perturbs nothing — float accumulation
        order of the real measurement is untouched.
        """
        self.energy_checks += 1
        meters = package_energy.core_meters
        cores_sum = 0.0
        for core_id, meter in meters.items():
            energy = meter.energy_j()
            if energy < 0.0:
                raise SanitizerError(
                    f"energy conservation violation: core {core_id} "
                    f"meter reads {energy} J (negative)")
            cores_sum += energy
        uncore_j = package_energy._uncore.energy_j()
        tol = rel_tol * max(1.0, abs(package_j))
        if abs(cores_j - cores_sum) > tol:
            raise SanitizerError(
                f"energy conservation violation: per-core meters sum "
                f"to {cores_sum} J but cores_j reports {cores_j} J")
        if abs(package_j - (cores_sum + uncore_j)) > tol:
            raise SanitizerError(
                f"energy conservation violation: cores {cores_sum} J + "
                f"uncore {uncore_j} J != package {package_j} J "
                f"(|delta| > {tol})")
