"""Processor topology: a package of cores with a DVFS domain policy.

Per-core DVFS (the Gold 6134 testbed, and what NMAP targets) lets every
core settle at its own governor's decision. Chip-wide DVFS (what NCAP
assumes) resolves all per-core requests to the *highest* requested
frequency, as Sec. 2.2 describes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import Core
from repro.cpu.cstate import CStateTable
from repro.cpu.dvfs import DvfsController
from repro.cpu.power import PackageEnergy, PowerModel
from repro.cpu.profiles import ProcessorProfile, XEON_GOLD_6134
from repro.cpu.pstate import PStateTable

PER_CORE = "per-core"
CHIP_WIDE = "chip-wide"


class Processor:
    """A package of cores sharing a power budget and a DVFS domain policy."""

    def __init__(self, sim, profile: Optional[ProcessorProfile] = None,
                 n_cores: Optional[int] = None,
                 dvfs_domain: str = PER_CORE,
                 power_model: Optional[PowerModel] = None,
                 rng_streams=None,
                 cache_penalty_fraction: float = 0.5):
        if dvfs_domain not in (PER_CORE, CHIP_WIDE):
            raise ValueError(f"unknown DVFS domain {dvfs_domain!r}")
        self.sim = sim
        self.profile = profile or XEON_GOLD_6134
        self.dvfs_domain = dvfs_domain
        self.pstates: PStateTable = self.profile.pstate_table()
        self.cstates: CStateTable = self.profile.cstate_table()
        self.power_model = power_model or PowerModel(self.pstates)
        self.energy = PackageEnergy(self.power_model)
        count = n_cores if n_cores is not None else self.profile.n_cores
        if count < 1:
            raise ValueError("need at least one core")

        latency_model = self.profile.transition_model()
        self.cores: List[Core] = []
        self.dvfs: List[DvfsController] = []
        for cid in range(count):
            rng = (rng_streams.stream(f"core{cid}")
                   if rng_streams is not None else None)
            core = Core(sim, cid, self.pstates, cstate_table=self.cstates,
                        power_model=self.power_model,
                        meter=self.energy.meter_for(cid),
                        rng=rng,
                        cache_penalty_fraction=cache_penalty_fraction)
            self.cores.append(core)
            self.dvfs.append(DvfsController(sim, core, latency_model, rng=rng))
        # Per-core requests, used to resolve the chip-wide target.
        self._requested = [c.pstate_index for c in self.cores]
        # RAPL-style frequency cap: governors may not settle faster than
        # this index (0 = uncapped). Set by a fleet power-budget
        # coordinator; requests below the cap resolve to the cap.
        self._pstate_cap_index = 0
        # Uncore frequency scaling tracks the fastest core; the speed
        # telemetry a power-aware balancer reads is the mean core clock.
        self._freqs_hz = [st.freq_hz for st in self.pstates]
        self._speed_norm_hz = count * self.pstates.p0.freq_hz
        #: Mean core frequency as a fraction of the P0 clock, updated on
        #: every effective P-state change.
        self.relative_speed = (
            sum(self._freqs_hz[c.pstate_index] for c in self.cores)
            / self._speed_norm_hz)
        for core in self.cores:
            core.pstate_listeners.append(self._on_core_pstate_change)

    def _on_core_pstate_change(self, core) -> None:
        freqs = self._freqs_hz
        fastest = core.pstate_index
        total = 0.0
        for c in self.cores:
            index = c.pstate_index
            if index < fastest:
                fastest = index
            total += freqs[index]
        self.relative_speed = total / self._speed_norm_hz
        self.energy.set_uncore_pstate(self.sim.now, self.pstates[fastest])

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def request_pstate(self, core_id: int, index: int) -> None:
        """Route a governor's P-state request through the DVFS domain.

        Per-core: the request applies to that core only. Chip-wide: the
        effective target is the fastest (lowest index) of all per-core
        requests and is applied to every core. Either way the effective
        target never goes below the power-budget cap
        (:meth:`set_pstate_cap`); the governor's intent is remembered so
        a relaxed cap restores it.
        """
        index = self.pstates.clamp(index)
        self._requested[core_id] = index
        if self.dvfs_domain == PER_CORE:
            self.dvfs[core_id].request(max(index, self._pstate_cap_index))
            return
        target = max(min(self._requested), self._pstate_cap_index)
        for ctrl in self.dvfs:
            ctrl.request(target)

    @property
    def pstate_cap_index(self) -> int:
        """The current power-budget frequency cap (0 = uncapped)."""
        return self._pstate_cap_index

    def set_pstate_cap(self, index: int) -> None:
        """Cap every core's effective P-state at ``index`` or slower.

        The fleet power-budget coordinator's enforcement hook: a node
        whose budget share shrinks gets a higher (slower) cap. Changing
        the cap re-resolves every core's last requested target, so
        tightening throttles immediately and relaxing restores each
        governor's intent without waiting for its next sample.
        """
        index = self.pstates.clamp(index)
        if index == self._pstate_cap_index:
            return
        self._pstate_cap_index = index
        if self.dvfs_domain == PER_CORE:
            for cid, ctrl in enumerate(self.dvfs):
                ctrl.request(max(self._requested[cid], index))
        else:
            target = max(min(self._requested), index)
            for ctrl in self.dvfs:
                ctrl.request(target)

    def finalize(self) -> None:
        """Flush all per-core accounting to the current time."""
        for core in self.cores:
            core.finalize()

    def register_into(self, reg) -> None:
        """Register per-core residency, P-state churn and work throughput."""
        for c in self.cores:
            cpu = {"subsystem": "cpu", "core": str(c.core_id)}
            reg.gauge("core_busy_ns", "Busy residency",
                      read=lambda c=c: c.busy_ns, **cpu)
            reg.gauge("core_idle_ns", "Idle residency",
                      read=lambda c=c: c.idle_ns, **cpu)
            residency = c.cstate_residency_ns
            for state in residency:
                reg.gauge("cstate_residency_ns", "Residency per C-state",
                          read=lambda ns=residency, s=state: ns[s],
                          state=state, **cpu)
            reg.counter("pstate_changes_total", "Effective P-state changes",
                        read=lambda c=c: c.pstate_changes, **cpu)
            reg.counter("works_completed_total", "Work items retired",
                        read=lambda c=c: c.works_completed, **cpu)

    def total_energy_j(self) -> float:
        """Package energy (cores + uncore) up to the current time."""
        return self.energy.total_energy_j(self.sim.now)
