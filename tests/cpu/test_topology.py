"""Processor topology and DVFS domains."""

import pytest

from repro.cpu.topology import CHIP_WIDE, PER_CORE, Processor
from repro.units import MS


def make_processor(sim, domain=PER_CORE, n_cores=2):
    return Processor(sim, n_cores=n_cores, dvfs_domain=domain)


def test_builds_requested_core_count(sim):
    proc = make_processor(sim, n_cores=4)
    assert proc.n_cores == 4
    assert [c.core_id for c in proc.cores] == [0, 1, 2, 3]


def test_per_core_requests_are_independent(sim):
    proc = make_processor(sim, PER_CORE)
    proc.request_pstate(0, 10)
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == 10
    assert proc.cores[1].pstate_index == 0


def test_chip_wide_resolves_to_fastest_request(sim):
    proc = make_processor(sim, CHIP_WIDE)
    proc.request_pstate(0, 10)
    proc.request_pstate(1, 4)
    sim.run_until(5 * MS)
    # Core 1 wants P4 (faster than P10): both cores land on P4.
    assert proc.cores[0].pstate_index == 4
    assert proc.cores[1].pstate_index == 4


def test_chip_wide_releases_when_fast_request_withdraws(sim):
    proc = make_processor(sim, CHIP_WIDE)
    proc.request_pstate(0, 10)
    proc.request_pstate(1, 4)
    sim.run_until(5 * MS)
    proc.request_pstate(1, 12)
    sim.run_until(10 * MS)
    assert proc.cores[0].pstate_index == 10
    assert proc.cores[1].pstate_index == 10


def test_unknown_domain_rejected(sim):
    with pytest.raises(ValueError):
        Processor(sim, dvfs_domain="socket-wide")


def test_uncore_follows_fastest_core(sim):
    proc = make_processor(sim)
    meter = proc.energy._uncore
    p0_power = meter.power_w
    for core in proc.cores:
        core.set_pstate_index(15)
    assert meter.power_w < p0_power


def test_total_energy_positive_after_time(sim):
    proc = make_processor(sim)
    sim.run_until(10 * MS)
    proc.finalize()
    assert proc.total_energy_j() > 0
