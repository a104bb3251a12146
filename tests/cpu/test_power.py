"""Power model and energy meters."""

import pytest

from repro.cpu.cstate import CStateTable
from repro.cpu.power import EnergyMeter, PackageEnergy, PowerModel
from repro.units import S


@pytest.fixture
def model(pstates):
    return PowerModel(pstates)


@pytest.fixture
def cstates():
    return CStateTable.default()


def test_active_power_decreases_with_pstate_index(model, pstates, cstates):
    cc0 = cstates.cc0
    powers = [model.core_power(True, pstates[i], cc0)
              for i in range(len(pstates))]
    assert powers == sorted(powers, reverse=True)


def test_active_exceeds_idle_at_same_pstate(model, pstates, cstates):
    p0 = pstates.p0
    assert model.core_power(True, p0, cstates.cc0) \
        > model.core_power(False, p0, cstates.cc0)


def test_idle_c0_exceeds_cc1_exceeds_cc6(model, pstates, cstates):
    p0 = pstates.p0
    idle_c0 = model.core_power(False, p0, cstates.cc0)
    cc1 = model.core_power(False, p0, cstates[1])
    cc6 = model.core_power(False, p0, cstates[2])
    assert idle_c0 > cc1 > cc6


def test_cc1_power_scales_with_voltage(model, pstates, cstates):
    cc1_fast = model.core_power(False, pstates.p0, cstates[1])
    cc1_slow = model.core_power(False, pstates.pmin, cstates[1])
    assert cc1_slow < cc1_fast
    expected = cc1_fast * (pstates.pmin.voltage / pstates.p0.voltage) ** 2
    assert cc1_slow == pytest.approx(expected)


def test_cc6_power_is_voltage_independent(model, pstates, cstates):
    assert model.core_power(False, pstates.p0, cstates[2]) \
        == model.core_power(False, pstates.pmin, cstates[2])


def test_uncore_power_follows_fastest_pstate(model, pstates):
    assert model.uncore_power(pstates.p0) == pytest.approx(
        model.uncore_max_power_w)
    slow = model.uncore_power(pstates.pmin)
    assert model.uncore_min_power_w < slow < model.uncore_max_power_w


def test_energy_meter_integrates_piecewise_constant():
    meter = EnergyMeter()
    meter.set_power(0, 10.0)
    meter.set_power(S, 2.0)          # 10 W for 1 s
    assert meter.energy_j(2 * S) == pytest.approx(10.0 + 2.0)


def test_energy_meter_rejects_time_reversal():
    meter = EnergyMeter()
    meter.set_power(100, 5.0)
    with pytest.raises(ValueError):
        meter.accrue(50)


def test_package_energy_totals_cores_and_uncore(pstates):
    model = PowerModel(pstates)
    package = PackageEnergy(model)
    meter = package.meter_for(0)
    meter.set_power(0, 4.0)
    total = package.total_energy_j(S)
    assert total == pytest.approx(4.0 + model.uncore_power(pstates.p0))
    assert package.cores_energy_j(S) == pytest.approx(4.0)


def test_package_uncore_rescaling(pstates):
    model = PowerModel(pstates)
    package = PackageEnergy(model)
    package.set_uncore_pstate(0, pstates.pmin)
    energy = package.total_energy_j(S)
    assert energy == pytest.approx(model.uncore_power(pstates.pmin))
