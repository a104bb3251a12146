"""Model counters stay in a result's telemetry; host numbers do not.

``PerfSnapshot.register_into`` writes the event kernel's counters into
``result.telemetry``. Wall time and events/sec leave only through
``host_registry``, so the Prometheus text of a result is a pure
function of (config, seed).
"""

import pytest

from repro.obs.prometheus import prometheus_text
from repro.sim.perf import PerfSnapshot, host_registry
from tests import goldens

#: Metric families of the host exporter.
HOST_FAMILIES = sorted({name for name, _labels, _kind, _instrument
                        in host_registry(PerfSnapshot()).items()})


def test_host_exporter_reads_wall_time_and_event_rate():
    registry = host_registry(PerfSnapshot(events_fired=10, wall_s=2.0))
    assert HOST_FAMILIES == ["sim_events_per_sec", "sim_wall_seconds"]
    assert registry.value("sim_wall_seconds", subsystem="sim") == 2.0
    assert registry.value("sim_events_per_sec", subsystem="sim") == 5.0


@pytest.mark.parametrize("cell", ["obs_hybrid_nmap",
                                  "fleet_round_robin_health"])
def test_result_telemetry_carries_no_host_number(cell):
    text = prometheus_text(goldens.run(cell).telemetry)
    assert "sim_events_fired" in text
    assert [family for family in HOST_FAMILIES if family in text] == []
