"""Empty/absent fault plans and retry=None are bit-identical to baseline.

The fault subsystem's zero-cost-when-off guarantee: a config with
``fault_plan=FaultPlan()`` (or None) and ``retry=None`` must produce a
RunResult bit-identical — latency arrays, exact float energy, packet
mode counters, event counts, and every trace channel — to a config that
never mentions faults at all. This is the acceptance gate that lets the
fault machinery ride in the hot path's modules without perturbing every
cached/golden result in the repo.
"""

import numpy as np

from repro.faults.plan import FaultPlan
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def _assert_bit_identical(base, checked):
    assert base.sent == checked.sent
    assert base.completed == checked.completed
    assert base.dropped == checked.dropped
    assert np.array_equal(base.latencies_ns, checked.latencies_ns)
    assert np.array_equal(base.completion_times_ns,
                          checked.completion_times_ns)
    # Exact float equality: same accrual points, same order.
    assert base.energy.package_j == checked.energy.package_j
    assert base.energy.cores_j == checked.energy.cores_j
    assert base.datapath_pkts == checked.datapath_pkts
    assert base.telemetry.sum_of("ksoftirqd_wakeups_total") == \
        checked.telemetry.sum_of("ksoftirqd_wakeups_total")
    assert base.perf.events_fired == checked.perf.events_fired
    assert sorted(base.trace.channels()) == sorted(checked.trace.channels())
    for channel in base.trace.channels():
        times, values = base.trace.to_arrays(channel)
        checked_times, checked_values = checked.trace.to_arrays(channel)
        assert np.array_equal(times, checked_times), channel
        assert np.array_equal(values, checked_values), channel


def _run(**overrides):
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", n_cores=2, seed=42,
                          trace=True, **overrides)
    system = ServerSystem(config)
    assert (system.faults is not None) == bool(overrides.get("fault_plan"))
    return system.run(100 * MS)


def test_empty_plan_is_bit_identical_to_absent_plan():
    base = _run()
    checked = _run(fault_plan=FaultPlan(), retry=None)
    _assert_bit_identical(base, checked)


def test_none_plan_explicitly_set_is_bit_identical():
    base = _run()
    checked = _run(fault_plan=None, retry=None)
    _assert_bit_identical(base, checked)
