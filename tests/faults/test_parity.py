"""Empty/absent fault plans and retry=None are bit-identical to baseline.

The fault subsystem's zero-cost-when-off guarantee: a config with
``fault_plan=FaultPlan()`` (or None) and ``retry=None`` must produce a
RunResult bit-identical — every field of the golden capture: latency
arrays, exact float energy, packet mode counters, event counts, every
trace channel and the telemetry — to a config that never mentions
faults at all. This is the acceptance gate that lets the
fault machinery ride in the hot path's modules without perturbing every
cached/golden result in the repo.
"""

from repro.faults.plan import FaultPlan
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same


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
    assert_same(base, checked)


def test_none_plan_explicitly_set_is_bit_identical():
    base = _run()
    checked = _run(fault_plan=None, retry=None)
    assert_same(base, checked)
