"""Default-datapath parity: the RxBackend refactor is invisible.

The ``repro.datapath`` extraction moved NAPI construction, trace-probe
wiring, telemetry registration, and result accounting behind a backend
interface. The contract is bit-identity: a ``datapath="napi"`` run (the
default) reproduces the pre-refactor RunResult exactly — integer
counters, the full latency array, exact float energy, and event counts.

The constants below were captured on the pre-refactor tree (the parent
of the datapath commit). A mismatch here means the refactor changed
simulation *behaviour*, not just structure — which voids every cached
result and figure in one stroke, so these tests are intentionally
brittle.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import parallel, runner
from repro.system import ServerConfig, ServerSystem
from repro.units import MS

#: Captured pre-refactor (see module docstring). Floats are stored as
#: ``float.hex()`` strings: parity means the same bits, not "close".
GOLDENS = {
    "fig9_quick_memcached": {
        "sent": 56531, "completed": 56531, "dropped": 0,
        "pkts_interrupt_mode": 25233, "pkts_polling_mode": 31298,
        "ksoftirqd_wakeups": 0,
        "package_j_hex": "0x1.1191eb7a24055p+2",
        "cores_j_hex": "0x1.8c67d6a8dafaap+1",
        "p99_ns": 165351.09999999986,
        "latencies_sha256": "78faa8fc4a7b5ecd9bf07878c3b9a6"
                            "495ba151e212356e4fbb8b290e44a09ee9",
        "events_fired": 204202,
    },
    "nginx_medium_ondemand": {
        "sent": 3679, "completed": 3679, "dropped": 0,
        "pkts_interrupt_mode": 46533, "pkts_polling_mode": 34626,
        "ksoftirqd_wakeups": 0,
        "package_j_hex": "0x1.d94955314784cp+1",
        "cores_j_hex": "0x1.53258d108109cp+1",
        "p99_ns": 8811813.7,
        "latencies_sha256": "967b743d9cb807c73db591b39fa793"
                            "b81944f371956265337cc9fe385ed8f129",
        "events_fired": 180538,
    },
}

CELLS = {
    "fig9_quick_memcached": (
        ServerConfig(app="memcached", load_level="high",
                     freq_governor="nmap", n_cores=2, seed=1, trace=True),
        300 * MS),
    "nginx_medium_ondemand": (
        ServerConfig(app="nginx", load_level="medium",
                     freq_governor="ondemand", n_cores=2, seed=1),
        300 * MS),
}


def _capture(result) -> dict:
    return {
        "sent": result.sent, "completed": result.completed,
        "dropped": result.dropped,
        "pkts_interrupt_mode": result.datapath_pkts["interrupt"],
        "pkts_polling_mode": result.datapath_pkts["polling"],
        "ksoftirqd_wakeups": result.telemetry.sum_of(
            "ksoftirqd_wakeups_total"),
        "package_j_hex": result.energy.package_j.hex(),
        "cores_j_hex": result.energy.cores_j.hex(),
        "p99_ns": result.p99_ns,
        "latencies_sha256": hashlib.sha256(
            result.latencies_ns.tobytes()).hexdigest(),
        "events_fired": result.perf.events_fired,
    }


@pytest.mark.slow
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_default_datapath_matches_prerefactor_golden(cell):
    config, duration_ns = CELLS[cell]
    result = ServerSystem(config).run(duration_ns)
    assert _capture(result) == GOLDENS[cell]
    # The refactor's new generic accounting agrees with the legacy view.
    assert result.datapath_pkts == {
        "interrupt": GOLDENS[cell]["pkts_interrupt_mode"],
        "polling": GOLDENS[cell]["pkts_polling_mode"]}
    assert result.sleep_wakes == 0  # napi has no timer wakes


@pytest.mark.slow
def test_sanitized_run_matches_golden(monkeypatch):
    """The sanitizer's method shadows coexist with the backend layer."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config, duration_ns = CELLS["fig9_quick_memcached"]
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    result = system.run(duration_ns)
    assert _capture(result) == GOLDENS["fig9_quick_memcached"]


@pytest.mark.slow
def test_worker_processes_match_golden(tmp_path, monkeypatch):
    """Fan-out parity: pickled configs rebuild the same backend."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = [CELLS[c] for c in sorted(CELLS)]
    runner.clear_cache()
    results = parallel.run_many(jobs, workers=2)
    runner.clear_cache()
    for cell, result in zip(sorted(CELLS), results):
        assert _capture(result) == GOLDENS[cell]
