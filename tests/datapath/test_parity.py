"""Default-datapath parity: the RxBackend refactor is invisible.

The ``repro.datapath`` extraction moved NAPI construction, trace-probe
wiring, telemetry registration, and result accounting behind a backend
interface. The contract is bit-identity: a ``datapath="napi"`` run (the
default) reproduces the pre-refactor RunResult exactly — integer
counters, the full latency array, exact float energy, and event counts.

The first two cells were captured on the pre-refactor tree (the parent
of the datapath commit); the three later memcached cells (changing
load, low load, wire loss with retries) were captured the same way on
the tree before the per-request hot path was flattened, and hold that
change to the same bits. A mismatch here means the refactor changed
simulation *behaviour*, not just structure — which voids every cached
result and figure in one stroke, so these tests are intentionally
brittle.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import parallel, runner
from repro.faults.scenarios import loss_burst_plan
from repro.sim.rng import RandomStreams
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.changing import make_changing_load
from repro.workload.profiles import levels_for
from repro.workload.retry import RetryPolicy

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
    "memcached_changing_nmap": {
        "sent": 27067, "completed": 27067, "dropped": 0,
        "pkts_interrupt_mode": 12705, "pkts_polling_mode": 14362,
        "ksoftirqd_wakeups": 0,
        "package_j_hex": "0x1.4929654ec2a93p+1",
        "cores_j_hex": "0x1.b3d669fc097f4p+0",
        "p99_ns": 199498.28,
        "latencies_sha256": "638b2d50beeb8da8ea3ba9ec0d69b870"
                            "3981e35e7146215b331937d8e81cde90",
        "events_fired": 104535,
    },
    "memcached_low_menu": {
        "sent": 2298, "completed": 2298, "dropped": 0,
        "pkts_interrupt_mode": 2060, "pkts_polling_mode": 238,
        "ksoftirqd_wakeups": 0,
        "package_j_hex": "0x1.1a06eaa25597ep+0",
        "cores_j_hex": "0x1.1660783c0dc2ap-1",
        "p99_ns": 64429.67000000006,
        "latencies_sha256": "867e168a33aa3cdd2087a58cc6b7cb9e"
                            "685a1b3aad2df3539b6718b8e5dd174e",
        "events_fired": 20260,
    },
    "memcached_loss_retry": {
        "sent": 21804, "completed": 21704, "dropped": 2710,
        "pkts_interrupt_mode": 11384, "pkts_polling_mode": 10320,
        "ksoftirqd_wakeups": 0,
        "package_j_hex": "0x1.18d148c600be6p+1",
        "cores_j_hex": "0x1.5ff4b711895e5p+0",
        "p99_ns": 4337842.04,
        "latencies_sha256": "bf5c0ebd011285bd65634c32546f2ab0"
                            "8bf77ad7d588cd02369ec49ba95dcd7a",
        "events_fired": 97278,
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
    # What simbench's memcached-changing runs, at a 100 ms switch period
    # so a 300 ms cell sees three levels.
    "memcached_changing_nmap": (
        ServerConfig(app="memcached",
                     load_shape=make_changing_load(
                         levels_for("memcached"), 300 * MS,
                         switch_period_ns=100 * MS,
                         rng=RandomStreams(1).numpy_stream("changing-load")),
                     freq_governor="nmap", idle_governor="menu", n_cores=2,
                     seed=1),
        300 * MS),
    # Low load: idle entry, deferred deep entry, re-selection, deep wakes.
    "memcached_low_menu": (
        ServerConfig(app="memcached", load_level="low", freq_governor="nmap",
                     idle_governor="menu", n_cores=2, seed=1),
        300 * MS),
    # Wire loss shadows nic.receive mid-run; the client times out and
    # retransmits.
    "memcached_loss_retry": (
        ServerConfig(app="memcached", load_level="medium",
                     freq_governor="nmap", n_cores=2, seed=1,
                     retry=RetryPolicy(),
                     fault_plan=loss_burst_plan(300 * MS)),
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
