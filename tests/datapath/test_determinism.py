"""Bypass backends obey the repo's determinism discipline.

Same config, same seed → bit-identical results (latency bytes, exact
float energy, per-mode packet counts, event totals); different seeds →
different runs; and each backend's 60 ms cell reproduces its pinned
golden exactly. The Metronome backends draw timer jitter from derived
RNG streams, so their determinism is worth proving, not assuming.
"""

import hashlib

import numpy as np
import pytest

from repro.system import ServerConfig, ServerSystem
from repro.units import MS

#: Each bypass backend with its natural governor pairing.
BACKENDS = [("poll", "performance"),
            ("metronome", "ondemand"),
            ("nmap-hybrid", "nmap")]

DURATION = 60 * MS


def _config(datapath: str, governor: str, **overrides) -> ServerConfig:
    base = dict(app="memcached", load_level="medium", n_cores=2,
                freq_governor=governor, seed=7, datapath=datapath)
    base.update(overrides)
    return ServerConfig(**base)


def _fingerprint(result):
    return (result.sent, result.completed, result.dropped,
            result.latencies_ns.tobytes(),
            result.completion_times_ns.tobytes(),
            result.energy.package_j, result.energy.cores_j,
            tuple(sorted(result.datapath_pkts.items())),
            result.poll_loops, result.sleep_wakes,
            result.perf.events_fired)


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_same_seed_is_bit_identical(datapath, governor):
    config = _config(datapath, governor)
    first = ServerSystem(config).run(DURATION)
    second = ServerSystem(config).run(DURATION)
    assert _fingerprint(first) == _fingerprint(second)


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_different_seeds_differ(datapath, governor):
    a = ServerSystem(_config(datapath, governor, seed=7)).run(DURATION)
    b = ServerSystem(_config(datapath, governor, seed=8)).run(DURATION)
    assert not np.array_equal(a.latencies_ns, b.latencies_ns)


#: Pinned outputs of each backend's cell at DURATION. Floats are stored
#: as ``float.hex()`` strings: parity means the same bits, not "close".
GOLDENS = {
    "poll": {
        "latencies_sha256": "88084cf16359fce816cd4a6a0e1523dc"
                            "29411fd908bead0a51a5fa4d5cdb1aa2",
        "package_j_hex": "0x1.2c17eee3d4cf4p+0",
        "cores_j_hex": "0x1.af3a1b384d758p-1",
        "datapath_pkts": {"busy-poll": 7197},
        "poll_loops": 52452, "sleep_wakes": 0, "events_fired": 61387,
    },
    "metronome": {
        "latencies_sha256": "6335c62a13417aa872caaaa4b15d5a28"
                            "ea7e64350e9a4261742b6de25e426d82",
        "package_j_hex": "0x1.1c565eacdc4abp-1",
        "cores_j_hex": "0x1.8af1d31720056p-2",
        "datapath_pkts": {"intermittent": 4311, "polling": 2886},
        "poll_loops": 9694, "sleep_wakes": 2464, "events_fired": 31468,
    },
    "nmap-hybrid": {
        "latencies_sha256": "7f0332a179ddf784f699acb53bd2968b"
                            "242852e3378345c858cc4f067eebdae2",
        "package_j_hex": "0x1.4825f20259f8fp-1",
        "cores_j_hex": "0x1.b7cf164383d56p-2",
        "datapath_pkts": {"intermittent": 4502, "polling": 2695},
        "poll_loops": 11017, "sleep_wakes": 3758, "events_fired": 33577,
    },
}


def _capture(result) -> dict:
    return {
        "latencies_sha256": hashlib.sha256(
            result.latencies_ns.tobytes()).hexdigest(),
        "package_j_hex": result.energy.package_j.hex(),
        "cores_j_hex": result.energy.cores_j.hex(),
        "datapath_pkts": dict(result.datapath_pkts),
        "poll_loops": result.poll_loops,
        "sleep_wakes": result.sleep_wakes,
        "events_fired": result.perf.events_fired,
    }


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_backend_matches_golden(datapath, governor):
    result = ServerSystem(_config(datapath, governor)).run(DURATION)
    assert _capture(result) == GOLDENS[datapath]


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_sanitized_bypass_run_bit_identical(monkeypatch, datapath, governor):
    config = _config(datapath, governor)
    base = ServerSystem(config).run(DURATION)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    checked = system.run(DURATION)
    assert _fingerprint(base) == _fingerprint(checked)
