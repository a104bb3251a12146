"""The zero-cost contract: identity programs are bit-invisible.

Installing the pipeline hook put a branch on the hottest path in the
model (``MultiQueueNic.receive``), so this file pins three things:

* no program (``pipeline=None``) still reproduces the pre-pipeline
  golden exactly (same constants ``tests/datapath/test_parity.py``
  pins; duplicated here so this suite stands alone);
* an *empty* program builds no engine at all;
* a truthy *identity* program — which builds the engine, parses every
  packet, and runs a real (empty) table — is still bit-identical on
  every RX backend, because it matches nothing, costs zero cycles, and
  falls back to the same hash RSS the backends use.
"""

import hashlib

import pytest

from repro.p4 import PipelineProgram, identity_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS

#: The pre-pipeline NAPI golden (captured on the pre-datapath-seam tree;
#: same values as tests/datapath/test_parity.py, duplicated so this
#: suite is self-contained).
FIG9_GOLDEN = {
    "sent": 56531, "completed": 56531, "dropped": 0,
    "package_j_hex": "0x1.1191eb7a24055p+2",
    "latencies_sha256": "78faa8fc4a7b5ecd9bf07878c3b9a6"
                        "495ba151e212356e4fbb8b290e44a09ee9",
    "events_fired": 204202,
}

FIG9_CONFIG = ServerConfig(app="memcached", load_level="high",
                           freq_governor="nmap", n_cores=2, seed=1,
                           trace=True)

BACKENDS = [("napi", "nmap"), ("poll", "performance"),
            ("metronome", "ondemand"), ("nmap-hybrid", "nmap")]

DURATION = 60 * MS


def _fingerprint(result):
    return (result.sent, result.completed, result.dropped,
            result.latencies_ns.tobytes(),
            result.energy.package_j.hex(),
            result.energy.cores_j.hex(),
            tuple(sorted(result.datapath_pkts.items())),
            result.poll_loops, result.sleep_wakes,
            result.perf.events_fired)


def _golden_capture(result):
    return {
        "sent": result.sent, "completed": result.completed,
        "dropped": result.dropped,
        "package_j_hex": result.energy.package_j.hex(),
        "latencies_sha256": hashlib.sha256(
            result.latencies_ns.tobytes()).hexdigest(),
        "events_fired": result.perf.events_fired,
    }


def test_empty_program_builds_no_engine():
    system = ServerSystem(ServerConfig(pipeline=PipelineProgram()))
    assert system.pipeline is None
    assert system.nic.pipeline is None


def test_identity_program_builds_an_engine():
    system = ServerSystem(ServerConfig(pipeline=identity_program()))
    assert system.pipeline is not None
    assert system.nic.pipeline is system.pipeline


@pytest.mark.slow
@pytest.mark.parametrize("program", [None, PipelineProgram(),
                                     identity_program()],
                         ids=["none", "empty", "identity"])
def test_fig9_golden_with_and_without_program(program):
    config = FIG9_CONFIG.with_overrides(pipeline=program)
    result = ServerSystem(config).run(300 * MS)
    assert _golden_capture(result) == FIG9_GOLDEN


@pytest.mark.slow
@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_identity_program_is_bit_identical_on_every_backend(
        datapath, governor):
    base = ServerConfig(app="memcached", load_level="medium", n_cores=2,
                        freq_governor=governor, seed=7, datapath=datapath)
    bare = ServerSystem(base).run(DURATION)
    programmed = ServerSystem(
        base.with_overrides(pipeline=identity_program())).run(DURATION)
    assert _fingerprint(programmed) == _fingerprint(bare)


@pytest.mark.slow
def test_identity_parity_holds_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config = FIG9_CONFIG.with_overrides(pipeline=identity_program())
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    result = system.run(300 * MS)
    assert _golden_capture(result) == FIG9_GOLDEN


@pytest.mark.slow
def test_identity_engine_counts_without_perturbing():
    """The identity engine observes every packet it didn't touch."""
    config = ServerConfig(app="memcached", load_level="medium", n_cores=2,
                          seed=7, pipeline=identity_program())
    system = ServerSystem(config)
    result = system.run(DURATION)
    engine = system.pipeline
    assert engine.parsed == engine.forwarded > 0
    assert engine.dropped == engine.steered == 0
    assert engine.cycles_total == 0.0
    reg = result.telemetry
    assert reg.total("p4_table_hits_total") == 0
    assert reg.value("p4_packets_total", subsystem="p4",
                     verdict="dropped") == 0
    assert reg.value("p4_table_misses_total", subsystem="p4",
                     table="identity") == engine.parsed
