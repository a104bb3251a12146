"""The zero-cost contract: identity programs are bit-invisible.

Installing the pipeline hook put a branch on the hottest path in the
model (``MultiQueueNic.receive``), so this file pins three things:

* no program (``pipeline=None``) still reproduces the golden table's
  ``fig9_quick_memcached`` row;
* an *empty* program builds no engine at all;
* a truthy *identity* program — which builds the engine, parses every
  packet, and runs a real (empty) table — is still bit-identical on
  every RX backend, because it matches nothing, costs zero cycles, and
  falls back to the same hash RSS the backends use. Only the telemetry
  digest may differ: the engine registers its own ``p4_*`` counters.
"""

import pytest

from repro.p4 import PipelineProgram, identity_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests import goldens

FIG9_CONFIG, FIG9_DURATION = goldens.CELLS["fig9_quick_memcached"]

#: The identity engine registers its own counters.
ENGINE_COUNTERS = ("telemetry_sha256",)

BACKENDS = [("napi", "nmap"), ("poll", "performance"),
            ("metronome", "ondemand"), ("nmap-hybrid", "nmap")]

DURATION = 60 * MS


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
    result = ServerSystem(config).run(FIG9_DURATION)
    goldens.assert_same(result, goldens.ROWS["fig9_quick_memcached"],
                        drop=ENGINE_COUNTERS if program else ())


@pytest.mark.slow
@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_identity_program_is_bit_identical_on_every_backend(
        datapath, governor):
    base = ServerConfig(app="memcached", load_level="medium", n_cores=2,
                        freq_governor=governor, seed=7, datapath=datapath)
    bare = ServerSystem(base).run(DURATION)
    programmed = ServerSystem(
        base.with_overrides(pipeline=identity_program())).run(DURATION)
    goldens.assert_same(programmed, bare, drop=ENGINE_COUNTERS)


@pytest.mark.slow
def test_identity_parity_holds_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config = FIG9_CONFIG.with_overrides(pipeline=identity_program())
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    goldens.assert_same(system.run(FIG9_DURATION),
                        goldens.ROWS["fig9_quick_memcached"],
                        drop=ENGINE_COUNTERS)


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
