"""Per-request DVFS baseline (the Sec. 5.1 executable argument)."""

import pytest

from repro.baselines.per_request import (PerRequestDvfsManager,
                                         ideal_latency_model)
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def run(governor, seed=4):
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor=governor, n_cores=1, seed=seed)
    system = ServerSystem(config)
    return system, system.run(200 * MS)


def test_ideal_latency_model_is_flat():
    model = ideal_latency_model(16)
    assert model.mean_latency_ns(0, 15, retransition=True) == 50.0
    assert model.mean_latency_ns(15, 0, retransition=False) == 50.0


def test_ideal_transitions_meet_slo():
    system, result = run("per-request-dvfs-ideal")
    assert result.slo_result().satisfied
    assert system.manager.decisions > 0


def test_real_retransition_latency_breaks_the_scheme():
    _, real = run("per-request-dvfs")
    _, ideal = run("per-request-dvfs-ideal")
    assert real.p99_ns > ideal.p99_ns


def test_many_decisions_cause_retransitions_on_real_hardware():
    system, _ = run("per-request-dvfs")
    retransitions = sum(d.retransitions for d in system.processor.dvfs)
    assert retransitions > 100


def test_stop_restores_models_and_consumers():
    system, _ = run("per-request-dvfs-ideal")
    # run() already called stop(); consumers must be the app workers again.
    from repro.apps.base import AppWorkerThread
    assert all(isinstance(s.consumer, AppWorkerThread)
               for s in system.stack.sockets)


def test_validation(sim):
    with pytest.raises(ValueError):
        PerRequestDvfsManager(None, None, None, slo_ns=0)
    with pytest.raises(ValueError):
        PerRequestDvfsManager(None, None, None, slo_ns=1, headroom=0.5)
