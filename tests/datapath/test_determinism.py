"""Bypass backends obey the repo's determinism discipline.

Same config, same seed → bit-identical results (every field of the
golden capture); different seeds → different runs; a sanitized run
changes nothing. Each backend's 60 ms cell is also pinned in the golden
table. The Metronome backends draw timer jitter from derived RNG
streams, so their determinism is worth proving, not assuming.
"""

import numpy as np
import pytest

from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same

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


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_same_seed_is_bit_identical(datapath, governor):
    config = _config(datapath, governor)
    first = ServerSystem(config).run(DURATION)
    second = ServerSystem(config).run(DURATION)
    assert_same(first, second)


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_different_seeds_differ(datapath, governor):
    a = ServerSystem(_config(datapath, governor, seed=7)).run(DURATION)
    b = ServerSystem(_config(datapath, governor, seed=8)).run(DURATION)
    assert not np.array_equal(a.latencies_ns, b.latencies_ns)


@pytest.mark.parametrize("datapath,governor", BACKENDS)
def test_sanitized_bypass_run_bit_identical(monkeypatch, datapath, governor):
    config = _config(datapath, governor)
    base = ServerSystem(config).run(DURATION)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    checked = system.run(DURATION)
    assert_same(base, checked)
