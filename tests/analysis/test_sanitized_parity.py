"""Sanitized runs are bit-identical to unsanitized runs.

The sanitizer's whole design (instance-dict method shadows, read-only
checks, production-matching refcount constants) exists so that
``REPRO_SANITIZE=1`` changes *nothing* about the simulation — only
whether invariant violations raise. These tests enforce that at the
RunResult level, in every field of the golden capture (latency arrays,
float energy, packet-mode counters, trace channels, telemetry), for a
short run and for every fig9-quick cell.
"""

import pytest

from repro.experiments.base import QUICK
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same


def _run(config, duration_ns, monkeypatch, sanitize):
    if sanitize:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    else:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    system = ServerSystem(config)
    assert (system.sim.sanitizer is not None) == sanitize
    return system.run(duration_ns)


def test_short_run_bit_parity(monkeypatch):
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", n_cores=2, seed=42)
    base = _run(config, 100 * MS, monkeypatch, sanitize=False)
    checked = _run(config, 100 * MS, monkeypatch, sanitize=True)
    assert_same(base, checked)


@pytest.mark.parametrize("app,governor",
                         [("memcached", "nmap"), ("memcached", "ondemand"),
                          ("nginx", "nmap"), ("nginx", "ondemand")])
def test_fig9_quick_cell_bit_parity(monkeypatch, app, governor):
    """Every fig9 cell (quick scale, trace on) survives sanitizing."""
    config = ServerConfig(app=app, load_level="high",
                          freq_governor=governor, n_cores=QUICK.n_cores,
                          seed=QUICK.seed, trace=True)
    base = _run(config, QUICK.duration_ns, monkeypatch, sanitize=False)
    checked = _run(config, QUICK.duration_ns, monkeypatch, sanitize=True)
    assert_same(base, checked)
