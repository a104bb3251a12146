"""Sanitized runs are bit-identical to unsanitized runs.

The sanitizer's whole design (instance-dict method shadows, read-only
checks, production-matching refcount constants) exists so that
``REPRO_SANITIZE=1`` changes *nothing* about the simulation — only
whether invariant violations raise. These tests enforce that at the
RunResult level: latency arrays, float energy, packet-mode counters,
and trace contents, for a short run and for every fig9-quick cell.
"""

import numpy as np
import pytest

from repro.experiments.base import QUICK
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def _run(config, duration_ns, monkeypatch, sanitize):
    if sanitize:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    else:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    system = ServerSystem(config)
    assert (system.sim.sanitizer is not None) == sanitize
    return system.run(duration_ns)


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
    for channel in base.trace.channels():
        times, values = base.trace.to_arrays(channel)
        checked_times, checked_values = checked.trace.to_arrays(channel)
        assert np.array_equal(times, checked_times), channel
        assert np.array_equal(values, checked_values), channel


def test_short_run_bit_parity(monkeypatch):
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", n_cores=2, seed=42)
    base = _run(config, 100 * MS, monkeypatch, sanitize=False)
    checked = _run(config, 100 * MS, monkeypatch, sanitize=True)
    _assert_bit_identical(base, checked)


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
    _assert_bit_identical(base, checked)
