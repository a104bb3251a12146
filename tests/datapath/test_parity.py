"""Default-datapath parity under the sanitizer and across worker processes.

The five NAPI cells of the golden table (``tests/goldens.json``) pin the
kernel path's results bit for bit. These contracts hold the same rows
when the run is sanitized, and when pickled configs rebuild the backend
in worker processes.
"""

import pytest

from repro.experiments import parallel, runner
from repro.system import ServerSystem
from tests import goldens

NAPI_CELLS = ["fig9_quick_memcached", "nginx_medium_ondemand",
              "memcached_changing_nmap", "memcached_low_menu",
              "memcached_loss_retry"]


@pytest.mark.slow
def test_sanitized_run_matches_golden(monkeypatch):
    """The sanitizer's method shadows coexist with the backend layer."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config, duration_ns = goldens.CELLS["fig9_quick_memcached"]
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    goldens.check("fig9_quick_memcached", system.run(duration_ns))


@pytest.mark.slow
def test_worker_processes_match_golden(tmp_path, monkeypatch):
    """Fan-out parity: pickled configs rebuild the same backend."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_cache()
    results = parallel.run_many([goldens.CELLS[c] for c in NAPI_CELLS],
                                workers=2)
    runner.clear_cache()
    for cell, result in zip(NAPI_CELLS, results):
        goldens.check(cell, result)
