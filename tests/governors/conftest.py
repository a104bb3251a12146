"""Shared fixtures for the governor tests."""

import pytest

from repro.units import MS


@pytest.fixture
def settle(sim):
    """Bring every core of a processor to a P-state through its DVFS
    controllers; 1 ms covers the transition latency."""

    def _settle(proc, index):
        for cid in range(proc.n_cores):
            proc.request_pstate(cid, index)
        sim.run_until(sim.now + 1 * MS)

    return _settle
