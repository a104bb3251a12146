"""Byte pins of the telemetry export and the timeline of four cells.

Every counter a run reports reaches the user through two renderings:
the Prometheus text of ``RunResult.telemetry`` and the CSV of
``RunResult.timeline``. Four short observability cells of the golden
table (``tests/goldens.py``, rows ``obs_*``) cover the datapath
backends, the P4 pipeline, span tracing, faults and client retries;
the table pins the sha256 of both renderings, which the two pin tests
here check on their own so a miss names the rendering that moved.

The column guard at the end checks that every registry series the
timeline reads is registered by at least one of these cells, so a
misspelt name in the column table cannot hide as an all-zero column.
"""

import pytest

from repro.obs.timeline import REGISTRY_COLUMNS
from tests import goldens

#: Pin id -> the golden-table row of the cell.
OBS_CELLS = {
    "napi-nginx-traced": "obs_napi_nginx_traced",
    "poll-p4-steered": "obs_poll_p4_steered",
    "hybrid-nmap": "obs_hybrid_nmap",
    "memcached-loss-retry": "obs_memcached_loss_retry",
}


@pytest.fixture(scope="module")
def results():
    return {cell: goldens.run(row) for cell, row in OBS_CELLS.items()}


@pytest.fixture(scope="module")
def captures(results):
    return {cell: goldens.capture(result)
            for cell, result in results.items()}


def test_every_obs_row_is_pinned_here():
    assert sorted(OBS_CELLS.values()) == sorted(
        name for name in goldens.CELLS if name.startswith("obs_"))


@pytest.mark.parametrize("cell", sorted(OBS_CELLS))
def test_telemetry_text_is_pinned(captures, cell):
    assert captures[cell]["telemetry_sha256"] == \
        goldens.ROWS[OBS_CELLS[cell]]["telemetry_sha256"]


@pytest.mark.parametrize("cell", sorted(OBS_CELLS))
def test_timeline_csv_is_pinned(captures, cell):
    assert captures[cell]["timeline_sha256"] == \
        goldens.ROWS[OBS_CELLS[cell]]["timeline_sha256"]


@pytest.mark.parametrize("column", sorted(REGISTRY_COLUMNS))
def test_every_timeline_column_reads_a_registered_series(results, column):
    """Each (name, label filter) the sampler sums matches at least one
    instrument of some pinned cell: a typo would read as all zeros."""
    for name, labels in REGISTRY_COLUMNS[column]:
        assert any(
            inst_name == name and labels.items() <= inst_labels.items()
            for result in results.values()
            for inst_name, inst_labels, _, _ in result.telemetry.items()
        ), (column, name, labels)
