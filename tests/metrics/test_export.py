"""CSV export helpers."""

import csv

import pytest

from repro.metrics.export import (export_latencies_csv,
                                  export_mode_series_csv, export_table_csv)
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


@pytest.fixture(scope="module")
def traced_run():
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="performance", n_cores=1, seed=14,
                          trace=True)
    return ServerSystem(config).run(50 * MS)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_export_latencies(traced_run, tmp_path):
    path = tmp_path / "lat.csv"
    n = export_latencies_csv(traced_run, str(path))
    rows = read_csv(path)
    assert rows[0] == ["completion_time_ns", "latency_ns"]
    assert len(rows) == n + 1
    assert n == traced_run.completed


def test_export_mode_series(traced_run, tmp_path):
    path = tmp_path / "modes.csv"
    n_bins = export_mode_series_csv(traced_run, 0, str(path))
    rows = read_csv(path)
    assert rows[0] == ["bin_start_ns", "interrupt_pkts", "polling_pkts"]
    assert len(rows) == n_bins + 1
    total = sum(float(r[1]) + float(r[2]) for r in rows[1:])
    assert total == sum(traced_run.datapath_pkts.values())


def test_export_table(tmp_path):
    path = tmp_path / "sub" / "table.csv"
    n = export_table_csv(["a", "b"], [[1, 2], [3, 4]], str(path))
    assert n == 2
    assert read_csv(path) == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_export_table_validation(tmp_path):
    with pytest.raises(ValueError):
        export_table_csv([], [], str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        export_table_csv(["a"], [[1, 2]], str(tmp_path / "y.csv"))
