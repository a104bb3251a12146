"""The `python -m repro` and `python -m repro.experiments` CLIs."""

import pytest

from repro.__main__ import build_parser, main as repro_main
from repro.experiments.__main__ import main as experiments_main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.app == "memcached"
    assert args.governor == "nmap"
    assert args.cores == 2


def test_run_cli_exits_zero_on_slo_ok(capsys):
    code = repro_main(["--level", "low", "--governor", "performance",
                       "--cores", "1", "--duration-ms", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SLO" in out and "OK" in out


def test_run_cli_exits_nonzero_on_violation(capsys):
    code = repro_main(["--level", "high", "--governor", "powersave",
                       "--cores", "1", "--duration-ms", "120"])
    assert code == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_rejects_unknown_governor():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--governor", "quantum"])


def test_experiments_cli_rejects_unknown_id():
    with pytest.raises(SystemExit):
        experiments_main(["fig99"])


@pytest.mark.slow
def test_experiments_cli_runs_one_artifact(capsys, tmp_path):
    report = tmp_path / "report.md"
    code = experiments_main(["tab2", "--markdown", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "tab2" in out
    assert report.exists()
    assert "tab2" in report.read_text()


def test_trace_subcommand_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        experiments_main(["trace", "fig99"])


def test_trace_subcommand_writes_perfetto_json(capsys, tmp_path,
                                               monkeypatch):
    import json
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "t.json"
    code = experiments_main(["trace", "tab2", "--governor", "performance",
                             "--load", "low", "--out", str(out),
                             "--sample-rate", "0.5"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "max span-tiling error 0 ns" in printed
    doc = json.loads(out.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])
    assert doc["otherData"]["freq_governor"] == "performance"


def test_trace_subcommand_telemetry_and_prometheus(capsys, tmp_path):
    prom = tmp_path / "metrics.txt"
    out = tmp_path / "t.json"
    code = experiments_main(["trace", "tab2", "--governor", "performance",
                             "--load", "low", "--telemetry",
                             "--prometheus", str(prom), "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "requests_completed_total" in printed
    assert "# TYPE requests_completed_total counter" in prom.read_text()


def test_list_subcommand_names_every_experiment(capsys):
    from repro.experiments.registry import EXPERIMENTS
    assert experiments_main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in EXPERIMENTS:
        assert experiment_id in out
    assert "fleet_tail" in out
    assert "fleet_energy" in out
