"""The `python -m repro` and `python -m repro.experiments` CLIs."""

import re

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
    text = prom.read_text()
    assert "# TYPE requests_completed_total counter" in text
    # The host block follows the model telemetry.
    assert "# TYPE sim_wall_seconds gauge" in text


def test_list_subcommand_names_every_experiment(capsys):
    from repro.experiments.registry import EXPERIMENTS
    assert experiments_main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in EXPERIMENTS:
        assert experiment_id in out
    assert "fleet_tail" in out
    assert "fleet_energy" in out


def test_markdown_report_carries_no_host_timing(capsys, tmp_path):
    # tab1 runs no simulation, so this stays fast.
    report = tmp_path / "report.md"
    assert experiments_main(["tab1", "--markdown", str(report)]) == 0
    printed = capsys.readouterr().out
    assert "cache:" in printed  # stdout keeps the wall-time/cache line
    text = report.read_text(encoding="utf-8")
    assert text.startswith("# NMAP reproduction")
    assert "## tab1:" in text
    assert "cache:" not in text
    assert not re.search(r"\(\d+\.\d+s", text)


def test_markdown_rewrites_only_after_the_report_marker(capsys, tmp_path):
    from repro.experiments.__main__ import REPORT_MARKER
    head = (f"# Hand-kept head\n\nprose citing the `{REPORT_MARKER}` "
            "line, kept byte for byte µs\n\n")
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(head + REPORT_MARKER + "\nstale report\n",
                   encoding="utf-8")
    assert experiments_main(["tab1", "--markdown", str(doc)]) == 0
    first = doc.read_bytes()
    assert first.startswith((head + REPORT_MARKER).encode("utf-8"))
    assert b"stale report" not in first
    assert b"## tab1:" in first
    assert b"# NMAP reproduction" not in first  # no second title
    assert experiments_main(["tab1", "--markdown", str(doc)]) == 0
    assert doc.read_bytes() == first


def test_ablations_are_registry_experiments():
    from repro.experiments.registry import describe_experiments
    described = describe_experiments()
    for experiment_id in ("ablation_retransition", "ablation_ni_th",
                          "ablation_itr", "ablation_dvfs"):
        assert described[experiment_id].startswith("Ablation:")
