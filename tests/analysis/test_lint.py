"""The determinism gate: one corpus table, one golden report, the CLI.

Each ``bad_*.py`` corpus file must be flagged by *exactly* its intended
rule (no cross-talk between rules), and every ``clean_<rule>.py``
counterpart must come back with no active finding. The ``*_flow_*``
pairs need dataflow across functions (a set laundered through a
helper, a seed routed through parameters); their clean counterparts,
source-tree gate and CLI checks live in ``test_flow.py``. Every file
goes through the one entry point,
:func:`repro.analysis.flow.analyze_paths`. The golden JSON test pins
the machine-readable report format so CI consumers can rely on it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import PERF_COUNTER_ALLOWLIST, RULES

CORPUS = Path(__file__).parent / "corpus"
SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: bad corpus file -> the one rule its active findings must carry; the
#: clean counterpart swaps the ``bad_`` prefix for ``clean_``.
BAD_CASES = {
    "bad_d001.py": "D001",
    "bad_d002.py": "D002",
    "bad_d003.py": "D003",
    "bad_d004.py": "D004",
    "bad_d005.py": "D005",
    "bad_u001.py": "U001",
    "bad_s001.py": "S001",
    "bad_flow_d002.py": "D002",
    "bad_flow_d003.py": "D003",
    "bad_flow_d004.py": "D004",
}


def _findings(path: Path):
    return analyze_paths([path]).findings


def _active(path: Path):
    return [f for f in _findings(path) if not f.suppressed]


@pytest.mark.parametrize("filename,rule", sorted(BAD_CASES.items()))
def test_bad_corpus_flagged_by_exactly_its_rule(filename, rule):
    active = _active(CORPUS / filename)
    assert active and {f.rule for f in active} == {rule}, (
        f"{filename}: expected only {rule}, got "
        f"{[(f.rule, f.line) for f in active]}")


@pytest.mark.parametrize("rule", sorted(set(BAD_CASES.values())))
def test_clean_counterpart_has_no_active_finding(rule):
    path = CORPUS / f"clean_{rule.lower()}.py"
    assert _active(path) == [], f"{path.name} should be clean"


def test_justified_suppression_records_why():
    findings = _findings(CORPUS / "clean_s001.py")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "D001" and finding.suppressed
    assert finding.justification == "operator-facing log stamp"


def test_bare_suppression_still_suppresses_but_raises_s001():
    findings = _findings(CORPUS / "bad_s001.py")
    by_rule = {f.rule: f for f in findings}
    assert by_rule["D001"].suppressed
    assert by_rule["D001"].justification is None
    assert not by_rule["S001"].suppressed


def test_perf_counter_allowlist(tmp_path):
    source = ("import time\n"
              "def wall():\n"
              "    return time.perf_counter()\n")
    outside = tmp_path / "model.py"
    outside.write_text(source)
    assert [f.rule for f in _findings(outside)] == ["D001"]

    allowed = tmp_path / "repro" / "system.py"
    assert "repro/system.py" in PERF_COUNTER_ALLOWLIST
    allowed.parent.mkdir()
    allowed.write_text(source)
    assert _findings(allowed) == []


def test_import_aliases_resolved(tmp_path):
    path = tmp_path / "aliased.py"
    path.write_text("import time as t\n"
                    "import numpy as np\n"
                    "from random import randint as ri\n"
                    "x = t.time()\n"
                    "y = ri(0, 3)\n"
                    "np.random.seed(0)\n")
    assert [(f.rule, f.line) for f in _findings(path)] == [
        ("D001", 4), ("D002", 5), ("D002", 6)]


def test_sum_over_set_expression(tmp_path):
    path = tmp_path / "sums.py"
    path.write_text("def f(xs):\n"
                    "    a = sum(set(xs))\n"
                    "    b = sum(x * 2 for x in set(xs))\n"
                    "    c = sum(sorted(set(xs)))\n"
                    "    return a + b + c\n")
    findings = _findings(path)
    assert [f.rule for f in findings] == ["D004", "D004"]
    assert [f.line for f in findings] == [2, 3]


def test_same_module_name_under_two_roots_is_analyzed_twice(tmp_path):
    for root in ("a", "b"):
        (tmp_path / root).mkdir()
        (tmp_path / root / "model.py").write_text(
            "import time\nx = time.time()\n")
    report = analyze_paths([tmp_path / "a", tmp_path / "b"],
                           rel_to=tmp_path)
    assert report.files_scanned == 2
    assert [(f.rule, f.path) for f in report.findings] == [
        ("D001", "a/model.py"), ("D001", "b/model.py")]


def test_syntax_error_reports_p000(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    assert [f.rule for f in _findings(path)] == ["P000"]


def test_select_restricts_rules():
    report = analyze_paths([CORPUS], rel_to=CORPUS, select={"D001"})
    assert {f.rule for f in report.findings} == {"D001"}


def test_golden_json_report():
    report = analyze_paths([CORPUS], rel_to=CORPUS)
    golden = json.loads((CORPUS / "golden_report.json").read_text())
    assert json.loads(report.to_json()) == golden
    assert golden["version"] == 1
    assert golden["rules"] == {**RULES, **FLOW_RULES}
    assert golden["summary"]["active"] == len(report.active())


def test_source_tree_is_lint_clean():
    """The CI gate, as a unit test: src/repro has no active finding of
    the syntactic rules (``test_flow.py`` checks the flow rules)."""
    src = SRC_ROOT / "repro"
    report = analyze_paths([src], rel_to=src.parent, select=RULES)
    assert report.active() == [], report.render_text()


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"})


def test_cli_strict_gate(tmp_path):
    """--strict exits 1 on findings, 0 on clean; --json writes report."""
    out = tmp_path / "report.json"
    proc = _run_cli("lint", "--strict", "--json", str(out),
                    str(CORPUS / "bad_d001.py"))
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["summary"]["by_rule"] == {"D001": 1}
    assert payload["summary"]["active"] == 1

    # Without --strict the same finding is informational.
    proc = _run_cli("lint", str(CORPUS / "bad_d001.py"))
    assert proc.returncode == 0, proc.stderr
    assert "D001" in proc.stdout

    proc = _run_cli("lint", "--strict", str(CORPUS / "clean_d001.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("rule", ["d002", "d003", "d004"])
def test_cli_strict_gate_passes_flow_clean_corpus(rule):
    """The strict gate passes the files only dataflow can judge clean."""
    proc = _run_cli("lint", "--strict",
                    str(CORPUS / f"clean_flow_{rule}.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_rejects_unknown_rule_and_missing_path():
    from repro.analysis.__main__ import main
    assert main(["lint", "--select", "D999", str(CORPUS)]) == 2
    assert main(["lint", str(CORPUS / "no_such_file.py")]) == 2
