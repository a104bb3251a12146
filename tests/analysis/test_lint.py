"""Determinism linter: rule-by-rule corpus tests + golden report.

Each ``bad_<rule>.py`` corpus file must be flagged by *exactly* its
intended rule (no cross-talk between rules), and every
``clean_<rule>.py`` counterpart must come back with no active finding.
The dataflow rules' files (D002-D004) are checked through the flow
engine, which owns those rules. The golden JSON test pins the
machine-readable report format so CI consumers can rely on it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import (PERF_COUNTER_ALLOWLIST, RULES, lint_file,
                                 lint_paths)

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FLOW = Path(__file__).parent / "corpus_flow"
SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: bad corpus file -> the one rule its active finding must carry.
BAD_CASES = {
    "bad_d001.py": "D001",
    "bad_d002.py": "D002",
    "bad_d003.py": "D003",
    "bad_d004.py": "D004",
    "bad_d005.py": "D005",
    "bad_u001.py": "U001",
    "bad_s001.py": "S001",
}


def _findings(path: Path, rule: str):
    """The findings of the engine that owns ``rule`` for one file."""
    if rule in RULES:
        return lint_file(path)
    return analyze_paths([path]).findings


@pytest.mark.parametrize("filename,rule", sorted(BAD_CASES.items()))
def test_bad_corpus_flagged_by_exactly_its_rule(filename, rule):
    findings = _findings(CORPUS / filename, rule)
    active = [f for f in findings if not f.suppressed]
    assert [f.rule for f in active] == [rule], (
        f"{filename}: expected exactly one active {rule}, got "
        f"{[(f.rule, f.line) for f in active]}")


@pytest.mark.parametrize("rule", sorted(BAD_CASES.values()))
def test_clean_counterpart_has_no_active_finding(rule):
    path = CORPUS / f"clean_{rule.lower()}.py"
    findings = _findings(path, rule)
    assert [f for f in findings if not f.suppressed] == [], (
        f"{path.name} should be clean")


def test_lint_and_flow_rule_sets_are_disjoint():
    assert set(RULES) & set(FLOW_RULES) == {"P000"}
    for rule in BAD_CASES.values():
        assert (rule in RULES) != (rule in FLOW_RULES), rule


def test_justified_suppression_records_why():
    findings = lint_file(CORPUS / "clean_s001.py")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "D001" and finding.suppressed
    assert finding.justification == "operator-facing log stamp"


def test_bare_suppression_still_suppresses_but_raises_s001():
    findings = lint_file(CORPUS / "bad_s001.py")
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
    assert [f.rule for f in lint_file(outside)] == ["D001"]

    allowed = tmp_path / "repro" / "system.py"
    assert "repro/system.py" in PERF_COUNTER_ALLOWLIST
    allowed.parent.mkdir()
    allowed.write_text(source)
    assert lint_file(allowed) == []


def test_import_aliases_resolved(tmp_path):
    path = tmp_path / "aliased.py"
    path.write_text("import time as t\n"
                    "import numpy as np\n"
                    "from random import randint as ri\n"
                    "x = t.time()\n"
                    "y = ri(0, 3)\n"
                    "np.random.seed(0)\n")
    assert [f.rule for f in lint_file(path)] == ["D001"]
    flow = analyze_paths([path]).findings
    assert [(f.rule, f.line) for f in flow] == [("D002", 5), ("D002", 6)]


def test_sum_over_set_expression(tmp_path):
    path = tmp_path / "sums.py"
    path.write_text("def f(xs):\n"
                    "    a = sum(set(xs))\n"
                    "    b = sum(x * 2 for x in set(xs))\n"
                    "    c = sum(sorted(set(xs)))\n"
                    "    return a + b + c\n")
    findings = analyze_paths([path]).findings
    assert [f.rule for f in findings] == ["D004", "D004"]
    assert [f.line for f in findings] == [2, 3]


def test_syntax_error_reports_p000(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    assert [f.rule for f in lint_file(path)] == ["P000"]


def test_select_restricts_rules():
    report = lint_paths([CORPUS], rel_to=CORPUS, select={"D001"})
    assert {f.rule for f in report.findings} == {"D001"}


def test_golden_json_report():
    report = lint_paths([CORPUS], rel_to=CORPUS)
    golden = json.loads((CORPUS / "golden_report.json").read_text())
    assert json.loads(report.to_json()) == golden
    assert golden["version"] == 1
    assert golden["rules"] == RULES
    assert golden["summary"]["active"] == len(report.active())


def test_source_tree_is_lint_clean():
    """The CI gate, as a unit test: src/repro has no active findings."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    report = lint_paths([src], rel_to=src.parent)
    assert report.active() == [], report.render_text()


def test_cli_strict_gate(tmp_path):
    """--strict exits 1 on findings, 0 on clean; --json writes report."""
    src_root = Path(__file__).resolve().parents[2] / "src"
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--strict",
         "--json", str(out), str(CORPUS / "bad_d001.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src_root), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 1, proc.stderr
    assert json.loads(out.read_text())["summary"]["active"] == 1

    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--strict",
         str(CORPUS / "clean_d001.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src_root), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("rule", ["d002", "d003", "d004"])
def test_cli_strict_gate_passes_flow_clean_corpus(rule):
    """The strict gate agrees with the flow engine on what is clean."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--strict",
         str(CORPUS_FLOW / f"clean_flow_{rule}.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_rejects_unknown_rule_and_missing_path():
    from repro.analysis.__main__ import main
    assert main(["lint", "--select", "D999", str(CORPUS)]) == 2
    assert main(["lint", str(CORPUS / "no_such_file.py")]) == 2
