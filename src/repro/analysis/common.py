"""Shared machinery of the determinism analysis.

The rules live in :mod:`repro.analysis.lint` (what one file's syntax
shows) and :mod:`repro.analysis.flow` (dataflow across functions);
everything else lives here: the :class:`Finding`/:class:`Report` shapes
and their JSON format, import-alias resolution, per-line
``# repro: allow[RULE] -- why`` pragma suppression, file discovery, and
the suppression-*debt* accounting that the ``--debt`` gate ratchets.
The JSON report format is pinned by a golden test that consumers (CI,
the debt gate) rely on.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Matches the suppression pragma: "repro: allow[RULES]" in a comment,
#: optionally followed by "-- justification" (rules comma-separated).
ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)\]"
    r"(?:\s*--\s*(\S.*))?")


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}{mark}")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "suppressed": self.suppressed,
                "justification": self.justification}


@dataclass
class Report:
    """Findings over a set of files, plus enough context to gate CI."""

    findings: List[Finding]
    files_scanned: int
    #: Rule id -> one-line meaning, embedded in the JSON report so a
    #: consumer never needs the producing module to interpret ids.
    rules: Dict[str, str] = field(default_factory=dict)
    #: Suppression debt of the scanned files (see :func:`count_debt`).
    debt: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def active(self) -> List[Finding]:
        """Findings that are not suppressed (these fail ``--strict``)."""
        return [f for f in self.findings if not f.suppressed]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "files_scanned": self.files_scanned,
            "rules": self.rules,
            "summary": {
                "findings": len(self.findings),
                "active": len(self.active()),
                "suppressed": len(self.findings) - len(self.active()),
                "by_rule": self.by_rule(),
            },
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        active = len(self.active())
        lines.append(f"{self.files_scanned} files scanned, "
                     f"{len(self.findings)} findings "
                     f"({active} active, "
                     f"{len(self.findings) - active} suppressed)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Import-alias resolution
# --------------------------------------------------------------------- #

class ImportMap:
    """Alias -> dotted-origin map built from a module's import statements.

    ``import numpy as np`` maps ``np`` to ``numpy``;
    ``from time import perf_counter as pc`` maps ``pc`` to
    ``time.perf_counter``. :meth:`dotted` then resolves a call target
    through the map: attribute chains rooted in anything other than an
    imported name resolve to None — method calls on local objects never
    alias stdlib modules here.
    """

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    def collect(self, tree: ast.AST) -> "ImportMap":
        """Walk ``tree`` once, absorbing every import statement."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self.add_import(node)
            elif isinstance(node, ast.ImportFrom):
                self.add_import_from(node)
        return self

    def origin(self, alias: str, default: str = "") -> str:
        return self.aliases.get(alias, default)

    def dotted(self, func: ast.AST) -> Optional[str]:
        """Resolve a call/attribute target to a dotted origin.

        ``t.time`` after ``import time as t`` -> ``"time.time"``;
        ``perf_counter`` after ``from time import perf_counter`` ->
        ``"time.perf_counter"``.
        """
        parts: List[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        origin = self.aliases.get(func.id)
        if origin is None:
            return None
        return ".".join([origin] + list(reversed(parts)))


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #

def parse_pragmas(source: str) -> Dict[int, Tuple[set, Optional[str]]]:
    """lineno -> (allowed rule ids, justification or None)."""
    allows: Dict[int, Tuple[set, Optional[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = ALLOW_RE.search(text)
        if match:
            rules = {r.strip() for r in match.group(1).split(",")}
            allows[lineno] = (rules, match.group(2))
    return allows


def apply_suppressions(findings: List[Finding], source: str,
                       path: str) -> List[Finding]:
    """Mark findings allowed by their line's pragma; flag bare pragmas.

    A pragma without a ``-- justification`` is itself a finding
    (``S001``): the whole point of an allowlist entry is the recorded
    *why*.
    """
    allows = parse_pragmas(source)
    for finding in findings:
        entry = allows.get(finding.line)
        if entry and finding.rule in entry[0]:
            finding.suppressed = True
            finding.justification = entry[1]
    out = list(findings)
    for lineno, (rules, justification) in sorted(allows.items()):
        if justification is None:
            out.append(Finding(
                rule="S001", path=path, line=lineno, col=0,
                message=f"suppression of {','.join(sorted(rules))} "
                        f"carries no justification (write "
                        f"'# repro: allow[RULE] -- why')"))
    return out


# --------------------------------------------------------------------- #
# File discovery
# --------------------------------------------------------------------- #

def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return out


def display_path(path: Path, rel_to: Optional[Path]) -> str:
    return str(path.relative_to(rel_to) if rel_to else path)


# --------------------------------------------------------------------- #
# Suppression debt
# --------------------------------------------------------------------- #

def _string_literal_lines(tree: ast.AST) -> set:
    """Line numbers covered by string constants (docstrings, examples).

    A pragma *inside a string* is documentation, not a suppression in
    effect; the debt accounting must not count it against a module.
    """
    lines: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


def count_debt(modules: Iterable) -> Dict[str, Dict[str, int]]:
    """Suppression-pragma counts: rule id -> file path -> count.

    ``modules`` are parsed files carrying ``path``, ``source`` and
    ``tree`` (the :class:`~repro.analysis.callgraph.ModuleInfo` of each
    analyzed file). Counts every ``# repro: allow[...]`` pragma outside
    string literals, one per rule id it names. This is the *debt* the
    ``--debt`` gate ratchets: each (rule, module) count may only stay or
    go down relative to the checked-in baseline.
    """
    debt: Dict[str, Dict[str, int]] = {}
    for module in modules:
        doc_lines = _string_literal_lines(module.tree)
        for lineno, (rules, _) in parse_pragmas(module.source).items():
            if lineno in doc_lines:
                continue
            for rule in sorted(rules):
                per_path = debt.setdefault(rule, {})
                per_path[module.path] = per_path.get(module.path, 0) + 1
    return {rule: dict(sorted(paths_.items()))
            for rule, paths_ in sorted(debt.items())}


def debt_to_json(debt: Dict[str, Dict[str, int]]) -> str:
    return json.dumps({"version": 1, "debt": debt}, indent=2) + "\n"


def load_debt_baseline(path: Path) -> Dict[str, Dict[str, int]]:
    payload = json.loads(path.read_text())
    if payload.get("version") != 1:
        raise ValueError(f"unsupported debt baseline version in {path}")
    return payload["debt"]


def debt_regressions(current: Dict[str, Dict[str, int]],
                     baseline: Dict[str, Dict[str, int]]) -> List[str]:
    """Human-readable list of (rule, module) debts above the baseline.

    Empty means the gate passes. Debts *below* baseline pass — ratchet
    the baseline down by re-running with ``--write-debt``.
    """
    problems: List[str] = []
    for rule, per_path in sorted(current.items()):
        for path, count in sorted(per_path.items()):
            allowed = baseline.get(rule, {}).get(path, 0)
            if count > allowed:
                problems.append(
                    f"{rule} debt in {path}: {count} pragma(s), "
                    f"baseline allows {allowed}")
    return problems
