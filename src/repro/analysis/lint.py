"""Determinism linter: syntactic AST rules for the reproducibility contract.

Simulation results must be a pure function of ``(config, seed)``. The
hazards that break that are mundane Python: a ``time.time()`` snuck into
a model, a mutable default shared between runs, a nanosecond quantity
under a unitless name. Each rule here targets one hazard that a single
file's syntax shows:

========  ===========================================================
Rule      Meaning
========  ===========================================================
``D001``  Wall-clock read (``time.time``, ``datetime.now``, ...).
          ``time.perf_counter`` is allowed only in the modules of
          :data:`PERF_COUNTER_ALLOWLIST`, which measure wall time *about*
          simulations (never inside the model).
``D005``  Mutable default argument (shared across calls — state leaks
          between runs).
``U001``  A name bound to a ``<n> * NS/US/MS/S`` time expression whose
          name does not end in ``_ns`` (``_NS`` for UPPER_CASE
          constants — the :mod:`repro.units` convention; mixed units
          are how latency bugs start).
``S001``  A suppression comment without a justification.
========  ===========================================================

Suppression is per line, with a mandatory justification::

    t0 = time.time()  # repro: allow[D001] -- operator-facing timestamp

The dataflow rules — global or unseeded randomness (``D002``) and
hash-ordered iteration reaching the event kernel or a float sum
(``D003``/``D004``) — belong to :mod:`repro.analysis.flow`, which
follows values across functions. Its
:func:`~repro.analysis.flow.analyze_paths` runs :class:`_FileLinter`
on every tree it parsed, so both rule sets come from one parse and one
report: ``python -m repro.analysis lint [--strict] [paths]``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

from repro.analysis.common import Finding, ImportMap

__all__ = ["RULES", "PERF_COUNTER_ALLOWLIST"]

#: Rule id -> one-line meaning (stable: the JSON report embeds these).
RULES: Dict[str, str] = {
    "D001": "wall-clock read in simulation code",
    "D005": "mutable default argument",
    "U001": "time-valued name missing the _ns suffix",
    "S001": "suppression without a justification",
    "P000": "file does not parse",
}

#: Modules (matched as path suffixes) allowed to call
#: ``time.perf_counter``: they time simulations from the outside
#: (``RunResult.perf.wall_s``, CLI elapsed lines) and never feed the
#: result back into the model.
PERF_COUNTER_ALLOWLIST = frozenset({
    "repro/system.py",            # RunResult.perf wall_s
    "repro/cluster/fleet.py",     # FleetResult node perf wall_s
    "repro/cluster/sharded.py",   # LockstepPerf.wall_s (sharded driver)
    "repro/experiments/__main__.py",  # per-experiment elapsed line
})

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_PERF_COUNTER = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
})
#: Time-unit constants from repro.units (ns-denominated).
_UNIT_NAMES = frozenset({"NS", "US", "MS", "S"})


# --------------------------------------------------------------------- #
# Per-file analysis
# --------------------------------------------------------------------- #

class _FileLinter(ast.NodeVisitor):
    """Single AST walk collecting findings for every rule."""

    def __init__(self, path: str, perf_allowed: bool):
        self.path = path
        self.perf_allowed = perf_allowed
        self.findings: List[Finding] = []
        #: Alias resolution ("np" -> "numpy", "perf_counter" ->
        #: "time.perf_counter"); shared with the flow engine.
        self.imports = ImportMap()

    # -- bookkeeping --------------------------------------------------- #

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path, line=node.lineno,
            col=node.col_offset, message=message))

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.add_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.add_import_from(node)
        self.generic_visit(node)

    # -- rule visitors -------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.dotted(node.func)
        if dotted is not None:
            self._check_wallclock(node, dotted)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALLCLOCK:
            self._add("D001", node,
                      f"wall-clock read {dotted}(): simulation state must "
                      f"be a function of (config, seed) only — use "
                      f"sim.now, or perf_counter in an allowlisted "
                      f"perf module")
        elif dotted in _PERF_COUNTER and not self.perf_allowed:
            self._add("D001", node,
                      f"{dotted}() outside the perf-module allowlist "
                      f"(see repro.analysis.lint.PERF_COUNTER_ALLOWLIST)")

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                mutable = True
            if mutable:
                self._add("D005", default,
                          "mutable default argument is shared across "
                          "calls (state leaks between runs); default to "
                          "None and build inside")

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self._check_arg_units(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- U001 ---------------------------------------------------------- #

    def _is_unit_expr(self, node: ast.AST) -> bool:
        """True when the expression multiplies by an ns-unit constant.

        Only top-level arithmetic counts: a unit constant buried in a
        call argument (``Scale(duration_ns=300 * MS)``) types the
        *argument*, not the name the call's result is bound to.
        """
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Name) and \
                            side.id in _UNIT_NAMES and \
                            self.imports.origin(side.id).startswith(
                                "repro.units"):
                        return True
            return (self._is_unit_expr(node.left)
                    or self._is_unit_expr(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._is_unit_expr(node.operand)
        if isinstance(node, ast.IfExp):
            return (self._is_unit_expr(node.body)
                    or self._is_unit_expr(node.orelse))
        return False

    def _check_unit_name(self, name: str, node: ast.AST) -> None:
        # UPPER_CASE module constants carry the suffix in their own
        # register (``PERIOD_NS``); everything else needs literal _ns.
        if name.endswith("_ns") or (name.isupper()
                                    and name.endswith("_NS")):
            return
        self._add("U001", node,
                  f"{name!r} holds a nanosecond quantity (built from "
                  f"a repro.units constant) but lacks the _ns "
                  f"suffix")

    def _check_arg_units(self, node) -> None:
        args = node.args
        positional = args.posonlyargs + args.args if hasattr(
            args, "posonlyargs") else args.args
        pos_defaults = args.defaults
        for arg, default in zip(positional[len(positional)
                                           - len(pos_defaults):],
                                pos_defaults):
            if self._is_unit_expr(default):
                self._check_unit_name(arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and self._is_unit_expr(default):
                self._check_unit_name(arg.arg, default)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_unit_expr(node.value):
                    self._check_unit_name(target.id, node)
            elif isinstance(target, ast.Attribute) and \
                    self._is_unit_expr(node.value):
                self._check_unit_name(target.attr, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name) \
                and self._is_unit_expr(node.value):
            self._check_unit_name(node.target.id, node)
        self.generic_visit(node)


def _perf_allowed(path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(entry) for entry in PERF_COUNTER_ALLOWLIST)
