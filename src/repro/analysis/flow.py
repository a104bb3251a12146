"""Interprocedural determinism analysis, and the one analysis entry point.

:mod:`repro.analysis.lint` checks what one file's syntax shows; this
engine owns the rules that need dataflow, within a function and across
the *flows between* them. It builds a
:class:`~repro.analysis.callgraph.ProjectIndex` over the analyzed tree,
then iterates per-function summaries to a fixpoint and replays the
program against them, tracking two properties through returns,
parameters, attribute stores, and container round-trips:

* **hash-order taint** — does a value's iteration order depend on
  Python's per-process string hashing? ``set``/``frozenset``/``vars()``
  introduce it; ``list(s)``/``tuple(s)``/``iter(s)`` *launder* it (the
  container changes, the order is still hash order); ``s.copy()`` and
  the set algebra keep it; ``sorted(s)``/``min``/``max`` clean it.
* **seed provenance** — is a value derived from the experiment seed?
  ``derive_stream``/``_derive_seed`` calls and reads of config seed
  fields (``.seed`` / ``*_seed``) produce derived values; provenance
  follows assignments, returns, and call arguments.

Rules (same pragma format as the linter's, disjoint from its rule set):

========  ===========================================================
Rule      Meaning
========  ===========================================================
``D002``  An RNG whose seed is not *provably* derived from the
          experiment seed — judged by dataflow, not call text. Flags
          constants, untraceable values, and calls that leave a
          seed-sinking parameter to a non-derived default; also any
          draw from the process-global PRNG (``random.randint(...)``
          and the other module-level ``random`` functions, through
          import aliases) and ``numpy.random.seed(...)`` whatever its
          argument.
``D003``  Hash-ordered iteration reaching the event kernel
          (``schedule``/``schedule_at``/``push``), including through
          helper returns, parameters, and laundering containers.
``D004``  Float accumulation (``+=`` loops, ``sum()``) in hash order,
          with the same interprocedural reach.
========  ===========================================================

Known limits (by design — this is a linter, not a verifier): the
analysis is flow-insensitive across branches (both sides of an ``if``
join), context-insensitive (one summary per function), and does not
track taint through subscripts, closures' free variables, or
callbacks handed to the kernel. Suppress residual false positives with
the usual ``# repro: allow[RULE] -- why`` pragma; the ``--debt`` gate
keeps the pragma count ratcheting down.

:func:`analyze_paths` runs both rule sets over one parse and returns one
report; ``python -m repro.analysis lint [--strict] [--debt] [paths]`` is
its command line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.analysis.callgraph import (ClassInfo, FunctionInfo,
                                      ModuleInfo, ProjectIndex,
                                      build_index)
from repro.analysis.common import (Finding, Report, apply_suppressions,
                                   count_debt)

__all__ = ["FLOW_RULES", "analyze_paths"]

#: Rule id -> one-line meaning (embedded in the JSON report).
FLOW_RULES: Dict[str, str] = {
    "D002": "RNG seed not provably derived from the experiment seed",
    "D003": "unordered iteration reaching the event kernel (flow-aware)",
    "D004": "float accumulation in hash order (flow-aware)",
}

#: Event-kernel entry points.
_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at", "push"})
#: Functions whose return value *is* a derived seed.
_SEED_DERIVERS = frozenset({"derive_stream", "_derive_seed"})
#: Builtins that force hash-ordered iteration.
_UNORDERED_BUILTINS = frozenset({"set", "frozenset", "vars"})
#: Builtins/containers that pass iteration order through unchanged —
#: the laundering set: ``list(s)`` is still in hash order.
_LAUNDERING_BUILTINS = frozenset({
    "list", "tuple", "iter", "reversed", "enumerate", "zip", "dict",
    "filter", "map",
})
#: Builtins that erase hash-order taint (deterministic order out).
_CLEANING_BUILTINS = frozenset({"sorted", "min", "max", "len", "sum",
                                "any", "all", "repr", "str", "id",
                                "abs", "round", "int", "float", "bool"})
#: Set methods that keep hash-order taint on a tainted receiver.
_TAINT_KEEPING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy", "keys", "values", "items",
})
#: External RNG constructors whose first argument is the seed.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.PCG64", "numpy.random.Philox", "numpy.random.SFC64",
})
#: Module-level random functions that draw from the shared global PRNG.
_GLOBAL_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})
#: Calls that re-seed a process-global PRNG, whatever the argument.
_GLOBAL_SEEDERS = frozenset({"random.seed", "numpy.random.seed"})

_D003_LOCAL = ("iterating an unordered collection into the event "
               "kernel: same-timestamp event order would follow hash "
               "order — sort first")
_D004_LOCAL = ("accumulating over an unordered collection: float += "
               "order depends on hashing — sort first")


# --------------------------------------------------------------------- #
# Abstract values and function summaries
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Val:
    """Abstract value: taint/provenance plus what the name is bound to.

    ``u_params``/``d_params`` carry *conditional* facts — "unordered /
    derived iff parameter *i* of the enclosing function is" — which is
    how taint crosses call boundaries without context sensitivity.
    """

    unordered: bool = False
    u_params: FrozenSet[int] = frozenset()
    derived: bool = False
    d_params: FrozenSet[int] = frozenset()
    #: Qualified name of the class this value is an *instance* of.
    cls: Optional[str] = None
    #: Qualified name of the class *object* itself (``C`` vs ``C()``).
    cls_ref: Optional[str] = None
    #: Qualified name of the project function this name is bound to.
    func: Optional[str] = None
    #: True when ``func`` is a bound method (self already applied).
    bound: bool = False
    #: ``functools.partial`` payload: (function qname, bound arg count).
    partial: Optional[Tuple[str, int]] = None

    @property
    def tainted(self) -> bool:
        return self.unordered or bool(self.u_params)


CLEAN = Val()
UNORDERED = Val(unordered=True)
DERIVED = Val(derived=True)


def _merge_opt(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    return None  # conflicting bindings -> unknown


def join(a: Val, b: Val) -> Val:
    if a == CLEAN:
        return b
    if b == CLEAN:
        return a
    return Val(unordered=a.unordered or b.unordered,
               u_params=a.u_params | b.u_params,
               derived=a.derived or b.derived,
               d_params=a.d_params | b.d_params,
               cls=_merge_opt(a.cls, b.cls),
               cls_ref=_merge_opt(a.cls_ref, b.cls_ref),
               func=_merge_opt(a.func, b.func),
               bound=a.bound or b.bound,
               partial=_merge_opt(a.partial, b.partial))


@dataclass(frozen=True)
class Summary:
    """What one function does with taint, provenance, and the kernel."""

    ret_unordered: bool = False
    #: Parameter indices whose hash-order taint reaches the return.
    ret_from: FrozenSet[int] = frozenset()
    ret_derived: bool = False
    ret_derived_from: FrozenSet[int] = frozenset()
    ret_cls: Optional[str] = None
    #: Parameters that, if hash-ordered, are iterated into the kernel.
    sink_params: FrozenSet[int] = frozenset()
    #: Parameters that, if hash-ordered, are float-accumulated.
    acc_params: FrozenSet[int] = frozenset()
    #: Parameters used (non-derived) to seed an RNG.
    seed_params: FrozenSet[int] = frozenset()
    #: Transitively reaches schedule/schedule_at/push.
    schedules: bool = False


# --------------------------------------------------------------------- #
# Loop context (sink detection happens on exit)
# --------------------------------------------------------------------- #

class _LoopCtx:
    __slots__ = ("node", "iter_val", "schedules", "accumulates")

    def __init__(self, node: ast.AST, iter_val: Val):
        self.node = node
        self.iter_val = iter_val
        self.schedules = False
        self.accumulates = False


# --------------------------------------------------------------------- #
# The per-function abstract interpreter
# --------------------------------------------------------------------- #

class _Analyzer:
    """Abstractly interpret one function (or a module body) once."""

    def __init__(self, engine: "FlowEngine", finfo: FunctionInfo,
                 report: bool):
        self.engine = engine
        self.index = engine.index
        self.finfo = finfo
        self.module = finfo.module
        self.report = report
        self.env: Dict[str, Val] = {}
        self.loops: List[_LoopCtx] = []
        # Summary under construction (mutable counterparts).
        self.ret = CLEAN
        self.sink_params: Set[int] = set()
        self.acc_params: Set[int] = set()
        self.seed_params: Set[int] = set()
        self.schedules = False
        self._bind_params()

    # -- setup ---------------------------------------------------------- #

    def _bind_params(self) -> None:
        names = list(self.finfo.params) + list(self.finfo.kwonly)
        for idx, name in enumerate(names):
            if idx == 0 and self.finfo.is_method and name in ("self",
                                                              "cls"):
                self.env[name] = Val(cls=self.finfo.class_qname)
                continue
            cls = self._annotation_class(
                self.finfo.annotations.get(name))
            self.env[name] = Val(u_params=frozenset({idx}),
                                 d_params=frozenset({idx}), cls=cls)

    def _annotation_class(self,
                          ann: Optional[ast.AST]) -> Optional[str]:
        """Resolve an annotation to an indexed class qname (or None)."""
        if ann is None:
            return None
        cached = self.engine.ann_cache.get(id(ann))
        if cached is not None:
            return cached[0]
        result = self._resolve_annotation(ann)
        self.engine.ann_cache[id(ann)] = (result,)
        return result

    def _resolve_annotation(self,
                            ann: ast.AST) -> Optional[str]:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            head = ann.value
            name = (head.attr if isinstance(head, ast.Attribute)
                    else head.id if isinstance(head, ast.Name) else "")
            if name == "Optional":
                return self._annotation_class(ann.slice)
            return None
        symbol = None
        if isinstance(ann, ast.Name):
            symbol = self.index.resolve_name(self.module, ann.id)
        elif isinstance(ann, ast.Attribute):
            dotted = self.module.imports.dotted(ann)
            if dotted:
                symbol = self.index.resolve_dotted(dotted)
        return symbol.qname if isinstance(symbol, ClassInfo) else None

    def result(self) -> Summary:
        return Summary(ret_unordered=self.ret.unordered,
                       ret_from=self.ret.u_params,
                       ret_derived=self.ret.derived,
                       ret_derived_from=self.ret.d_params,
                       ret_cls=self.ret.cls,
                       sink_params=frozenset(self.sink_params),
                       acc_params=frozenset(self.acc_params),
                       seed_params=frozenset(self.seed_params),
                       schedules=self.schedules)

    # -- findings ------------------------------------------------------- #

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if self.report:
            self.engine.add_finding(Finding(
                rule=rule, path=self.module.path, line=node.lineno,
                col=node.col_offset, message=message))

    # -- statements ----------------------------------------------------- #

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret = join(self.ret, self.eval(stmt.value))
        elif isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            val = self.eval(stmt.value) if stmt.value else CLEAN
            cls = self._annotation_class(stmt.annotation)
            if cls and val.cls is None:
                val = replace(val, cls=cls)
            self._assign(stmt.target, val, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.op, ast.Add):
                for ctx in self.loops:
                    ctx.accumulates = True
            val = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                old = self.env.get(stmt.target.id, CLEAN)
                self.env[stmt.target.id] = join(old, val)
            else:
                self._assign(stmt.target, val, stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, val, None)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: analyzed as its own indexed function; here we
            # only bind the local name so calls through it resolve.
            qname = (f"{self.finfo.qname}.<locals>.{stmt.name}"
                     if "." in self.finfo.qname else stmt.name)
            if qname in self.index.functions:
                self.env[stmt.name] = Val(func=qname)
        # ClassDef / Import / Pass / Break / Continue / Global: no-op
        # (imports are already in the module's ImportMap).

    def _assign(self, target: ast.AST, val: Val,
                value_node: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value)
            if base.cls is not None:
                # Parameter-conditional taint is function-local; only
                # concrete facts survive into the shared attribute map.
                stored = Val(unordered=val.unordered,
                             derived=val.derived, cls=val.cls,
                             func=val.func, bound=val.bound)
                self.engine.store_attr(base.cls, target.attr, stored)
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = (value_node.elts
                     if isinstance(value_node, (ast.Tuple, ast.List))
                     and len(value_node.elts) == len(target.elts)
                     else None)
            for i, elt in enumerate(target.elts):
                self._assign(elt, self.eval(parts[i]) if parts
                             else CLEAN, parts[i] if parts else None)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, CLEAN, None)
        elif isinstance(target, ast.Subscript):
            self.eval(target.value)

    def _visit_for(self, node) -> None:
        iter_val = self.eval(node.iter)
        self._assign(node.target, CLEAN, None)
        ctx = _LoopCtx(node, iter_val)
        self.loops.append(ctx)
        self.run(node.body)
        self.loops.pop()
        self.run(node.orelse)
        if ctx.schedules:
            if iter_val.unordered:
                self._add("D003", node, _D003_LOCAL)
            self.sink_params.update(iter_val.u_params)
        elif ctx.accumulates:
            if iter_val.unordered:
                self._add("D004", node, _D004_LOCAL)
            self.acc_params.update(iter_val.u_params)

    # -- expressions ---------------------------------------------------- #

    def eval(self, node: Optional[ast.AST]) -> Val:
        if node is None:
            return CLEAN
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return CLEAN

    def _lookup(self, name: str) -> Optional[Val]:
        val = self.env.get(name)
        if val is not None:
            return val
        val = self.engine.module_envs.get(self.module.name,
                                          {}).get(name)
        if val is not None:
            return val
        symbol = self.index.resolve_name(self.module, name)
        if isinstance(symbol, FunctionInfo):
            return Val(func=symbol.qname)
        if isinstance(symbol, ClassInfo):
            return Val(cls_ref=symbol.qname)
        return None

    def _eval_Name(self, node: ast.Name) -> Val:
        return self._lookup(node.id) or CLEAN

    def _eval_Constant(self, node: ast.Constant) -> Val:
        return CLEAN

    def _eval_Set(self, node: ast.Set) -> Val:
        for elt in node.elts:
            self.eval(elt)
        return UNORDERED

    def _eval_Dict(self, node: ast.Dict) -> Val:
        out = CLEAN
        for key, value in zip(node.keys, node.values):
            if key is None:  # ``{**other}`` keeps other's order
                out = join(out, self._taint_only(self.eval(value)))
            else:
                self.eval(key)
                self.eval(value)
        return out

    def _seq_literal(self, node) -> Val:
        out = CLEAN
        for elt in node.elts:
            if isinstance(elt, ast.Starred):
                # ``[*s]`` unpacks in the source's iteration order.
                out = join(out, self._taint_only(self.eval(elt.value)))
            else:
                self.eval(elt)
        return out

    _eval_List = _seq_literal
    _eval_Tuple = _seq_literal

    @staticmethod
    def _taint_only(val: Val) -> Val:
        return Val(unordered=val.unordered, u_params=val.u_params)

    def _eval_Starred(self, node: ast.Starred) -> Val:
        return self.eval(node.value)

    def _eval_NamedExpr(self, node: ast.NamedExpr) -> Val:
        val = self.eval(node.value)
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = val
        return val

    def _eval_BoolOp(self, node: ast.BoolOp) -> Val:
        out = CLEAN
        for value in node.values:
            out = join(out, self.eval(value))
        return out

    def _eval_IfExp(self, node: ast.IfExp) -> Val:
        self.eval(node.test)
        return join(self.eval(node.body), self.eval(node.orelse))

    def _eval_BinOp(self, node: ast.BinOp) -> Val:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                ast.BitXor)):
            return join(self._taint_only(left), self._taint_only(right))
        return CLEAN

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> Val:
        self.eval(node.operand)
        return CLEAN

    def _eval_Compare(self, node: ast.Compare) -> Val:
        self.eval(node.left)
        for comp in node.comparators:
            self.eval(comp)
        return CLEAN

    def _eval_Await(self, node: ast.Await) -> Val:
        return self.eval(node.value)

    def _eval_Subscript(self, node: ast.Subscript) -> Val:
        self.eval(node.value)
        self.eval(node.slice)
        return CLEAN  # element access: order taint does not transfer

    def _eval_JoinedStr(self, node: ast.JoinedStr) -> Val:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                self.eval(value.value)
        return CLEAN

    def _eval_Yield(self, node: ast.Yield) -> Val:
        # A generator's iteration order inherits the loop it yields
        # from: ``for x in s: yield x`` makes the *call* hash-ordered.
        val = self.eval(node.value) if node.value else CLEAN
        for ctx in self.loops:
            val = join(val, self._taint_only(ctx.iter_val))
        self.ret = join(self.ret, self._taint_only(val))
        return CLEAN

    def _eval_YieldFrom(self, node: ast.YieldFrom) -> Val:
        self.ret = join(self.ret,
                        self._taint_only(self.eval(node.value)))
        return CLEAN

    def _eval_Lambda(self, node: ast.Lambda) -> Val:
        return CLEAN

    # Comprehensions: order taint passes from the driving iterables
    # (a SetComp is unordered no matter what drives it).

    def _comp_taint(self, node) -> Val:
        out = CLEAN
        for gen in node.generators:
            out = join(out, self._taint_only(self.eval(gen.iter)))
            self._assign(gen.target, CLEAN, None)
            for cond in gen.ifs:
                self.eval(cond)
        return out

    def _eval_ListComp(self, node: ast.ListComp) -> Val:
        taint = self._comp_taint(node)
        self.eval(node.elt)
        return taint

    def _eval_GeneratorExp(self, node: ast.GeneratorExp) -> Val:
        taint = self._comp_taint(node)
        self.eval(node.elt)
        return taint

    def _eval_SetComp(self, node: ast.SetComp) -> Val:
        self._comp_taint(node)
        self.eval(node.elt)
        return UNORDERED

    def _eval_DictComp(self, node: ast.DictComp) -> Val:
        taint = self._comp_taint(node)
        self.eval(node.key)
        self.eval(node.value)
        return taint

    # -- attribute reads ------------------------------------------------ #

    def _eval_Attribute(self, node: ast.Attribute) -> Val:
        base = self.eval(node.value)
        attr = node.attr
        out = CLEAN
        if attr == "__dict__":
            return UNORDERED
        if base.cls is not None:
            info = self.index.classes.get(base.cls)
            if info is not None:
                stored = self.engine.attr_vals.get((base.cls, attr))
                if stored is not None:
                    out = join(out, stored)
                field_node = self.engine.fields_of(info).get(attr)
                if field_node is not None and out.cls is None:
                    cls = self._annotation_class(field_node.annotation)
                    if cls:
                        out = replace(out, cls=cls)
                method = self.engine.method_of(info, attr)
                if method is not None:
                    out = replace(out, func=method.qname, bound=True)
        if base.cls_ref is not None:
            info = self.index.classes.get(base.cls_ref)
            method = (self.engine.method_of(info, attr)
                      if info else None)
            if method is not None:
                out = replace(out, func=method.qname, bound=False)
        if attr == "seed" or attr.endswith("_seed"):
            # Config seed fields are derived by definition: they *are*
            # the experiment seed (or a stream derived from it).
            out = replace(out, derived=True)
        return out

    # -- calls ----------------------------------------------------------- #

    def _eval_Call(self, node: ast.Call) -> Val:
        func = node.func
        pos_vals = [self.eval(a) for a in node.args
                    if not isinstance(a, ast.Starred)]
        has_star = any(isinstance(a, ast.Starred) for a in node.args)
        for a in node.args:
            if isinstance(a, ast.Starred):
                self.eval(a.value)
        kw_vals = {kw.arg: self.eval(kw.value)
                   for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value)

        if isinstance(func, ast.Name):
            result = self._call_builtin(node, func.id, pos_vals)
            if result is not None:
                return result
            bound = self._lookup(func.id)
            if bound is not None:
                if bound.partial is not None:
                    return self._call_partial(node, bound, pos_vals,
                                              kw_vals)
                if bound.func is not None:
                    callee = self.index.functions.get(bound.func)
                    if callee is not None:
                        return self._call_project(
                            node, callee, pos_vals, kw_vals,
                            shift=1 if bound.bound else 0,
                            has_star=has_star)
                if bound.cls_ref is not None:
                    return self._call_constructor(
                        node, bound.cls_ref, pos_vals, kw_vals,
                        has_star)
            dotted = self.module.imports.origin(func.id) or None
            if dotted:
                return self._call_external(node, dotted, pos_vals,
                                           kw_vals)
            return CLEAN

        if isinstance(func, ast.Attribute):
            return self._call_attribute(node, func, pos_vals, kw_vals,
                                        has_star)
        self.eval(func)
        return CLEAN

    def _mark_schedule(self) -> None:
        self.schedules = True
        for ctx in self.loops:
            ctx.schedules = True

    def _call_builtin(self, node: ast.Call, name: str,
                      pos_vals: List[Val]) -> Optional[Val]:
        if name in _UNORDERED_BUILTINS:
            return UNORDERED
        if name in _LAUNDERING_BUILTINS:
            out = CLEAN
            for val in pos_vals:
                out = join(out, self._taint_only(val))
            return out
        if name == "sum" and pos_vals:
            arg = pos_vals[0]
            if arg.unordered:
                self._add("D004", node,
                          "sum() over an unordered collection: float "
                          "accumulation order depends on hashing")
            self.acc_params.update(arg.u_params)
            return CLEAN
        if name in _CLEANING_BUILTINS:
            return CLEAN
        if name == "getattr":
            return CLEAN
        return None

    def _call_attribute(self, node: ast.Call, func: ast.Attribute,
                        pos_vals: List[Val], kw_vals: Dict[str, Val],
                        has_star: bool) -> Val:
        attr = func.attr
        if attr in _SCHEDULE_NAMES:
            self._mark_schedule()
            self.eval(func.value)
            return CLEAN
        base = self.eval(func.value)
        if attr in _TAINT_KEEPING_METHODS and base.tainted:
            return self._taint_only(base)
        if attr == "sort" and isinstance(func.value, ast.Name):
            # In-place sort cleans the name it is called on.
            name = func.value.id
            if name in self.env:
                val = self.env[name]
                self.env[name] = replace(val, unordered=False,
                                         u_params=frozenset())
            return CLEAN
        if attr == "seed" and pos_vals and \
                self.module.imports.dotted(func) not in _GLOBAL_SEEDERS:
            # ``rng.seed(x)`` re-seeds in place: same provenance rule.
            self._check_seed_val(node, pos_vals[0],
                                 f"{ast.unparse(func)}()")
            return CLEAN
        if base.cls is not None:
            info = self.index.classes.get(base.cls)
            method = (self.engine.method_of(info, attr)
                      if info else None)
            if method is not None:
                return self._call_project(node, method, pos_vals,
                                          kw_vals, shift=1,
                                          has_star=has_star)
        if base.cls_ref is not None:
            info = self.index.classes.get(base.cls_ref)
            method = (self.engine.method_of(info, attr)
                      if info else None)
            if method is not None:
                return self._call_project(node, method, pos_vals,
                                          kw_vals, shift=0,
                                          has_star=has_star)
        if base.func is not None and attr == "__call__":
            callee = self.index.functions.get(base.func)
            if callee is not None:
                return self._call_project(
                    node, callee, pos_vals, kw_vals,
                    shift=1 if base.bound else 0, has_star=has_star)
        dotted = self.module.imports.dotted(func)
        if dotted:
            return self._call_external(node, dotted, pos_vals, kw_vals)
        return CLEAN

    def _call_external(self, node: ast.Call, dotted: str,
                       pos_vals: List[Val],
                       kw_vals: Dict[str, Val]) -> Val:
        tail = dotted.rsplit(".", 1)[-1]
        if tail in _SEED_DERIVERS:
            return DERIVED
        if dotted == f"random.{tail}" and tail in _GLOBAL_RANDOM:
            self._add("D002", node,
                      f"{dotted}() draws from the process-global PRNG; "
                      f"use a stream from repro.sim.rng instead")
            return CLEAN
        if dotted == "numpy.random.seed":
            self._add("D002", node,
                      "numpy.random.seed() mutates the global numpy PRNG; "
                      "use repro.sim.rng streams")
            return CLEAN
        if dotted in _RNG_CONSTRUCTORS:
            seed = (pos_vals[0] if pos_vals
                    else kw_vals.get("seed") or kw_vals.get("x"))
            if seed is None:
                self._add("D002", node,
                          f"{dotted}() with no seed draws OS entropy; "
                          f"derive one from the experiment seed")
            else:
                self._check_seed_val(node, seed, f"{dotted}()")
            return CLEAN
        if dotted == "functools.partial" and pos_vals:
            target = pos_vals[0]
            if target.func is not None:
                self.engine.index.add_call_edge(self.finfo.qname,
                                                target.func)
                callee = self.index.functions.get(target.func)
                if callee is not None:
                    shift = 1 if target.bound else 0
                    # Bound-at-creation args get the same checks a
                    # direct call would.
                    self._map_and_check(node, callee, pos_vals[1:],
                                        kw_vals, shift)
                    bound_n = shift + len(pos_vals) - 1
                    return Val(partial=(target.func, bound_n))
            return CLEAN
        if dotted in ("copy.copy", "copy.deepcopy") and pos_vals:
            return pos_vals[0]
        if dotted == "dataclasses.replace" and pos_vals:
            return Val(cls=pos_vals[0].cls)
        if dotted == "math.fsum":
            return CLEAN  # order-independent by construction
        symbol = self.index.resolve_dotted(dotted)
        if isinstance(symbol, FunctionInfo):
            return self._call_project(node, symbol, pos_vals, kw_vals,
                                      shift=0, has_star=False)
        if isinstance(symbol, ClassInfo):
            return self._call_constructor(node, symbol.qname, pos_vals,
                                          kw_vals, has_star=False)
        return CLEAN

    def _call_partial(self, node: ast.Call, bound: Val,
                      pos_vals: List[Val],
                      kw_vals: Dict[str, Val]) -> Val:
        qname, bound_n = bound.partial
        callee = self.index.functions.get(qname)
        if callee is None:
            return CLEAN
        return self._call_project(node, callee, pos_vals, kw_vals,
                                  shift=bound_n, has_star=False)

    def _call_constructor(self, node: ast.Call, cls_qname: str,
                          pos_vals: List[Val],
                          kw_vals: Dict[str, Val],
                          has_star: bool) -> Val:
        info = self.index.classes.get(cls_qname)
        init = (self.engine.method_of(info, "__init__")
                if info else None)
        if init is not None:
            self._call_project(node, init, pos_vals, kw_vals, shift=1,
                               has_star=has_star)
        # Dataclass-generated __init__ just stores fields; a literal
        # seed= at construction is the experiment *root* seed, the one
        # place a plain constant is the point — no check there.
        return Val(cls=cls_qname)

    # -- project calls: edges, arg mapping, sink checks ------------------ #

    def _call_project(self, node: ast.Call, callee: FunctionInfo,
                      pos_vals: List[Val], kw_vals: Dict[str, Val],
                      shift: int, has_star: bool) -> Val:
        self.engine.index.add_call_edge(self.finfo.qname, callee.qname)
        if callee.qname.rsplit(".", 1)[-1] in _SEED_DERIVERS:
            return DERIVED
        summary = self.engine.summaries.get(callee.qname, Summary())
        if summary.schedules:
            self._mark_schedule()
        mapped = self._map_and_check(node, callee, pos_vals, kw_vals,
                                     shift)
        if not has_star:
            self._check_seed_defaults(node, callee, summary, mapped)
        # Instantiate the return summary against the actual arguments.
        unordered = summary.ret_unordered
        u_params: Set[int] = set()
        derived = summary.ret_derived
        d_params: Set[int] = set()
        for idx, val in mapped.items():
            if idx in summary.ret_from:
                unordered = unordered or val.unordered
                u_params.update(val.u_params)
            if idx in summary.ret_derived_from:
                derived = derived or val.derived
                d_params.update(val.d_params)
        return Val(unordered=unordered, u_params=frozenset(u_params),
                   derived=derived, d_params=frozenset(d_params),
                   cls=summary.ret_cls)

    def _map_and_check(self, node: ast.Call, callee: FunctionInfo,
                       pos_vals: List[Val], kw_vals: Dict[str, Val],
                       shift: int) -> Dict[int, Val]:
        summary = self.engine.summaries.get(callee.qname, Summary())
        mapped: Dict[int, Val] = {}
        for i, val in enumerate(pos_vals):
            idx = i + shift
            if idx < len(callee.params):
                mapped[idx] = val
        for name, val in kw_vals.items():
            idx = self._param_slot(callee, name)
            if idx is not None:
                mapped[idx] = val
        short = callee.qname.rsplit(".", 1)[-1]
        for idx, val in mapped.items():
            pname = self._param_name(callee, idx)
            if idx in summary.sink_params:
                if val.unordered:
                    self._add("D003", node,
                              f"unordered collection passed to "
                              f"{short}(), which iterates it into the "
                              f"event kernel — sort first")
                self.sink_params.update(val.u_params)
            elif idx in summary.acc_params:
                if val.unordered:
                    self._add("D004", node,
                              f"unordered collection passed to "
                              f"{short}(), which float-accumulates it "
                              f"— sort first")
                self.acc_params.update(val.u_params)
            if idx in summary.seed_params:
                self._check_seed_val(
                    node, val, f"parameter '{pname}' of {short}()")
        return mapped

    @staticmethod
    def _param_slot(callee: FunctionInfo, name: str) -> Optional[int]:
        if name in callee.params:
            return callee.params.index(name)
        if name in callee.kwonly:
            return len(callee.params) + callee.kwonly.index(name)
        return None

    @staticmethod
    def _param_name(callee: FunctionInfo, idx: int) -> str:
        names = list(callee.params) + list(callee.kwonly)
        return names[idx] if idx < len(names) else f"#{idx}"

    def _check_seed_val(self, node: ast.Call, val: Val,
                        what: str) -> None:
        if val.derived:
            return
        if val.d_params:
            # Conditional on our own parameters: defer to callers.
            self.seed_params.update(val.d_params)
            return
        self._add("D002", node,
                  f"seed for {what} is not provably derived from the "
                  f"experiment seed (route it through "
                  f"derive_stream/_derive_seed or a config seed field)")

    def _check_seed_defaults(self, node: ast.Call,
                             callee: FunctionInfo, summary: Summary,
                             mapped: Dict[int, Val]) -> None:
        for idx in summary.seed_params:
            if idx in mapped:
                continue
            pname = self._param_name(callee, idx)
            default = callee.defaults.get(pname)
            if default is None:
                continue  # missing required arg: not our problem
            if (isinstance(default, ast.Constant)
                    and default.value is None):
                continue  # None sentinel: derivation happens inside
            val = self.engine.eval_in_module(callee.module, default)
            if not val.derived:
                short = callee.qname.rsplit(".", 1)[-1]
                self._add("D002", node,
                          f"call leaves seed parameter '{pname}' of "
                          f"{short}() at its default, which is not "
                          f"derived from the experiment seed")


# --------------------------------------------------------------------- #
# The fixpoint engine
# --------------------------------------------------------------------- #

#: Iteration cap — summaries over this lattice converge in a handful of
#: rounds; the cap only guards pathological inputs.
_MAX_PASSES = 12


class _ModuleFunction(FunctionInfo):
    """Pseudo-function wrapping a module body for the analyzer."""


class FlowEngine:
    """Run the interprocedural analysis over a ProjectIndex."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.summaries: Dict[str, Summary] = {
            qname: Summary() for qname in index.functions}
        #: (class qname, attribute) -> joined stored value.
        self.attr_vals: Dict[Tuple[str, str], Val] = {}
        self.module_envs: Dict[str, Dict[str, Val]] = {}
        self.changed = False
        self.findings: List[Finding] = []
        self._finding_keys: Set[Tuple] = set()
        # Resolution caches: these run on every pass, the underlying
        # index answers never change.
        self.ann_cache: Dict[int, Tuple[Optional[str]]] = {}
        self._fields_cache: Dict[str, Dict[str, ast.AnnAssign]] = {}
        self._method_cache: Dict[Tuple[str, str],
                                 Optional[FunctionInfo]] = {}

    def fields_of(self, info: ClassInfo) -> Dict[str, ast.AnnAssign]:
        cached = self._fields_cache.get(info.qname)
        if cached is None:
            cached = self.index.class_fields(info)
            self._fields_cache[info.qname] = cached
        return cached

    def method_of(self, info: ClassInfo,
                  name: str) -> Optional[FunctionInfo]:
        key = (info.qname, name)
        if key not in self._method_cache:
            self._method_cache[key] = self.index.lookup_method(info,
                                                               name)
        return self._method_cache[key]

    # -- shared state --------------------------------------------------- #

    def add_finding(self, finding: Finding) -> None:
        key = (finding.rule, finding.path, finding.line, finding.col,
               finding.message)
        if key not in self._finding_keys:
            self._finding_keys.add(key)
            self.findings.append(finding)

    def store_attr(self, cls_qname: str, attr: str, val: Val) -> None:
        key = (cls_qname, attr)
        old = self.attr_vals.get(key, CLEAN)
        new = join(old, val)
        if new != old:
            self.attr_vals[key] = new
            self.changed = True

    def eval_in_module(self, module: ModuleInfo,
                       expr: ast.AST) -> Val:
        pseudo = _ModuleFunction(qname=f"{module.name}.<expr>",
                                 module=module, node=module.tree)
        return _Analyzer(self, pseudo, report=False).eval(expr)

    # -- passes ---------------------------------------------------------- #

    def run(self) -> List[Finding]:
        for _ in range(_MAX_PASSES):
            self.changed = False
            self._one_pass(report=False)
            if not self.changed:
                break
        self._one_pass(report=True)
        return self.findings

    def _one_pass(self, report: bool) -> None:
        for module in self.index.modules.values():
            env = self._module_env(module, report)
            if env != self.module_envs.get(module.name):
                self.module_envs[module.name] = env
                self.changed = True
        for qname, finfo in self.index.functions.items():
            analyzer = _Analyzer(self, finfo, report)
            analyzer.run(finfo.node.body)
            summary = analyzer.result()
            if summary != self.summaries[qname]:
                self.summaries[qname] = summary
                self.changed = True

    def _module_env(self, module: ModuleInfo,
                    report: bool) -> Dict[str, Val]:
        pseudo = _ModuleFunction(qname=f"{module.name}.<module>",
                                 module=module, node=module.tree)
        analyzer = _Analyzer(self, pseudo, report)
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                analyzer.visit_stmt(stmt)
        return analyzer.env

# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #

def analyze_paths(paths: Sequence[Path],
                  rel_to: Optional[Path] = None,
                  select: Optional[Iterable[str]] = None) -> Report:
    """Run every determinism rule over ``paths`` from one parse.

    Builds the :class:`~repro.analysis.callgraph.ProjectIndex` once,
    runs the syntactic rules of :mod:`repro.analysis.lint` on each tree
    it parsed and the flow engine over the whole index, then applies
    each file's pragmas once. The report's ``rules`` are both rule
    tables, and its ``debt`` counts the same files' pragmas. ``select``
    keeps only the findings of those rule ids.
    """
    # Imported on use: loading the flow engine alone (the pinned
    # ``analysis-flow`` import budget) does not need the linter.
    from repro.analysis.lint import RULES, _FileLinter, _perf_allowed
    index = build_index(paths, rel_to=rel_to)
    flow: Dict[str, List[Finding]] = {}
    for finding in FlowEngine(index).run():
        flow.setdefault(finding.path, []).append(finding)
    findings: List[Finding] = list(index.parse_failures)
    for module in index.modules.values():
        file = Path(rel_to, module.path) if rel_to else Path(module.path)
        linter = _FileLinter(module.path, perf_allowed=_perf_allowed(file))
        linter.visit(module.tree)
        findings += apply_suppressions(
            linter.findings + flow.get(module.path, []), module.source,
            module.path)
    if select is not None:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    findings.sort(key=Finding.sort_key)
    return Report(findings=findings,
                  files_scanned=len(index.modules)
                  + len(index.parse_failures),
                  rules={**RULES, **FLOW_RULES},
                  debt=count_debt(index.modules.values()))
