"""Project-wide symbol table and call graph for the flow engine.

:func:`build_index` parses a set of Python files into a
:class:`ProjectIndex`: every module's functions, classes (with methods),
and import aliases, plus enough resolution machinery to answer the two
questions interprocedural analysis asks constantly:

* *What does this call expression refer to?* — a project function, a
  method (via class resolution and a C3-free base walk), a builtin, or
  an external name. Import aliases (``import x as y``,
  ``from a.b import f as g``) resolve through the same
  :class:`~repro.analysis.common.ImportMap` the linter uses, and
  ``functools.partial(f, ...)`` resolves to ``f``.
* *What is the static type of this name?* — tracked only for classes
  the index knows, seeded from parameter annotations
  (``config: ServerConfig``), constructor calls, and
  ``self.attr = ...`` stores; enough to follow config objects through
  the codebase without a real type checker.

Module names are derived from the filesystem: a file's dotted name walks
up through parents as long as an ``__init__.py`` is present, so
``src/repro/cluster/fleet.py`` indexes as ``repro.cluster.fleet`` and a
synthetic test package in a tmpdir indexes under its own root. That
makes absolute imports inside the analyzed tree resolve to indexed
modules with no configuration.

The graph itself (:attr:`ProjectIndex.calls`) maps each function's
qualified name to the resolved qualified names it calls — cycles are
expected and fine; the flow engine iterates summaries to a fixpoint
rather than topologically sorting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.analysis.common import (Finding, ImportMap, display_path,
                                   iter_python_files)

#: Type of an entry a dotted path can resolve to.
Symbol = Union["FunctionInfo", "ClassInfo"]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Qualified name of the owning class for methods, else None.
    class_qname: Optional[str] = None
    #: Positional parameter names in call order (posonly + args); for
    #: methods this *includes* the leading self/cls slot so positional
    #: argument indices line up with call sites after the shift.
    params: List[str] = dc_field(default_factory=list)
    #: Keyword-only parameter names.
    kwonly: List[str] = dc_field(default_factory=list)
    #: Parameter annotations by name (raw AST, may be None).
    annotations: Dict[str, Optional[ast.AST]] = dc_field(
        default_factory=dict)
    #: Defaults by parameter name (raw AST).
    defaults: Dict[str, ast.AST] = dc_field(default_factory=dict)

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None


@dataclass
class ClassInfo:
    """One class definition with its methods and declared fields."""

    qname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    #: Raw base expressions, resolved lazily (bases may be defined in
    #: modules indexed later).
    base_exprs: List[ast.AST] = dc_field(default_factory=list)
    methods: Dict[str, FunctionInfo] = dc_field(default_factory=dict)
    #: Dataclass-style field declarations: name -> AnnAssign node.
    fields: Dict[str, ast.AnnAssign] = dc_field(default_factory=dict)
    is_dataclass: bool = False


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    path: str
    tree: ast.Module
    source: str
    imports: ImportMap
    functions: Dict[str, FunctionInfo] = dc_field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dc_field(default_factory=dict)


def _module_name(path: Path) -> str:
    """Dotted module name from the package layout around ``path``.

    Walks up while ``__init__.py`` exists, so names match what absolute
    imports inside the same tree say.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (target.attr if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return True
    return False


class ProjectIndex:
    """Symbol table + call graph over a set of analyzed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qname -> set of callee qnames (resolved project
        #: functions only; built by the flow engine's first pass).
        self.calls: Dict[str, Set[str]] = {}
        #: Files that failed to parse, as P000 findings.
        self.parse_failures: List[Finding] = []

    # -- construction --------------------------------------------------- #

    def add_file(self, path: Path, rel_to: Optional[Path] = None) -> None:
        display = display_path(path, rel_to)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_failures.append(Finding(
                rule="P000", path=display, line=exc.lineno or 1,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}"))
            return
        name = _module_name(path)
        if name in self.modules:
            # Same dotted name under two analyzed roots: key the later
            # file by its path so it is analyzed too, not shadowed.
            name = display
        module = ModuleInfo(name=name, path=display, tree=tree,
                            source=source,
                            imports=ImportMap().collect(tree))
        self.modules[name] = module
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_info=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)

    def _add_function(self, module: ModuleInfo, node,
                      class_info: Optional[ClassInfo],
                      prefix: str = "") -> FunctionInfo:
        if class_info is not None:
            qname = f"{class_info.qname}.{node.name}"
        else:
            qname = f"{module.name}.{prefix}{node.name}"
        args = node.args
        positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
        info = FunctionInfo(
            qname=qname, module=module, node=node,
            class_qname=class_info.qname if class_info else None,
            params=[a.arg for a in positional],
            kwonly=[a.arg for a in args.kwonlyargs],
            annotations={a.arg: a.annotation
                         for a in positional + list(args.kwonlyargs)})
        pos_defaults = list(args.defaults)
        for arg, default in zip(positional[len(positional)
                                           - len(pos_defaults):],
                                pos_defaults):
            info.defaults[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                info.defaults[arg.arg] = default
        self.functions[qname] = info
        if class_info is not None:
            class_info.methods[node.name] = info
        elif not prefix:
            # Only top-level functions are visible by bare module name;
            # nested defs resolve through the enclosing function's env.
            module.functions.setdefault(node.name, info)
        # Nested defs get indexed too (resolvable by the enclosing
        # function's analysis when bound to a local name).
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_info=None,
                                   prefix=f"{prefix}{node.name}.<locals>.")
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{module.name}.{node.name}"
        info = ClassInfo(qname=qname, name=node.name, module=module,
                         node=node, base_exprs=list(node.bases),
                         is_dataclass=_is_dataclass_decorated(node))
        module.classes[node.name] = info
        self.classes[qname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_info=info)
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                ann = stmt.annotation
                dotted = ast.unparse(ann) if ann is not None else ""
                if not dotted.startswith("ClassVar"):
                    info.fields[stmt.target.id] = stmt

    # -- resolution ------------------------------------------------------ #

    def resolve_dotted(self, dotted: str,
                       _seen: Optional[Set[str]] = None) -> Optional[Symbol]:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Class[.method]``.

        Tries the longest module prefix first, then walks the remaining
        attributes through classes and their methods. A dotted name
        that is itself a module resolves to None (modules are not
        symbols). Re-exported names follow import hops, each dotted
        name at most once, so ``from pkg import sub`` in
        ``pkg/__init__.py`` or an import cycle resolves to None instead
        of recursing.
        """
        parts = dotted.split(".")
        if dotted in self.modules:
            return None
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            rest = parts[split:]
            head = rest[0]
            symbol: Optional[Symbol] = (module.functions.get(head)
                                        or module.classes.get(head))
            if symbol is None:
                # Re-exported name: follow the import hop.
                origin = module.imports.origin(head)
                seen = _seen if _seen is not None else set()
                if not origin or dotted in seen:
                    return None
                seen.add(dotted)
                return self.resolve_dotted(
                    ".".join([origin] + rest[1:]), seen)
            for attr in rest[1:]:
                if isinstance(symbol, ClassInfo):
                    symbol = self.lookup_method(symbol, attr)
                else:
                    return None
                if symbol is None:
                    return None
            return symbol
        return None

    def resolve_name(self, module: ModuleInfo,
                     name: str) -> Optional[Symbol]:
        """Resolve a bare name inside ``module``."""
        symbol = module.functions.get(name) or module.classes.get(name)
        if symbol is not None:
            return symbol
        origin = module.imports.origin(name)
        if origin:
            return self.resolve_dotted(origin)
        return None

    def class_bases(self, info: ClassInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        for expr in info.base_exprs:
            base: Optional[Symbol] = None
            if isinstance(expr, ast.Name):
                base = self.resolve_name(info.module, expr.id)
            elif isinstance(expr, ast.Attribute):
                dotted = info.module.imports.dotted(expr)
                if dotted:
                    base = self.resolve_dotted(dotted)
            if isinstance(base, ClassInfo):
                out.append(base)
        return out

    def lookup_method(self, info: ClassInfo,
                      name: str) -> Optional[FunctionInfo]:
        """Find ``name`` on ``info`` or (depth-first) its bases."""
        seen: Set[str] = set()
        stack = [info]
        while stack:
            cls = stack.pop(0)
            if cls.qname in seen:
                continue
            seen.add(cls.qname)
            method = cls.methods.get(name)
            if method is not None:
                return method
            stack.extend(self.class_bases(cls))
        return None

    def class_fields(self, info: ClassInfo) -> Dict[str, ast.AnnAssign]:
        """Declared fields, own class last so overrides win."""
        fields: Dict[str, ast.AnnAssign] = {}
        for base in self.class_bases(info):
            fields.update(self.class_fields(base))
        fields.update(info.fields)
        return fields

    def add_call_edge(self, caller: str, callee: str) -> None:
        self.calls.setdefault(caller, set()).add(callee)

    def callees(self, qname: str) -> Set[str]:
        return self.calls.get(qname, set())


def build_index(paths: Sequence[Path],
                rel_to: Optional[Path] = None) -> ProjectIndex:
    """Parse every ``.py`` file under ``paths`` into a ProjectIndex."""
    index = ProjectIndex()
    for path in iter_python_files(paths):
        index.add_file(path, rel_to=rel_to)
    return index

