"""Whole-program project model: the substrate for cross-module rules.

Per-file linting (:mod:`repro.analysis.lint`) sees one module at a
time, which is exactly the blind spot every recent subsystem invariant
lives in: a ``# guarded-by:`` lock contract crossed by a helper call
chain, a telemetry name emitted in ``tsdb/`` and queried in ``viz/``,
an ingest batch whose accounting sink lives two callbacks away.  This
module parses an entire package **once** into an indexed model that
cross-module rules (:mod:`repro.analysis.crossrules`) can query:

* :class:`ModuleInfo` — one parsed module: its :class:`SourceFile`
  (suppressions included) and resolved import alias table.
* :class:`FunctionInfo` — one function/method with a pre-computed
  summary: outgoing :class:`CallSite`\\ s (lexically-held locks at each
  site, scheduled-callback edges), ``assert_holds`` contracts, and the
  nested defs/lambdas folded in (closures used as callbacks belong to
  their owner's behaviour).
* :class:`ClassInfo` — methods, base names, and the
  ``self.<attr> -> constructed class`` bindings the call graph uses to
  resolve calls through instance attributes.
* :class:`ProjectModel` — the symbol tables the
  :class:`~repro.analysis.graph.ImportGraph` and
  :class:`~repro.analysis.graph.CallGraph` are built on.

The one analysis run (:func:`~repro.analysis.lint.lint_paths`) hands
the model the files it already parsed; :meth:`ProjectModel.build`
parses the tree itself only when called without them.  Everything is
derived deterministically from file contents — no timestamps, no
filesystem order (directories are walked sorted) — so two runs over the
same tree produce byte-identical reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .lint import SourceFile, dotted_expr, iter_python_files

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectError",
    "ProjectModel",
]


class ProjectError(ValueError):
    """The project root is not an analyzable package tree."""


@dataclass(frozen=True)
class CallSite:
    """One outgoing call from a function's summary.

    ``callee`` is the dotted expression as written (``self._drain``,
    ``np.asarray``, ``assert_holds``); resolution to a
    :class:`FunctionInfo` happens in the call graph.  ``held_locks``
    are the dotted lock expressions lexically held at the site
    (``with self._lock:`` contributes ``self._lock``).  ``scheduled``
    marks callback-reference edges (``sim.schedule(d, self._tick)``)
    rather than direct invocations.
    """

    callee: str
    line: int
    col: int
    held_locks: Tuple[str, ...]
    scheduled: bool = False


class FunctionInfo:
    """A function or method plus the summary cross-rules query."""

    def __init__(
        self,
        qualname: str,
        name: str,
        module: "ModuleInfo",
        node: ast.AST,
        owner_class: Optional[str] = None,
    ) -> None:
        self.qualname = qualname
        self.name = name
        self.module = module
        self.node = node
        #: Qualified name of the owning class, or ``None`` for
        #: module-level functions.
        self.owner_class = owner_class
        self.lineno: int = getattr(node, "lineno", 1)
        self.calls: List[CallSite] = []
        #: Dotted lock expressions this function declares held via
        #: ``assert_holds(self.<lock>)`` — its caller-side contract.
        self.asserted_locks: Set[str] = set()
        self._summarize()

    # ------------------------------------------------------------------
    def _summarize(self) -> None:
        """One pass over the body collecting calls and held locks.

        Nested function defs and lambdas are folded into this summary:
        a closure handed to ``schedule``/``network.send`` acts on its
        owner's behalf, so its calls and accesses belong here.
        """
        body = getattr(self.node, "body", [])
        for stmt in body:
            self._scan(stmt, held=())

    def _scan(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                dotted = dotted_expr(item.context_expr)
                if dotted is not None:
                    acquired.append(dotted)
                self._scan(item.context_expr, held)
            inner = held + tuple(acquired)
            for child in node.body:
                self._scan(child, inner)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held)
            for child in ast.iter_child_nodes(node):
                self._scan(child, held)
            return
        # Nested defs/lambdas: fold their bodies into this summary, but
        # with no lexically-held locks — a closure handed to the
        # scheduler runs later, after the ``with`` block has exited.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.body:
                self._scan(child, ())
            return
        if isinstance(node, ast.Lambda):
            self._scan(node.body, ())
            return
        for child in ast.iter_child_nodes(node):
            self._scan(child, held)

    def _record_call(self, node: ast.Call, held: Tuple[str, ...]) -> None:
        dotted = dotted_expr(node.func)
        if dotted is not None:
            self.calls.append(
                CallSite(dotted, node.lineno, node.col_offset, held)
            )
            tail = dotted.rpartition(".")[2]
            if tail == "assert_holds" and node.args:
                lock = dotted_expr(node.args[0])
                if lock is not None:
                    self.asserted_locks.add(lock)
            if tail in ("schedule", "send", "submit", "call_soon"):
                # Callback-reference edges: a bare function-valued
                # argument is a deferred call on this function's
                # behalf.  Deferred means no locks are held when it
                # eventually runs, so held_locks is empty.  Arguments
                # that resolve to nothing (plain data) simply produce
                # no call-graph edge.
                for arg in node.args:
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        ref = dotted_expr(arg)
                        if ref is not None:
                            self.calls.append(
                                CallSite(
                                    ref, node.lineno, node.col_offset,
                                    (), scheduled=True,
                                )
                            )


class ClassInfo:
    """One class: methods, bases, and attribute-type bindings."""

    def __init__(
        self, qualname: str, name: str, module: "ModuleInfo", node: ast.ClassDef
    ) -> None:
        self.qualname = qualname
        self.name = name
        self.module = module
        self.node = node
        self.lineno = node.lineno
        self.methods: Dict[str, FunctionInfo] = {}
        #: base-class names as written (resolution is best-effort).
        self.bases: List[str] = [
            b for b in (dotted_expr(base) for base in node.bases) if b is not None
        ]
        #: ``self.<attr>`` -> dotted constructor name assigned in
        #: ``__init__`` (``self.shuffle_manager = ShuffleManager()``).
        self.attr_constructors: Dict[str, str] = {}

    def collect_attr_constructors(self) -> None:
        """``self.<attr> = SomeClass(...)`` bindings from ``__init__``.

        Conditional assignments contribute too (both arms of a ternary),
        so ``self._submitter = Proxy(...) if p else Direct(...)`` yields
        no binding (ambiguous) but plain constructor calls resolve.
        """
        init = self.methods.get("__init__")
        if init is None:
            return
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                ctor = dotted_expr(value.func)
                if ctor is not None and ctor.rpartition(".")[2][:1].isupper():
                    self.attr_constructors[target.attr] = ctor


class ModuleInfo:
    """One parsed module plus its resolved import alias table."""

    def __init__(self, name: str, path: Path, source: SourceFile) -> None:
        self.name = name
        self.path = path
        self.source = source
        #: local alias -> absolute dotted target.  ``import numpy as
        #: np`` maps ``np -> numpy``; ``from .tsd import PutAck`` maps
        #: ``PutAck -> repro.tsdb.tsd.PutAck``.
        self.aliases: Dict[str, str] = {}
        #: project modules this module imports (absolute names).
        self.imports: Set[str] = set()
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    def resolve_name(self, dotted: str) -> str:
        """Rewrite a dotted expression through the import alias table."""
        head, sep, tail = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return target + sep + tail if sep else target


@dataclass
class ProjectModel:
    """The whole-program index: modules, symbols, graphs."""

    root: Path
    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: qualified class name -> info (``repro.tsdb.publish.BatchPublisher``)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: qualified function name -> info (methods use ``Class.method``)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: files that failed to parse: path -> error message
    parse_errors: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, root: Path | str, sources: Optional[Iterable[SourceFile]] = None
    ) -> "ProjectModel":
        """Index the ``.py`` files of the package at ``root``.

        ``root`` must be a package directory (e.g. ``src/repro``); the
        package's dotted prefix is derived from its ``__init__``
        ancestry so relative imports resolve to absolute names.
        ``sources`` are the package's files already parsed; without them
        the tree under ``root`` is parsed here.
        """
        root = Path(root)
        if not root.is_dir():
            raise ProjectError(f"project root {root} is not a directory")
        model = cls(root=root, package=cls._package_name(root))
        for source in sources if sources is not None else model._parse_tree():
            name = model._module_name(source.path)
            model.modules[name] = ModuleInfo(name, source.path, source)
        for module in model.modules.values():
            model._index_module(module)
        for info in model.classes.values():
            info.collect_attr_constructors()
        return model

    @staticmethod
    def _package_name(root: Path) -> str:
        """Dotted package name of ``root``, following ``__init__`` parents."""
        parts = [root.name]
        parent = root.parent
        while (parent / "__init__.py").exists():
            parts.append(parent.name)
            parent = parent.parent
        return ".".join(reversed(parts))

    def _module_name(self, path: Path) -> str:
        rel = path.relative_to(self.root).with_suffix("")
        parts = [p for p in rel.parts if p != "__init__"]
        return ".".join([self.package, *parts]) if parts else self.package

    def _parse_tree(self) -> List[SourceFile]:
        parsed: List[SourceFile] = []
        for path in iter_python_files([self.root]):
            try:
                parsed.append(SourceFile(path, path.read_text()))
            except SyntaxError as exc:
                self.parse_errors[str(path)] = f"line {exc.lineno}: {exc.msg}"
        return parsed

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        self._collect_imports(module)
        for stmt in module.source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{stmt.name}"
                info = FunctionInfo(qualname, stmt.name, module, stmt)
                module.functions[stmt.name] = info
                self.functions[qualname] = info
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        cls_info = ClassInfo(qualname, node.name, module, node)
        module.classes[node.name] = cls_info
        self.classes[qualname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_qual = f"{qualname}.{stmt.name}"
                info = FunctionInfo(
                    fn_qual, stmt.name, module, stmt, owner_class=qualname
                )
                cls_info.methods[stmt.name] = info
                self.functions[fn_qual] = info

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.aliases[local] = target
                    if alias.name.startswith(self.package):
                        module.imports.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.aliases[local] = f"{base}.{alias.name}"
                if base.startswith(self.package):
                    # ``from pkg.mod import X``: the dependency may be
                    # the module itself or a symbol inside it — record
                    # the deepest project module that exists.
                    module.imports.add(self._deepest_module(base, node))

    def _absolute_import_base(
        self, module: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: ``level`` strips that many trailing
        # components off the importing module's package path.
        parts = module.name.split(".")
        # A module's own package is its name minus the leaf (packages
        # themselves keep their name: repro.tsdb.__init__ -> repro.tsdb).
        is_pkg = module.path.name == "__init__.py"
        pkg_parts = parts if is_pkg else parts[:-1]
        strip = node.level - 1
        if strip > len(pkg_parts):
            return node.module
        base_parts = pkg_parts[: len(pkg_parts) - strip]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _deepest_module(self, base: str, node: ast.ImportFrom) -> str:
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.modules:
                return candidate
        return base

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.owner_class is None:
            return None
        return self.classes.get(fn.owner_class)

    def resolve_class(self, module: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        """Best-effort class resolution of a dotted constructor name."""
        resolved = module.resolve_name(dotted)
        found = self.classes.get(resolved)
        if found is not None:
            return found
        # ``module.Class`` written directly (rare): try as qualified.
        if resolved.rpartition(".")[0] in self.modules:
            return self.classes.get(resolved)
        # Same-module class.
        return module.classes.get(dotted)

    def iter_functions(self) -> List[FunctionInfo]:
        return [self.functions[name] for name in sorted(self.functions)]
