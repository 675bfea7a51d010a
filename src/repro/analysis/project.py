"""Whole-program project model: the substrate for cross-module rules.

Per-file linting (:mod:`repro.analysis.lint`) sees one module at a
time; a telemetry name emitted in ``tsdb/`` and queried in ``viz/`` is
invisible to it.  This module gathers an entire package **once** into
a model that the cross-module rules (:mod:`repro.analysis.crossrules`)
and the import-cycle notes read:

* :class:`ModuleInfo` — one parsed module: its :class:`SourceFile`
  (suppressions included) and the project modules it imports, with
  relative imports resolved to absolute dotted names.
* :class:`ProjectModel` — the package's modules, the input of
  :class:`~repro.analysis.graph.ImportGraph`.

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
from typing import Dict, Iterable, List, Optional, Set

from .lint import SourceFile, iter_python_files

__all__ = ["ModuleInfo", "ProjectError", "ProjectModel"]


class ProjectError(ValueError):
    """The project root is not an analyzable package tree."""


class ModuleInfo:
    """One parsed module plus the project modules it imports."""

    def __init__(self, name: str, path: Path, source: SourceFile) -> None:
        self.name = name
        self.path = path
        self.source = source
        #: project modules this module imports (absolute names).
        self.imports: Set[str] = set()


@dataclass
class ProjectModel:
    """The whole-program index: the package's modules and their imports."""

    root: Path
    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
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
            model._collect_imports(module)
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
    # imports
    # ------------------------------------------------------------------
    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(self.package):
                        module.imports.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_import_base(module, node)
                if base is not None and base.startswith(self.package):
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
