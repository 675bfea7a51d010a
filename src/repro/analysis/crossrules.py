"""Cross-module rules: whole-program invariant verification.

A rule here needs facts from more than one file at once — exactly what
the per-file rules in :mod:`repro.analysis.rules` cannot see.  It runs
against a :class:`ProjectContext` (the package's modules and import
graph) and reports through the same
:class:`~repro.analysis.lint.Finding` type, so suppression comments,
JSON output, and the CLI exit-code contract all carry over.

One rule, ``telemetry-drift``: the emit side (registry factory calls,
``SelfReporter`` datapoints) and the query side (``.get()`` readers,
dashboard prefix tuples) of the metric namespace must agree.  It
registers in the one catalogue (:func:`~repro.analysis.lint.register`)
beside the per-file rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .graph import ImportGraph
from .lint import CrossRule, Finding, register
from .project import ModuleInfo, ProjectModel

__all__ = ["ProjectContext", "TelemetryDriftRule", "run_cross_rules"]


@dataclass
class ProjectContext:
    """Everything a cross-module rule may query, built once per package."""

    model: ProjectModel
    imports: ImportGraph

    @classmethod
    def build(cls, model: ProjectModel) -> "ProjectContext":
        return cls(model=model, imports=ImportGraph(model))


def run_cross_rules(ctx: ProjectContext, rules: Iterable[CrossRule]) -> List[Finding]:
    """Run rules over the context; findings sorted (path, line, rule)."""
    out: List[Finding] = []
    for rule in rules:
        out.extend(rule.check(ctx))
    out.sort(key=lambda f: (f.path, f.line, f.rule, f.col, f.message))
    return out


# ----------------------------------------------------------------------
# telemetry-drift
# ----------------------------------------------------------------------
#: trailing attributes that mark a registry handle as written to
_EMIT_ATTRS = frozenset({"inc", "add", "observe", "record", "set", "mark", "update"})
#: trailing attributes that mark a registry handle as read
_QUERY_ATTRS = frozenset(
    {"get", "snapshot", "quantile", "percentile", "rate", "value"}
)
#: registry factory methods whose first argument names the series
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram", "meter"})
#: derived series appended by the histogram exporter
_HISTOGRAM_SUFFIXES = (".p50", ".p95", ".p99", ".mean", ".count")


@dataclass(frozen=True)
class _MetricSite:
    name: str
    module: str
    line: int
    col: int
    is_histogram: bool


@register
class TelemetryDriftRule(CrossRule):
    """Emitted and queried metric namespaces must agree.

    Emit sites are registry-factory calls whose handle is written
    (``...counter("proxy.retries").inc()``) plus ``SelfReporter``
    ``_datapoint`` writes; query sites are handles that are read
    (``....get()``) and dashboard prefix tuples (module-level tuples
    of dot-terminated string literals).  A bare handle (assigned and
    used later) is counted on both sides — flow-insensitively it both
    creates and may read the series.  Dynamic (f-string) names are
    skipped: they emit unknown names, so only exact-name queries are
    checked against the emitted set, never prefixes.
    """

    id = "telemetry-drift"
    summary = "metric names must be both emitted and queried somewhere"

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        emits: List[_MetricSite] = []
        queries: List[_MetricSite] = []
        prefixes: Set[str] = set()
        for name in sorted(ctx.model.modules):
            module = ctx.model.modules[name]
            self._collect_sites(module, emits, queries)
            prefixes |= self._collect_prefixes(module)

        emitted_names: Set[str] = set()
        for site in emits:
            emitted_names.add(site.name)
            if site.is_histogram:
                emitted_names.update(
                    site.name + suffix for suffix in _HISTOGRAM_SUFFIXES
                )
        queried_names = {site.name for site in queries}
        emitted_heads = {name.split(".", 1)[0] for name in emitted_names}

        def covered(name: str) -> bool:
            if name in queried_names:
                return True
            return any(name.startswith(prefix) for prefix in prefixes)

        seen: Set[Tuple[str, str]] = set()
        for site in emits:
            variants = [site.name]
            if site.is_histogram:
                variants += [site.name + s for s in _HISTOGRAM_SUFFIXES]
            if any(covered(v) for v in variants):
                continue
            key = ("emit", site.name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                ctx.model.modules[site.module],
                site.line,
                site.col,
                f"metric '{site.name}' is emitted but never queried — no "
                "reader calls .get() on it and no dashboard prefix tuple "
                "covers it; wire it into a panel or drop the emission",
            )
        for site in queries:
            if site.name in emitted_names:
                continue
            if site.name.split(".", 1)[0] not in emitted_heads:
                # Data-series namespaces (sensor names etc.) are out of
                # scope; only self-telemetry families are checked.
                continue
            key = ("query", site.name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                ctx.model.modules[site.module],
                site.line,
                site.col,
                f"metric '{site.name}' is queried but never emitted — the "
                "reader will only ever see zeros; fix the name or add the "
                "emitting site",
            )

    # ------------------------------------------------------------------
    def _collect_sites(
        self,
        module: ModuleInfo,
        emits: List[_MetricSite],
        queries: List[_MetricSite],
    ) -> None:
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(module.source.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(module.source.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            if "." not in name or " " in name:
                continue
            site = _MetricSite(
                name=name,
                module=module.name,
                line=node.lineno,
                col=node.col_offset,
                is_histogram=func.attr == "histogram",
            )
            if func.attr == "_datapoint":
                emits.append(site)
                continue
            if func.attr not in _METRIC_FACTORIES:
                continue
            trailing = parents.get(node)
            if isinstance(trailing, ast.Attribute):
                if trailing.attr in _EMIT_ATTRS:
                    emits.append(site)
                    continue
                if trailing.attr in _QUERY_ATTRS:
                    queries.append(site)
                    continue
            # Bare handle: registered and possibly read elsewhere.
            emits.append(site)
            queries.append(site)

    @staticmethod
    def _collect_prefixes(module: ModuleInfo) -> Set[str]:
        out: Set[str] = set()
        for stmt in module.source.tree.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if not isinstance(value, (ast.Tuple, ast.List)) or len(value.elts) < 2:
                continue
            literals = [
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(literals) == len(value.elts) and all(
                lit.endswith(".") for lit in literals
            ):
                out.update(literals)
        return out
