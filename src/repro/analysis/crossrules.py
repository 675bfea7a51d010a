"""Cross-module rules: whole-program invariant verification.

Each rule here needs facts from more than one file at once — exactly
what the per-file rules in :mod:`repro.analysis.rules` cannot see.
They run against a :class:`ProjectContext` (symbol tables + import
graph + call graph) and report through the same
:class:`~repro.analysis.lint.Finding` type, so suppression comments,
JSON output, and the CLI exit-code contract all carry over.

The three rules mirror subsystem invariants the runtime layers enforce
dynamically:

* ``guarded-helper-path`` — static counterpart of ``raceaudit``:
  every call edge into a helper that declares
  ``assert_holds(self.<lock>)`` must lexically hold that lock (or
  re-assert it, propagating the obligation to its own callers).
  Scheduled-callback edges hold nothing by construction.
* ``telemetry-drift`` — the emit side (registry factory calls,
  ``SelfReporter`` datapoints) and the query side (``.get()`` readers,
  dashboard prefix tuples) of the metric namespace must agree.
* ``ack-escape`` — in the proxy/publisher ingest path, every failure
  handler and every ``except`` block inside an accounting class must
  reach a conservation sink (an ``on_ack`` call or a
  written/failed/dead-lettered ledger write).

They register in the one catalogue (:func:`~repro.analysis.lint.register`)
beside the per-file rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .graph import CallGraph, ImportGraph
from .lint import CrossRule, Finding, dotted_expr, register
from .project import ClassInfo, FunctionInfo, ModuleInfo, ProjectModel

__all__ = [
    "AckEscapeRule",
    "GuardedHelperPathRule",
    "ProjectContext",
    "TelemetryDriftRule",
    "run_cross_rules",
]


@dataclass
class ProjectContext:
    """Everything a cross-module rule may query, built once per package."""

    model: ProjectModel
    imports: ImportGraph
    calls: CallGraph

    @classmethod
    def build(cls, model: ProjectModel) -> "ProjectContext":
        return cls(model=model, imports=ImportGraph(model), calls=CallGraph(model))


def run_cross_rules(ctx: ProjectContext, rules: Iterable[CrossRule]) -> List[Finding]:
    """Run rules over the context; findings sorted (path, line, rule)."""
    out: List[Finding] = []
    for rule in rules:
        out.extend(rule.check(ctx))
    out.sort(key=lambda f: (f.path, f.line, f.rule, f.col, f.message))
    return out


# ----------------------------------------------------------------------
# 1. guarded-helper-path
# ----------------------------------------------------------------------
def _lock_tail(dotted: str) -> str:
    return dotted.rpartition(".")[2]


@register
class GuardedHelperPathRule(CrossRule):
    """Callers of ``assert_holds`` helpers must hold the asserted lock.

    The runtime contract is one-sided: the helper crashes (under
    raceaudit) when entered unlocked, but only on paths the chaos
    harness happens to exercise.  This closes it statically: every
    resolved call edge into a contract-carrying function is checked
    for the lock being lexically held at the call site.  A caller that
    re-asserts the same lock satisfies the edge — the obligation
    propagates outward to *its* callers, which are checked the same
    way.  Lock identity is matched on the attribute tail
    (``self._state_lock`` vs a cross-object ``self.pub._state_lock``).
    """

    id = "guarded-helper-path"
    summary = (
        "call chains into assert_holds() helpers must hold the asserted lock"
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for fn in ctx.model.iter_functions():
            if not fn.asserted_locks:
                continue
            required = {_lock_tail(lock) for lock in fn.asserted_locks}
            for edge in ctx.calls.callers(fn.qualname):
                caller = ctx.model.functions.get(edge.caller)
                if caller is None or caller.qualname == fn.qualname:
                    continue
                held = {_lock_tail(lock) for lock in edge.site.held_locks}
                held |= {_lock_tail(lock) for lock in caller.asserted_locks}
                missing = sorted(required - held)
                if not missing:
                    continue
                how = (
                    "via a scheduled callback (no locks are held when it runs)"
                    if edge.site.scheduled
                    else "without holding it"
                )
                yield self.finding(
                    caller.module,
                    edge.site.line,
                    edge.site.col,
                    f"{caller.qualname} calls {fn.qualname} {how}; the callee "
                    f"asserts {', '.join(sorted(fn.asserted_locks))} "
                    f"(missing: {', '.join(missing)}) — hold the lock at the "
                    "call site or re-assert it in the caller",
                )


# ----------------------------------------------------------------------
# 2. telemetry-drift
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


# ----------------------------------------------------------------------
# 3. ack-escape
# ----------------------------------------------------------------------
_SINK_ATTR_RE = re.compile(r"written|failed|dead_letter|dropped")
_FAILURE_NAME_RE = re.compile(r"timeout|deadline|bounce|exhaust|fail")
_ACK_MODULE_TAILS = frozenset({"proxy", "publish"})


@register
class AckEscapeRule(CrossRule):
    """No batch may exit the ingest failure path unaccounted.

    Scope: classes in the proxy/publisher modules that *own* at least
    one conservation sink — a method that calls ``on_ack`` or writes a
    written/failed/dead-lettered ledger attribute.  (Classes with no
    sinks, like circuit breakers, do bookkeeping, not accounting.)
    Within scope, two escape shapes are flagged:

    * a failure-handler method (``*timeout*``, ``*deadline*``,
      ``*fail*``, …) from which no sink is reachable through the call
      graph — the failure is observed but the batch vanishes;
    * an ``except`` block that neither re-raises nor reaches a sink —
      the classic swallowed-exception escape hatch.
    """

    id = "ack-escape"
    summary = "ingest failure paths must reach ack-conservation accounting"

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for name in sorted(ctx.model.modules):
            if name.rpartition(".")[2] not in _ACK_MODULE_TAILS:
                continue
            module = ctx.model.modules[name]
            for cls_name in sorted(module.classes):
                yield from self._check_class(ctx, module, module.classes[cls_name])

    def _check_class(
        self, ctx: ProjectContext, module: ModuleInfo, cls: ClassInfo
    ) -> Iterator[Finding]:
        sinks = {
            m.qualname for m in cls.methods.values() if self._is_sink(m)
        }
        if not sinks:
            return
        reaches = {
            m.name
            for m in cls.methods.values()
            if ctx.calls.can_reach(m.qualname, sinks)
        }
        for meth_name in sorted(cls.methods):
            meth = cls.methods[meth_name]
            if (
                _FAILURE_NAME_RE.search(meth.name)
                and meth.name not in reaches
            ):
                yield self.finding(
                    module,
                    meth.lineno,
                    0,
                    f"failure handler {meth.qualname} never reaches an "
                    "ack-conservation sink (on_ack / written/failed/"
                    "dead-lettered ledger write) — the batch outcome escapes "
                    "accounting",
                )
            yield from self._check_handlers(module, cls, meth, reaches)

    def _check_handlers(
        self,
        module: ModuleInfo,
        cls: ClassInfo,
        meth: FunctionInfo,
        reaches: Set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(meth.node):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._handler_accounts(node, reaches):
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"except block in {meth.qualname} neither re-raises nor "
                "reaches an ack-conservation sink — a failed batch escapes "
                f"{cls.name}'s accounting here",
            )

    @staticmethod
    def _is_sink(meth: FunctionInfo) -> bool:
        if any(c.callee.rpartition(".")[2] == "on_ack" for c in meth.calls):
            return True
        for node in ast.walk(meth.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _SINK_ATTR_RE.search(node.attr)
            ):
                return True
        return False

    @staticmethod
    def _handler_accounts(handler: ast.ExceptHandler, reaches: Set[str]) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _SINK_ATTR_RE.search(node.attr)
            ):
                return True
            if isinstance(node, ast.Call):
                dotted = dotted_expr(node.func)
                if dotted is None:
                    continue
                tail = dotted.rpartition(".")[2]
                if tail == "on_ack" or tail in reaches:
                    return True
        return False
