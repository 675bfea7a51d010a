"""Whole-program analysis engine: project model + cross-module rules.

Synthetic mini-packages (built under ``tmp_path``) exercise each layer
in isolation:

* the **project model** — symbol indexing, relative-import resolution,
  ``self.<attr>`` constructor bindings;
* the **import graph** — cycle detection, topological order;
* the **call graph** — ``self`` methods, inheritance, attribute
  dispatch, ``from``-imports, scheduled-callback edges;
* each **cross rule** — one firing case and one clean case per rule,
  so rule regressions localize;
* the **one run** (``lint_paths``) — which packages get the
  whole-program pass, parse reuse, inline suppression of cross rules,
  and the byte-identical determinism property.

Rule tests run only the rule under test (``run_cross_rules(ctx,
[Rule()])``) so the synthetic sources don't have to satisfy the whole
per-file catalogue at the same time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.crossrules import (
    AckEscapeRule,
    GuardedHelperPathRule,
    ProjectContext,
    TelemetryDriftRule,
    run_cross_rules,
)
from repro.analysis.graph import CallGraph, ImportGraph
from repro.analysis.lint import Finding, SourceFile, lint_paths
from repro.analysis.project import ProjectModel


def make_package(root: Path, files: Dict[str, str], name: str = "pkg") -> Path:
    """Materialize a mini-package; returns the package root directory."""
    pkg = root / name
    pkg.mkdir(parents=True, exist_ok=True)
    all_files = {"__init__.py": "", **files}
    for rel, text in all_files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.name != "__init__.py" and not (path.parent / "__init__.py").exists():
            (path.parent / "__init__.py").write_text("")
        path.write_text(text)
    return pkg


def context_for(root: Path, files: Dict[str, str]) -> ProjectContext:
    return ProjectContext.build(ProjectModel.build(make_package(root, files)))


def rule_findings(ctx: ProjectContext, rule) -> List[Finding]:
    return [f for f in run_cross_rules(ctx, [rule]) if not f.suppressed]


# ----------------------------------------------------------------------
# project model
# ----------------------------------------------------------------------
class TestProjectModel:
    def test_indexes_modules_classes_functions(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "mod.py": "class A:\n    def m(self):\n        pass\n\n"
                "def top():\n    pass\n",
            },
        )
        model = ProjectModel.build(pkg)
        assert "pkg.mod" in model.modules
        assert "pkg.mod.A" in model.classes
        assert "pkg.mod.A.m" in model.functions
        assert "pkg.mod.top" in model.functions
        assert model.parse_errors == {}

    def test_relative_imports_resolve_to_absolute_names(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "helper.py": "class Worker:\n    def run(self):\n        pass\n",
                "main.py": "from .helper import Worker\n",
            },
        )
        model = ProjectModel.build(pkg)
        main = model.modules["pkg.main"]
        assert main.aliases["Worker"] == "pkg.helper.Worker"
        assert "pkg.helper" in main.imports

    def test_attr_constructor_bindings_from_init(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "helper.py": "class Worker:\n    def run(self):\n        pass\n",
                "main.py": (
                    "from .helper import Worker\n\n"
                    "class Owner:\n"
                    "    def __init__(self):\n"
                    "        self.worker = Worker()\n"
                    "        self.n = 3\n"
                ),
            },
        )
        model = ProjectModel.build(pkg)
        owner = model.classes["pkg.main.Owner"]
        assert owner.attr_constructors == {"worker": "Worker"}

    def test_parse_errors_are_collected_not_raised(self, tmp_path):
        pkg = make_package(tmp_path, {"bad.py": "def broken(:\n"})
        model = ProjectModel.build(pkg)
        assert len(model.parse_errors) == 1
        assert "pkg.bad" not in model.modules

    def test_build_reuses_the_given_parses(self, tmp_path):
        pkg = make_package(tmp_path, {"a.py": "x = 1\n"})
        sources = [
            SourceFile(path, path.read_text()) for path in sorted(pkg.glob("*.py"))
        ]
        model = ProjectModel.build(pkg, sources)
        assert [m.source for m in model.modules.values()] == sources

# ----------------------------------------------------------------------
# import graph
# ----------------------------------------------------------------------
class TestImportGraph:
    def test_detects_two_module_cycle(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "a.py": "from . import b\n",
                "b.py": "from . import a\n",
            },
        )
        graph = ImportGraph(ProjectModel.build(pkg))
        assert graph.cycles() == [("pkg.a", "pkg.b")]

    def test_acyclic_tree_has_no_cycles_and_topo_order(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {
                "base.py": "x = 1\n",
                "mid.py": "from .base import x\n",
                "top.py": "from .mid import x\n",
            },
        )
        graph = ImportGraph(ProjectModel.build(pkg))
        assert graph.cycles() == []
        order = graph.topo_order()
        assert order.index("pkg.base") < order.index("pkg.mid")
        assert order.index("pkg.mid") < order.index("pkg.top")

    def test_importers_of_is_reverse_of_imports_of(self, tmp_path):
        pkg = make_package(
            tmp_path,
            {"base.py": "x = 1\n", "top.py": "from .base import x\n"},
        )
        graph = ImportGraph(ProjectModel.build(pkg))
        assert graph.imports_of("pkg.top") == ("pkg.base",)
        assert graph.importers_of("pkg.base") == ("pkg.top",)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
_CALL_PKG = {
    "helper.py": (
        "class Worker:\n"
        "    def run(self):\n"
        "        pass\n"
    ),
    "base.py": (
        "class Base:\n"
        "    def shared(self):\n"
        "        pass\n"
    ),
    "main.py": (
        "from .base import Base\n"
        "from .helper import Worker\n"
        "from .util import tick\n"
        "\n"
        "class Owner(Base):\n"
        "    def __init__(self, sim):\n"
        "        self.worker = Worker()\n"
        "        self.sim = sim\n"
        "    def go(self):\n"
        "        self.worker.run()\n"
        "        self.shared()\n"
        "        tick()\n"
        "    def later(self):\n"
        "        self.sim.schedule(1.0, self.go)\n"
    ),
    "util.py": "def tick():\n    pass\n",
}


class TestCallGraph:
    def _graph(self, tmp_path) -> CallGraph:
        return CallGraph(ProjectModel.build(make_package(tmp_path, _CALL_PKG)))

    def test_resolves_self_attribute_dispatch(self, tmp_path):
        callees = {e.callee for e in self._graph(tmp_path).callees("pkg.main.Owner.go")}
        assert "pkg.helper.Worker.run" in callees

    def test_resolves_inherited_method(self, tmp_path):
        callees = {e.callee for e in self._graph(tmp_path).callees("pkg.main.Owner.go")}
        assert "pkg.base.Base.shared" in callees

    def test_resolves_from_imported_function(self, tmp_path):
        callees = {e.callee for e in self._graph(tmp_path).callees("pkg.main.Owner.go")}
        assert "pkg.util.tick" in callees

    def test_scheduled_callback_becomes_marked_edge(self, tmp_path):
        edges = self._graph(tmp_path).callees("pkg.main.Owner.later")
        scheduled = [e for e in edges if e.site.scheduled]
        assert [e.callee for e in scheduled] == ["pkg.main.Owner.go"]
        assert scheduled[0].site.held_locks == ()

    def test_reachability_crosses_modules(self, tmp_path):
        graph = self._graph(tmp_path)
        assert "pkg.util.tick" in graph.reachable_from("pkg.main.Owner.later")


# ----------------------------------------------------------------------
# rule: guarded-helper-path
# ----------------------------------------------------------------------
_GUARDED_SRC = (
    "from repro.analysis.raceaudit import assert_holds\n"
    "\n"
    "class Svc:\n"
    "    def __init__(self, sim):\n"
    "        self._lock = None\n"
    "        self._n = 0\n"
    "        self.sim = sim\n"
    "    def _bump(self):\n"
    "        assert_holds(self._lock)\n"
    "        self._n += 1\n"
    "    def good(self):\n"
    "        with self._lock:\n"
    "            self._bump()\n"
    "    def delegating(self):\n"
    "        assert_holds(self._lock)\n"
    "        self._bump()\n"
    "    def bad(self):\n"
    "        self._bump()\n"
    "    def bad_outer(self):\n"
    "        self.delegating()\n"
    "    def bad_scheduled(self):\n"
    "        self.sim.schedule(1.0, self._bump)\n"
)


class TestGuardedHelperPath:
    def test_unlocked_and_scheduled_calls_flagged_locked_ones_clean(self, tmp_path):
        ctx = context_for(tmp_path, {"svc.py": _GUARDED_SRC})
        found = rule_findings(ctx, GuardedHelperPathRule())
        by_line = {f.line: f.message for f in found}
        src_lines = _GUARDED_SRC.splitlines()
        flagged = {src_lines[line - 1].strip() for line in by_line}
        # bad() and bad_scheduled() call _bump unlocked; bad_outer()
        # calls delegating(), which re-asserts and propagates the
        # obligation outward.  good() and delegating() are clean.
        assert flagged == {
            "self._bump()",
            "self.sim.schedule(1.0, self._bump)",
            "self.delegating()",
        }
        scheduled = [m for m in by_line.values() if "scheduled callback" in m]
        assert len(scheduled) == 1

    def test_all_clean_when_every_caller_holds_the_lock(self, tmp_path):
        clean = _GUARDED_SRC.split("    def bad(self):")[0]
        ctx = context_for(tmp_path, {"svc.py": clean})
        assert rule_findings(ctx, GuardedHelperPathRule()) == []


# ----------------------------------------------------------------------
# rule: telemetry-drift
# ----------------------------------------------------------------------
class TestTelemetryDrift:
    def _ctx(self, tmp_path, read_src: str) -> ProjectContext:
        emit = (
            "class M:\n"
            "    def work(self, reg):\n"
            "        reg.counter('svc.done').inc()\n"
            "        reg.counter('svc.lost').inc()\n"
            "        reg.counter(f'{self.channel}.dyn').inc()\n"
        )
        return context_for(tmp_path, {"emit.py": emit, "read.py": read_src})

    def test_emitted_but_never_queried_flagged(self, tmp_path):
        ctx = self._ctx(
            tmp_path,
            "def read(reg):\n    return reg.counter('svc.done').get()\n",
        )
        found = rule_findings(ctx, TelemetryDriftRule())
        assert ["svc.lost" in f.message for f in found] == [True]
        assert "never queried" in found[0].message

    def test_queried_but_never_emitted_flagged_same_family_only(self, tmp_path):
        ctx = self._ctx(
            tmp_path,
            "def read(reg):\n"
            "    a = reg.counter('svc.done').get()\n"
            "    b = reg.counter('svc.gone').get()\n"
            "    c = reg.counter('svc.lost').get()\n"
            "    d = reg.counter('other.thing').get()\n"
            "    return a + b + c + d\n",
        )
        found = rule_findings(ctx, TelemetryDriftRule())
        # svc.gone: queried, never emitted, family 'svc' exists -> flag.
        # other.thing: foreign family (data series) -> ignored.
        assert len(found) == 1
        assert "svc.gone" in found[0].message
        assert "never emitted" in found[0].message

    def test_prefix_tuple_counts_as_query_coverage(self, tmp_path):
        ctx = self._ctx(
            tmp_path,
            "_PANEL_PREFIXES = (\n    'svc.',\n    'aux.',\n)\n",
        )
        assert rule_findings(ctx, TelemetryDriftRule()) == []

    def test_histogram_derived_series_count_as_emitted(self, tmp_path):
        files = {
            "emit.py": (
                "class M:\n"
                "    def work(self, reg):\n"
                "        reg.histogram('svc.latency').observe(1.0)\n"
            ),
            "read.py": (
                "def read(reg):\n"
                "    return reg.counter('svc.latency.p99').get()\n"
            ),
        }
        ctx = context_for(tmp_path, files)
        # The p99 query is satisfied by the exporter-derived series and
        # in turn covers the base emission.
        assert rule_findings(ctx, TelemetryDriftRule()) == []


# ----------------------------------------------------------------------
# rule: ack-escape
# ----------------------------------------------------------------------
_ACK_SRC = (
    "class Pub:\n"
    "    def __init__(self):\n"
    "        self.points_written = 0\n"
    "        self.points_failed = 0\n"
    "    def _finish(self, ok):\n"
    "        if ok:\n"
    "            self.points_written += 1\n"
    "        else:\n"
    "            self.points_failed += 1\n"
    "    def on_deadline(self):\n"
    "        self._finish(False)\n"
    "    def on_timeout(self):\n"
    "        self.noted = True\n"
    "    def pump(self):\n"
    "        try:\n"
    "            self.send()\n"
    "        except ValueError:\n"
    "            pass\n"
    "    def pump_accounted(self):\n"
    "        try:\n"
    "            self.send()\n"
    "        except ValueError:\n"
    "            self._finish(False)\n"
    "    def pump_reraises(self):\n"
    "        try:\n"
    "            self.send()\n"
    "        except ValueError:\n"
    "            raise\n"
    "    def send(self):\n"
    "        pass\n"
    "\n"
    "class Breaker:\n"
    "    def record_failure(self):\n"
    "        self.failures = 1\n"
)


class TestAckEscape:
    def test_escapes_flagged_accounted_paths_clean(self, tmp_path):
        ctx = context_for(tmp_path, {"proxy.py": _ACK_SRC})
        found = rule_findings(ctx, AckEscapeRule())
        messages = sorted(f.message for f in found)
        assert len(messages) == 2
        assert any("on_timeout" in m and "never reaches" in m for m in messages)
        assert any("pump" in m and "except block" in m for m in messages)
        assert not any("pump_accounted" in m or "pump_reraises" in m for m in messages)

    def test_scope_is_proxy_publish_modules_only(self, tmp_path):
        ctx = context_for(tmp_path, {"elsewhere.py": _ACK_SRC})
        assert rule_findings(ctx, AckEscapeRule()) == []

    def test_sinkless_classes_are_bookkeeping_not_accounting(self, tmp_path):
        breaker_only = _ACK_SRC.split("class Breaker:")[1]
        ctx = context_for(tmp_path, {"proxy.py": "class Breaker:" + breaker_only})
        # Breaker.record_failure matches the failure-name pattern but
        # the class owns no sink, so it is out of scope.
        assert rule_findings(ctx, AckEscapeRule()) == []


# ----------------------------------------------------------------------
# the one run
# ----------------------------------------------------------------------
_DRIFT_FILES = {
    "emit.py": (
        "class M:\n"
        "    def work(self, reg):\n"
        "        reg.counter('svc.done').inc()\n"
        "        reg.counter('svc.lost').inc()\n"
    ),
    "read.py": "def read(reg):\n    return reg.counter('svc.done').get()\n",
}


def run_drift(paths):
    return lint_paths(paths, rules=[TelemetryDriftRule()])


class TestOneRun:
    def test_package_found_below_a_given_directory(self, tmp_path):
        make_package(tmp_path, _DRIFT_FILES)
        report = run_drift([tmp_path])
        assert [f.path for f in report.unsuppressed] == [str(tmp_path / "pkg" / "emit.py")]

    def test_loose_files_and_test_suites_get_no_whole_program_pass(self, tmp_path):
        loose = tmp_path / "loose"
        loose.mkdir()
        for rel, text in _DRIFT_FILES.items():
            (loose / rel).write_text(text)
        make_package(tmp_path, _DRIFT_FILES, name="tests")
        report = run_drift([tmp_path])
        assert report.files_checked == 5 and report.ok

    def test_per_file_and_cross_findings_in_one_report(self, tmp_path):
        files = dict(_DRIFT_FILES)
        files["emit.py"] = "import random\nrandom.seed(0)\n" + files["emit.py"]
        make_package(tmp_path, files)
        report = lint_paths([tmp_path / "pkg"])
        assert sorted(f.rule for f in report.unsuppressed) == [
            "telemetry-drift",
            "unseeded-rng",
        ]


class TestCrossRuleSuppression:
    def test_inline_suppression_covers_cross_rules(self, tmp_path):
        files = dict(_DRIFT_FILES)
        files["emit.py"] = files["emit.py"].replace(
            "reg.counter('svc.lost').inc()",
            "reg.counter('svc.lost').inc()  # repro-lint: ignore[telemetry-drift]",
        )
        pkg = make_package(tmp_path, files)
        report = run_drift([pkg])
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["telemetry-drift"]


# ----------------------------------------------------------------------
# determinism property
# ----------------------------------------------------------------------
_NAMES = ("svc.done", "svc.lost", "aux.seen", "aux.gone", "svc.latency")


class TestDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(
        emitted=st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4),
        queried=st.lists(st.sampled_from(_NAMES), min_size=0, max_size=3),
    )
    def test_two_runs_over_same_tree_are_byte_identical(self, emitted, queried):
        emit_body = "".join(
            f"        reg.counter('{name}').inc()\n" for name in emitted
        )
        read_body = "".join(
            f"    reg.counter('{name}').get()\n" for name in queried
        ) or "    pass\n"
        files = {
            "emit.py": f"class M:\n    def work(self, reg):\n{emit_body}",
            "read.py": f"def read(reg):\n{read_body}",
        }
        with tempfile.TemporaryDirectory() as tmp:
            pkg = make_package(Path(tmp), files)
            first, second = (run_drift([pkg]) for _ in range(2))
            assert first.render_json() == second.render_json()
            assert first.render() == second.render()
