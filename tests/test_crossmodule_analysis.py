"""Whole-program analysis engine: project model + cross-module rules.

Synthetic mini-packages (built under ``tmp_path``) exercise each layer
in isolation:

* the **project model** — module indexing, relative-import resolution;
* the **import graph** — cycle detection, topological order;
* the **cross rule** (``telemetry-drift``) — firing and clean cases,
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

from repro.analysis.crossrules import ProjectContext, TelemetryDriftRule, run_cross_rules
from repro.analysis.graph import ImportGraph
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
        assert sorted(model.modules) == ["pkg", "pkg.mod"]
        tree = model.modules["pkg.mod"].source.tree
        assert [type(stmt).__name__ for stmt in tree.body] == ["ClassDef", "FunctionDef"]
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
        assert model.modules["pkg.main"].imports == {"pkg.helper"}

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
