"""The package pass of the one analysis run: ``telemetry-drift``.

Synthetic mini-packages (built under ``tmp_path``) exercise:

* the **rule** — firing and clean cases, so rule regressions localize;
* the **one run** (``lint_paths``) — which packages get the package
  pass, per-file and package findings in one report, inline
  suppression, and the byte-identical determinism property.

Rule tests run only the rule under test (``lint_paths(...,
rules=[TelemetryDriftRule()])``) so the synthetic sources don't have to
satisfy the whole per-file catalogue at the same time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.rules import TelemetryDriftRule


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


def drift_findings(root: Path, files: Dict[str, str]) -> List[Finding]:
    """Unsuppressed telemetry-drift findings over a fresh mini-package."""
    return run_drift([make_package(root, files)]).unsuppressed


def run_drift(paths):
    return lint_paths(paths, rules=[TelemetryDriftRule()])


# ----------------------------------------------------------------------
# rule: telemetry-drift
# ----------------------------------------------------------------------
class TestTelemetryDrift:
    def _findings(self, tmp_path, read_src: str) -> List[Finding]:
        emit = (
            "class M:\n"
            "    def work(self, reg):\n"
            "        reg.counter('svc.done').inc()\n"
            "        reg.counter('svc.lost').inc()\n"
            "        reg.counter(f'{self.channel}.dyn').inc()\n"
        )
        return drift_findings(tmp_path, {"emit.py": emit, "read.py": read_src})

    def test_emitted_but_never_queried_flagged(self, tmp_path):
        found = self._findings(
            tmp_path,
            "def read(reg):\n    return reg.counter('svc.done').get()\n",
        )
        assert ["svc.lost" in f.message for f in found] == [True]
        assert "never queried" in found[0].message

    def test_queried_but_never_emitted_flagged_same_family_only(self, tmp_path):
        found = self._findings(
            tmp_path,
            "def read(reg):\n"
            "    a = reg.counter('svc.done').get()\n"
            "    b = reg.counter('svc.gone').get()\n"
            "    c = reg.counter('svc.lost').get()\n"
            "    d = reg.counter('other.thing').get()\n"
            "    return a + b + c + d\n",
        )
        # svc.gone: queried, never emitted, family 'svc' exists -> flag.
        # other.thing: foreign family (data series) -> ignored.
        assert len(found) == 1
        assert "svc.gone" in found[0].message
        assert "never emitted" in found[0].message

    def test_prefix_tuple_counts_as_query_coverage(self, tmp_path):
        found = self._findings(
            tmp_path,
            "_PANEL_PREFIXES = (\n    'svc.',\n    'aux.',\n)\n",
        )
        assert found == []

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
        # The p99 query is satisfied by the exporter-derived series and
        # in turn covers the base emission.
        assert drift_findings(tmp_path, files) == []

    def test_name_emitted_twice_reported_in_the_first_module(self, tmp_path):
        emit = "def work(reg):\n    reg.counter('svc.lost').inc()\n"
        # Path order puts Z.py before __init__.py ('Z' < '_'); dotted
        # module order puts the package (``pkg``) first.
        found = drift_findings(tmp_path, {"__init__.py": emit, "Z.py": emit})
        assert [Path(f.path).name for f in found] == ["__init__.py"]


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
        files["emit.py"] = "try:\n    pass\nexcept:\n    pass\n" + files["emit.py"]
        make_package(tmp_path, files)
        report = lint_paths([tmp_path / "pkg"])
        assert sorted(f.rule for f in report.unsuppressed) == [
            "broad-except",
            "telemetry-drift",
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
