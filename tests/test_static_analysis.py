"""Tier-1 static-analysis gate: repro-lint + ruff + mypy.

Three layers, in decreasing order of availability:

* **repro-lint** (``python -m repro.analysis``) is stdlib-only and
  always runs: the tree must self-host with zero unsuppressed
  findings.  One run covers the per-file rules over every file and the
  whole-program rules over ``src/repro``; the session makes it once
  (the ``self_host`` fixture in ``conftest.py``) and every assertion
  about the real tree reads that run.
* **ruff** and **mypy** are optional toolchain extras
  (``pip install -e .[analysis]``); their gates run when the tool is
  importable and skip otherwise, so the tier-1 suite stays runnable in
  minimal environments.  Their configuration lives in
  ``pyproject.toml``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.lint import SourceFile, iter_python_files, package_roots

REPO_ROOT = Path(__file__).parent.parent
ANALYSIS_TARGETS = ["src", "tests", "benchmarks", "examples"]

#: The one catalogue: twelve per-file rules and three whole-program rules.
KEPT_RULES = {
    "ack-escape",
    "broad-except",
    "deadline-free-rpc",
    "float-equality",
    "frozen-setattr",
    "guarded-by",
    "guarded-helper-path",
    "mutable-default",
    "rogue-registry",
    "telemetry-drift",
    "unbounded-cache",
    "unbounded-retry",
    "unbounded-time-range",
    "unseeded-rng",
    "unsuppressed-alert-emit",
}

#: The tree's justified inline waivers, by rule.
EXPECTED_SUPPRESSED = {
    "broad-except": 1,
    "unbounded-cache": 2,
    "unbounded-time-range": 2,
}


def _run(cmd, **kwargs):
    env = kwargs.pop("env", None)
    if env is None:
        import os

        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
    return subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600, env=env,
        **kwargs,
    )


def _module_command(module, binary=None):
    if binary and shutil.which(binary):
        return [binary]
    try:
        __import__(module)
        return [sys.executable, "-m", module]
    except ImportError:
        return None


class TestReproLint:
    def test_self_host_clean(self, self_host):
        """The whole tree analyses clean (suppressions must be justified inline)."""
        proc, _ = self_host
        assert proc.returncode == 0, (
            f"repro-lint findings:\n{proc.stdout}\n{proc.stderr}"
        )

    def test_json_report_shape(self, self_host):
        _, report = self_host
        assert report["unsuppressed"] == 0
        assert report["files_checked"] > 100
        # The deliberate waivers stay visible in the report, and they
        # are the only findings.
        assert report["suppressed"] == len(report["findings"])
        assert all(f["suppressed"] for f in report["findings"])
        assert Counter(f["rule"] for f in report["findings"]) == EXPECTED_SUPPRESSED

    def test_whole_program_rules_cover_src_repro(self):
        """The default run finds one program: the package, not the test suite."""
        inits = [
            SourceFile(path, path.read_text())
            for path in iter_python_files(REPO_ROOT / t for t in ANALYSIS_TARGETS)
            if path.name == "__init__.py"
        ]
        assert package_roots(inits) == [REPO_ROOT / "src" / "repro"]

    def test_rule_catalogue_lists_all_eight(self):
        """The eight original per-file rules, and exactly the other kept ones."""
        proc = _run([sys.executable, "-m", "repro.analysis", "--list-rules"])
        assert proc.returncode == 0
        listed = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
        assert listed == sorted(KEPT_RULES)

    def test_exit_code_on_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        proc = _run([sys.executable, "-m", "repro.analysis", str(bad)])
        assert proc.returncode == 1
        assert "unseeded-rng" in proc.stdout

    def test_exit_code_without_python_files(self, tmp_path):
        proc = _run([sys.executable, "-m", "repro.analysis", str(tmp_path)])
        assert proc.returncode == 2

    def test_runtime_import_does_not_load_the_linter(self):
        """Taking an audited lock loads raceaudit, not the analysis engine."""
        proc = _run(
            [
                sys.executable,
                "-c",
                "import sys, repro.tsdb.publish; print(sorted(m for m in "
                "sys.modules if m.startswith('repro.analysis')))",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.replace("'", '"')) == [
            "repro.analysis",
            "repro.analysis.raceaudit",
        ]

    def test_runtime_import_does_not_load_scipy_stats(self):
        """The detector's statistics come from ``scipy.special``; importing
        ``scipy.stats`` (and the ``scipy.spatial`` it pulls in) roughly
        doubled the cost of ``import repro``."""
        proc = _run(
            [
                sys.executable,
                "-c",
                "import sys, repro; print(sorted(m for m in "
                "('scipy.stats', 'scipy.spatial') if m in sys.modules))",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(
    _module_command("ruff", "ruff") is None, reason="ruff is not installed"
)
def test_ruff_clean():
    proc = _run(_module_command("ruff", "ruff") + ["check", "."])
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}\n{proc.stderr}"


@pytest.mark.skipif(_module_command("mypy") is None, reason="mypy is not installed")
def test_mypy_strict_tier_clean():
    """Strict typing on core/, sparklet/, tsdb/publish.py, analysis/, chaos/."""
    proc = _run(_module_command("mypy") + ["--config-file", "pyproject.toml"])
    assert proc.returncode == 0, f"mypy findings:\n{proc.stdout}\n{proc.stderr}"
