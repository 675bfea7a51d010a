"""Tier-1 gate: the package rules must self-host clean.

Complements ``tests/test_static_analysis.py`` with the package half of
the one analysis run:

* the run's package rules report no unsuppressed finding over
  ``src/repro`` — any cross-module finding (telemetry drift) that is
  not waived inline fails the suite;
* the kept package rules must actually be registered and listed (an
  engine that silently loads zero rules would "pass" vacuously).

Both read the session's one full-tree run (``self_host`` in
``conftest.py``) or the rule catalogue; neither analyses the tree again.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import Rule, all_rules

from .test_static_analysis import KEPT_RULES

REPO_ROOT = Path(__file__).parent.parent
EXPECTED_CROSS_RULES = {rule for rule, kind in KEPT_RULES.items() if kind == "package"}


class TestProjectSelfHost:
    def test_whole_program_analysis_clean_against_baseline(self, self_host):
        """Inline waivers are the baseline: nothing else may be reported."""
        proc, report = self_host
        assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
        unwaived = [
            f
            for f in report["findings"]
            if f["rule"] in EXPECTED_CROSS_RULES and not f["suppressed"]
        ]
        assert unwaived == []
        assert report["files_checked"] > 50  # the real tree, not a stub

    def test_rule_catalogue_lists_cross_rules(self):
        registered = {
            r.id for r in all_rules() if type(r).check_package is not Rule.check_package
        }
        assert registered == EXPECTED_CROSS_RULES
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
        assert EXPECTED_CROSS_RULES <= listed
