"""Fixtures shared across test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def self_host():
    """The session's one full-tree run: ``python -m repro.analysis --json``.

    Both static-analysis gate modules read this run, so a test session
    analyses the real tree once.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--json"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600, env=env,
    )
    return proc, json.loads(proc.stdout)
