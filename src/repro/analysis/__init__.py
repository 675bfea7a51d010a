"""Static analysis and runtime race auditing for the reproduction.

Three layers keep the concurrent hot path trustworthy as the codebase
grows (the paper's low-false-alarm claim is only as good as the
invariants the code maintains):

* **repro-lint**, one analysis run (``python -m repro.analysis
  [paths]``): :mod:`repro.analysis.lint` parses each file once and runs
  the rules of :mod:`repro.analysis.rules` — per file (seeded RNG, no
  broad excepts, ``guarded-by`` lock annotations, bounded retries,
  caches and time ranges, alerts through the dedup layer) and, for
  telemetry-name agreement, over the parsed files of each package it
  finds.
* :mod:`repro.analysis.raceaudit` — a runtime lock-order recorder and
  ``assert_holds`` guard, zero-cost when disabled, enabled in tests to
  fail on deadlock-shaped lock cycles and unguarded state access.
* The mypy configuration in ``pyproject.toml`` — strict typing on
  ``core/``, ``sparklet/`` and ``tsdb/publish.py``, permissive
  elsewhere, enforced by ``tests/test_static_analysis.py``.

Nothing is re-exported here: runtime code imports
:mod:`repro.analysis.raceaudit` directly, so taking an audited lock
does not load the linter.
"""
