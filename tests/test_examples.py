"""Smoke tests: the shipped examples must run end-to-end.

Each example is executed in-process (``runpy``) with stdout captured;
the slowest two (full ingestion sweep, fleet dashboard) are exercised
in their fast/small configurations.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "power:" in out
        assert "false-discovery proportion" in out

    def test_procedure_comparison_fast(self, capsys):
        run_example("procedure_comparison.py", ["--fast"])
        out = capsys.readouterr().out
        assert "bh" in out and "bonferroni" in out
        assert "0.4013" in out or "0.40" in out  # the 40% jump at m=10

    def test_spark_batch_training(self, capsys):
        run_example("spark_batch_training.py")
        out = capsys.readouterr().out
        assert "top words: [('the', 3), ('fox', 2)," in out
        assert "T² agreement vs local NumPy on fresh rows: True" in out
        assert "covariance agreement vs one update: True" in out
        assert "models cached" in out

    def test_streaming_training(self, capsys):
        run_example("streaming_training.py")
        out = capsys.readouterr().out
        assert "refreshed unit" in out
        assert "fault=shift" in out or "fault=drift" in out

    def test_failure_injection(self, capsys):
        run_example("failure_injection.py")
        out = capsys.readouterr().out
        assert "durability holds" in out

    def test_chaos_demo(self, capsys):
        run_example("chaos_demo.py")
        out = capsys.readouterr().out
        assert "tsd_crash" in out and "partition" in out
        assert "breaker ejections" in out
        assert "conservation holds" in out

    def test_observability_demo(self, capsys):
        run_example("observability_demo.py")
        out = capsys.readouterr().out
        assert "flame summary for ingest batch" in out
        assert "proxy.batch" in out and "regionserver.put" in out
        assert "proxy.ack_latency.p99" in out
        assert "exported to" in out
        assert "platform-health panel" in out

    def test_serving_demo(self, capsys):
        run_example("serving_demo.py")
        out = capsys.readouterr().out
        assert "conservation: issued=" in out
        assert "not_modified=True" in out
        assert "status=stale" in out and "still answering" in out
        assert "after restart: status=miss" in out

    def test_lifecycle_demo(self, capsys):
        run_example("lifecycle_demo.py")
        out = capsys.readouterr().out
        assert "served from tier=1h mode=identical" in out
        assert "bit-identical to raw: True" in out
        assert "served from tier=pooled:1h" in out
        assert "backfill windows re-materialized: 2" in out
        assert "conservation holds: ok=True" in out

    def test_replicated_reads_demo(self, capsys):
        run_example("replicated_reads_demo.py")
        out = capsys.readouterr().out
        assert "mode=strong staleness=0.000 points=600" in out
        assert "timeline probe: complete=True points=600" in out
        assert "degraded=True" in out
        assert "acked points read back=600/600" in out

    # fleet_dashboard.py and ingestion_scaling.py run multi-minute
    # simulations; experiments E8 and E1/E6/E7 exercise the same paths
    # (their quick forms replay in tests/test_bench_harness.py).

    def test_all_examples_have_docstrings_and_main(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            assert source.startswith("#!/usr/bin/env python3"), path.name
            assert '"""' in source.split("\n", 2)[1] or '"""' in source, path.name
            assert 'if __name__ == "__main__":' in source, path.name
