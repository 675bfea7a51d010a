"""Smoke test of the benchmark command in ``--quick`` mode.

Run explicitly: ``pytest benchmarks/perf/test_smoke.py`` (tier-1
``testpaths`` does not collect this directory).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, str(HERE / args[0]), *args[1:]],
        capture_output=True, text=True, timeout=300, **kwargs)


def printed_metrics(stdout, workload):
    """``name -> unit`` from the ``name workload value unit n=..`` lines."""
    rows = [line.split() for line in stdout.splitlines()]
    return {r[0]: r[3] for r in rows if len(r) == 5 and r[1] == workload}


def test_spec_matches_the_code():
    sys.path.insert(0, str(HERE))
    import run as bench
    import spans

    assert tuple(WORKLOADS) == bench.WORKLOAD_NAMES
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_declared_metric(tmp_path, trace):
    out = tmp_path / "quick.json"
    proc = run("run.py", "--quick", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for workload in WORKLOADS:
        assert printed_metrics(proc.stdout, workload) == declared
    data = json.loads(out.read_text())
    assert data["quick"] is True
    assert [r["workload"] for r in data["runs"]] == WORKLOADS
    for record in data["runs"]:
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert set(record["metrics"]) == set(declared)

    # The last line of a single run is the result object the driver reads.
    single = run("run.py", "--quick", "--workload", "batch_score", "--trace", str(trace))
    result = json.loads(single.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    # Smoke sizes are not the benchmark's: compare.py refuses them.
    refused = run("compare.py", str(out), str(out))
    assert refused.returncode != 0 and "quick" in refused.stderr
