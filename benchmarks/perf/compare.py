"""Compare two result files written by ``run.py --out``.

    python benchmarks/perf/compare.py A.json B.json

One row per (metric, workload): both medians with their quartiles, the
ratio B/A *with its base* (A's median), and a verdict from the bounds in
``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  either side's own spread (Q3 - Q1 over the median) is
                wider than the bound, so the runs cannot tell;
``-``           a per-layer metric: it has no bound, the ratio is shown.

Exits 1 when any row is ``worse`` or ``unresolved``.  Quick (smoke)
results are refused: their sizes are not the benchmark's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> values`` over the file's runs."""
    data = json.loads(Path(path).read_text())
    if data["quick"]:
        sys.exit(f"compare.py: {path} holds --quick runs; they are never compared")
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in data["runs"]:
        if not run["correct"]:
            sys.exit(f"compare.py: {path} holds a run that failed its checks: {run['failures']}")
        for metric, entry in run["metrics"].items():
            values.setdefault((metric, run["workload"]), []).append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], spec: Dict[str, Any]) -> str:
    bound = spec["bound"]
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    if max((a3 - a1) / a2, (b3 - b1) / b2) > bound:
        return "unresolved"
    change = (b2 - a2) / a2 if spec["better"] == "lower" else (a2 - b2) / a2
    return "worse" if change > bound else "ok"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    bounded = {
        m["name"]: m
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    print(f"{'metric':34s} {'workload':15s} {'A median [Q1, Q3]':>38s} "
          f"{'B median [Q1, Q3]':>38s}  ratio B/A (base)        verdict")
    bad = 0
    for key in sorted(set(a) & set(b), key=lambda k: (k[1], k[0])):
        metric, workload = key
        (a1, a2, a3), (b1, b2, b3) = quartiles(a[key]), quartiles(b[key])
        result = verdict(a[key], b[key], bounded[metric]) if metric in bounded else "-"
        bad += result in ("worse", "unresolved")
        ratio = f"{b2 / a2:.3f}x of {a2:.6g}" if a2 else "n/a (base is 0)"
        print(f"{metric:34s} {workload:15s} "
              f"{a2:14.6g} [{a1:9.5g}, {a3:9.5g}] {b2:14.6g} [{b1:9.5g}, {b3:9.5g}]  "
              f"{ratio:24s} {result}")
    for key in sorted(set(a) ^ set(b)):
        print(f"only in one file: {key[0]} @ {key[1]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
