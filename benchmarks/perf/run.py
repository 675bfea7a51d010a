"""Wall-clock benchmark: five workloads, end-to-end and per-layer metrics.

    python benchmarks/perf/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in this interpreter and prints every metric as
``name  workload  value  unit  n=samples``, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured on unwrapped
code; with ``--trace 1`` (or ``--traced``) they are the per-layer ones,
measured with the span recorder of ``spans.py`` installed.  With several
workloads (or none, meaning all) or ``--runs K``, each run happens in a
fresh interpreter of its own, one at a time, with seeds S, S+1, ...

``--quick`` shrinks every workload to a smoke test; ``--out FILE``
appends each run to a JSON file that ``compare.py`` reads.  The exit
code is non-zero when any output check fails, with the check named.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from hostclock import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("ingest_dense", "fleet_soak", "dashboard_read", "stream_detect", "batch_score")
SETUP_REPEATS = 3

Metric = Tuple[float, str, int]  # value, unit, samples behind it


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation across a latency cliff)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def load_program(watch: Stopwatch) -> Tuple[float, Any, Any]:
    """Import the program under test; returns ``(import_s, workloads, spans)``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: the program under test is missing ({src / 'repro'})")
    started = watch.start()
    # Two sparklet executor threads already fill this benchmark's two
    # cores; BLAS threads on top of them only add scheduling noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import spans
    import workloads

    return watch.stop(started), workloads, spans


def fresh_rep(workload: Any, inputs: Any, watch: Stopwatch) -> Tuple[Any, float]:
    """One repetition on fresh state; returns it and its raw wall seconds."""
    gc.collect()
    t0 = time.perf_counter()
    rep = workload.rep(inputs, watch)
    return rep, time.perf_counter() - t0


def run_untraced(
    workload: Any, args: argparse.Namespace, import_s: float, watch: Stopwatch
) -> Dict[str, Any]:
    setup_times = []
    inputs = None
    for _ in range(1 if args.quick else SETUP_REPEATS):
        inputs = None
        gc.collect()
        started = watch.start()
        inputs = workload.setup(args.seed, args.quick)
        setup_times.append(watch.stop(started))

    reps = [fresh_rep(workload, inputs, watch)[0]]  # warm-up, untimed
    timed = []
    elapsed = 0.0  # raw seconds: --seconds is how long the run may take
    while not timed or elapsed < args.seconds:
        reps[-1].state = None  # free the previous repetition before this one
        rep, wall = fresh_rep(workload, inputs, watch)
        elapsed += wall
        reps.append(rep)
        timed.append(rep)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for rep in reps for f in rep.failures]
    if any(rep.digest != reps[0].digest for rep in reps):
        failures.append(f"{workload.name}.outputs_differ_between_repetitions")
    failures = sorted(set(failures + workload.check(inputs, reps[-1])))

    op = [x for rep in timed for x in rep.op_ms]
    aux = [x for rep in timed for x in rep.aux_ms]
    # The host's speed wanders by tens of percent over seconds; a rate
    # over the whole timed window averages that out where a median of
    # two or three repetitions cannot.
    rate = sum(rep.work for rep in timed) / sum(rep.work_s for rep in timed)
    metrics: Dict[str, Metric] = {
        "setup_s": (import_s + statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss, "MiB", 1),
        "work_per_s": (rate, "1/s", len(timed)),
        "op_p50_ms": (statistics.median(op), "ms", len(op)),
        "op_p90_ms": (percentile(op, 0.90), "ms", len(op)),
        "aux_p50_ms": (statistics.median(aux), "ms", len(aux)),
    }
    info: Dict[str, List[float]] = {}
    for rep in timed:
        for name, values in rep.info_ms.items():
            info.setdefault(name, []).extend(values)
    return {
        "metrics": metrics,
        "failures": failures,
        "attempted": sum(rep.attempted for rep in timed),
        "failed": sum(rep.failed for rep in timed) + len(failures),
        "host_slowdown": watch.raw_s / watch.corrected_s,
        "info": {name: (statistics.median(v), "ms", len(v)) for name, v in info.items()},
    }


def run_traced(
    workload: Any, args: argparse.Namespace, workloads: Any, spans: Any
) -> Dict[str, Any]:
    inputs = workload.setup(args.seed, args.quick)
    watch = Stopwatch()  # the workload wants one; a traced run reports none of its times
    fresh_rep(workload, inputs, watch)  # warm-up
    _, untraced_wall = fresh_rep(workload, inputs, watch)

    # Two traced repetitions: every count must repeat exactly, which is
    # what lets a later change be judged by a count at all.
    traced = []
    for _ in range(2):
        recorder = spans.Recorder()
        recorder.install()
        try:
            gc.collect()
            with recorder.root():
                rep = workload.rep(inputs, watch)
        finally:
            recorder.uninstall()
        traced.append((recorder, rep, recorder.layer_metrics(rep.telemetry, untraced_wall)))
        rep.state = None
    (_, _, first), (recorder, rep, metrics) = traced

    failures = [f for _, r, _ in traced for f in r.failures]
    failures += [
        f"{workload.name}.count_differs:{name}"
        for name in spans.EXACT_METRICS if first[name] != metrics[name]
    ]
    wall = metrics["bench.traced_wall_s"]
    if abs(recorder.driver_self_total() - wall) > 0.01 * wall:
        failures.append(f"{workload.name}.driver_self_times_do_not_sum_to_wall")
    failures = sorted(set(failures))

    workloads.OUT_DIR.mkdir(exist_ok=True)
    recorder.write(
        workloads.OUT_DIR / f"trace-{workload.name}.json",
        {"workload": workload.name, "seed": args.seed, "quick": args.quick,
         "untraced_wall_s": untraced_wall},
        metrics,
    )
    return {
        "metrics": {name: (metrics[name], unit, 1) for name, unit in spans.LAYER_METRICS.items()},
        "failures": failures,
        "attempted": rep.attempted,
        "failed": rep.failed + len(failures),
    }


def append_record(path: Path, quick: bool, record: Dict[str, Any]) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"quick": quick, "runs": []}
    if data["quick"] != quick:
        sys.exit(f"run.py: {path} holds {'quick' if data['quick'] else 'full'} runs; "
                 "quick and full runs are never mixed")
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1))


def run_one(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    # The timer's probes would show up as spans, so a traced run has none.
    watch.sampling(not args.trace)
    try:
        import_s, workloads, spans = load_program(watch)
        workload = workloads.WORKLOADS[args.workload[0]]
        result = run_traced(workload, args, workloads, spans) if args.trace else run_untraced(
            workload, args, import_s, watch)
    finally:
        watch.sampling(False)

    for name, (value, unit, samples) in result["metrics"].items():
        print(f"{name:40s} {workload.name:15s} {value:16.6f} {unit:6s} n={samples}")
    for name, (value, unit, samples) in result.get("info", {}).items():
        print(f"# not gated: {name} {workload.name} {value:.6f} {unit} n={samples}")
    if "host_slowdown" in result:
        print(f"# host ran {result['host_slowdown']:.3f}x slower than the reference "
              "(raw seconds per reported second)")
    for failure in result["failures"]:
        print(f"FAILED CHECK {failure}")
    record = {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in result["metrics"].items()},
    }
    if args.out:
        append_record(Path(args.out), args.quick, {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failures": result["failures"], **record,
            "host_slowdown": result.get("host_slowdown"),
            "info": {n: {"value": v, "unit": u} for n, (v, u, _) in result.get("info", {}).items()}})
    print(json.dumps(record))
    return 1 if result["failures"] else 0


def run_many(args: argparse.Namespace) -> int:
    """Each run in its own fresh interpreter, one at a time."""
    status = 0
    for i in range(args.runs):
        for name in args.workload or WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.quick:
                cmd.append("--quick")
            if args.out:
                cmd += ["--out", args.out]
            status |= subprocess.run(cmd, check=False).returncode
    return 1 if status else 0


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, which moves dict and set
        # layouts and with them both the timings (measured: +-10% on the
        # ingest rate) and any count that depends on set order.  Pinning
        # the salt is part of "the same seed gives the same inputs".
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default 12; 0 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="smoke sizes; never a baseline")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds S, S+1, ...")
    parser.add_argument("--out", help="append each run to this JSON file")
    args = parser.parse_args()
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else 12.0
    if args.workload and len(args.workload) == 1 and args.runs == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
