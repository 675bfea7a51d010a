"""Experiment definitions E1–E18 (see DESIGN.md §4 for the index).

Each experiment regenerates one paper artifact — a figure, a table, or
a key quantitative claim — and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows sit next to
the published values, with every shape it asserts as a named claim.
Each takes only ``quick``: the full size is held as constants inside
the experiment, and ``quick=True`` is the CI-sized form the tier-1
replay test reruns against the experiment's record.  No experiment
writes a file; figures come back as SVG text.
"""

from __future__ import annotations

import gc
import hashlib
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos import FaultEvent, FaultPlan, Injector
from ..hbase.client import HTableClient
from ..core.fdr import AnomalyReport, FDRDetector, FDRDetectorConfig
from ..core.metrics import aggregate_outcomes, evaluate_flags
from ..core.model import UnitModel
from ..core.multiple_testing import family_wise_error_probability, uncorrected
from ..core.online import OnlineEvaluator
from ..core.pipeline import AnomalyPipeline
from ..core.spc import CusumChart, EwmaChart, ShewhartChart
from ..core.training import OfflineTrainer
from ..obs.trace import Tracer
from ..serve import (
    FleetWorkload,
    GatewayConfig,
    QueryGateway,
    ServeServiceModel,
    WorkloadConfig,
    WorkloadReport,
    result_etag,
)
from ..simdata.generator import FleetConfig, FleetGenerator
from ..simdata.workload import (
    METRIC as FLEET_METRIC,
    ingest_stream,
    sensor_tag,
    soak_stream,
    soak_units,
    unit_tag,
)
from ..sparklet.context import SparkletContext
from ..sparklet.storage import BlockStore
from ..tsdb.ingest import ClusterConfig, IngestionDriver, IngestionReport, TsdbCluster, build_cluster
from ..tsdb.publish import BatchPublisher, PublishReport
from ..tsdb.query import TsdbQuery
from ..tsdb.readpath import AsyncQueryExecutor
from ..tsdb.tsd import DataPoint
from ..viz.dashboard import Dashboard
from .harness import ExperimentRegistry, ExperimentResult, Table, format_rate

__all__ = ["REGISTRY", "PAPER_FIG2_LEFT", "PAPER_ONLINE_THROUGHPUT", "run_ingestion"]

REGISTRY = ExperimentRegistry()

# Published values (Figure 2 left, §IV-A text).
PAPER_FIG2_LEFT: Dict[int, float] = {
    10: 173_000.0,
    15: 233_000.0,
    20: 257_000.0,
    25: 325_000.0,
    30: 399_000.0,
}
PAPER_ONLINE_THROUGHPUT = 939_000.0


# ----------------------------------------------------------------------
# shared drivers
# ----------------------------------------------------------------------
def run_ingestion(
    n_nodes: int,
    duration: float = 1.5,
    warmup: float = 0.75,
    offered_rate: float = 600_000.0,
    **config_overrides,
) -> IngestionReport:
    """One saturated ingestion run on a freshly built cluster."""
    cluster = build_cluster(ClusterConfig(n_nodes=n_nodes, **config_overrides))
    workload = ingest_stream(n_units=100, n_sensors=100, batch_size=50)
    driver = IngestionDriver(cluster, workload, offered_rate=offered_rate, batch_size=50)
    return driver.run(duration, warmup=warmup)


def _procedure_sweep(
    generator: FleetGenerator,
    procedures: Sequence[str],
    q: float,
    window: int,
    n_train: int,
    n_eval: int,
    extra_levels: Sequence[Tuple[str, float]] = (),
) -> Dict[object, "object"]:
    """Evaluate many (procedure, level) combinations sharing one fit per unit.

    Models and window p-values depend only on the data, so each unit is
    fitted and scored once, by the detector's kernel; procedures then
    differ only in how the p-value families are thresholded.  Keys of
    the result: procedure name for the primary ``q``, ``(name, level)``
    for extras.
    """
    from ..core.multiple_testing import apply_procedure

    combos: List[Tuple[object, str, float]] = [(proc, proc, q) for proc in procedures]
    combos += [((name, level), name, level) for name, level in extra_levels]
    outcomes: Dict[object, list] = {key: [] for key, _, _ in combos}
    detector = FDRDetector(FDRDetectorConfig(q=q, window=window, use_t2=False))
    for unit_id in generator.units():
        model = detector.fit(
            generator.training_window(unit_id, n_train).values, unit_id=unit_id
        )
        data = generator.evaluation_window(unit_id, n_eval)
        pvalues = detector.detect(model, data.values).pvalues
        for key, name, level in combos:
            flags = apply_procedure(name, pvalues, level)
            outcomes[key].append(evaluate_flags(flags, data.truth, unit_id))
    return {key: aggregate_outcomes(o) for key, o in outcomes.items()}


# ----------------------------------------------------------------------
# E1 — Figure 2 (left): throughput vs cluster size
# ----------------------------------------------------------------------
def _paper_throughput(n_nodes: int) -> float:
    """The paper's Fig. 2 value at ``n_nodes``, or its 30-node per-node rate scaled."""
    return PAPER_FIG2_LEFT.get(n_nodes, PAPER_FIG2_LEFT[30] * n_nodes / 30)


@REGISTRY.register("E1", "Fig. 2 left — ingestion throughput vs cluster size")
def e1_ingestion_scaling(quick: bool = False) -> ExperimentResult:
    nodes: Sequence[int]
    if quick:
        nodes, duration, warmup, offered_rate = (2, 4), 0.25, 0.25, 70_000.0
    else:
        nodes, duration, warmup, offered_rate = (10, 15, 20, 25, 30), 0.75, 0.4, 600_000.0
    table = Table(
        "Ingestion throughput vs cluster size (salted keys, proxy on)",
        ["nodes", "measured", "paper", "per-node", "skew", "crashes"],
    )
    throughputs: List[Tuple[int, float]] = []
    reports: List[IngestionReport] = []
    for n in nodes:
        report = run_ingestion(n, duration, warmup, offered_rate)
        reports.append(report)
        throughputs.append((n, report.throughput))
        paper = PAPER_FIG2_LEFT.get(n)
        table.add_row(
            n,
            format_rate(report.throughput),
            format_rate(paper) if paper else "—",
            format_rate(report.throughput / n),
            f"{report.write_skew:.2f}",
            report.crashes,
        )
    # Linearity: least-squares slope in samples/s per node.
    ns = np.array([n for n, _ in throughputs], dtype=float)
    ts = np.array([t for _, t in throughputs], dtype=float)
    slope = float(np.polyfit(ns, ts, 1)[0]) if len(ns) > 1 else float("nan")
    r2 = (
        float(np.corrcoef(ns, ts)[0, 1] ** 2) if len(ns) > 1 else float("nan")
    )
    from ..viz.figures import render_throughput_figure

    largest, top = throughputs[-1]
    return ExperimentResult(
        "E1",
        "Figure 2 (left): linear ingestion scale-up",
        [table],
        notes=[
            f"fitted slope {format_rate(slope)} per added node "
            f"(paper: ~11k/s per machine), linearity R² = {r2:.4f}",
            "throughput in simulated seconds; offered load kept above capacity",
        ],
        numbers={"slope": slope, "r2": r2,
                 **{f"throughput_{n}": t for n, t in throughputs}},
        claims={
            "throughput_rises_with_every_node_count": all(
                a < b for (_, a), (_, b) in zip(throughputs, throughputs[1:])
            ),
            "linear_fit_r2_at_least_0.98": r2 >= 0.98,
            "slope_within_2x_of_paper_11k_per_node": 5_500 <= slope <= 22_000,
            "largest_cluster_within_2x_of_paper": (
                abs(top - _paper_throughput(largest)) <= _paper_throughput(largest)
            ),
        },
        figures={"fig2_left.svg": render_throughput_figure(reports, PAPER_FIG2_LEFT)},
    )


# ----------------------------------------------------------------------
# E2 — Figure 2 (right): ingestion stability over time
# ----------------------------------------------------------------------
@REGISTRY.register("E2", "Fig. 2 right — cumulative samples vs time (stability)")
def e2_ingestion_stability(quick: bool = False) -> ExperimentResult:
    nodes: Sequence[int]
    if quick:
        nodes, duration, offered_rate = (2,), 0.75, 50_000.0
    else:
        nodes, duration, offered_rate = (10, 20, 30), 1.5, 600_000.0
    step = 0.25
    table = Table(
        "Cumulative samples ingested vs time",
        ["nodes"] + [f"t={step * (i + 1):.2f}s" for i in range(int(duration / step))]
        + ["rate CV"],
    )
    cvs = {}
    reports: List[IngestionReport] = []
    for n in nodes:
        report = run_ingestion(n, duration, warmup=0.0, offered_rate=offered_rate)
        reports.append(report)
        samples = report.timeline.resample(step, until=duration)
        cum = [v for _, v in samples[1:]]
        # Coefficient of variation of the per-interval rate — the
        # "constant and stable ingestion rate" claim.  Skip the first
        # interval (pipeline fill).
        rates = np.diff([0.0] + cum)
        steady = rates[1:]
        cv = float(np.std(steady) / np.mean(steady)) if len(steady) > 1 and np.mean(steady) > 0 else float("nan")
        cvs[n] = cv
        table.add_row(
            n,
            *[f"{v / 1e6:.2f}M" for v in cum],
            f"{cv:.3f}",
        )
    from ..viz.figures import render_stability_figure

    return ExperimentResult(
        "E2",
        "Figure 2 (right): stable per-configuration ingestion rate",
        [table],
        notes=["low rate CV (steady slope) reproduces the constant-rate lines"],
        numbers={f"cv_{n}": cv for n, cv in cvs.items()},
        claims={"rate_cv_below_0.25_at_every_size": all(cv < 0.25 for cv in cvs.values())},
        figures={"fig2_right.svg": render_stability_figure(reports, step)},
    )


# ----------------------------------------------------------------------
# E3 — §IV: family-wise false-alarm growth
# ----------------------------------------------------------------------
@REGISTRY.register("E3", "§IV — false-alarm probability vs sensor count")
def e3_fwer_growth(quick: bool = False) -> ExperimentResult:
    # ``tolerance``: how far the Monte-Carlo estimate may sit from the
    # analytic value at this trial count.
    sensor_counts: Sequence[int]
    if quick:
        sensor_counts, n_trials, tolerance = (1, 10, 100), 400, 0.05
    else:
        sensor_counts, n_trials, tolerance = (1, 5, 10, 50, 100, 500, 1000), 4000, 0.03
    alpha = 0.05
    rng = np.random.default_rng(123)
    table = Table(
        f"P(at least one false alarm), per-test alpha = {alpha}",
        ["m sensors", "analytic 1-(1-a)^m", "Monte-Carlo", "paper"],
    )
    paper_points = {1: "5%", 10: "40%"}
    numbers = {}
    for m in sensor_counts:
        analytic = family_wise_error_probability(alpha, m)
        pvals = rng.random((n_trials, m))
        empirical = float(np.mean(uncorrected(pvals, alpha).any(axis=1)))
        numbers[f"analytic_{m}"] = analytic
        numbers[f"empirical_{m}"] = empirical
        table.add_row(
            m,
            f"{analytic:.4f}",
            f"{empirical:.4f}",
            paper_points.get(m, "—"),
        )
    return ExperimentResult(
        "E3",
        "uncorrected testing: false alarms explode with sensor count",
        [table],
        notes=["the paper's worked example: 5% at m=1 grows to 40% at m=10"],
        numbers=numbers,
        claims={
            "monte_carlo_within_tolerance_of_analytic": all(
                abs(numbers[f"empirical_{m}"] - numbers[f"analytic_{m}"]) <= tolerance
                for m in sensor_counts
            ),
            "five_percent_at_one_sensor": abs(numbers["analytic_1"] - 0.05) <= 0.05e-6,
            "forty_percent_at_ten_sensors": abs(numbers["analytic_10"] - 0.4013) <= 1e-3,
            "near_certain_at_the_largest_count": numbers[f"analytic_{sensor_counts[-1]}"] > 0.99,
        },
    )


# ----------------------------------------------------------------------
# E4 — §IV: FDR vs Bonferroni vs uncorrected (+ SPC baselines)
# ----------------------------------------------------------------------
@REGISTRY.register("E4", "§IV — FDR reduces false alarms while keeping power")
def e4_fdr_false_alarms(quick: bool = False) -> ExperimentResult:
    if quick:
        n_units, n_sensors, n_train, n_eval = 10, 60, 250, 250
    else:
        n_units, n_sensors, n_train, n_eval = 40, 200, 500, 500
    q, window = 0.05, 32
    generator = FleetGenerator(
        FleetConfig(n_units=n_units, n_sensors=n_sensors, seed=29)
    )
    q_levels = (0.01, 0.05, 0.1, 0.2)
    sweep = _procedure_sweep(
        generator,
        ("none", "bonferroni", "holm", "bh", "adaptive-bh", "by"),
        q, window, n_train, n_eval,
        extra_levels=[("bh", level) for level in q_levels],
    )
    table = Table(
        f"Multiple-testing procedures ({n_units} units x {n_sensors} sensors, q = {q})",
        ["procedure", "family FDP", "power", "null-step alarms", "false-alarm rate", "delay (s)"],
    )
    numbers = {}
    for proc, agg in sweep.items():
        if not isinstance(proc, str):
            continue  # (name, level) extras are reported in the q-sweep table
        table.add_row(
            proc,
            f"{agg.mean_family_fdp:.3f}",
            f"{agg.mean_power:.3f}",
            f"{agg.null_family_rate:.3f}",
            f"{agg.mean_false_alarm_rate:.5f}",
            f"{agg.mean_delay:.1f}",
        )
        numbers[f"{proc}_family_fdp"] = agg.mean_family_fdp
        numbers[f"{proc}_power"] = agg.mean_power
        numbers[f"{proc}_null_rate"] = agg.null_family_rate

    # SPC baselines, same data.
    spc_table = Table(
        "SPC baselines (per-sensor charts, no multiplicity control)",
        ["chart", "family FDP", "power", "null-step alarms", "false-alarm rate"],
    )
    detector = FDRDetector(FDRDetectorConfig(q=q, window=window, use_t2=False))
    for name, chart in (
        ("shewhart-3s", ShewhartChart()),
        ("cusum", CusumChart()),
        ("ewma", EwmaChart()),
    ):
        outcomes = []
        for unit_id in generator.units():
            model = detector.fit(
                generator.training_window(unit_id, n_train).values, unit_id=unit_id
            )
            window_data = generator.evaluation_window(unit_id, n_eval)
            flags = chart.flags(model, window_data.values)
            outcomes.append(evaluate_flags(flags, window_data.truth, unit_id))
        agg = aggregate_outcomes(outcomes)
        spc_table.add_row(
            name,
            f"{agg.mean_family_fdp:.3f}",
            f"{agg.mean_power:.3f}",
            f"{agg.null_family_rate:.3f}",
            f"{agg.mean_false_alarm_rate:.5f}",
        )
    # Operating characteristic: sweep the FDR target q for BH.
    q_table = Table(
        "BH operating characteristic (q sweep)",
        ["q", "family FDP", "power", "null-step alarms"],
    )
    for q_level in q_levels:
        agg = sweep[("bh", q_level)]
        q_table.add_row(
            f"{q_level:.2f}",
            f"{agg.mean_family_fdp:.3f}",
            f"{agg.mean_power:.3f}",
            f"{agg.null_family_rate:.3f}",
        )
        numbers[f"q{q_level}_fdp"] = agg.mean_family_fdp
        numbers[f"q{q_level}_power"] = agg.mean_power

    n = numbers
    return ExperimentResult(
        "E4",
        "FDR (BH) controls the false-discovery proportion with more power than FWER control",
        [table, spc_table, q_table],
        notes=[
            "expected shape: 'none' null-step alarm rate near 1, BH famFDP near q "
            "with power above bonferroni/holm/by",
        ],
        numbers=numbers,
        claims={
            "uncorrected_alarms_on_most_null_steps": n["none_null_rate"] > 0.8,
            "bh_null_rate_below_0.2": n["bh_null_rate"] < 0.2,
            "bh_family_fdp_below_0.12": n["bh_family_fdp"] < 0.12,
            "bh_null_rate_under_quarter_of_uncorrected": (
                n["bh_null_rate"] < n["none_null_rate"] / 4
            ),
            "power_uncorrected_ge_bh_ge_bonferroni": (
                n["none_power"] >= n["bh_power"] >= n["bonferroni_power"]
            ),
            "bh_power_ge_by": n["bh_power"] >= n["by_power"],
            "bh_keeps_80pct_of_uncorrected_power": n["bh_power"] > 0.8 * n["none_power"],
        },
    )


# ----------------------------------------------------------------------
# E5 — §IV-A: online evaluation throughput
# ----------------------------------------------------------------------
@REGISTRY.register("E5", "§IV-A — online evaluation throughput (wall-clock)")
def e5_online_throughput(quick: bool = False) -> ExperimentResult:
    n_sensors, n_eval = (200, 1000) if quick else (1000, 2000)
    n_train, batch, window, latency_calls = 600, 250, 32, 200
    generator = FleetGenerator(
        FleetConfig(n_units=1, n_sensors=n_sensors, seed=31, fault_mix=(1.0, 0.0, 0.0))
    )
    detector = FDRDetector(FDRDetectorConfig(window=window))
    model = detector.fit(generator.training_window(0, n_train).values)
    values = generator.evaluation_window(0, n_eval).values
    evaluator = OnlineEvaluator(model, detector.config)
    # warm-up pass (allocations, BLAS thread spin-up)
    evaluator.evaluate(values[:batch])
    evaluator.reset()
    flags = 0
    t0 = time.perf_counter()
    for i in range(0, n_eval, batch):
        flags += int(evaluator.evaluate(values[i : i + batch])[0].sum())
    elapsed = time.perf_counter() - t0
    throughput = evaluator.throughput_samples_per_second(elapsed)
    samples = evaluator.stats.samples
    # Per-iteration latency of the "single matrix multiplication" path:
    # one full-width row at a time.
    t0 = time.perf_counter()
    for _ in range(latency_calls):
        evaluator.evaluate(values[:1])
    row_latency = (time.perf_counter() - t0) / latency_calls
    table = Table(
        "Online evaluation throughput (real wall-clock)",
        ["config", "measured", "paper", "one row"],
    )
    table.add_row(
        f"{n_sensors} sensors, window {window}, batch {batch}",
        format_rate(throughput),
        format_rate(PAPER_ONLINE_THROUGHPUT),
        f"{row_latency * 1e3:.3f} ms",
    )
    return ExperimentResult(
        "E5",
        "online scoring is a single matrix pass per batch",
        [table],
        notes=[
            f"evaluated {samples:,} sensor samples in {elapsed:.3f}s",
            "paper: 939k samples/s on their cluster; same order or better expected "
            "single-node with vectorised NumPy",
        ],
        numbers={"samples": float(samples), "flags": float(flags)},
        wall={"throughput": throughput, "row_latency_s": row_latency},
        claims={
            "throughput_above_a_third_of_paper": throughput > PAPER_ONLINE_THROUGHPUT / 3,
            "one_row_scores_under_5ms": row_latency < 5e-3,
        },
    )


# ----------------------------------------------------------------------
# E6 — §III-B: row-key salting ablation
# ----------------------------------------------------------------------
@REGISTRY.register("E6", "§III-B — salting spreads writes across RegionServers")
def e6_salting_ablation(quick: bool = False) -> ExperimentResult:
    if quick:
        n_nodes, duration, warmup, offered_rate = 3, 0.25, 0.25, 60_000.0
    else:
        n_nodes, duration, warmup, offered_rate = 20, 1.0, 0.5, 500_000.0
    table = Table(
        f"Row-key salting ablation ({n_nodes} nodes)",
        ["configuration", "throughput", "write skew (max/mean)", "crashes"],
    )
    numbers = {}
    for label, salt in (("unsalted, single region", 0), ("salted + pre-split", None)):
        report = run_ingestion(
            n_nodes, duration, warmup, offered_rate, salt_buckets=salt
        )
        table.add_row(
            label, format_rate(report.throughput), f"{report.write_skew:.2f}",
            report.crashes,
        )
        key = "salted" if salt is None else "unsalted"
        numbers[f"{key}_throughput"] = report.throughput
        numbers[f"{key}_skew"] = report.write_skew
        numbers[f"{key}_crashes"] = float(report.crashes)
    n = numbers
    return ExperimentResult(
        "E6",
        "salting turns one hot RegionServer into a balanced cluster",
        [table],
        notes=[
            "expected shape: unsalted throughput ≈ one server's capacity with skew ≈ n; "
            "salted approaches n × per-server capacity with skew ≈ 1 — the paper's "
            "'dramatic increase to the ingestion rate'",
        ],
        numbers=numbers,
        claims={
            # 4x at the paper's 20 nodes: salted grows with n, unsalted does not.
            "salted_beats_unsalted_by_n_over_5": (
                n["salted_throughput"] > n_nodes / 5 * n["unsalted_throughput"]
            ),
            "unsalted_skew_above_0.7n": n["unsalted_skew"] > 0.7 * n_nodes,
            "salted_skew_below_1.5": n["salted_skew"] < 1.5,
            "unsalted_caps_near_one_server": n["unsalted_throughput"] < 30_000,
        },
    )


# ----------------------------------------------------------------------
# E7 — §III-B: backpressure-proxy ablation
# ----------------------------------------------------------------------
@REGISTRY.register("E7", "§III-B — reverse proxy prevents RegionServer crashes")
def e7_backpressure_ablation(quick: bool = False) -> ExperimentResult:
    if quick:
        n_nodes, duration, offered_rate = 2, 0.25, 80_000.0
    else:
        n_nodes, duration, offered_rate = 10, 1.25, 400_000.0
    warmup = 0.5
    table = Table(
        f"Backpressure ablation ({n_nodes} nodes, offered ≈ "
        f"{format_rate(offered_rate)} > capacity)",
        ["configuration", "goodput", "RS crashes", "RPC rejects", "client retries"],
    )
    numbers = {}
    configs = [
        ("proxy (buffered, round-robin)", "proxy", dict(use_proxy=True)),
        ("direct fire-and-forget", "direct", dict(use_proxy=False)),
        ("direct, single TSD", "direct_single", dict(use_proxy=False, direct_spray=False)),
        ("proxy + compaction enabled", "proxy_compact",
         dict(use_proxy=True, compaction_enabled=True)),
    ]
    for label, slug, overrides in configs:
        cluster = build_cluster(ClusterConfig(n_nodes=n_nodes, **overrides))
        workload = ingest_stream(n_units=100, n_sensors=100, batch_size=50)
        driver = IngestionDriver(cluster, workload, offered_rate=offered_rate, batch_size=50)
        report = driver.run(duration, warmup=warmup)
        rejects = int(cluster.metrics.counter("rpc.rejected").get())
        table.add_row(
            label,
            format_rate(report.throughput),
            report.crashes,
            rejects,
            report.client_retries,
        )
        numbers[f"{slug}_goodput"] = report.throughput
        numbers[f"{slug}_crashes"] = float(report.crashes)
        numbers[f"{slug}_rejects"] = float(rejects)
    n = numbers
    return ExperimentResult(
        "E7",
        "bounded in-flight window + buffering eliminates overflow crashes",
        [table],
        notes=[
            "expected shape: proxy config has zero crashes; fire-and-forget overloads "
            "the RPC queues and crashes RegionServers (the paper's pre-proxy failure mode); "
            "compaction-on costs throughput (why the paper disabled it)",
        ],
        numbers=numbers,
        claims={
            "proxy_never_crashes": n["proxy_crashes"] == 0,
            "fire_and_forget_crashes_regionservers": n["direct_crashes"] > 0,
            "crashes_cost_goodput": n["proxy_goodput"] > n["direct_goodput"],
            "compaction_costs_throughput": n["proxy_compact_goodput"] < n["proxy_goodput"],
        },
    )


# ----------------------------------------------------------------------
# E8 — Figure 3: the machine-page dashboard
# ----------------------------------------------------------------------
@REGISTRY.register("E8", "Fig. 3 — machine page with status bar, sparklines, drill-down")
def e8_dashboard(quick: bool = False) -> ExperimentResult:
    if quick:
        n_units, n_sensors, n_train, n_eval = 6, 20, 200, 200
    else:
        n_units, n_sensors, n_train, n_eval = 12, 40, 300, 300
    generator = FleetGenerator(FleetConfig(n_units=n_units, n_sensors=n_sensors, seed=80))
    cluster = build_cluster(n_nodes=4, retain_data=True)
    pipeline = AnomalyPipeline(generator, cluster)
    result = pipeline.run(n_train=n_train, n_eval=n_eval)
    dash = Dashboard(cluster.query_engine())
    units = list(generator.units())
    with tempfile.TemporaryDirectory() as out_dir:
        paths = dash.write(out_dir, units, start=n_eval, end=2 * n_eval)
        html = {path.name: path.read_text() for path in paths}
        sizes = {path.name: path.stat().st_size for path in paths}
    table = Table("Dashboard artifacts", ["file", "size (bytes)"])
    for name, size in sizes.items():
        table.add_row(name, size)
    index = html["index.html"]
    machine_pages = [text for name, text in html.items() if name.startswith("machine-")]
    flagged = [text for text in machine_pages if "cell flagged" in text]
    sample = flagged[0] if flagged else ""
    return ExperimentResult(
        "E8",
        "static web dashboard generated from TSDB queries",
        [table],
        notes=[
            f"{result.total_discoveries()} anomalies flagged, "
            f"{result.anomalies_published} published to the TSDB",
        ],
        numbers={
            "pages": float(len(paths)),
            "anomalies": float(result.anomalies_published),
            "index_bytes": float(sizes["index.html"]),
            "machine_page_bytes": float(sum(sizes.values()) - sizes["index.html"]),
        },
        claims={
            "index_has_fleet_status_bar": "Fleet status" in index and "status-bar" in index,
            "one_machine_page_per_unit": len(machine_pages) == n_units,
            "some_machine_page_shows_flags": bool(flagged),
            "flagged_page_has_status_strip_sparklines_and_drill_down": all(
                part in sample for part in ("Unit status", "sparkline", "Drill-down")
            ),
            "anomalies_flagged_in_red": "#d62728" in sample,
            "anomalies_published": result.anomalies_published > 0,
        },
    )


# ----------------------------------------------------------------------
# E10 — detector design ablations (DESIGN.md §5)
# ----------------------------------------------------------------------
@REGISTRY.register("E10", "ablation — test window length and the whitened T² channel")
def e10_detector_ablations(quick: bool = False) -> ExperimentResult:
    if quick:
        n_units, n_sensors, n_train, n_eval = 8, 40, 250, 250
    else:
        n_units, n_sensors, n_train, n_eval = 24, 120, 500, 500
    q, windows = 0.05, (1, 8, 32, 128)
    generator = FleetGenerator(
        FleetConfig(n_units=n_units, n_sensors=n_sensors, seed=53)
    )
    window_table = Table(
        f"Window-length ablation (BH, q = {q})",
        ["window (s)", "family FDP", "power", "delay (s)", "null-step alarms"],
    )
    numbers: Dict[str, float] = {}
    for window in windows:
        detector = FDRDetector(
            FDRDetectorConfig(q=q, window=window, procedure="bh", use_t2=False)
        )
        outcomes = []
        for unit_id in generator.units():
            model = detector.fit(
                generator.training_window(unit_id, n_train).values, unit_id=unit_id
            )
            data = generator.evaluation_window(unit_id, n_eval)
            report = detector.detect(model, data.values)
            outcomes.append(evaluate_flags(report.flags, data.truth, unit_id))
        agg = aggregate_outcomes(outcomes)
        window_table.add_row(
            window,
            f"{agg.mean_family_fdp:.3f}",
            f"{agg.mean_power:.3f}",
            f"{agg.mean_delay:.1f}",
            f"{agg.null_family_rate:.3f}",
        )
        numbers[f"w{window}_power"] = agg.mean_power
        numbers[f"w{window}_delay"] = agg.mean_delay
        numbers[f"w{window}_family_fdp"] = agg.mean_family_fdp
        # A unit (its own training window) is the independent sample.
        numbers[f"w{window}_family_fdp_se"] = float(
            np.std([o.family_fdp for o in outcomes], ddof=1) / np.sqrt(len(outcomes))
        )

    # Whitened T² channel: unit-level detection of correlated faults.
    # Alarm *step counts* per unit are the honest readout: the per-step
    # false-alarm rate on healthy units should sit near unit_alarm_alpha,
    # while faulted units alarm persistently once the fault develops.
    t2_table = Table(
        "Unit-level channel ablation (alarm steps / unit, alpha = 0.001)",
        ["configuration", "faulted units", "healthy units"],
    )

    def unit_channel_row(label: str, key: str, alarm_fn) -> None:
        fit_detector = FDRDetector(FDRDetectorConfig(q=q, window=32, use_t2=False))
        faulted_steps: List[int] = []
        healthy_steps: List[int] = []
        for unit_id in generator.units():
            model = fit_detector.fit(
                generator.training_window(unit_id, n_train).values, unit_id=unit_id
            )
            data = generator.evaluation_window(unit_id, n_eval)
            steps = int(np.sum(alarm_fn(model, data.values)))
            (faulted_steps if data.faults else healthy_steps).append(steps)
        mean_faulted = float(np.mean(faulted_steps)) if faulted_steps else 0.0
        mean_healthy = float(np.mean(healthy_steps)) if healthy_steps else 0.0
        t2_table.add_row(label, f"{mean_faulted:.1f}", f"{mean_healthy:.1f}")
        numbers[f"{key}_faulted_steps"] = mean_faulted
        numbers[f"{key}_healthy_steps"] = mean_healthy

    def t2_alarms(model, values):
        detector = FDRDetector(
            FDRDetectorConfig(q=q, window=32, use_t2=True, unit_alarm_alpha=0.001)
        )
        return detector.detect(model, values).unit_alarm

    from ..core.spc import MewmaChart

    unit_channel_row("T² on (whitened scores)", "t2_on", t2_alarms)
    unit_channel_row(
        "MEWMA (lam=0.1, whitened)", "mewma",
        lambda model, values: MewmaChart().flags(model, values),
    )
    unit_channel_row(
        "T² off", "t2_off", lambda model, values: np.zeros(values.shape[0], dtype=bool)
    )

    return ExperimentResult(
        "E10",
        "longer windows buy power on drifts at the cost of reaction time; "
        "the whitened T² adds a unit-level channel for correlated faults",
        [window_table, t2_table],
        notes=[
            "expected shape: power grows with window length; detection delay is "
            "U-shaped (short windows detect late for lack of power, very long "
            "windows are sluggish); T² alarm steps separate faulted from healthy "
            "units by an order of magnitude",
        ],
        numbers=numbers,
        claims={
            "family_fdp_within_q_at_every_window": all(
                numbers[f"w{w}_family_fdp"] <= q + 3.0 * numbers[f"w{w}_family_fdp_se"]
                for w in windows
            ),
            "power_grows_with_window_up_to_32": (
                numbers["w1_power"] < numbers["w8_power"] < numbers["w32_power"]
            ),
            "delay_rises_again_past_32": numbers["w128_delay"] > numbers["w32_delay"],
            "t2_separates_faulted_from_healthy_by_5x": (
                numbers["t2_on_faulted_steps"] > 5 * max(numbers["t2_on_healthy_steps"], 0.5)
            ),
            "t2_off_never_alarms": numbers["t2_off_faulted_steps"] == 0.0,
        },
    )


# ----------------------------------------------------------------------
# E9 — §IV-A: offline training scaling on sparklet
# ----------------------------------------------------------------------
def _models_digest(models: Dict[int, UnitModel]) -> str:
    """One hash over every array of every trained model, in unit order."""
    digest = hashlib.sha256()
    for unit_id in sorted(models):
        m = models[unit_id]
        for array in (m.mean, m.std, m.projection, m.offset):
            digest.update(array.tobytes())
    return digest.hexdigest()


@REGISTRY.register("E9", "§IV-A — offline training scales across executors")
def e9_training_scaling(quick: bool = False) -> ExperimentResult:
    """Wall-clock of one fleet training job at several executor counts.

    The seconds are recorded, not claimed: they scale only while BLAS
    runs one thread per fit, as ``python -m repro.bench`` sets it
    (EXPERIMENTS.md E9).  What is claimed is that the width of the pool
    changes nothing about the models it trains.
    """
    executor_counts: Sequence[int]
    if quick:
        executor_counts, n_units, n_sensors, n_train = (1, 2), 8, 60, 200
    else:
        executor_counts, n_units, n_sensors, n_train = (1, 2, 4), 32, 250, 600
    generator = FleetGenerator(FleetConfig(n_units=n_units, n_sensors=n_sensors, seed=47))
    table = Table(
        f"Offline training wall-clock ({n_units} units x {n_sensors} sensors)",
        ["executors", "seconds", "units/s", "speedup"],
    )
    wall: Dict[str, float] = {}
    numbers: Dict[str, float] = {}
    digests = set()
    base = None
    for workers in executor_counts:
        with tempfile.TemporaryDirectory() as tmp:
            with SparkletContext(parallelism=workers) as ctx:
                trainer = OfflineTrainer(ctx, BlockStore(tmp))
                t0 = time.perf_counter()
                trained = trainer.train_fleet(generator, n_train=n_train)
                elapsed = time.perf_counter() - t0
        models = trained.models
        digests.add(_models_digest(models))
        if base is None:
            base = elapsed
        table.add_row(
            workers, f"{elapsed:.2f}", f"{n_units / elapsed:.1f}", f"{base / elapsed:.2f}x"
        )
        wall[f"seconds_{workers}"] = elapsed
        numbers[f"models_{workers}"] = float(len(models))
    return ExperimentResult(
        "E9",
        "per-unit model fits parallelise across the executor pool",
        [table],
        notes=[
            "seconds are recorded, not claimed: they scale only with one BLAS thread "
            "per fit, which python -m repro.bench sets",
        ],
        numbers=numbers,
        wall=wall,
        claims={
            "every_unit_trained_at_every_width": all(
                v == n_units for v in numbers.values()
            ),
            "same_models_at_every_width": len(digests) == 1,
        },
    )


# ----------------------------------------------------------------------
# E11 — §IV-A at fleet scale: the evaluation engine and proxy publishing
# ----------------------------------------------------------------------
def _legacy_serial_run(
    generator: FleetGenerator, config: FDRDetectorConfig, n_train: int, n_eval: int
) -> Dict[int, AnomalyReport]:
    """The pre-engine ``run(publish=False)`` body: refit + fresh detector per unit."""
    detector = FDRDetector(config)
    reports = {}
    for unit_id in generator.units():
        training = generator.training_window(unit_id, n_train)
        model = FDRDetector(config).fit(training.values, unit_id=unit_id)
        window = generator.evaluation_window(unit_id, n_eval)
        reports[unit_id] = detector.detect(model, window.values)
        evaluate_flags(reports[unit_id].flags, window.truth, unit_id)
    return reports


def _best_of(n: int, fn):
    """Fastest of ``n`` calls: ``(seconds, result)``."""
    best, result = float("inf"), None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, result = elapsed, out
    return best, result


@REGISTRY.register("E11", "engine — fleet evaluation vs the serial loop, proxy-path publish")
def e11_pipeline_parallel(quick: bool = False) -> ExperimentResult:
    """The fleet evaluation engine and end-to-end publishing through the proxy.

    The engine keeps one cached evaluator per unit and skips retraining
    units whose model already matches, so a warm ``pipeline.run()`` must
    score flag-for-flag what the legacy serial loop (refit + fresh
    detector per unit) does.  Its speed-up over that loop is recorded,
    not claimed (EXPERIMENTS.md E11).  A second fleet then runs with
    publishing through the reverse proxy: every batch acknowledged,
    nothing failed, the in-flight window never exceeded.
    """
    # Scoring fleet (units, sensors, samples per window), then the publishing one.
    if quick:
        (n_units, n_sensors, n_samples), (pub_units, pub_sensors, pub_samples) = (
            (6, 60, 200), (4, 30, 100)
        )
    else:
        (n_units, n_sensors, n_samples), (pub_units, pub_sensors, pub_samples) = (
            (20, 200, 600), (8, 100, 300)
        )
    config = FDRDetectorConfig(window=32)
    fleet = FleetGenerator(FleetConfig(n_units=n_units, n_sensors=n_sensors, seed=47))
    serial_s, legacy = _best_of(
        3, lambda: _legacy_serial_run(fleet, config, n_samples, n_samples)
    )
    pipeline = AnomalyPipeline(fleet, config=config)
    run = lambda: pipeline.run(publish=False, n_train=n_samples, n_eval=n_samples)  # noqa: E731
    cold_s, cold = _best_of(1, run)
    warm_s, warm = _best_of(3, run)
    parity = all(
        np.array_equal(result.reports[unit_id].flags, ref.flags)
        and np.array_equal(result.reports[unit_id].unit_alarm, ref.unit_alarm)
        for unit_id, ref in legacy.items()
        for result in (cold, warm)
    )

    generator = FleetGenerator(FleetConfig(n_units=pub_units, n_sensors=pub_sensors, seed=53))
    cluster = build_cluster(n_nodes=3, retain_data=True)
    t0 = time.perf_counter()
    published = AnomalyPipeline(generator, cluster).run(n_train=pub_samples, n_eval=pub_samples)
    publish_s = time.perf_counter() - t0
    data, anomaly = published.data_publish, published.anomaly_publish
    assert data is not None and anomaly is not None

    samples = n_units * n_sensors * n_samples
    table = Table(
        f"Fleet evaluation: legacy serial run vs evaluation engine "
        f"({n_units} units x {n_sensors} sensors)",
        ["path", "seconds", "samples/s"],
    )
    for label, seconds in [
        ("legacy serial loop (refit + fresh detector)", serial_s),
        ("engine run, cold (first call)", cold_s),
        ("engine run, warm (cached models + evaluators)", warm_s),
    ]:
        table.add_row(label, f"{seconds:.3f}", format_rate(samples / seconds))
    table.add_row("speedup (warm vs legacy)", f"{serial_s / warm_s:.2f}x", "")
    publish_table = Table(
        f"End-to-end pipeline with proxy publishing ({pub_units} units x "
        f"{pub_sensors} sensors, 3 nodes)",
        ["metric", "value"],
    )
    for label, value in [
        ("wall seconds", f"{publish_s:.2f}"),
        ("data points written", data.points_written),
        ("anomaly points written", anomaly.points_written),
        ("publish acks", published.publish_acks),
        ("publish retries", published.publish_retries),
        ("max in-flight batches", data.max_pending),
    ]:
        publish_table.add_row(label, value)
    return ExperimentResult(
        "E11",
        "cached per-unit evaluators score what the serial loop does; publishing is acked",
        [table, publish_table],
        numbers={
            "discoveries": float(warm.total_discoveries()),
            "data_points_written": float(data.points_written),
            "anomaly_points_written": float(anomaly.points_written),
            "acks": float(published.publish_acks),
            "retries": float(published.publish_retries),
            "max_pending": float(data.max_pending),
        },
        wall={
            "serial_seconds": serial_s,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": serial_s / warm_s,
            "samples_per_second": samples / warm_s,
            "publish_wall_seconds": publish_s,
        },
        claims={
            "engine_flags_equal_the_serial_loop_cold_and_warm": parity,
            "published_through_the_proxy": data.mode == "proxy",
            "both_channels_complete": data.complete and anomaly.complete,
            "every_data_point_written": (
                data.points_written == pub_units * pub_sensors * pub_samples
                and data.points_failed == 0
            ),
            "in_flight_window_respected": data.max_pending <= 32,
            "acks_are_both_channels_batches": (
                published.publish_acks == data.batches_acked + anomaly.batches_acked
            ),
        },
    )


# ----------------------------------------------------------------------
# E12 — chaos: hardened ingest overhead and crash survival
# ----------------------------------------------------------------------
def _synthetic_points(n_points: int, seed: int) -> List[DataPoint]:
    """E12's and E13's stream: ``n_points`` normal draws, one a second,
    dealt over 8 units and 25 sensors."""
    rng = np.random.default_rng(seed)
    return [
        DataPoint.make(
            "energy", 1_000 + i, float(v), {"unit": f"u{i % 8}", "sensor": f"s{i % 25}"}
        )
        for i, v in enumerate(rng.normal(size=n_points))
    ]


def _timed_publish(publisher: BatchPublisher, publish) -> Tuple[PublishReport, float]:
    """``publish()`` then ``publisher.flush()``: the report and its wall seconds.

    Benchmark hygiene: the garbage from previous runs is collected up
    front and the collector kept out of the measured window, so a GC
    pause cannot land on one configuration and masquerade as overhead.
    """
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.perf_counter()
        publish()
        report = publisher.flush()
        return report, time.perf_counter() - wall0
    finally:
        if gc_was_enabled:
            gc.enable()


def _chaos_publish_run(
    n_points: int,
    batch_size: int,
    hardened: bool,
    plan: Optional[FaultPlan],
    seed: int,
) -> Dict[str, float]:
    """Publish one synthetic stream into a fresh 2-node cluster.

    Returns sim-time goodput, end-to-end ack latency, the hardening
    counters, and the delivery-accounting residual (always zero).
    """
    points = _synthetic_points(n_points, seed)
    cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4))
    injector = Injector(cluster, plan) if plan is not None else None
    if injector is not None:
        injector.arm()
    if not hardened:
        # The pre-hardening ingress: no breakers, no ack timeouts, no
        # publisher deadlines.  Safe only in the fault-free scenario —
        # a crash would wedge this configuration (PublishStalledError).
        cluster.ingress.breakers = None
        cluster.ingress.ack_timeout = None
    publisher = BatchPublisher(
        cluster,
        batch_size=batch_size,
        max_in_flight_batches=8,
        ack_deadline=30.0 if hardened else None,
    )
    wall0 = time.perf_counter()
    publisher.publish(points)
    report = publisher.flush()
    wall = time.perf_counter() - wall0
    if injector is not None:
        injector.finalize()
    hist = cluster.metrics.histogram("proxy.ack_latency")
    sim_elapsed = max(cluster.sim.now, 1e-9)
    return {
        "goodput": report.points_written / sim_elapsed,
        "ack_mean_ms": hist.mean * 1e3,
        "ack_p99_ms": hist.quantile(0.99) * 1e3,
        "retries": float(report.retries),
        "ack_timeouts": float(getattr(cluster.ingress, "ack_timeouts", 0)),
        "dead_lettered": float(report.points_dead_lettered),
        "unaccounted": float(report.points_submitted - report.points_accounted),
        "wall_s": wall,
    }


@REGISTRY.register("E12", "chaos — hardened ingest: fault-free overhead, crash survival")
def e12_chaos_ingest(quick: bool = False) -> ExperimentResult:
    """Cost and payoff of the fault-tolerant ingest path.

    Fault-free, the hardening machinery (circuit breakers, ack
    timeouts, publisher deadlines) must be close to free in simulated
    goodput.  Under an injected mid-publish TSD crash it must keep the
    delivery-conservation invariant — every point written, failed, or
    dead-lettered — at a measurable throughput/latency cost.
    """
    n_points, batch_size, seed = (2_500 if quick else 10_000), 100, 29
    crash_plan = FaultPlan(
        name="e12-tsd-crash",
        events=(FaultEvent(at=0.05, action="tsd_crash", target="tsd00", duration=0.4),),
    )
    scenarios = [
        ("hardened, fault-free", True, None),
        ("hardening off, fault-free", False, None),
        ("hardened, TSD crash mid-publish", True, crash_plan),
    ]
    table = Table(
        f"Chaos ingest ({n_points} points, batches of {batch_size}, 2 nodes)",
        ["configuration", "goodput", "ack mean", "ack p99", "retries",
         "ack timeouts", "dead-lettered", "unaccounted"],
    )
    numbers: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for label, hardened, plan in scenarios:
        stats = _chaos_publish_run(n_points, batch_size, hardened, plan, seed)
        table.add_row(
            label,
            format_rate(stats["goodput"]),
            f"{stats['ack_mean_ms']:.2f} ms",
            f"{stats['ack_p99_ms']:.2f} ms",
            int(stats["retries"]),
            int(stats["ack_timeouts"]),
            int(stats["dead_lettered"]),
            int(stats["unaccounted"]),
        )
        slug = {
            "hardened, fault-free": "hardened",
            "hardening off, fault-free": "baseline",
            "hardened, TSD crash mid-publish": "crash",
        }[label]
        for key, value in stats.items():
            (wall if key == "wall_s" else numbers)[f"{slug}_{key}"] = value
    numbers["overhead_frac"] = (
        numbers["baseline_goodput"] - numbers["hardened_goodput"]
    ) / numbers["baseline_goodput"]
    n = numbers
    return ExperimentResult(
        "E12",
        "hardening is ~free fault-free and keeps conservation through a crash",
        [table],
        notes=[
            "expected shape: fault-free goodput within 5% with hardening on vs off; "
            "the crash run engages timeouts/retries (degraded goodput, inflated ack "
            "latency) yet ends with zero unaccounted points",
        ],
        numbers=numbers,
        wall=wall,
        claims={
            "hardening_costs_under_5pct_fault_free": n["overhead_frac"] < 0.05,
            "crash_engages_ack_timeouts_and_retries": (
                n["crash_ack_timeouts"] >= 1 and n["crash_retries"] >= 1
            ),
            "crash_costs_goodput_and_ack_latency": (
                n["crash_goodput"] < n["hardened_goodput"]
                and n["crash_ack_p99_ms"] > n["hardened_ack_p99_ms"]
            ),
            "every_point_accounted_in_every_run": all(
                n[f"{slug}_unaccounted"] == 0 for slug in ("hardened", "baseline", "crash")
            ),
        },
    )


# ----------------------------------------------------------------------
# E13 — observability: tracing and self-telemetry overhead
# ----------------------------------------------------------------------
def _obs_publish_run(
    n_points: int,
    batch_size: int,
    trace: bool,
    self_report: bool,
    seed: int,
) -> Dict[str, float]:
    """Publish one synthetic stream with the requested observability on.

    Tracing and self-telemetry consume no *simulated* time, so their
    cost only shows up in wall-clock; goodput is reported to prove the
    simulated behaviour is unchanged.
    """
    points = _synthetic_points(n_points, seed)
    cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4, trace=trace))
    reporter = cluster.self_reporter() if self_report else None
    if reporter is not None:
        reporter.start()
    publisher = BatchPublisher(cluster, batch_size=batch_size, max_in_flight_batches=8)
    report, wall = _timed_publish(publisher, lambda: publisher.publish(points))
    self_series = 0
    if reporter is not None:
        reporter.stop()
        reporter.flush()
        self_series = len(reporter.series_written())
    sim_elapsed = max(cluster.sim.now, 1e-9)
    return {
        "goodput": report.points_written / sim_elapsed,
        "wall_s": wall,
        "span_records": float(len(cluster.tracer)),
        "batches_traced": float(len(cluster.tracer.batch_ids())),
        "self_series": float(self_series),
    }


@REGISTRY.register("E13", "observability — tracing and self-telemetry overhead")
def e13_obs_overhead(quick: bool = False) -> ExperimentResult:
    """Cost of the observability layer on the ingest hot path.

    With tracing off the path must be zero-cost: no span records exist
    and the disabled ``Tracer.begin`` is a few-nanosecond guard.  With
    tracing on (and additionally the ``SelfReporter`` flushing ``tsd.*``
    /``proxy.*`` series back into the store) the wall-clock overhead
    over the untraced run is recorded against a 5% budget, not claimed:
    on a shared host its run-to-run spread is as wide as the budget
    (EXPERIMENTS.md E13).  Repeats are interleaved round-robin across
    the configurations (so clock/cache drift hits all of them equally)
    after one unmeasured warmup run, and each configuration keeps its
    fastest run — the standard noise filters for wall-clock
    microcomparisons.
    """
    n_points, repeats = (2_500, 1) if quick else (10_000, 5)
    batch_size, seed = 100, 31
    scenarios = [
        ("observability off", "off", False, False),
        ("tracing on", "traced", True, False),
        ("tracing + self-report", "selfreport", True, True),
    ]
    table = Table(
        f"Observability overhead ({n_points} points, batches of {batch_size}, "
        f"min wall over {repeats} runs)",
        ["configuration", "wall", "goodput", "spans", "traced batches", "self series"],
    )
    numbers: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    _obs_publish_run(n_points, batch_size, True, True, seed)  # warmup, unmeasured
    bests: Dict[str, Dict[str, float]] = {}
    for _ in range(repeats):
        for _, slug, trace, self_report in scenarios:
            stats = _obs_publish_run(n_points, batch_size, trace, self_report, seed)
            best = bests.get(slug)
            if best is None or stats["wall_s"] < best["wall_s"]:
                bests[slug] = stats
    for label, slug, trace, self_report in scenarios:
        best = bests[slug]
        table.add_row(
            label,
            f"{best['wall_s'] * 1e3:.1f} ms",
            format_rate(best["goodput"]),
            int(best["span_records"]),
            int(best["batches_traced"]),
            int(best["self_series"]),
        )
        for key, value in best.items():
            (wall if key == "wall_s" else numbers)[f"{slug}_{key}"] = value
    for slug in ("traced", "selfreport"):
        wall[f"{slug}_overhead_frac"] = (
            wall[f"{slug}_wall_s"] - wall["off_wall_s"]
        ) / wall["off_wall_s"]
    # Disabled-path micro-measure: per-call cost of Tracer.begin when
    # tracing is off (returns the shared NULL_SPAN, no allocation).
    tracer = Tracer()
    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        tracer.begin("bench.noop")
    wall["disabled_span_ns"] = (time.perf_counter() - t0) / calls * 1e9
    n = numbers
    return ExperimentResult(
        "E13",
        "tracing is zero-cost off and its wall overhead on is recorded against 5%",
        [table],
        notes=[
            "expected shape: the untraced run records zero spans and its goodput "
            "matches the traced runs exactly (observability consumes no simulated "
            "time); min-wall overhead sits near the 5% budget with tracing on, and "
            "the disabled Tracer.begin guard costs nanoseconds per call",
        ],
        numbers=numbers,
        wall=wall,
        claims={
            "untraced_run_records_no_spans": n["off_span_records"] == 0,
            "disabled_begin_under_2us": wall["disabled_span_ns"] < 2_000,
            "traced_run_traces_batches": (
                n["traced_span_records"] > 0 and n["traced_batches_traced"] >= 1
            ),
            "self_report_writes_series": n["selfreport_self_series"] > 0,
            "tracing_consumes_no_simulated_time": (
                n["traced_goodput"] == n["off_goodput"] == n["selfreport_goodput"]
            ),
        },
    )


# ----------------------------------------------------------------------
# E14 — serving gateway: cache hit ratio, tail latency, stampede
# ----------------------------------------------------------------------
_SERVE_METRIC = "energy"


def _serve_cluster(n_units: int, n_sensors: int, horizon: int) -> TsdbCluster:
    """A small retained-data deployment pre-seeded with fleet series."""
    cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4, retain_data=True))
    cluster.direct_put(
        [
            DataPoint.make(
                _SERVE_METRIC,
                t,
                float((t * 13 + u * 7 + s * 3) % 101),
                {"unit": f"u{u}", "sensor": f"s{s}"},
            )
            for t in range(horizon)
            for u in range(n_units)
            for s in range(n_sensors)
        ]
    )
    return cluster


def _serve_workload(
    cache_enabled: bool,
    n_stampede: int,
    duration: float,
    seed: int,
    n_units: int = 4,
    n_sensors: int = 3,
    horizon: int = 120,
    deadline: Optional[float] = None,
) -> Tuple[WorkloadReport, "QueryGateway"]:
    """One seeded fleet-workload run against a fresh gateway."""
    cluster = _serve_cluster(n_units, n_sensors, horizon)
    gateway = cluster.gateway(
        GatewayConfig(
            ttl=1.0,
            cache_enabled=cache_enabled,
            max_concurrent=2,
            max_queue=8,
            service_model=ServeServiceModel(overhead=0.01),
        )
    )
    units = [f"u{u}" for u in range(n_units)]
    workload = FleetWorkload(
        gateway,
        _SERVE_METRIC,
        units,
        (0, horizon),
        WorkloadConfig(
            n_stampede=n_stampede,
            duration=duration,
            stampede_at=duration / 2.0,
            deadline=deadline,
            seed=seed,
        ),
    )
    # Steady-state warmup: dashboards have been polling since long
    # before the measured window, so the working set is resident (and
    # thereafter kept live by stale-while-revalidate).  The cache-off
    # ablation executes these uncached, symmetrically.
    gateway.serve(workload.overview_query(), client_id="warmup")
    for unit in units:
        gateway.serve(workload.drilldown_query(unit), client_id="warmup")
    return workload.run(), gateway


@REGISTRY.register("E14", "serving gateway — hit ratio, tail latency, stampede shedding")
def e14_serve_gateway(quick: bool = False) -> ExperimentResult:
    """The query-serving tier under a simulated dashboard fleet.

    Three runs share one seeded workload shape: the gateway with its
    result cache on, the cache-off ablation (every poll executes
    against storage), and a hot-unit stampede against each.  Expected
    shape: warm-cache hit ratio >= 0.8 with client p99 at least 5x
    lower than cache-off; under the stampede the cache+admission tier
    keeps p99 bounded and conserves every request
    (``issued == served + shed``) with zero unaccounted
    stale responses; with the cache ablated the stampede overwhelms the
    execution slots and admission control demonstrably sheds.
    """
    duration, stampede = (5.0, 30) if quick else (10.0, 60)
    seed = 29
    scenarios = [
        ("cache on", "on", True, 0, None),
        ("cache off", "off", False, 0, None),
        ("stampede, cache on", "stampede_on", True, stampede, 1.0),
        ("stampede, cache off", "stampede_off", False, stampede, 1.0),
    ]
    table = Table(
        f"Serving-gateway fleet workload ({duration:.0f}s sim, "
        f"16 pollers + 4 browsers, stampede of {stampede})",
        ["scenario", "issued", "served", "hit ratio", "p50", "p99", "shed"],
    )
    numbers: Dict[str, float] = {}
    for label, slug, cache_enabled, n_stampede, deadline in scenarios:
        report, gateway = _serve_workload(
            cache_enabled, n_stampede, duration, seed, deadline=deadline
        )
        table.add_row(
            label,
            report.issued,
            report.served,
            f"{report.hit_ratio:.2f}",
            f"{report.latency_quantile(0.5) * 1e3:.2f} ms",
            f"{report.latency_quantile(0.99) * 1e3:.2f} ms",
            report.shed,
        )
        numbers[f"{slug}_issued"] = float(report.issued)
        numbers[f"{slug}_served"] = float(report.served)
        numbers[f"{slug}_shed"] = float(report.shed)
        numbers[f"{slug}_hit_ratio"] = report.hit_ratio
        numbers[f"{slug}_p50"] = report.latency_quantile(0.5)
        numbers[f"{slug}_p99"] = report.latency_quantile(0.99)
        numbers[f"{slug}_stale_unaccounted"] = float(report.stale_unaccounted)
        numbers[f"{slug}_not_modified"] = float(report.not_modified)
        numbers[f"{slug}_cache_size"] = float(len(gateway.cache))
    numbers["p99_speedup"] = numbers["off_p99"] / max(numbers["on_p99"], 1e-12)
    n = numbers
    slugs = [slug for _, slug, _, _, _ in scenarios]
    return ExperimentResult(
        "E14",
        "the result cache + admission tier keeps dashboard p99 bounded",
        [table],
        notes=[
            "expected shape: cache-on hit ratio >= 0.8 with p99 >= 5x below the "
            "cache-off ablation; the stampede conserves every request "
            "(issued == served + shed, zero unaccounted stale serves) "
            "and with the cache ablated admission control sheds the overflow "
            "instead of letting the queue grow without bound",
        ],
        numbers=numbers,
        claims={
            "warm_hit_ratio_at_least_0.8": n["on_hit_ratio"] >= 0.8,
            "cache_cuts_p99_at_least_5x": n["p99_speedup"] >= 5.0,
            "cache_off_really_ablates": n["off_hit_ratio"] == 0.0,
            "every_scenario_conserves_requests": all(
                n[f"{s}_issued"] == n[f"{s}_served"] + n[f"{s}_shed"] for s in slugs
            ),
            "every_stale_serve_carries_its_age": all(
                n[f"{s}_stale_unaccounted"] == 0 for s in slugs
            ),
            "stampede_through_the_cache_stays_bounded": n["stampede_on_p99"] <= n["off_p99"],
            "ablated_stampede_is_shed": n["stampede_off_shed"] > 0,
            "unchanged_polls_ride_not_modified": n["on_not_modified"] > 0,
        },
    )


# ----------------------------------------------------------------------
# E15 — columnar block hot path: ingest goodput and the parse kernel
# ----------------------------------------------------------------------
def _series_major_points(
    n_points: int, n_units: int, n_sensors: int, seed: int
) -> List[DataPoint]:
    """Series-major synthetic workload: long per-series runs, dense blocks.

    Sensors publish contiguous per-series runs (how real collectors
    batch), which is what makes blocks dense; an interleaved stream
    (E13 style, ``unit=u{i%8}``) would degenerate every block to one
    point and measure nothing.
    """
    rng = np.random.default_rng(seed)
    per_series = n_points // (n_units * n_sensors)
    values = rng.normal(size=n_units * n_sensors * per_series)
    points: List[DataPoint] = []
    k = 0
    for u in range(n_units):
        for s in range(n_sensors):
            tags = {"unit": f"u{u}", "sensor": f"s{s}"}
            for t in range(per_series):
                points.append(
                    DataPoint.make("energy", 1_000 + t, float(values[k]), tags)
                )
                k += 1
    return points


def _block_publish_run(
    points: List[DataPoint], batch_size: int, use_blocks: bool
) -> Dict[str, float]:
    """Publish one workload point-wise or as blocks; report sim goodput."""
    from ..tsdb.blocks import BlockBatch

    cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4))
    publisher = BatchPublisher(cluster, batch_size=batch_size, max_in_flight_batches=8)
    if use_blocks:
        report, wall = _timed_publish(
            publisher, lambda: publisher.publish_blocks(BlockBatch.from_points(points))
        )
    else:
        report, wall = _timed_publish(publisher, lambda: publisher.publish(points))
    sim_elapsed = max(cluster.sim.now, 1e-9)
    return {
        "goodput": report.points_written / sim_elapsed,
        "written": float(report.points_written),
        "failed": float(report.points_failed),
        "wall_s": wall,
        "sim_s": cluster.sim.now,
    }


def _kernel_microbench(n_points: int, seed: int) -> Dict[str, float]:
    """Wall-clock of the batch parse kernel vs the per-line path."""
    from ..tsdb.lineprotocol import format_put_line, parse_block, parse_lines

    points = _series_major_points(n_points, 4, 5, seed)
    lines = [format_put_line(p) for p in points]
    w0 = time.perf_counter()
    parsed = list(parse_lines(lines))
    wall_lines = time.perf_counter() - w0
    w0 = time.perf_counter()
    batch = parse_block(lines)
    wall_block = time.perf_counter() - w0
    assert len(parsed) == len(batch)
    return {
        "parse_wall_lines_s": wall_lines,
        "parse_wall_block_s": wall_block,
        "parse_speedup": wall_lines / max(wall_block, 1e-12),
        "parse_blocks": float(len(batch.blocks)),
    }


#: The E12 fault-free goodput this repo's seed runs record (22.5k pts/s
#: at 10k points / batches of 100 / 2 nodes) — the block path's target
#: is >= 5x this.
E12_BASELINE_GOODPUT = 22_500.0


@REGISTRY.register("E15", "columnar blocks — ingest goodput and the parse kernel")
def e15_block_hotpath(quick: bool = False) -> ExperimentResult:
    """The block redesign's headline claim: the hot path is columnar.

    Publishes one series-major workload through the point-wise and the
    block ingest paths (same batch size, same cluster), and times the
    batch parse kernel.  Simulated goodput is deterministic per seed;
    wall-clock rows are recorded for the kernel story, not claimed.
    """
    n_points = 2_500 if quick else 10_000
    batch_size, n_units, n_sensors, seed = 100, 8, 5, 29
    points = _series_major_points(n_points, n_units, n_sensors, seed)
    point_run = _block_publish_run(points, batch_size, use_blocks=False)
    block_run = _block_publish_run(points, batch_size, use_blocks=True)
    kernels = _kernel_microbench(min(n_points, 5_000), seed)

    ingest = Table(
        f"Block vs point ingest ({len(points)} points, batches of {batch_size}, 2 nodes)",
        ["path", "goodput", "written", "failed", "sim time", "wall"],
    )
    for label, run in [("point-wise", point_run), ("columnar blocks", block_run)]:
        ingest.add_row(
            label,
            format_rate(run["goodput"]),
            int(run["written"]),
            int(run["failed"]),
            f"{run['sim_s'] * 1e3:.1f} ms",
            f"{run['wall_s'] * 1e3:.1f} ms",
        )
    kernel_table = Table(
        "Batch parse kernel (wall-clock)",
        ["kernel", "wall", "speedup"],
    )
    kernel_table.add_row(
        "parse_lines (per line)", f"{kernels['parse_wall_lines_s'] * 1e3:.1f} ms", "1.0x"
    )
    kernel_table.add_row(
        "parse_block (columnar)",
        f"{kernels['parse_wall_block_s'] * 1e3:.1f} ms",
        f"{kernels['parse_speedup']:.1f}x",
    )

    numbers: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for slug, run in [("point", point_run), ("block", block_run)]:
        for key, value in run.items():
            (wall if key == "wall_s" else numbers)[f"{slug}_{key}"] = value
    for key, value in kernels.items():
        (numbers if key == "parse_blocks" else wall)[key] = value
    numbers["e12_baseline_goodput"] = E12_BASELINE_GOODPUT
    numbers["speedup_vs_e12_baseline"] = numbers["block_goodput"] / E12_BASELINE_GOODPUT
    numbers["speedup_vs_pointwise"] = numbers["block_goodput"] / max(
        numbers["point_goodput"], 1e-12
    )
    return ExperimentResult(
        "E15",
        "the columnar block path multiplies simulated ingest goodput",
        [ingest, kernel_table],
        notes=[
            "expected shape: block-path goodput >= 5x the E12 22.5k pts/s fault-free "
            "baseline, and well above the same-workload point path",
        ],
        numbers=numbers,
        wall=wall,
        claims={
            "block_goodput_at_least_5x_e12_baseline": numbers["speedup_vs_e12_baseline"] >= 5.0,
            "block_path_beats_the_point_path": (
                numbers["block_goodput"] > numbers["point_goodput"]
            ),
            "no_point_lost_on_either_path": (
                numbers["point_failed"] == numbers["block_failed"] == 0
                and numbers["point_written"] == numbers["block_written"]
            ),
        },
    )


# ----------------------------------------------------------------------
# E16 — replicated reads: availability through RegionServer crashes
# ----------------------------------------------------------------------
#: Fault-free replication overhead budget: the fraction of rf=1 publish
#: goodput an rf=2 deployment may give up.  WAL shipping is
#: asynchronous and off the write critical path, so the budget is
#: deliberately tight.
E16_OVERHEAD_BUDGET = 0.10
#: Staleness bound a successful timeline probe must report (seconds).
E16_STALENESS_BOUND = 1.0
#: A probe must complete within this much simulated time to count as an
#: available read — a reply that only arrives after crash detection and
#: recovery is an outage, not availability.
E16_PROBE_BUDGET = 0.25
#: Crash window length and the master's detection delay.  Detection is
#: deliberately slower than the outage: each server restarts before the
#: master notices, and the restart recovers its crash, so without replicas
#: only a probe whose retries outlast the window reads the crashed regions.
E16_CRASH_WINDOW = 1.0
E16_DETECTION_DELAY = 1.2


def _e16_points(n_points: int, seed: int) -> List[DataPoint]:
    rng = np.random.default_rng(seed)
    # Enough distinct series (unit x src) that every salt bucket holds
    # data — a crash then provably interrupts reads on every bucket.
    return [
        DataPoint.make(
            "energy", 1_000 + i, float(v),
            {"unit": f"u{i % 4}", "src": f"s{i % 7}"},
        )
        for i, v in enumerate(rng.normal(size=n_points))
    ]


def _e16_publish(
    replication_factor: int, points: Sequence[DataPoint], detection_delay: float = 0.0
) -> Tuple[TsdbCluster, float]:
    """A 3-node cluster loaded through the WAL-synced RPC publish path.

    Returns the cluster and its publish goodput (points per simulated
    second, replication shipping included in the elapsed time).
    """
    cluster = build_cluster(ClusterConfig(
        n_nodes=3,
        salt_buckets=6,
        retain_data=True,
        crash_on_overflow=False,
        replication_factor=replication_factor,
        failure_detection_delay=detection_delay,
    ))
    start = cluster.sim.now
    publisher = BatchPublisher(
        cluster, batch_size=100, max_in_flight_batches=8, ack_deadline=30.0
    )
    publisher.publish(points)
    report = publisher.flush()
    goodput = report.points_written / max(cluster.sim.now - start, 1e-9)
    # Let the asynchronous WAL-shipping apply loops drain fully.
    cluster.sim.run(until=cluster.sim.now + 1.0)
    return cluster, goodput


def _e16_query(n_points: int) -> TsdbQuery:
    return TsdbQuery("energy", 0, 1_000 + n_points + 1, aggregator="sum")


def _e16_probe_run(
    replication_factor: int, points: Sequence[DataPoint], n_probes: int
) -> Dict[str, float]:
    """Probe timeline reads through two sequential RegionServer crashes."""
    cluster, _ = _e16_publish(
        replication_factor, points, detection_delay=E16_DETECTION_DELAY
    )
    sim = cluster.sim
    client = HTableClient(
        sim, cluster.network, cluster.master, "probe-client",
        metrics=cluster.metrics, max_retries=3,
    )
    executor = AsyncQueryExecutor(sim, client, cluster.uids, cluster.codec)
    full_query = _e16_query(len(points))
    # Probes read a fixed-width slice so their cost stays constant as
    # the published workload grows — concurrent probes then cannot
    # overload the surviving servers on their own.  Full-dataset
    # completeness is checked separately through the strong read below.
    probe_query = TsdbQuery("energy", 1_000, 2_000, aggregator="sum")

    # Calibrate probe timing to the workload: the per-RPC deadline is a
    # small multiple of the healthy end-to-end latency, so a timeout
    # signals a dead replica rather than a legitimately large scan.
    # The warm probe also pins the expected point count for the slice.
    warm: List[object] = []
    executor.execute(probe_query, warm.append, consistency="timeline", deadline=None)
    sim.run(until=sim.now + 5.0)
    if not warm or not warm[0].complete:
        raise RuntimeError("E16 warm-up probe failed on a healthy cluster")
    expected = sum(len(s.timestamps) for s in warm[0].series)
    healthy_latency = warm[0].latency
    # Deadline leaves room for legitimately-degraded reads (post-crash
    # rebalancing concentrates load on the survivors); a timeout still
    # signals a dead replica an order of magnitude before detection.
    deadline = max(0.03, 2.5 * healthy_latency)
    # Hedge only once the healthy latency has elapsed: hedging sooner
    # fires duplicates on perfectly healthy reads, and that extra load
    # can tip the surviving servers into a metastable overload where
    # deadline misses beget retries beget more load.
    hedge_delay = healthy_latency
    probe_budget = max(E16_PROBE_BUDGET, 5.0 * deadline)

    # Two crash windows, each recovered (at the server's restart, inside
    # the detection delay) before the next begins.
    windows: List[Tuple[float, float]] = []
    events: List[FaultEvent] = []
    start = sim.now + 0.3
    for target in ("rs00", "rs01"):
        events.append(
            FaultEvent(at=start, action="rs_crash", target=target, duration=E16_CRASH_WINDOW)
        )
        windows.append((start, start + E16_CRASH_WINDOW))
        start += E16_DETECTION_DELAY + 0.6
    horizon = windows[-1][0] + E16_DETECTION_DELAY + 0.6
    # After the probe windows, one outage *longer* than the detection
    # delay exercises detection-time recovery: the regions fail over to
    # their most-caught-up followers (rf>=2) or move to the survivors
    # (rf=1).  Probes in flight then are out-of-window and do not count
    # toward availability.
    failover_at = horizon + 0.2
    failover_outage = E16_DETECTION_DELAY + 1.0
    events.append(
        FaultEvent(at=failover_at, action="rs_crash", target="rs02",
                   duration=failover_outage)
    )
    injector = Injector(cluster, FaultPlan(name="e16-rs-crash", events=tuple(events)))
    injector.arm()

    probes: List[Tuple[float, float, object, int]] = []

    # Closed-loop probing: one probe outstanding at a time, the next
    # issued a fixed gap after the previous resolves.  The probe stream
    # then cannot saturate the cluster it is measuring, no matter how
    # slow degraded reads get.
    probe_gap = 2.0 * healthy_latency

    def probe() -> None:
        issued = sim.now

        def done(res) -> None:
            total = sum(len(s.timestamps) for s in res.series)
            probes.append((issued, sim.now - issued, res, total))
            if sim.now + probe_gap < horizon and len(probes) < n_probes:
                sim.schedule(probe_gap, probe)

        executor.execute(
            probe_query, done, consistency="timeline",
            deadline=deadline, hedge_delay=hedge_delay,
        )

    sim.schedule(0.05, probe)
    sim.run(until=failover_at + failover_outage + E16_DETECTION_DELAY + 1.0)
    injector.finalize()

    def ok(entry: Tuple[float, float, object, int]) -> bool:
        _, latency, res, total = entry
        return (
            res.complete
            and latency <= probe_budget
            and total == expected
            and res.staleness <= E16_STALENESS_BOUND
        )

    in_window = [
        p for p in probes if any(lo <= p[0] < hi for lo, hi in windows)
    ]
    successes = [p for p in in_window if ok(p)]
    post_series = cluster.query_engine().run(full_query)
    return {
        "probes_total": float(len(probes)),
        "probes_in_window": float(len(in_window)),
        "healthy_latency": healthy_latency,
        "probe_deadline": deadline,
        "probe_budget": probe_budget,
        "availability": len(successes) / max(len(in_window), 1),
        "max_staleness": max((p[2].staleness for p in successes), default=0.0),
        "retries": float(sum(p[2].retries for p in probes)),
        "hedges": float(sum(p[2].hedges for p in probes)),
        "follower_reads": float(sum(p[2].follower_reads for p in probes)),
        "failovers": cluster.metrics.counter("master.failovers").get(),
        "post_crash_strong_points": float(sum(len(s.timestamps) for s in post_series)),
    }


@REGISTRY.register("E16", "replicated reads — availability through RegionServer crashes")
def e16_replicated_reads(quick: bool = False) -> ExperimentResult:
    """Read-path fault tolerance: region replicas + failover reads.

    Loads one WAL-synced workload, then crashes RegionServers under a
    slower-than-the-outage detection delay while probing deadline-
    bounded, hedged timeline reads.  Unreplicated, every in-window
    probe that touches the dead server's regions fails; with one
    follower per region, reads fail over within a deadline and the
    Master promotes the most-caught-up follower once detection fires.
    Fault-free, the asynchronous WAL shipping must stay near-free on
    publish goodput, and strong-mode gateway responses must remain
    bit-identical to the direct engine.
    """
    n_points, n_probes = (1_500, 24) if quick else (4_000, 48)
    points = _e16_points(n_points, 29)
    query = _e16_query(n_points)

    # Fault-free: replication overhead + strong-mode bit-identity.
    _, goodput_rf1 = _e16_publish(1, points)
    repl_cluster, goodput_rf2 = _e16_publish(2, points)
    overhead_frac = (goodput_rf1 - goodput_rf2) / max(goodput_rf1, 1e-9)
    engine_series = repl_cluster.query_engine().run(query)
    gateway_series = repl_cluster.gateway().run(query)
    strong_identical = 1.0 if result_etag(gateway_series) == result_etag(engine_series) else 0.0

    unreplicated = _e16_probe_run(1, points, n_probes)
    replicated = _e16_probe_run(2, points, n_probes)

    availability = Table(
        f"Timeline reads under RegionServer crashes ({n_probes} probes, "
        f"{E16_CRASH_WINDOW:.1f}s windows, detection {E16_DETECTION_DELAY:.1f}s)",
        ["configuration", "in-window availability", "max staleness",
         "follower reads", "hedges", "failovers"],
    )
    for label, run in [("rf=1 (unreplicated)", unreplicated), ("rf=2 (1 follower)", replicated)]:
        availability.add_row(
            label,
            f"{run['availability'] * 100.0:.1f}%",
            f"{run['max_staleness'] * 1e3:.1f} ms",
            int(run["follower_reads"]),
            int(run["hedges"]),
            int(run["failovers"]),
        )
    overhead = Table(
        f"Fault-free publish goodput ({n_points} points, batches of 100, 3 nodes)",
        ["configuration", "goodput", "overhead vs rf=1"],
    )
    overhead.add_row("rf=1", format_rate(goodput_rf1), "—")
    overhead.add_row("rf=2", format_rate(goodput_rf2), f"{overhead_frac * 100.0:.1f}%")

    numbers: Dict[str, float] = {}
    for slug, run in [("unreplicated", unreplicated), ("replicated", replicated)]:
        for key, value in run.items():
            numbers[f"{slug}_{key}"] = value
    numbers.update(
        goodput_rf1=goodput_rf1,
        goodput_rf2=goodput_rf2,
        overhead_frac=overhead_frac,
        overhead_budget=E16_OVERHEAD_BUDGET,
        strong_identical=strong_identical,
        points_expected=float(n_points),
    )
    return ExperimentResult(
        "E16",
        "follower replicas turn crash windows from outages into bounded-staleness reads",
        [availability, overhead],
        notes=[
            "expected shape: in-window timeline availability >= 99% with rf=2 "
            "(collapsing toward 0% unreplicated), every loaded point read back after "
            "failover, fault-free replication overhead within the "
            f"{E16_OVERHEAD_BUDGET:.0%} budget, and strong-mode gateway responses "
            "bit-identical to the direct engine",
        ],
        numbers=numbers,
        claims={
            "replicated_in_window_availability_at_least_99pct": (
                numbers["replicated_availability"] >= 0.99
            ),
            "unreplicated_in_window_availability_at_most_20pct": (
                numbers["unreplicated_availability"] <= 0.20
            ),
            "availability_rests_on_4_in_window_probes_each": all(
                numbers[f"{slug}_probes_in_window"] >= 4
                for slug in ("replicated", "unreplicated")
            ),
            "timeline_staleness_within_bound": (
                numbers["replicated_max_staleness"] <= E16_STALENESS_BOUND
            ),
            "failover_promotes_followers": numbers["replicated_failovers"] > 0,
            "no_synced_cell_lost_with_or_without_replicas": all(
                numbers[f"{slug}_post_crash_strong_points"] == numbers["points_expected"]
                for slug in ("replicated", "unreplicated")
            ),
            "replication_overhead_within_budget": (
                numbers["overhead_frac"] <= E16_OVERHEAD_BUDGET
            ),
            "strong_gateway_reads_bit_identical": numbers["strong_identical"] == 1.0,
        },
    )


# ----------------------------------------------------------------------
# E17 — continuous detection + smart alerting
# ----------------------------------------------------------------------
#: Gated floor on alert-volume reduction: naive per-sensor firings per
#: operator-facing incident on the seeded correlated-fault workload.
E17_REDUCTION_FLOOR = 5.0


def _e17_generator(n_units: int, n_sensors: int, seed: int) -> FleetGenerator:
    """The E17 correlated-fault fleet.

    Strong factor-loaded faults (3–6 sigma, drifts fully developed
    within 100–200 s) on a 30/20/50 shift/drift/healthy mix — the
    regime where one physical fault lights up many sensors at once and
    naive per-sensor paging floods the operator.
    """
    return FleetGenerator(
        FleetConfig(
            n_units=n_units,
            n_sensors=n_sensors,
            seed=seed,
            fault_mix=(0.3, 0.2, 0.5),
            magnitude_range=(3.0, 6.0),
            drift_ramp_range=(100, 200),
        )
    )


def _e17_onsets(generator: FleetGenerator, n_train: int, n_eval: int) -> Dict[int, int]:
    """Absolute stream-time fault onset per faulted unit."""
    onsets: Dict[int, int] = {}
    for unit_id in generator.units():
        faults = generator.fault_for(unit_id, n_eval)
        if faults:
            onsets[unit_id] = n_train + min(f.onset for f in faults)
    return onsets


@REGISTRY.register("E17", "streaming — continuous detection + alert dedup/suppression")
def e17_streaming_alerting(quick: bool = False) -> ExperimentResult:
    """The closed loop: micro-batch stream → detection → incidents.

    One seeded correlated-fault fleet is streamed end to end through
    :class:`~repro.alerting.StreamingDetector`: raw samples land as
    columnar blocks, flagged cells as ``anomaly`` points, and the
    alerting layer's incidents as ``alert.*`` series — every channel
    ack-tracked.  The headline numbers are alert-volume reduction
    (naive per-sensor firings per emitted incident), detection latency
    from injected fault onset to incident open, and the sustained
    stream→incident ingest rate.  Detection is deterministic per seed;
    only the wall-clock rows vary run to run.
    """
    del quick  # the paper-scale run is already CI-sized: both forms are one run
    from ..alerting import AlertingConfig, StreamingDetector
    from ..alerting.store import ALERT_INCIDENT_METRIC

    n_units, n_sensors, n_train, n_eval, interval = 8, 12, 300, 300, 25
    generator = _e17_generator(n_units, n_sensors, 11)
    cluster = build_cluster(ClusterConfig(n_nodes=2, salt_buckets=4, retain_data=True))
    detector = StreamingDetector(
        n_sensors,
        cluster,
        config=FDRDetectorConfig(q=0.005),
        alerting=AlertingConfig(open_after=3),
        min_samples=200,
        refresh_every=2,
    )
    report = detector.run_fleet(
        generator, n_train=n_train, n_eval=n_eval, interval=interval
    )

    onsets = _e17_onsets(generator, n_train, n_eval)
    latencies = report.detection_latencies(onsets)
    missed = sorted(set(onsets) - set(latencies))
    # Spurious pages: unit incidents on healthy units, or opened on a
    # faulted unit before its fault exists.
    spurious = sum(
        1
        for inc in report.incidents
        if inc.scope == "unit"
        and (inc.unit_id not in onsets or inc.opened_at < onsets[inc.unit_id])
    )
    stored = cluster.query_engine().run(
        TsdbQuery(
            ALERT_INCIDENT_METRIC, 0, n_train + n_eval + 1, group_by=("unit",)
        )
    )
    stored_incidents = sum(len(s.timestamps) for s in stored)

    alerting_table = Table(
        f"Alert volume and detection latency ({n_units} units x {n_sensors} sensors, "
        f"{len(onsets)} faulted)",
        ["readout", "naive per-sensor", "alerting layer"],
    )
    alerting_table.add_row("alerts raised", report.naive_alerts, report.incidents_opened)
    alerting_table.add_row(
        "reduction", "1.0x", f"{report.volume_reduction:.1f}x"
    )
    alerting_table.add_row(
        "faults detected", f"{len(onsets)}/{len(onsets)}",
        f"{len(latencies)}/{len(onsets)}" + (f" (missed {missed})" if missed else ""),
    )
    lat_values = sorted(latencies.values())
    alerting_table.add_row(
        "onset → open latency", "—",
        f"mean {np.mean(lat_values):.0f}s, max {max(lat_values)}s" if lat_values else "—",
    )
    alerting_table.add_row("spurious unit incidents", "—", spurious)

    stream_table = Table(
        "Sustained stream → incident path",
        ["intervals", "samples", "samples/s (wall)", "model swaps", "quarantines"],
    )
    stream_table.add_row(
        report.intervals,
        report.samples_streamed,
        format_rate(report.samples_per_second),
        report.model_swaps,
        report.quarantines,
    )

    publish_table = Table(
        "Publish conservation (ack-tracked channels)",
        ["channel", "submitted", "written", "unaccounted"],
    )
    channel_numbers: Dict[str, float] = {}
    for label, pub in [
        ("data blocks", report.data_publish),
        ("anomaly points", report.anomaly_publish),
        ("alert series", report.alert_publish),
    ]:
        if pub is None:
            continue
        unaccounted = pub.points_submitted - pub.points_accounted
        publish_table.add_row(
            label, pub.points_submitted, pub.points_written, unaccounted
        )
        slug = label.split(" ")[0]
        channel_numbers[f"{slug}_submitted"] = float(pub.points_submitted)
        channel_numbers[f"{slug}_unaccounted"] = float(unaccounted)

    numbers: Dict[str, float] = {
        "naive_alerts": float(report.naive_alerts),
        "incidents_opened": float(report.incidents_opened),
        "volume_reduction": report.volume_reduction,
        "reduction_floor": E17_REDUCTION_FLOOR,
        "faulted_units": float(len(onsets)),
        "detected_units": float(len(latencies)),
        "missed_units": float(len(missed)),
        "spurious_unit_incidents": float(spurious),
        "latency_mean": float(np.mean(lat_values)) if lat_values else float("nan"),
        "latency_max": float(max(lat_values)) if lat_values else float("nan"),
        "intervals": float(report.intervals),
        "samples_streamed": float(report.samples_streamed),
        "samples_scored": float(report.samples_scored),
        "model_swaps": float(report.model_swaps),
        "quarantines": float(report.quarantines),
        "stored_alert_incidents": float(stored_incidents),
        **channel_numbers,
    }
    return ExperimentResult(
        "E17",
        "the alerting layer collapses per-sensor firings into a handful of incidents",
        [alerting_table, stream_table, publish_table],
        notes=[
            f"expected shape: every injected fault opens exactly one incident "
            f"(zero missed, zero spurious) at >= {E17_REDUCTION_FLOOR:.0f}x volume "
            "reduction over naive per-sensor firing, with every publish channel "
            "conserving points end to end",
            "detection numbers are deterministic per seed; only wall-clock varies",
        ],
        numbers=numbers,
        wall={"samples_per_second": report.samples_per_second, "wall_s": report.wall_seconds},
        claims={
            "volume_reduction_meets_floor": report.volume_reduction >= E17_REDUCTION_FLOOR,
            "reduction_rests_on_real_firings": (
                report.naive_alerts >= 100 and report.incidents_opened >= 1
            ),
            "every_injected_fault_detected": (
                len(onsets) >= 3 and not missed and len(latencies) == len(onsets)
            ),
            "no_spurious_unit_incidents": spurious == 0,
            "incidents_open_while_the_window_streams": (
                0 < numbers["latency_mean"] <= numbers["latency_max"] <= n_eval
            ),
            "every_unit_hot_swaps_a_model": report.model_swaps >= n_units,
            "every_publish_channel_conserves": (
                all(
                    channel_numbers.get(f"{c}_unaccounted") == 0
                    for c in ("data", "anomaly", "alert")
                )
                and channel_numbers["data_submitted"] == report.samples_streamed
            ),
            "incidents_round_trip_through_the_tsdb": (
                stored_incidents == report.incidents_opened
            ),
        },
    )


# ----------------------------------------------------------------------
# E18: data lifecycle — rollup tiers under a fleet-growth soak
# ----------------------------------------------------------------------
E18_FLAT_FACTOR = 2.0
E18_SUPERLINEAR_MARGIN = 1.2
E18_RAW_REDUCTION_FLOOR = 5.0


def _e18_cells(engine, query: TsdbQuery) -> int:
    """Cells scanned by one run of ``query`` (the deterministic cost proxy)."""
    before = engine.scan_cells
    engine.run(query)
    return engine.scan_cells - before


def _e18_long(horizon: int) -> TsdbQuery:
    """The long-horizon dashboard: fleet min at 1 h resolution, full history."""
    return TsdbQuery(
        FLEET_METRIC,
        0,
        horizon,
        aggregator="min",
        downsample_window=3600,
        downsample_aggregator="min",
    )


def _e18_short(horizon: int) -> TsdbQuery:
    """The short-horizon baseline: last hour at 1 m resolution (raw-served)."""
    return TsdbQuery(
        FLEET_METRIC,
        horizon - 3600,
        horizon,
        aggregator="min",
        downsample_window=60,
        downsample_aggregator="min",
    )


@REGISTRY.register(
    "E18", "lifecycle — rollup tiers keep long-horizon dashboards flat under soak"
)
def e18_lifecycle_soak(quick: bool = False) -> ExperimentResult:
    """The lifecycle soak: a geometrically growing fleet vs a fixed dashboard.

    :func:`~repro.simdata.workload.soak_stream` grows the fleet from
    100 to 10,000 units over 6 h (10 to 120 over 4 h in the quick form;
    diurnal values, periodic ingest bursts, sensor churn) while the
    lifecycle tier materializes 1 h rollups and expires raw cells past
    the raw TTL.  At three checkpoints the same two dashboard queries
    are replayed:

    * **long horizon** — fleet-wide min at 1 h resolution over the whole
      soak history, tier-routed (and pooled once raw expires);
    * **short horizon** — the last hour at 1 m resolution, raw-served:
      the cost an operator already accepts for a live view.

    The cost proxy is cells scanned (deterministic per seed; wall-clock
    rows are recorded but not claimed).  The claims: the raw-only ablation
    of the long query grows super-linearly in time as the fleet grows,
    while the tier-routed plan stays within ``E18_FLAT_FACTOR`` of the
    short-horizon baseline; tier answers over unexpired raw are
    bit-identical; out-of-order writes injected mid-soak are
    re-materialized; and conservation holds through TTL expiry.
    """
    from ..lifecycle import LifecyclePolicy, TierSpec

    if quick:
        start_units, end_units, duration, raw_ttl, query_reps = 10, 120, 4 * 3600, 2 * 3600, 3
    else:
        start_units, end_units, duration, raw_ttl, query_reps = 100, 10_000, 6 * 3600, 3 * 3600, 5
    cadence, maintenance_every, seed = 60, 1800, 0

    cluster = build_cluster(
        ClusterConfig(
            n_nodes=2,
            salt_buckets=4,
            retain_data=True,
            # A single 1 h tier: at a 60 s soak cadence a 1 m tier would
            # hold as many windows as raw holds points — pure overhead.
            lifecycle=LifecyclePolicy(tiers=(TierSpec("1h", 3600),), raw_ttl=raw_ttl),
        )
    )
    lm = cluster.lifecycle
    routed = cluster.query_engine()
    raw_engine = cluster.query_engine()
    raw_engine.lifecycle = None  # ablation: same storage, no tier routing

    checkpoint_rows: List[Dict[str, float]] = []

    def measure() -> None:
        horizon = lm.rollup.watermark(FLEET_METRIC, "1h")
        hwm = lm.rollup.high_water(FLEET_METRIC)
        long_q, short_q = _e18_long(horizon), _e18_short(horizon)
        long_walls: List[float] = []
        short_walls: List[float] = []
        routed_cells = short_cells = 0
        for _ in range(query_reps):
            t0 = time.perf_counter()
            routed_cells = _e18_cells(routed, long_q)
            long_walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            short_cells = _e18_cells(routed, short_q)
            short_walls.append(time.perf_counter() - t0)
        raw_cells = _e18_cells(raw_engine, long_q)
        checkpoint_rows.append(
            {
                "end": float(hwm + 1),
                "units": float(
                    soak_units(min(hwm, duration), duration, start_units, end_units)
                ),
                "raw_cells": float(raw_cells),
                "routed_cells": float(routed_cells),
                "short_cells": float(short_cells),
                "long_p99_ms": float(np.percentile(long_walls, 99) * 1e3),
                "short_p99_ms": float(np.percentile(short_walls, 99) * 1e3),
            }
        )

    checkpoints = [duration // 3, 2 * duration // 3]
    points = 0
    passes = 0
    late_writes = 0
    next_maintenance = maintenance_every
    ci = 0
    wall0 = time.perf_counter()
    for batch in soak_stream(
        start_units=start_units,
        end_units=end_units,
        n_sensors=2,
        duration=duration,
        cadence=cadence,
        seed=seed,
    ):
        cluster.direct_put(batch)
        points += len(batch)
        hwm = lm.rollup.high_water(FLEET_METRIC)
        while hwm + 1 >= next_maintenance:
            lm.run_maintenance()
            passes += 1
            next_maintenance += maintenance_every
        if ci < len(checkpoints) and hwm >= checkpoints[ci]:
            lm.run_maintenance(purge=True)
            passes += 1
            measure()
            if ci == 1:
                # Out-of-order writes behind the 1 h watermark: off the
                # 60 s grid and the burst offsets, so no (series, ts)
                # pair collides with the stream (a duplicate would
                # overwrite, breaking the point accounting).
                horizon = lm.rollup.watermark(FLEET_METRIC, "1h")
                late = [
                    DataPoint.make(
                        FLEET_METRIC,
                        horizon - off,
                        500.0,
                        {"unit": unit_tag(0), "sensor": sensor_tag(0)},
                    )
                    for off in (1801, 1861, 1921)
                ]
                cluster.direct_put(late)
                late_writes = len(late)
            ci += 1
    ingest_wall = time.perf_counter() - wall0
    lm.run_maintenance(purge=True)
    passes += 1
    measure()

    # Bit-identity probes: every pair combo over the unexpired window.
    floor = lm.retention.raw_floor(FLEET_METRIC)
    horizon = lm.rollup.watermark(FLEET_METRIC, "1h")
    probes = identical_probes = mismatches = 0
    for agg, ds in (("min", "min"), ("max", "max"), ("count", "sum")):
        probe = TsdbQuery(
            FLEET_METRIC,
            floor,
            horizon,
            aggregator=agg,
            downsample_window=3600,
            downsample_aggregator=ds,
        )
        probes += 1
        if lm.plan(probe, record=False).mode == "identical":
            identical_probes += 1
        got, want = routed.run(probe), raw_engine.run(probe)
        exact = len(got) == len(want) and all(
            a.tags == b.tags
            and np.array_equal(a.timestamps, b.timestamps)
            and np.array_equal(a.values, b.values, equal_nan=True)
            for a, b in zip(got, want)
        )
        if not exact:
            mismatches += 1

    conservation = lm.verify_conservation(FLEET_METRIC)
    backfill_windows = lm.metrics.counter("lifecycle.backfill.windows").get()

    t1, t2, final = checkpoint_rows[0], checkpoint_rows[1], checkpoint_rows[2]
    raw_growth = t2["raw_cells"] / t1["raw_cells"]
    time_growth = t2["end"] / t1["end"]
    flat_ratio = final["routed_cells"] / final["short_cells"]
    raw_reduction = final["raw_cells"] / final["routed_cells"]

    growth_table = Table(
        f"Soak growth ({start_units} -> {end_units} units x 2 sensors, "
        f"{duration // 3600} h at {cadence} s cadence)",
        [
            "checkpoint",
            "sim hours",
            "units",
            "raw cells (ablation)",
            "tier cells (routed)",
            "last-hour cells",
        ],
    )
    for i, row in enumerate(checkpoint_rows, start=1):
        growth_table.add_row(
            f"T{i}",
            f"{row['end'] / 3600.0:.1f}",
            int(row["units"]),
            int(row["raw_cells"]),
            int(row["routed_cells"]),
            int(row["short_cells"]),
        )

    claim_table = Table("Lifecycle claims (deterministic per seed)", ["claim", "measured", "bound"])
    claim_table.add_row(
        "long-horizon cost vs short baseline",
        f"{flat_ratio:.3f}x",
        f"<= {E18_FLAT_FACTOR:.1f}x",
    )
    claim_table.add_row(
        "raw ablation growth T1 -> T2",
        f"{raw_growth:.2f}x cells in {time_growth:.2f}x time",
        f"> {E18_SUPERLINEAR_MARGIN:.2f}x time",
    )
    claim_table.add_row(
        "tier scan reduction at T3",
        f"{raw_reduction:.1f}x",
        f">= {E18_RAW_REDUCTION_FLOOR:.1f}x",
    )
    claim_table.add_row(
        "bit-identity vs raw (unexpired)",
        f"{probes - mismatches}/{probes} probes exact",
        "0 mismatches",
    )
    claim_table.add_row(
        "conservation through expiry",
        "ok" if conservation["ok"] else "VIOLATED",
        f"ok ({conservation['expired_raw']} raw cells expired)",
    )
    claim_table.add_row(
        "late-write backfill", f"{backfill_windows} windows re-materialized", ">= 1"
    )

    wall_table = Table(
        "Soak ingest and query wall-clock (recorded, not claimed)",
        [
            "points",
            "ingest wall",
            "points/s",
            "maintenance passes",
            "long p99",
            "short p99",
        ],
    )
    wall_table.add_row(
        points,
        f"{ingest_wall:.1f}s",
        format_rate(points / ingest_wall),
        passes,
        f"{final['long_p99_ms']:.1f}ms",
        f"{final['short_p99_ms']:.1f}ms",
    )

    numbers: Dict[str, float] = {
        "start_units": float(start_units),
        "end_units": float(end_units),
        "final_units": final["units"],
        "duration_s": float(duration),
        "raw_ttl_s": float(raw_ttl),
        "points_ingested": float(points),
        "maintenance_passes": float(passes),
        "raw_cells_t1": t1["raw_cells"],
        "raw_cells_t2": t2["raw_cells"],
        "raw_cells_final": final["raw_cells"],
        "routed_cells_final": final["routed_cells"],
        "short_cells_final": final["short_cells"],
        "raw_growth": raw_growth,
        "time_growth": time_growth,
        "superlinear_margin": E18_SUPERLINEAR_MARGIN,
        "flat_ratio": flat_ratio,
        "flat_factor": E18_FLAT_FACTOR,
        "raw_reduction": raw_reduction,
        "reduction_floor": E18_RAW_REDUCTION_FLOOR,
        "bitident_probes": float(probes),
        "bitident_identical_plans": float(identical_probes),
        "bitident_mismatches": float(mismatches),
        "conservation_ok": 1.0 if conservation["ok"] else 0.0,
        "ingested": float(conservation["ingested"]),
        "live_raw": float(conservation["live_raw"]),
        "expired_raw": float(conservation["expired_raw"]),
        "too_late": float(conservation["too_late"]),
        "late_writes": float(late_writes),
        "backfill_windows": float(backfill_windows),
    }
    n = numbers
    return ExperimentResult(
        "E18",
        "rollup tiers hold long-horizon query cost flat while raw scans grow with the fleet",
        [growth_table, claim_table, wall_table],
        notes=[
            "expected shape: the raw-only ablation's full-history scan grows "
            "super-linearly in time (the fleet grows geometrically) while the "
            f"tier-routed plan stays within {E18_FLAT_FACTOR:.0f}x of the "
            "last-hour baseline; tier answers over unexpired raw are "
            "bit-identical; conservation holds through TTL expiry and "
            "late-write backfill",
            "cell counts and conservation are deterministic per seed; "
            "wall-clock rows vary run to run",
        ],
        numbers=numbers,
        wall={
            "ingest_wall_s": ingest_wall,
            "ingest_rate": points / ingest_wall,
            "long_p99_ms": final["long_p99_ms"],
            "short_p99_ms": final["short_p99_ms"],
        },
        claims={
            "long_horizon_cost_stays_flat": flat_ratio <= E18_FLAT_FACTOR,
            "raw_ablation_grows_superlinearly": (
                time_growth > 1.0 and raw_growth > E18_SUPERLINEAR_MARGIN * time_growth
            ),
            "tier_routing_cuts_scanned_cells_5x": raw_reduction >= E18_RAW_REDUCTION_FLOOR,
            "claims_rest_on_a_real_soak": (
                points >= 10_000
                and n["final_units"] >= max(100, 0.95 * end_units)
                and n["routed_cells_final"] >= 1
                and n["short_cells_final"] >= 1
            ),
            "tier_answers_bit_identical_on_all_3_probes": (
                probes == identical_probes == 3 and mismatches == 0
            ),
            "conservation_holds_through_expiry": (
                bool(conservation["ok"])
                and n["expired_raw"] > 0
                and n["too_late"] == 0
                and n["ingested"] == n["live_raw"] + n["expired_raw"] + n["too_late"]
            ),
            "late_writes_backfilled": late_writes == 3 and backfill_windows >= 1,
        },
    )
