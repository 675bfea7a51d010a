#!/usr/bin/env python3
"""Streaming online training — the paper's §VI ongoing work, implemented.

"Ongoing work for the project includes ... migrating our anomaly
detection implementation to Spark Streaming for online training."

This example runs that design: sensor micro-batches flow through a
D-Stream; a :class:`StreamingTrainer` folds each batch into exact
incremental moments and periodically refreshes the unit models
(eigendecomposition + the folded T² map); the online evaluator hot-swaps to the
newest model and keeps scoring.

Run:  python examples/streaming_training.py
"""

import numpy as np

from repro import FDRDetectorConfig, FleetConfig, FleetGenerator, OnlineEvaluator, SparkletContext
from repro.core.streaming import StreamingTrainer
from repro.sparklet.streaming import StreamingContext

N_SENSORS = 30
MICRO_BATCH = 25  # samples per micro-batch per unit


def main() -> None:
    fleet = FleetGenerator(
        FleetConfig(n_units=3, n_sensors=N_SENSORS, seed=66, fault_mix=(0.4, 0.3, 0.3))
    )

    # Each interval delivers one micro-batch per unit: [(unit_id, ndarray)].
    training = {u: fleet.training_window(u, 400).values for u in fleet.units()}
    intervals = [
        [(u, training[u][i : i + MICRO_BATCH]) for u in fleet.units()]
        for i in range(0, 400, MICRO_BATCH)
    ]

    refreshed = []
    trainer = StreamingTrainer(
        N_SENSORS,
        config=FDRDetectorConfig(q=0.05, window=32),
        refresh_every=4,
        min_samples=100,
        on_model=lambda m: refreshed.append((m.unit_id, m.n_train)),
    )

    print("== streaming training over micro-batches ==")
    with SparkletContext(parallelism=2) as sc:
        ssc = StreamingContext(sc)
        stream = ssc.queue_stream(intervals)
        stream.foreach_rdd(lambda _t, rdd: trainer.ingest_pairs(rdd.collect()))
        n = ssc.run()
    print(f"processed {n} micro-batch intervals")
    for unit_id, n_train in refreshed:
        print(f"  refreshed unit {unit_id} model at n={n_train} samples")

    print("\n== scoring the live stream with the latest models ==")
    for unit_id in fleet.units():
        model = trainer.model_for(unit_id)
        window = fleet.evaluation_window(unit_id, 300)
        evaluator = OnlineEvaluator(model, FDRDetectorConfig(q=0.05, window=32))
        flags, alarms = evaluator.evaluate(window.values)
        fault = window.faults[0].kind.value if window.faults else "none"
        true_hits = int(np.sum(flags & window.truth))
        print(
            f"  unit {unit_id}: fault={fault:5s}  flags={int(flags.sum()):5d}  "
            f"true-hits={true_hits:5d}  unit-alarms={int(alarms.sum())}"
        )


if __name__ == "__main__":
    main()
