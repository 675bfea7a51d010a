#!/usr/bin/env python3
"""Offline training as a distributed batch job (the §IV-A Spark path).

Demonstrates the sparklet substrate directly:

1. a word-count warm-up showing the RDD API: count each partition's
   words, then fold the counts together — the same per-partition
   reduction the distributed trainer runs over moment accumulators;
2. distributed covariance/SVD of one unit: each row block's
   ``IncrementalMoments`` on an executor, merged by ``RDD.fold`` (Chan's
   pairwise merge), checked against the local fit's one update;
3. fleet-scale training on the executor pool with models cached to the
   block store, then reloaded for online scoring.

Run:  python examples/spark_batch_training.py
"""

import operator
import tempfile
import time
from collections import Counter

import numpy as np

from repro import (
    BlockStore,
    FDRDetector,
    FleetConfig,
    FleetGenerator,
    IncrementalMoments,
    OfflineTrainer,
    OnlineEvaluator,
    SparkletContext,
)
from repro.core.model import load_model
from repro.core.training import train_unit_distributed


def main() -> None:
    with SparkletContext(parallelism=4) as sc:
        print("== sparklet warm-up: map/fold ==")
        words = "the quick brown fox jumps over the lazy dog the fox".split()
        counts = sc.parallelize(words).map(lambda w: Counter([w])).fold(Counter(), operator.add)
        print("top words:", counts.most_common(3))

        print("\n== distributed moments -> SVD for one unit ==")
        fleet = FleetGenerator(FleetConfig(n_units=8, n_sensors=200, seed=47))
        unit0 = fleet.training_window(0, 600)
        model = train_unit_distributed(sc, unit0.values, unit_id=0)
        local = FDRDetector().fit(unit0.values, unit_id=0)
        print(f"components kept: {model.n_components} (local fit: {local.n_components})")
        print(
            "eigenvalue agreement vs local NumPy:",
            np.allclose(model.eigenvalues, local.eigenvalues),
        )

        folded = (
            sc.parallelize(np.array_split(unit0.values, 8))
            .map(IncrementalMoments.of)
            .fold(IncrementalMoments(unit0.values.shape[1]), IncrementalMoments.merge)
        )
        whole = IncrementalMoments.of(unit0.values)
        print(
            f"moments of {folded.count} rows x {folded.n_sensors} sensors folded from "
            f"8 row blocks; covariance agreement vs one update:",
            np.allclose(folded.covariance(), whole.covariance()),
        )

        print("\n== fleet training on the executor pool ==")
        with tempfile.TemporaryDirectory() as tmp:
            store = BlockStore(tmp)
            trainer = OfflineTrainer(sc, store)
            t0 = time.perf_counter()
            result = trainer.train_fleet(fleet, n_train=600)
            elapsed = time.perf_counter() - t0
            print(
                f"trained {result.n_units} units in {elapsed:.2f}s "
                f"({result.n_units / elapsed:.1f} units/s); "
                f"{len(store)} models cached to the block store"
            )

            print("\n== reload a cached model and score online ==")
            evaluator = OnlineEvaluator(load_model(store, 3))
            window = fleet.evaluation_window(3, 300)
            t0 = time.perf_counter()
            flags, alarms = evaluator.evaluate(window.values)
            dt = time.perf_counter() - t0
            print(
                f"unit 3: {int(flags.sum())} flags, {int(alarms.sum())} unit alarms; "
                f"{window.values.size / dt / 1e6:.1f}M samples/s"
            )


if __name__ == "__main__":
    main()
