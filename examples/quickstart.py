#!/usr/bin/env python3
"""Quickstart: train the FDR detector on one unit and flag its fault.

The minimal end-to-end tour of the public API:

1. generate a unit from the §II-A synthetic fleet (noise + injected fault);
2. fit the detector on a fault-free training window (covariance → SVD);
3. score the evaluation window with BH false-discovery-rate control;
4. compare against ground truth.

Run:  python examples/quickstart.py
"""

from repro import (
    FDRDetector,
    FDRDetectorConfig,
    FleetConfig,
    FleetGenerator,
    evaluate_flags,
)


def main() -> None:
    # A small fleet; unit 0's fault class is deterministic given the seed.
    fleet = FleetGenerator(
        FleetConfig(n_units=4, n_sensors=50, seed=42, fault_mix=(0.0, 0.5, 0.5))
    )
    unit_id = 0

    print("== training ==")
    training = fleet.training_window(unit_id, n_samples=600)
    detector = FDRDetector(FDRDetectorConfig(q=0.05, window=32))
    model = detector.fit(training.values, unit_id=unit_id)
    print(
        f"unit {unit_id}: {model.n_sensors} sensors, "
        f"T² on {model.n_components} principal directions, "
        f"calibrated on {model.n_b} of {model.n_train} training rows"
    )

    print("\n== evaluation ==")
    window = fleet.evaluation_window(unit_id, n_samples=600)
    spec = window.faults[0]
    print(
        f"injected fault: {spec.kind} at t={spec.onset}s, "
        f"magnitude {spec.magnitude:.1f}σ on {len(spec.sensors)} correlated sensors"
    )

    report = detector.detect(model, window.values)
    print(f"discoveries: {report.n_discoveries} sensor-samples flagged")
    print(f"first detection at t={report.first_detection()}s (onset {spec.onset}s)")
    print(f"flagged sensors: {list(report.flagged_sensors())[:10]}")
    print(f"injected sensors: {sorted(spec.sensors)}")

    print("\n== scoring against ground truth ==")
    outcome = evaluate_flags(report.flags, window.truth, unit_id)
    print(f"power: {outcome.power:.2f}")
    print(f"false-discovery proportion: {outcome.fdp:.3f}")
    print(f"detection delay: {outcome.delay}s")


if __name__ == "__main__":
    main()
