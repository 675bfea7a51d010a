"""Detection-quality metrics: power, FDP, FWER, detection delay.

These quantify exactly the trade-off §IV argues about: an anomaly
detector must "balance identifying the majority of true faults while
also controlling the rate of false alarms".  Metrics are computed from
a ``(T, p)`` flag mask against the generator's ground-truth mask.

Conventions
-----------
* A *false alarm* is a flagged sample-cell with no injected fault
  signal at that (time, sensor).
* *Power* is measured over faulted cells after the onset.
* *FDP* (false-discovery proportion) is false alarms / all alarms —
  the realised analogue of the FDR the BH procedure controls in
  expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["DetectionOutcome", "evaluate_flags", "aggregate_outcomes", "detection_delay"]


@dataclass
class DetectionOutcome:
    """Confusion counts and derived ratios for one unit window."""

    unit_id: int
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    any_false_alarm: bool
    delay: Optional[int]  # samples from fault onset to first true detection
    family_fdp: float = 0.0  # mean FDP per time-step family (what BH controls)
    null_family_rate: float = 0.0  # fraction of fault-free time steps with >= 1 flag

    @property
    def discoveries(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def fdp(self) -> float:
        """False-discovery proportion (0 when nothing was flagged)."""
        d = self.discoveries
        return self.false_positives / d if d else 0.0

    @property
    def power(self) -> float:
        """Recall over faulted cells (NaN when the window has no fault)."""
        faulted = self.true_positives + self.false_negatives
        return self.true_positives / faulted if faulted else float("nan")

    @property
    def false_alarm_rate(self) -> float:
        """Per-cell type I rate over null cells."""
        nulls = self.false_positives + self.true_negatives
        return self.false_positives / nulls if nulls else 0.0


def evaluate_flags(
    flags: np.ndarray, truth: np.ndarray, unit_id: int = 0
) -> DetectionOutcome:
    """Score a flag mask against ground truth (both ``(T, p)`` bool)."""
    f = np.asarray(flags, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    if f.shape != t.shape:
        raise ValueError(f"shape mismatch: flags {f.shape} vs truth {t.shape}")
    # Per-time-step (per-family) quantities: BH controls E[FDP] within
    # each family, so the honest realised-FDR readout averages FDP over
    # time steps rather than pooling the whole window.  The four
    # confusion counts follow from three: f, t and f & t.
    tp_t = np.count_nonzero(f & t, axis=1)
    disc_t = np.count_nonzero(f, axis=1)
    fp_t = disc_t - tp_t
    tp = int(tp_t.sum())
    fp = int(fp_t.sum())
    fn = int(np.count_nonzero(t)) - tp
    tn = f.size - tp - fp - fn
    with np.errstate(invalid="ignore", divide="ignore"):
        fdp_t = np.where(disc_t > 0, fp_t / np.maximum(disc_t, 1), 0.0)
    family_fdp = float(np.mean(fdp_t)) if fdp_t.size else 0.0
    null_steps = ~t.any(axis=1)
    if null_steps.any():
        null_family_rate = float(np.mean(f[null_steps].any(axis=1)))
    else:
        null_family_rate = 0.0
    return DetectionOutcome(
        unit_id=unit_id,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
        any_false_alarm=fp > 0,
        delay=detection_delay(f, t),
        family_fdp=family_fdp,
        null_family_rate=null_family_rate,
    )


def detection_delay(flags: np.ndarray, truth: np.ndarray) -> Optional[int]:
    """Samples between fault onset and the first *true* detection.

    None when the window is fault-free or the fault is never caught.
    """
    f = np.asarray(flags, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    fault_times = np.flatnonzero(t.any(axis=1))
    if fault_times.size == 0:
        return None
    onset = int(fault_times[0])
    hits = np.flatnonzero((f & t).any(axis=1))
    if hits.size == 0:
        return None
    return int(hits[0]) - onset


@dataclass
class AggregateMetrics:
    """Fleet-level summary over many unit outcomes."""

    n_units: int
    mean_fdp: float  # pooled-window FDP, averaged over units
    mean_family_fdp: float  # per-time-step FDP (the quantity BH controls)
    mean_power: float
    fwer: float  # fraction of units with >= 1 false alarm anywhere in the window
    null_family_rate: float  # P(>= 1 false alarm in a fault-free time step)
    mean_false_alarm_rate: float
    mean_delay: float  # over detected faults only (NaN if none)
    detected_fraction: float  # faulted units with >= 1 true detection


def aggregate_outcomes(outcomes: Sequence[DetectionOutcome]) -> AggregateMetrics:
    """Average per-unit outcomes into the E4 summary numbers."""
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    fdps = [o.fdp for o in outcomes]
    powers = [o.power for o in outcomes if not np.isnan(o.power)]
    delays = [o.delay for o in outcomes if o.delay is not None]
    faulted = [o for o in outcomes if o.true_positives + o.false_negatives > 0]
    detected = [o for o in faulted if o.true_positives > 0]
    return AggregateMetrics(
        n_units=len(outcomes),
        mean_fdp=float(np.mean(fdps)),
        mean_family_fdp=float(np.mean([o.family_fdp for o in outcomes])),
        mean_power=float(np.mean(powers)) if powers else float("nan"),
        fwer=float(np.mean([o.any_false_alarm for o in outcomes])),
        null_family_rate=float(np.mean([o.null_family_rate for o in outcomes])),
        mean_false_alarm_rate=float(np.mean([o.false_alarm_rate for o in outcomes])),
        mean_delay=float(np.mean(delays)) if delays else float("nan"),
        detected_fraction=len(detected) / len(faulted) if faulted else float("nan"),
    )
