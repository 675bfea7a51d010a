"""Fleet evaluation engine: where a record is scored and written back.

"Results from online evaluation are reported back to OpenTSDB for use
by the integrated visualization tool" (Fig. 1).  A *record* is
``(unit_id, start_time, values)``, and the batch run and the stream
both go through here:

* :meth:`FleetEvaluationEngine.evaluate_unit` scores a record against
  the unit's current model through one cached
  :class:`~repro.core.online.OnlineEvaluator` per unit, rebuilt when
  ``models[unit]`` changes; the rebuilt one continues the old window;
* :func:`flagged_cells` enumerates a scored record's flagged cells
  once, and :func:`write_back` turns the record and those cells into
  one data block, ``anomaly`` points and ``anomaly.unit`` points.

A batch run resets its units' windows, then :meth:`evaluate_fleet`
fans the units out over the run's sparklet executor threads (each task
generates its window; NumPy/SciPy release the GIL in the kernels that
dominate) and yields bounded *waves*.  The stream scores each record
as it arrives, continuing the unit's window.  Every record is scored by
:meth:`~repro.core.online.OnlineEvaluator.report`, which
``FDRDetector.detect`` also calls, so cached models, waves and threads
change no flag: E11 holds the engine to a refit-per-unit loop, and the
tests hold the fleet path to the dense oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.raceaudit import assert_holds, audited_lock
from ..cluster.metrics import MetricsRegistry
from ..simdata.generator import FleetGenerator
from ..simdata.workload import METRIC, sensor_tag, unit_tag
from ..sparklet.context import SparkletContext
from ..tsdb.blocks import TS_TYPECODE, VAL_TYPECODE, SeriesBlock, Tags
from ..tsdb.tsd import DataPoint
from .fdr import AnomalyReport, FDRDetectorConfig
from .metrics import DetectionOutcome, evaluate_flags
from .model import UnitModel
from .online import OnlineEvaluator

__all__ = [
    "ANOMALY_METRIC",
    "UNIT_ALARM_METRIC",
    "FleetEvaluationEngine",
    "UnitEvaluation",
    "data_blocks",
    "flagged_cells",
    "write_back",
]

ANOMALY_METRIC = "anomaly"
UNIT_ALARM_METRIC = "anomaly.unit"


@dataclass
class UnitEvaluation:
    """One scored record: a unit's rows from ``start_time``, and their report."""

    unit_id: int
    start_time: int
    values: np.ndarray
    report: AnomalyReport
    outcome: Optional[DetectionOutcome] = None  # batch windows: flags vs injected truth
    seconds: float = 0.0  # wall-clock scoring time (observability)


@lru_cache(maxsize=1024)
def _record_tags(unit_id: int, n_sensors: int) -> Tuple[Tags, ...]:
    """Each sensor's series tags for a unit's records, built once per
    (unit, width) and shared by every record block and ``anomaly`` point."""
    utag = ("unit", unit_tag(unit_id))
    return tuple((("sensor", sensor_tag(s)), utag) for s in range(n_sensors))


def data_blocks(unit_id: int, start_time: int, values: np.ndarray) -> SeriesBlock:
    """One record's rows as one block of all its sensors' series.

    The values are transposed once into the block's value column, so
    it is series-major (each sensor's rows back to back); the sensors
    share the record's one timestamp column and carry the unit's
    :func:`_record_tags`.  Nothing is allocated per sensor.
    """
    n = values.shape[0]
    ts = array(TS_TYPECODE, range(start_time, start_time + n))
    cols = array(VAL_TYPECODE, np.ascontiguousarray(values.T, dtype=np.float64).tobytes())
    return SeriesBlock.from_series(METRIC, _record_tags(unit_id, values.shape[1]), ts, cols)


def flagged_cells(report: AnomalyReport) -> List[Tuple[int, int, float]]:
    """A report's flagged cells as ``(row, sensor, z)``, row-major.

    The one pass over a record's flags: the stream's alert events and
    :func:`write_back`'s ``anomaly`` points are both built from it.
    """
    rows, sensors = np.nonzero(report.flags)
    return list(zip(rows.tolist(), sensors.tolist(), report.zscores[rows, sensors].tolist()))


def write_back(
    evaluation: UnitEvaluation, cells: List[Tuple[int, int, float]]
) -> Tuple[SeriesBlock, List[DataPoint]]:
    """A scored record's data block, and its ``anomaly`` then
    ``anomaly.unit`` points in one list (they share a channel).

    ``cells`` is the record's :func:`flagged_cells`.  An ``anomaly``
    point is a flagged cell, tagged like its data and valued at its
    window statistic (drill-down views show severity); an
    ``anomaly.unit`` point is a T² alarm, tagged with the unit only.
    """
    unit_id, start, report = evaluation.unit_id, evaluation.start_time, evaluation.report
    tags = _record_tags(unit_id, evaluation.values.shape[1])
    points = [DataPoint(ANOMALY_METRIC, start + row, z, tags[sensor]) for row, sensor, z in cells]
    utag = (("unit", unit_tag(unit_id)),)
    points.extend(
        DataPoint(UNIT_ALARM_METRIC, start + row, float(report.t2[row]), utag)
        for row in np.flatnonzero(report.unit_alarm).tolist()
    )
    return data_blocks(unit_id, start, evaluation.values), points


class FleetEvaluationEngine:
    """Scorer over cached per-unit online evaluators.

    ``models`` is the owner's live mapping of unit models (the
    pipeline's trained ones, or the stream's latest refreshes; a fresh
    dict by default): a model installed there is picked up on the
    unit's next record.  ``config`` binds the evaluators.
    """

    def __init__(
        self,
        models: Optional[Dict[int, UnitModel]] = None,
        config: Optional[FDRDetectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.models = models if models is not None else {}
        self.config = config if config is not None else FDRDetectorConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._evaluators: Dict[int, OnlineEvaluator] = {}  # guarded-by: _lock
        self._lock = audited_lock("core.engine.evaluators")

    # ------------------------------------------------------------------
    # evaluator cache
    # ------------------------------------------------------------------
    def evaluator_for(self, unit_id: int) -> OnlineEvaluator:
        """The unit's cached evaluator (rebuilt if its model changed)."""
        model = self.models.get(unit_id)
        if model is None:
            raise KeyError(f"unit {unit_id} has no trained model; train it first")
        with self._lock:
            return self._evaluator_locked(unit_id, model)

    def _evaluator_locked(self, unit_id: int, model: UnitModel) -> OnlineEvaluator:
        """Cache lookup/rebuild; caller holds ``_lock`` (worker threads
        hit the read path concurrently during fan-out).  A rebuild
        continues the old evaluator's window."""
        assert_holds(self._lock)
        cached = self._evaluators.get(unit_id)
        if cached is not None and cached.model is model:
            return cached
        evaluator = OnlineEvaluator(model, self.config)
        if cached is not None:
            evaluator.continue_window(cached)
        self._evaluators[unit_id] = evaluator
        return evaluator

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def evaluate_unit(self, unit_id: int, start_time: int, values: np.ndarray) -> UnitEvaluation:
        """Score one record against the unit's current model, continuing
        the unit's window from its previous record."""
        t0 = time.perf_counter()
        report = self.evaluator_for(unit_id).report(values)
        return UnitEvaluation(
            unit_id, start_time, values, report, seconds=time.perf_counter() - t0
        )

    def evaluate_fleet(
        self,
        generator: FleetGenerator,
        unit_ids: Sequence[int],
        n_eval: int,
        ctx: Optional[SparkletContext],
    ) -> Iterator[List[UnitEvaluation]]:
        """Score each unit's evaluation window from an empty window.

        Units fan out over ``ctx``'s executor pool, or run inline when
        ``ctx`` is ``None``; each task generates its own window.  Waves
        arrive in ``unit_ids`` order, each record with its outcome
        against the injected truth.  Each unit is listed once (the
        pipeline dedupes): two tasks on one evaluator would share its
        window.
        """
        units = list(unit_ids)
        if not units:
            return
        wave = max(4 * (ctx.parallelism if ctx is not None else 1), 8)
        # Reset the units' windows in the driver thread; this also warms
        # the evaluator cache, so the fan-out hits the locked fast path
        # without rebuild contention.
        for unit_id in units:
            self.evaluator_for(unit_id).reset()

        def score(unit_id: int) -> UnitEvaluation:
            window = generator.evaluation_window(unit_id, n_eval)
            evaluation = self.evaluate_unit(unit_id, window.start_time, window.values)
            evaluation.outcome = evaluate_flags(evaluation.report.flags, window.truth, unit_id)
            return evaluation

        for lo in range(0, len(units), wave):
            chunk = units[lo : lo + wave]
            results = [score(u) for u in chunk] if ctx is None else ctx.map_tasks(score, chunk)
            # Fold metrics in the driver thread only: Counter.inc is
            # not atomic, and workers already carry their timings on
            # the evaluation records.
            self._note_wave(results)
            yield results

    # ------------------------------------------------------------------
    def _note_wave(self, wave: List[UnitEvaluation]) -> None:
        self.metrics.counter("engine.units_scored").inc(len(wave))
        hist = self.metrics.histogram("engine.unit_eval_seconds")
        for ev in wave:
            hist.observe(ev.seconds)
            self.metrics.counter("engine.samples_scored").inc(ev.values.size)
