"""Parallel fleet evaluation engine: §IV-A scoring at fleet scale.

The paper's online evaluation is embarrassingly parallel across units
("the system can deal with one machine at a time") and its 939k
samples/s headline number is a *fleet* throughput.  This engine is the
integration layer that makes the reproduction's hot path behave the
same way:

* one cached :class:`~repro.core.online.OnlineEvaluator` per unit —
  the pre-bound fast path (reciprocal stds, whitening map, χ²
  threshold) is constructed once and reused across runs instead of
  re-deriving everything through a fresh
  :class:`~repro.core.fdr.FDRDetector` per call;
* per-unit scoring fanned out over the run's
  :class:`~repro.sparklet.context.SparkletContext` executor threads
  (NumPy/SciPy release the GIL in the kernels that dominate), the pool
  the pipeline's training used;
* results delivered in bounded *waves*, so a 100×1000-sensor fleet
  never needs every evaluation window in memory at once and the caller
  can overlap publishing one wave with scoring the next.

Every unit is scored by the one kernel,
:meth:`~repro.core.online.OnlineEvaluator.report`, which
``FDRDetector.detect`` also calls; the windows are deterministic per
``(seed, unit)``.  So cached models, waves and threads change no flag:
experiment E11's ``engine_flags_equal_the_serial_loop_cold_and_warm``
claim holds the engine to a refit-per-unit loop, and the tests hold
the fleet path to the dense oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.raceaudit import assert_holds, audited_lock
from ..cluster.metrics import MetricsRegistry
from ..simdata.generator import FleetGenerator, UnitData
from ..sparklet.context import SparkletContext
from .fdr import AnomalyReport, FDRDetectorConfig
from .metrics import DetectionOutcome, evaluate_flags
from .model import UnitModel
from .online import OnlineEvaluator

__all__ = ["FleetEvaluationEngine", "UnitEvaluation"]


@dataclass
class UnitEvaluation:
    """One unit's scored evaluation window (engine fan-out result)."""

    unit_id: int
    window: UnitData
    report: AnomalyReport
    outcome: DetectionOutcome
    seconds: float = 0.0  # wall-clock scoring time (observability)


class FleetEvaluationEngine:
    """Fan-out scorer over cached per-unit online evaluators.

    Parameters
    ----------
    generator:
        The fleet dataset (deterministic per ``(seed, unit)``, so
        worker tasks regenerate their own windows race-free).
    models:
        Live mapping of trained unit models.  Shared by reference with
        the owning pipeline: retraining a unit is picked up on the next
        evaluation, and the cached evaluator for it is rebuilt.
    config:
        Detector configuration the evaluators are bound to.
    """

    def __init__(
        self,
        generator: FleetGenerator,
        models: Dict[int, UnitModel],
        config: Optional[FDRDetectorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.generator = generator
        self.models = models
        self.config = config if config is not None else FDRDetectorConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._evaluators: Dict[int, Tuple[UnitModel, OnlineEvaluator]] = {}  # guarded-by: _lock
        self._lock = audited_lock("core.engine.evaluators")

    # ------------------------------------------------------------------
    # evaluator cache
    # ------------------------------------------------------------------
    def evaluator_for(self, unit_id: int) -> OnlineEvaluator:
        """The unit's cached evaluator (rebuilt if its model changed)."""
        try:
            model = self.models[unit_id]
        except KeyError:
            raise KeyError(
                f"unit {unit_id} has no trained model; train it first"
            ) from None
        with self._lock:
            return self._evaluator_locked(unit_id, model)

    def _evaluator_locked(self, unit_id: int, model: UnitModel) -> OnlineEvaluator:
        """Cache lookup/rebuild; caller holds ``_lock`` (worker threads
        hit the read path concurrently during fan-out)."""
        assert_holds(self._lock)
        cached = self._evaluators.get(unit_id)
        if cached is not None and cached[0] is model:
            return cached[1]
        evaluator = OnlineEvaluator(model, self.config)
        self._evaluators[unit_id] = (model, evaluator)
        return evaluator

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def evaluate_unit(self, unit_id: int, n_eval: int = 600) -> UnitEvaluation:
        """Score one unit's evaluation window through the cached fast path."""
        t0 = time.perf_counter()
        window = self.generator.evaluation_window(unit_id, n_eval)
        report = self.evaluator_for(unit_id).report(window.values)
        outcome = evaluate_flags(report.flags, window.truth, unit_id)
        return UnitEvaluation(
            unit_id, window, report, outcome, seconds=time.perf_counter() - t0
        )

    def evaluate_fleet(
        self,
        unit_ids: Sequence[int],
        n_eval: int,
        ctx: Optional[SparkletContext],
    ) -> Iterator[List[UnitEvaluation]]:
        """Score the fleet in order, yielding bounded waves of results.

        Units fan out over ``ctx``'s executor pool, or run inline on
        the calling thread when ``ctx`` is ``None``.  Results arrive
        wave by wave in ``unit_ids`` order regardless of executor
        interleaving.
        """
        units = list(unit_ids)
        if not units:
            return
        wave = max(4 * (ctx.parallelism if ctx is not None else 1), 8)
        # Warm the evaluator cache up front in the driver thread so the
        # fan-out hits the locked fast path without rebuild contention.
        for unit_id in units:
            self.evaluator_for(unit_id)

        for lo in range(0, len(units), wave):
            chunk = units[lo : lo + wave]
            if ctx is None:
                results = [self.evaluate_unit(u, n_eval) for u in chunk]
            else:
                results = ctx.map_tasks(lambda u: self.evaluate_unit(u, n_eval), chunk)
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
            self.metrics.counter("engine.samples_scored").inc(ev.window.values.size)
