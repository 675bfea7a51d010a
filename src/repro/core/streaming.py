"""Streaming (online) training — the paper's §VI ongoing work.

"Ongoing work for the project includes ... migrating our anomaly
detection implementation to Spark Streaming for online training."

:class:`StreamingTrainer` consumes micro-batches of ``(unit_id,
samples)`` (e.g. from a :class:`repro.sparklet.streaming.DStream`),
folds each into the unit's :class:`~repro.core.model.IncrementalMoments`
— the same estimator the batch fit runs once — and refreshes the unit's
:class:`~repro.core.model.UnitModel` through the shared builder every
``refresh_every`` batches, so the online evaluator always scores
against a recent model without paying the SVD per batch.  After any
chunking both halves of the moments equal the batch computation over
the concatenated data, to floating-point round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .fdr import FDRDetectorConfig, build_unit_model
from .model import IncrementalMoments, UnitModel

__all__ = ["StreamingTrainer"]


@dataclass
class _UnitState:
    moments: IncrementalMoments
    batches_since_refresh: int = 0
    model: Optional[UnitModel] = None
    refreshes: int = 0
    quarantines: int = 0


class StreamingTrainer:
    """Per-unit online training with periodic model refresh.

    Parameters
    ----------
    n_sensors:
        Sensor count per unit (all units share the fleet schema).
    config:
        Detector configuration (governs component selection).
    refresh_every:
        Micro-batches between eigendecomposition refreshes per unit.
    min_samples:
        Samples required before the first model is produced.
    on_model:
        Optional callback fired with every refreshed :class:`UnitModel`
        (e.g. to persist to a block store or hot-swap an evaluator).
    on_quarantine:
        Optional callback fired with the unit id whenever a due refresh
        is skipped because the unit's accumulated variance is degenerate
        (see :meth:`ingest`); the unit keeps its last good model.
    """

    def __init__(
        self,
        n_sensors: int,
        config: Optional[FDRDetectorConfig] = None,
        refresh_every: int = 5,
        min_samples: int = 50,
        on_model: Optional[Callable[[UnitModel], None]] = None,
        on_quarantine: Optional[Callable[[int], None]] = None,
    ) -> None:
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        self.n_sensors = n_sensors
        self.config = config if config is not None else FDRDetectorConfig()
        self.refresh_every = refresh_every
        self.min_samples = min_samples
        self.on_model = on_model
        self.on_quarantine = on_quarantine
        #: Total degenerate-variance refreshes skipped across all units.
        self.total_quarantines = 0
        self._units: Dict[int, _UnitState] = {}

    # ------------------------------------------------------------------
    def ingest(self, unit_id: int, batch: np.ndarray) -> Optional[UnitModel]:
        """Fold one micro-batch in; returns a refreshed model if due.

        Empty micro-batches (idle stream intervals) contribute nothing
        to the moments and do **not** advance the refresh cadence — a
        refresh is only ever triggered by new samples, never by the
        passage of empty intervals.

        A due refresh over degenerate statistics (some sensor never
        moved — a stuck sensor, or a constant feed — or its variance is
        non-finite: :meth:`IncrementalMoments.degenerate`) does not
        raise: the unit is *quarantined* for this cycle — the refresh
        is skipped, the last good model stays live, the per-unit and
        total quarantine counters advance, and ``on_quarantine`` fires.  The cadence resets, so the refresh is
        retried after another ``refresh_every`` non-empty batches (new
        data may restore the variance).
        """
        state = self._units.get(unit_id)
        if state is None:
            state = self._units[unit_id] = _UnitState(IncrementalMoments(self.n_sensors))
        state.moments.update(batch)
        if np.asarray(batch).shape[0] == 0:
            return None
        state.batches_since_refresh += 1
        due = (
            state.moments.count >= self.min_samples
            and (state.model is None or state.batches_since_refresh >= self.refresh_every)
        )
        if not due:
            return None
        model = self._refresh(unit_id, state)
        state.batches_since_refresh = 0
        return model

    def ingest_pairs(self, pairs) -> List[UnitModel]:
        """Ingest ``(unit_id, batch)`` records; returns refreshed models."""
        out = []
        for unit_id, batch in pairs:
            model = self.ingest(unit_id, batch)
            if model is not None:
                out.append(model)
        return out

    def _refresh(self, unit_id: int, state: _UnitState) -> Optional[UnitModel]:
        if state.moments.degenerate().any():
            # Quarantine, don't propagate: one stuck sensor on one unit
            # must not kill the whole stream mid-run.  Keep the last
            # good model and surface the skip through the counters.
            state.quarantines += 1
            self.total_quarantines += 1
            if self.on_quarantine is not None:
                self.on_quarantine(unit_id)
            return None
        model = build_unit_model(unit_id, state.moments, self.config)
        state.model = model
        state.refreshes += 1
        if self.on_model is not None:
            self.on_model(model)
        return model

    # ------------------------------------------------------------------
    def model_for(self, unit_id: int) -> Optional[UnitModel]:
        state = self._units.get(unit_id)
        return state.model if state else None

    def samples_seen(self, unit_id: int) -> int:
        state = self._units.get(unit_id)
        return state.moments.count if state else 0

    def refreshes(self, unit_id: int) -> int:
        state = self._units.get(unit_id)
        return state.refreshes if state else 0

    def quarantines(self, unit_id: int) -> int:
        """Degenerate-variance refreshes skipped for one unit."""
        state = self._units.get(unit_id)
        return state.quarantines if state else 0

    def units(self) -> List[int]:
        return sorted(self._units)
