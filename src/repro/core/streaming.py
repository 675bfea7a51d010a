"""Streaming (online) training — the paper's §VI ongoing work.

"Ongoing work for the project includes ... migrating our anomaly
detection implementation to Spark Streaming for online training."

Two pieces:

* :class:`IncrementalMoments` — exact streaming estimation of per-sensor
  means and the full covariance via Chan et al.'s pairwise batch-merge
  update (a batched Welford).  After any sequence of ``update`` calls
  the moments equal the batch computation over the concatenated data,
  to floating-point round-off — the property the tests pin down.
* :class:`StreamingTrainer` — consumes micro-batches of ``(unit_id,
  samples)`` (e.g. from a :class:`repro.sparklet.streaming.DStream`),
  maintains per-unit moment state, and refreshes each unit's
  :class:`~repro.core.model.UnitModel` (eigendecomposition + whitening)
  every ``refresh_every`` batches, so the online evaluator always scores
  against a recent model without paying the SVD per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .fdr import FDRDetectorConfig, build_unit_model
from .model import UnitModel

__all__ = ["IncrementalMoments", "StreamingTrainer"]


class IncrementalMoments:
    """Exact streaming mean/covariance over batches of rows.

    State after ``update`` calls with batches ``X₁..X_k`` equals the
    batch statistics of ``vstack(X₁..X_k)``.  Uses the numerically
    stable merge::

        δ = μ_b − μ
        M ← M + M_b + δδᵀ · n·n_b/(n+n_b)

    where ``M`` is the centred sum-of-squares matrix.
    """

    def __init__(self, n_sensors: int) -> None:
        if n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        self.n_sensors = n_sensors
        self.count = 0
        self._mean = np.zeros(n_sensors)
        self._m2 = np.zeros((n_sensors, n_sensors))

    def update(self, batch: np.ndarray) -> None:
        """Fold in a batch of shape ``(n_b, p)``.

        Non-finite samples are refused before any state is touched: one
        NaN would poison the running mean and M2 for good.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_sensors:
            raise ValueError(f"batch must be (n, {self.n_sensors}); got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("batch holds non-finite samples (NaN or inf)")
        if x.shape[0] == 0:
            return
        mean_b = x.mean(axis=0)
        centred = x - mean_b
        self._combine(x.shape[0], mean_b, centred.T @ centred)

    def _combine(self, n_b: int, mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        """Chan's pairwise merge of ``(n_b, μ_b, M_b)`` into this state."""
        if self.count == 0:
            self.count, self._mean, self._m2 = n_b, mean_b, m2_b
            return
        n = self.count
        total = n + n_b
        delta = mean_b - self._mean
        self._mean = self._mean + delta * (n_b / total)
        self._m2 = self._m2 + m2_b + np.outer(delta, delta) * (n * n_b / total)
        self.count = total

    # ------------------------------------------------------------------
    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no data seen yet")
        return self._mean.copy()

    def covariance(self) -> np.ndarray:
        """Sample covariance (ddof=1)."""
        if self.count < 2:
            raise ValueError("covariance requires at least 2 samples")
        cov = self._m2 / (self.count - 1)
        return (cov + cov.T) / 2.0

    def std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance()))


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

        A due refresh over degenerate statistics (some sensor's sample
        variance is zero or non-finite — a stuck sensor, or a constant
        feed) does not raise: the unit is *quarantined* for this cycle —
        the refresh is skipped, the last good model stays live, the
        per-unit and total quarantine counters advance, and
        ``on_quarantine`` fires.  The cadence resets, so the refresh is
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
        moments = state.moments
        mean = moments.mean
        cov = moments.covariance()
        std = np.sqrt(np.diag(cov))
        if np.any(std <= 0) or not np.all(np.isfinite(std)):
            # Quarantine, don't propagate: one stuck sensor on one unit
            # must not kill the whole stream mid-run.  Keep the last
            # good model and surface the skip through the counters.
            state.quarantines += 1
            self.total_quarantines += 1
            if self.on_quarantine is not None:
                self.on_quarantine(unit_id)
            return None
        # correlation matrix = D^{-1/2} Σ D^{-1/2}
        inv = 1.0 / std
        corr = cov * np.outer(inv, inv)
        model = build_unit_model(
            unit_id, mean, std, (corr + corr.T) / 2.0, moments.count, self.config
        )
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
