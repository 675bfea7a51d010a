"""Training moments, trained model artifacts and their persistence.

Every trainer — the batch fit, the distributed fold and the stream
refresh — estimates a unit's moments with one
:class:`IncrementalMoments` and hands them to the one model builder
(:func:`repro.core.fdr.build_unit_model`).  The offline trainer
(§IV-A: covariance → SVD, results "cached to HDFS") produces one
:class:`UnitModel` per unit.  The artifact holds everything the online
evaluator needs — sensor means/stds and the top-k eigenpairs of the
sensor covariance with the derived whitening map — and round-trips
losslessly through the :class:`~repro.sparklet.storage.BlockStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sparklet.storage import BlockStore

__all__ = ["IncrementalMoments", "UnitModel", "save_model", "load_model", "model_key"]


class IncrementalMoments:
    """Exact mean/covariance over batches of rows, mergeable.

    State after ``update`` calls with batches ``X₁..X_k`` — or after
    merging accumulators that saw them — equals the batch statistics of
    ``vstack(X₁..X_k)`` to round-off.  Uses Chan et al.'s numerically
    stable pairwise merge::

        δ = μ_b − μ
        M ← M + M_b + δδᵀ · n·n_b/(n+n_b)

    where ``M`` is the centred sum-of-squares matrix.  One ``update`` is
    the batch fit, a run of updates is the stream, and a fold of
    ``merge`` over per-partition accumulators is the distributed job.
    Each sensor's min and max ride along, so :meth:`degenerate` decides
    exactly whether a sensor never moved.
    """

    def __init__(self, n_sensors: int) -> None:
        if n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        self.n_sensors = n_sensors
        self.count = 0
        self._mean = np.zeros(n_sensors)
        self._m2 = np.zeros((n_sensors, n_sensors))
        self._min = np.full(n_sensors, np.inf)
        self._max = np.full(n_sensors, -np.inf)

    @classmethod
    def of(cls, batch: np.ndarray) -> "IncrementalMoments":
        """The moments of one ``(n, p)`` batch: a fresh accumulator, one update."""
        moments = cls(np.shape(batch)[-1])
        moments.update(batch)
        return moments

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
        self._combine(
            x.shape[0], mean_b, centred.T @ centred, x.min(axis=0), x.max(axis=0)
        )

    def merge(self, other: "IncrementalMoments") -> "IncrementalMoments":
        """Fold another accumulator's state into this one; returns self."""
        if other.count:
            self._combine(other.count, other._mean, other._m2, other._min, other._max)
        return self

    def _combine(
        self,
        n_b: int,
        mean_b: np.ndarray,
        m2_b: np.ndarray,
        min_b: np.ndarray,
        max_b: np.ndarray,
    ) -> None:
        """Chan's pairwise merge of ``(n_b, μ_b, M_b, min_b, max_b)``.

        Never writes into an array it was handed, so adopting ``other``'s
        arrays in :meth:`merge` aliases nothing that later changes.
        """
        if self.count == 0:
            self.count, self._mean, self._m2 = n_b, mean_b, m2_b
            self._min, self._max = min_b, max_b
            return
        n = self.count
        total = n + n_b
        delta = mean_b - self._mean
        self._mean = self._mean + delta * (n_b / total)
        self._m2 = self._m2 + m2_b + np.outer(delta, delta) * (n * n_b / total)
        self._min = np.minimum(self._min, min_b)
        self._max = np.maximum(self._max, max_b)
        self.count = total

    # ------------------------------------------------------------------
    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no data seen yet")
        return self._mean.copy()

    def covariance(self) -> np.ndarray:
        """Sample covariance (ddof=1), symmetrised."""
        if self.count < 2:
            raise ValueError("covariance requires at least 2 samples")
        cov = self._m2 / (self.count - 1)
        return (cov + cov.T) / 2.0

    def std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance()))

    def degenerate(self) -> np.ndarray:
        """Per-sensor mask: no model can standardise this sensor.

        A sensor is degenerate when every sample it gave was the same
        value (a stuck sensor, a constant feed) — decided on the exact
        min and max, not on a variance that round-off leaves at ±1e-15 —
        or when its variance overflowed to a non-finite value.
        """
        return (self._max == self._min) | ~np.isfinite(np.diag(self._m2))


@dataclass
class UnitModel:
    """Per-unit detection model.

    Attributes
    ----------
    mean, std:
        Per-sensor training mean and standard deviation, shape ``(p,)``.
    eigenvalues:
        Top-k eigenvalues of the *standardised* sensor covariance
        (correlation matrix), descending, shape ``(k,)``.
    components:
        Matching eigenvectors, shape ``(p, k)``.
    whitening:
        ``components · diag(1/√λ)`` — maps standardised observations to
        k independent N(0,1) coordinates under H₀, shape ``(p, k)``.
    n_train:
        Training sample count (documentation / sanity checks).
    """

    unit_id: int
    mean: np.ndarray
    std: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray
    whitening: np.ndarray
    n_train: int

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.float64)
        self.whitening = np.asarray(self.whitening, dtype=np.float64)
        p = self.mean.shape[0]
        k = self.eigenvalues.shape[0]
        if self.std.shape != (p,):
            raise ValueError("std must match mean's shape")
        if np.any(self.std <= 0):
            raise ValueError("sensor stds must be positive")
        if self.components.shape != (p, k) or self.whitening.shape != (p, k):
            raise ValueError("components/whitening must have shape (p, k)")
        if k and np.any(np.diff(self.eigenvalues) > 1e-9):
            raise ValueError("eigenvalues must be sorted descending")
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be non-negative")
        if self.n_train < 2:
            raise ValueError("n_train must be >= 2")

    @property
    def n_sensors(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    def explained_variance_ratio(self) -> np.ndarray:
        """Fraction of (standardised) variance captured per component."""
        total = float(self.n_sensors)
        return self.eigenvalues / total


def model_key(unit_id: int) -> str:
    """BlockStore key for a unit's model."""
    return f"unit-model-{unit_id:05d}"


def save_model(store: BlockStore, model: UnitModel) -> str:
    """Persist a model; returns its store key."""
    key = model_key(model.unit_id)
    store.put(
        key,
        {
            "unit_id": np.array([model.unit_id], dtype=np.int64),
            "mean": model.mean,
            "std": model.std,
            "eigenvalues": model.eigenvalues,
            "components": model.components,
            "whitening": model.whitening,
            "n_train": np.array([model.n_train], dtype=np.int64),
        },
    )
    return key


def load_model(store: BlockStore, unit_id: int) -> Optional[UnitModel]:
    """Load a unit's model, or None if never trained."""
    key = model_key(unit_id)
    if not store.exists(key):
        return None
    arrays = store.get(key)
    return UnitModel(
        unit_id=int(arrays["unit_id"][0]),
        mean=arrays["mean"],
        std=arrays["std"],
        eigenvalues=arrays["eigenvalues"],
        components=arrays["components"],
        whitening=arrays["whitening"],
        n_train=int(arrays["n_train"][0]),
    )
