"""Training moments, trained model artifacts and their persistence.

Every trainer — the batch fit, the distributed fold and the stream
refresh — estimates a unit's moments with one
:class:`IncrementalMoments` and hands them to the one model builder
(:func:`repro.core.fdr.build_unit_model`).  The offline trainer
(§IV-A: covariance → SVD, results "cached to HDFS") produces one
:class:`UnitModel` per unit.  The artifact holds what the online
evaluator reads — sensor means/stds for the per-sensor tests and the
folded T² map ``(projection, offset)`` with the degrees of freedom of
its F threshold — and round-trips losslessly through the
:class:`~repro.sparklet.storage.BlockStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np
from scipy import special

from ..sparklet.storage import BlockStore

__all__ = ["IncrementalMoments", "UnitModel", "save_model", "load_model", "model_key"]

#: The model's array fields; the rest are ints.
_ARRAYS = ("mean", "std", "projection", "offset")


class IncrementalMoments:
    """Exact mean/covariance over batches of rows, mergeable, in two halves.

    Row ``i`` of the sequence seen so far goes to half ``i mod 2`` (A is
    0, B is 1; DESIGN §27), so any chunking of :meth:`update` and any
    ordered fold of :meth:`merge` give each half the batch statistics
    of its rows of ``vstack(X₁..X_k)`` to round-off.  Chan et al.'s
    numerically stable pairwise merge, per half::

        δ = μ_b − μ
        M ← M + M_b + δδᵀ · n·n_b/(n+n_b)

    where ``M`` is the centred sum-of-squares matrix.  :attr:`mean`,
    :meth:`std` and :meth:`covariance` pool the halves.  One ``update``
    is the batch fit, a run of updates is the stream, and a fold of
    ``merge`` over per-partition accumulators is the distributed job.
    Each sensor's min and max ride along, so :meth:`degenerate` decides
    exactly whether a sensor never moved.
    """

    def __init__(self, n_sensors: int) -> None:
        if n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        self.n_sensors = n_sensors
        self.count = 0
        self._n = np.zeros(2)
        self._mean = np.zeros((2, n_sensors))
        self._m2 = np.zeros((2, n_sensors, n_sensors))
        self._min, self._max = np.full((2, n_sensors), np.inf), np.full((2, n_sensors), -np.inf)

    @classmethod
    def of(cls, batch: np.ndarray) -> "IncrementalMoments":
        """The moments of one ``(n, p)`` batch: a fresh accumulator, one update."""
        moments = cls(np.shape(batch)[-1])
        moments.update(batch)
        return moments

    def update(self, batch: np.ndarray) -> None:
        """Fold in a batch of shape ``(n_b, p)``, both halves in one pass.

        The rows are dealt into a ``(2, rows, p)`` stack, the short half
        of an odd batch padded with a blank row.  Non-finite samples are
        refused before any state is touched: one NaN would poison the
        running mean and M2 for good.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_sensors:
            raise ValueError(f"batch must be (n, {self.n_sensors}); got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("batch holds non-finite samples (NaN or inf)")
        n = x.shape[0]
        if n == 0:
            return
        lead, rows = self.count % 2, (n + 1) // 2  # batch row j goes to half (lead + j) % 2
        counts = np.array([rows, rows])
        counts[1 - lead] -= n % 2
        dealt = np.zeros((2, rows, self.n_sensors))
        dealt[lead] = x[0::2]
        dealt[1 - lead, : n // 2] = x[1::2]
        mean_b = dealt.sum(axis=1) / np.maximum(counts, 1)[:, None]
        centred = dealt - mean_b[:, None, :]
        if n % 2:  # the short half's blank row: no weight, a real row for min and max
            centred[1 - lead, -1] = 0.0
            dealt[1 - lead, -1] = dealt[1 - lead, 0]
        min_b, max_b = dealt.min(axis=1), dealt.max(axis=1)
        if n == 1:  # the other half saw nothing
            min_b[1 - lead], max_b[1 - lead] = np.inf, -np.inf
        self._combine(counts, mean_b, centred.transpose(0, 2, 1) @ centred, min_b, max_b)

    def merge(self, other: "IncrementalMoments") -> "IncrementalMoments":
        """Fold in another accumulator's rows as following this one's;
        returns self.  After an odd count its halves swap places."""
        if other.count:
            h = slice(None, None, -1) if self.count % 2 else slice(None)
            self._combine(other._n[h], other._mean[h], other._m2[h], other._min[h], other._max[h])
        return self

    def _combine(self, n_b: np.ndarray, mean_b: np.ndarray, m2_b: np.ndarray,
                 min_b: np.ndarray, max_b: np.ndarray) -> None:
        """Chan's merge of per-half ``(n_b, μ_b, M_b, min_b, max_b)``; never
        writes into an array it was handed, so adopting ``other``'s arrays
        in :meth:`merge` aliases nothing that later changes."""
        if self.count == 0:
            self._n, self._mean, self._m2, self._min, self._max = n_b, mean_b, m2_b, min_b, max_b
            self.count = int(n_b[0] + n_b[1])
            return
        n = self._n
        total = n + n_b
        share = n_b / total
        delta = mean_b - self._mean
        self._mean = self._mean + delta * share[:, None]
        weighted = delta * (n * share)[:, None]
        self._m2 = self._m2 + m2_b + delta[:, :, None] * weighted[:, None, :]
        self._min = np.minimum(self._min, min_b)
        self._max = np.maximum(self._max, max_b)
        self._n = total
        self.count += int(n_b[0] + n_b[1])

    # ------------------------------------------------------------------
    def halves(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Halves A and B's ``(counts, means, M2, constant)`` stacked on axis 0
        (``constant``: never moved in that half); read them, do not write."""
        return self._n, self._mean, self._m2, self._max <= self._min

    def _pooled(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-sample ``(μ, δ = μ_B − μ_A, n_A·n_B/n)`` from the halves, in O(p)."""
        n_a, n_b = self._n
        delta = self._mean[1] - self._mean[0]
        return self._mean[0] + delta * (n_b / self.count), delta, n_a * n_b / self.count

    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no data seen yet")
        return self._pooled()[0]

    def covariance(self) -> np.ndarray:
        """Full-sample covariance (ddof=1), symmetrised."""
        if self.count < 2:
            raise ValueError("covariance requires at least 2 samples")
        _, delta, weight = self._pooled()
        cov = (self._m2[0] + self._m2[1] + np.outer(delta, delta * weight)) / (self.count - 1)
        return (cov + cov.T) / 2.0

    def std(self) -> np.ndarray:
        """Full-sample standard deviation (ddof=1), in O(p)."""
        if self.count < 2:
            raise ValueError("covariance requires at least 2 samples")
        _, delta, weight = self._pooled()
        return np.sqrt((np.einsum("hii->i", self._m2) + delta * delta * weight) / (self.count - 1))

    def degenerate(self) -> np.ndarray:
        """Per-sensor mask: no model can standardise this sensor.

        A sensor is degenerate when every sample it gave, in both
        halves, was the same value (a stuck sensor, a constant feed) —
        decided on the exact min and max, not on a variance that
        round-off leaves at ±1e-15 — or when its variance overflowed to
        a non-finite value in either half.
        """
        constant = self._max.max(axis=0) == self._min.min(axis=0)
        return constant | ~np.isfinite(np.einsum("hii->i", self._m2))


@dataclass
class UnitModel:
    """Per-unit detection model: what the scoring kernel reads.

    Attributes
    ----------
    mean, std:
        Per-sensor full-sample training mean and standard deviation,
        shape ``(p,)``.
    projection, offset:
        The folded T² map, shapes ``(p, k)`` and ``(k,)``: a row
        standardised to ``z`` has ``T² = ‖z·projection + offset‖²``
        (DESIGN §27); ``k = 0`` turns the unit channel off.
    n_train:
        Training sample count (the per-sensor tests' dof + 1).
    n_b:
        Rows of training half B, which calibrated the T² map.
    """

    unit_id: int
    mean: np.ndarray
    std: np.ndarray
    projection: np.ndarray
    offset: np.ndarray
    n_train: int
    n_b: int

    def __post_init__(self) -> None:
        for name in _ARRAYS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        p = self.mean.shape[0]
        if self.std.shape != (p,):
            raise ValueError("std must match mean's shape")
        if np.any(self.std <= 0):
            raise ValueError("sensor stds must be positive")
        k = self.projection.shape[-1]
        if self.projection.shape != (p, k) or self.offset.shape != (k,):
            raise ValueError("projection and offset must have shapes (p, k) and (k,)")
        if self.n_train < 2:
            raise ValueError("n_train must be >= 2")
        if k and not k < self.n_b <= self.n_train:
            raise ValueError("T² needs k < n_b <= n_train")

    @property
    def n_sensors(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        """k, the rank of the T² map (0: the unit channel is off)."""
        return self.projection.shape[1]

    def t2_limit(self, alpha: float) -> float:
        """The T² alarm threshold at level ``alpha``: under H₀,
        ``n_b/(n_b + 1) · T²`` is Hotelling's T²(k, n_b − 1), so this
        scaled F quantile is exact for Gaussian rows (DESIGN §27)."""
        k, n_b = self.n_components, self.n_b
        if k == 0:
            raise ValueError("model retains no components; the unit channel is off")
        scale = k * (n_b - 1) * (n_b + 1) / (n_b * (n_b - k))
        return float(scale * special.fdtri(k, n_b - k, 1.0 - alpha))

    def copy(self) -> "UnitModel":
        """The same model over fresh copies of its arrays, layouts kept.

        The copies are allocated by the calling thread, and
        ``projection`` and ``offset`` stop pinning the solve's output
        they are views of (DESIGN §5c).
        """
        return replace(self, **{name: getattr(self, name).copy(order="K") for name in _ARRAYS})


def model_key(unit_id: int) -> str:
    """BlockStore key for a unit's model."""
    return f"unit-model-{unit_id:05d}"


def save_model(store: BlockStore, model: UnitModel) -> str:
    """Persist a model; returns its store key."""
    key = model_key(model.unit_id)
    store.put(key, {f.name: np.atleast_1d(getattr(model, f.name)) for f in fields(model)})
    return key


def load_model(store: BlockStore, unit_id: int) -> Optional[UnitModel]:
    """Load a unit's model, or None if never trained."""
    key = model_key(unit_id)
    if not store.exists(key):
        return None
    arrays = store.get(key)
    return UnitModel(**{
        f.name: arrays[f.name] if f.name in _ARRAYS else int(arrays[f.name][0])
        for f in fields(UnitModel)
    })
