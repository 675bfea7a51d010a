"""Offline training as a sparklet batch job.

§IV-A: "Our implementation of the FDR algorithm is composed of two
parts — an offline training component and an online evaluation
component.  Offline training occurs in Spark, running in batch mode.
... model estimation of each sensor on each unit begins by calculating
the covariance matrix of each data set.  Singular Value Decomposition
is then performed on each covariance matrix ... Results from the
decomposition are cached to HDFS."

The job parallelises *across units* (each unit's model is independent)
and, inside a unit, computes the covariance via the distributed
:class:`~repro.sparklet.linalg.RowMatrix` pathway — the same two-level
decomposition the paper's Spark/MLlib job uses.  Models are persisted
to the :class:`~repro.sparklet.storage.BlockStore` (the HDFS cache
stand-in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..simdata.generator import FleetGenerator
from ..sparklet.context import SparkletContext
from ..sparklet.linalg import RowMatrix
from ..sparklet.storage import BlockStore
from .fdr import FDRDetector, FDRDetectorConfig, build_unit_model
from .model import UnitModel, load_model, save_model

__all__ = ["TrainingResult", "OfflineTrainer", "train_unit_distributed"]


@dataclass
class TrainingResult:
    """Summary of one training job.

    ``keys`` lists the block-store keys of persisted model artifacts;
    the pipeline's local (store-less) training path synthesizes a
    result with no keys.
    """

    unit_ids: List[int]
    keys: List[str]
    n_train: int

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)


def train_unit_distributed(
    ctx: SparkletContext,
    values: np.ndarray,
    unit_id: int,
    config: Optional[FDRDetectorConfig] = None,
) -> UnitModel:
    """Train one unit with the covariance computed distributively.

    Functionally identical to :meth:`FDRDetector.fit` but the Gram
    matrix is assembled from per-partition BLAS calls on the sparklet
    executors — the path that scales to sensor counts and training
    windows that exceed one task's memory.
    """
    cfg = config if config is not None else FDRDetectorConfig()
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("training data must be (n >= 2, p)")
    matrix = RowMatrix.from_numpy(ctx, x)
    mean = matrix.column_means()
    n = matrix.num_rows()
    # Standardise via the distributed pass' own moments.
    gram_diag = np.diag(matrix.gramian())
    var = (gram_diag - n * mean**2) / (n - 1)
    if np.any(var <= 0):
        raise ValueError("every sensor needs non-zero training variance")
    std = np.sqrt(var)
    standardized = matrix.blocks.map(lambda b: (b - mean) / std)
    zmat = RowMatrix(standardized, num_cols=x.shape[1])
    return build_unit_model(unit_id, mean, std, zmat.covariance(), n, cfg)


class OfflineTrainer:
    """Fleet-scale batch trainer.

    Parameters
    ----------
    ctx:
        Sparklet context supplying the executor pool.
    store:
        Block store for trained model artifacts.
    config:
        Detector configuration (component selection etc.).
    """

    def __init__(
        self,
        ctx: SparkletContext,
        store: BlockStore,
        config: Optional[FDRDetectorConfig] = None,
    ) -> None:
        self.ctx = ctx
        self.store = store
        self.config = config if config is not None else FDRDetectorConfig()

    def train_fleet(
        self,
        generator: FleetGenerator,
        unit_ids: Optional[Sequence[int]] = None,
        n_train: int = 600,
    ) -> TrainingResult:
        """Train and persist models for the given units (all by default).

        One task per unit: generate the fault-free training window, fit,
        save.  Unit tasks run concurrently on the executor pool; each
        task is itself vectorised NumPy, so threads give real speedup.
        """
        units = list(unit_ids) if unit_ids is not None else list(generator.units())
        config = self.config
        store = self.store

        def fit_and_save(unit_id: int) -> str:
            window = generator.training_window(unit_id, n_train)
            model = FDRDetector(config).fit(window.values, unit_id=unit_id)
            return save_model(store, model)

        keys = (
            self.ctx.parallelize(units, min(len(units), self.ctx.parallelism * 4))
            .map(fit_and_save)
            .collect()
        )
        return TrainingResult(unit_ids=units, keys=keys, n_train=n_train)

    def load_models(self, unit_ids: Sequence[int]) -> Dict[int, UnitModel]:
        """Fetch persisted models (missing units are silently skipped)."""
        out: Dict[int, UnitModel] = {}
        for unit_id in unit_ids:
            model = load_model(self.store, unit_id)
            if model is not None:
                out[unit_id] = model
        return out
