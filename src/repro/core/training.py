"""Offline training as a sparklet batch job.

§IV-A: "Our implementation of the FDR algorithm is composed of two
parts — an offline training component and an online evaluation
component.  Offline training occurs in Spark, running in batch mode.
... model estimation of each sensor on each unit begins by calculating
the covariance matrix of each data set.  Singular Value Decomposition
is then performed on each covariance matrix ... Results from the
decomposition are cached to HDFS."

The job parallelises *across units* (each unit's model is independent)
and, inside a unit, can fold the moments of row blocks computed on the
executors (:func:`train_unit_distributed`) — the same two-level
decomposition the paper's Spark/MLlib job uses.  Both levels estimate
with :class:`~repro.core.model.IncrementalMoments` and build with
:func:`~repro.core.fdr.build_unit_model`, like the batch fit and the
stream.  :meth:`OfflineTrainer.train_fleet` is the one fleet trainer
(the pipeline's ``train`` runs it on the run's executor pool); with a
:class:`~repro.sparklet.storage.BlockStore` (the HDFS cache stand-in)
it also persists each model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..simdata.generator import FleetGenerator
from ..sparklet.context import SparkletContext
from ..sparklet.storage import BlockStore
from .fdr import FDRDetector, FDRDetectorConfig, build_unit_model
from .model import IncrementalMoments, UnitModel, model_key, save_model

__all__ = ["TrainingResult", "OfflineTrainer", "train_unit_distributed"]


@dataclass
class TrainingResult:
    """Summary of one training job.

    ``models`` maps each unit the job fitted to its model; ``keys``
    lists the block-store keys they were persisted under (empty when
    the trainer has no store).
    """

    unit_ids: List[int]
    keys: List[str]
    n_train: int
    models: Dict[int, UnitModel]

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)


def train_unit_distributed(
    ctx: SparkletContext,
    values: np.ndarray,
    unit_id: int,
    config: Optional[FDRDetectorConfig] = None,
) -> UnitModel:
    """Train one unit with its moments computed distributively.

    :meth:`FDRDetector.fit` as a sparklet job: one row block per
    partition, each block's moments on an executor, and Chan's merge
    folding them together — the tree-reduce that lets training windows
    exceed one task's memory.  On a one-partition context the model is
    bit-identical to ``fit``'s.
    """
    cfg = config if config is not None else FDRDetectorConfig()
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("training data must be (n >= 2, p)")
    moments = (
        ctx.parallelize(np.array_split(x, ctx.parallelism))
        .map(IncrementalMoments.of)
        .fold(IncrementalMoments(x.shape[1]), IncrementalMoments.merge)
    )
    return build_unit_model(unit_id, moments, cfg)


class OfflineTrainer:
    """Fleet-scale batch trainer: one task per unit on an executor pool.

    Parameters
    ----------
    ctx:
        Sparklet context supplying the executor pool; ``None`` fits
        every unit inline on the calling thread.
    store:
        Block store the trained models are persisted to; ``None``
        keeps them in memory only.
    config:
        Detector configuration (component selection etc.).
    """

    def __init__(
        self,
        ctx: Optional[SparkletContext],
        store: Optional[BlockStore] = None,
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
        """Train (and persist) models for the given units (all by default).

        One task per unit: generate the fault-free training window, fit,
        and save when the trainer has a store.  The driver copies each
        model's arrays as it collects them, so no model keeps an
        executor's allocation alive (DESIGN §5c).  A unit that cannot be
        fitted raises ``ValueError`` naming it.
        """
        units = list(unit_ids) if unit_ids is not None else list(generator.units())

        def fit(unit_id: int) -> UnitModel:
            window = generator.training_window(unit_id, n_train)
            model = FDRDetector(self.config).fit(window.values, unit_id=unit_id)
            if self.store is not None:
                save_model(self.store, model)
            return model

        fitted = [fit(u) for u in units] if self.ctx is None else self.ctx.map_tasks(fit, units)
        keys = [model_key(u) for u in units] if self.store is not None else []
        models = {model.unit_id: model.copy() for model in fitted}
        return TrainingResult(unit_ids=units, keys=keys, n_train=n_train, models=models)
