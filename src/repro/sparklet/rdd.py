"""Resilient-distributed-dataset API (lazy, partitioned collections).

The paper's Spark job needs no shuffle: it fits every unit on its own
(``parallelize → map → collect``) and folds per-partition moment
accumulators into one (``map → fold``,
:func:`repro.core.training.train_unit_distributed`).  So
every transformation here is *narrow* — partition ``i`` of a child is
computed from partition ``i`` of its parent alone — and an action is
one job of one task per partition
(:meth:`~repro.sparklet.context.SparkletContext.run_job`).

Records flow through plain Python iterators; numeric work should map
whole NumPy blocks (vectorise per partition, not per record) — the
distributed trainer maps one row block per partition.
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Callable, Generic, Iterable, Iterator, List, TypeVar

T = TypeVar("T")
U = TypeVar("U")

__all__ = ["RDD", "ParallelCollectionRDD", "MapPartitionsRDD"]


class RDD(Generic[T]):
    """A lazy, partitioned collection."""

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx  # the owning SparkletContext

    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int) -> Iterator[T]:
        """Compute one partition (called by ``run_job``)."""
        raise NotImplementedError

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        return MapPartitionsRDD(self, lambda it: map(f, it))

    def collect(self) -> List[T]:
        chunks = self.ctx.run_job(self, list)
        return [x for chunk in chunks for x in chunk]

    def fold(self, zero: T, f: Callable[[T, T], T]) -> T:
        """Fold each partition with ``f``, then fold the partial results.

        Each partition and the final merge start from their own deep
        copy of ``zero``, as in Spark, so ``f`` may update its first
        argument in place.
        """
        partials = self.ctx.run_job(
            self, lambda it: functools.reduce(f, it, copy.deepcopy(zero))
        )
        return functools.reduce(f, partials, copy.deepcopy(zero))


class ParallelCollectionRDD(RDD[T]):
    """Root RDD over an in-memory sequence, sliced into partitions."""

    def __init__(self, ctx: Any, data: List[T], num_slices: int) -> None:
        super().__init__(ctx)
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        n = len(data)
        self._slices = [
            data[(i * n) // num_slices : ((i + 1) * n) // num_slices]
            for i in range(num_slices)
        ]

    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int) -> Iterator[T]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD[U]):
    """Narrow transformation: apply ``f`` to each parent partition's iterator."""

    def __init__(self, parent: RDD[T], f: Callable[[Iterator[T]], Iterable[U]]) -> None:
        super().__init__(parent.ctx)
        self.parent = parent
        self.f = f

    def num_partitions(self) -> int:
        return self.parent.num_partitions()

    def compute(self, split: int) -> Iterator[U]:
        return iter(self.f(self.parent.compute(split)))
