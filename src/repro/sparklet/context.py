"""SparkletContext: the entry point to the dataflow engine.

Owns the executor pool and runs jobs on it.  Every transformation is
narrow (:mod:`repro.sparklet.rdd`), so a job has no stages: it is one
task per partition, submitted to the pool, with the results gathered in
partition order.  Tasks share no mutable state, so the context holds no
lock.  Thread-based executors give real parallelism for NumPy-heavy
tasks (BLAS releases the GIL); a context whose ``parallelism`` is 1 runs
its tasks inline on the calling thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, List, Optional, Sequence, TypeVar

from .rdd import RDD, ParallelCollectionRDD

T = TypeVar("T")

__all__ = ["SparkletContext"]


class SparkletContext:
    """Driver context.

    Parameters
    ----------
    parallelism:
        Default number of partitions for ``parallelize`` and the size
        of the thread executor pool; at 1 tasks run on the calling thread.
    """

    def __init__(self, parallelism: int = 4) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=parallelism, thread_name_prefix="sparklet")
            if parallelism > 1
            else None
        )
        self._stopped = False

    def parallelize(self, data: Sequence[T], num_slices: Optional[int] = None) -> RDD[T]:
        """Distribute an in-memory sequence into an RDD."""
        self._check_active()
        n = num_slices if num_slices is not None else self.parallelism
        return ParallelCollectionRDD(self, list(data), n)

    def map_tasks(
        self,
        func: Callable[[T], Any],
        items: Sequence[T],
        num_slices: Optional[int] = None,
    ) -> List[Any]:
        """Run ``func`` over ``items`` on the executor pool, in order.

        Convenience for embarrassingly-parallel fan-out (one logical
        task per item) without the parallelize/map/collect dance; the
        fleet evaluation engine scores units through this.  Results are
        returned in ``items`` order regardless of executor interleaving.
        """
        self._check_active()
        data = list(items)
        if not data:
            return []
        n = num_slices if num_slices is not None else min(len(data), self.parallelism * 4)
        return self.parallelize(data, n).map(func).collect()

    def run_job(self, rdd: RDD[Any], func: Callable[[Iterator[Any]], T]) -> List[T]:
        """Run ``func`` over every partition of ``rdd``; results in partition order.

        The caller waits for the pool here, so this call's own time is
        the wait on the executors.
        """
        self._check_active()
        splits = range(rdd.num_partitions())
        if self._executor is None or len(splits) <= 1:
            return [func(rdd.compute(split)) for split in splits]
        return list(self._executor.map(lambda split: func(rdd.compute(split)), splits))

    def _check_active(self) -> None:
        if self._stopped:
            raise RuntimeError("context has been stopped")

    def stop(self) -> None:
        """Shut down the executor pool."""
        if self._stopped:
            return
        self._stopped = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "SparkletContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
