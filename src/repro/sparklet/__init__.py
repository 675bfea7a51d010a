"""Sparklet: a from-scratch Spark-like batch dataflow engine.

The substrate the paper's offline FDR training job runs on, cut to
what that job needs: lazy RDDs with narrow ``map`` and the ``collect``
and ``fold`` actions, a thread executor pool that runs one task per
partition, a checksummed block store, and micro-batch streams.  The
job fits each unit on its own and folds per-partition moment
accumulators into one, so it needs no shuffle, and sparklet has none.
"""

from .context import SparkletContext
from .rdd import RDD, MapPartitionsRDD, ParallelCollectionRDD
from .storage import BlockCorruptionError, BlockStore
from .streaming import DStream, StreamingContext

__all__ = [
    "BlockCorruptionError",
    "BlockStore",
    "DStream",
    "MapPartitionsRDD",
    "ParallelCollectionRDD",
    "RDD",
    "SparkletContext",
    "StreamingContext",
]
