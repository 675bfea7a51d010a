"""Micro-batch stream processing (the Spark Streaming substrate).

The paper's §VI lists "migrating our anomaly detection implementation
to Spark Streaming for online training" as ongoing work.  This module
keeps the part of the D-Stream model (Zaharia et al., SOSP'13) that
the streaming detector and trainer use: a stream is a sequence of
*micro-batches*, each handed to the registered outputs
(:meth:`DStream.foreach_rdd`) as an ordinary RDD on the batch engine.

Sources are pull-based (``queue_stream`` / ``generator_stream``);
``StreamingContext.run`` drives a fixed number of intervals, which
keeps tests deterministic (no wall-clock coupling).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional

from .context import SparkletContext
from .rdd import RDD

__all__ = ["DStream", "StreamingContext"]


class StreamingContext:
    """Drives micro-batch rounds over a batch :class:`SparkletContext`."""

    def __init__(self, sc: SparkletContext) -> None:
        self.sc = sc
        self._sources: List["DStream"] = []
        self.batches_processed = 0

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def queue_stream(self, batches: Iterable[List[Any]]) -> "DStream":
        """A stream fed from a pre-built sequence of micro-batches."""
        return self.generator_stream(iter(batches))

    def generator_stream(self, generator: Iterator[List[Any]]) -> "DStream":
        """A stream fed lazily from a generator of micro-batches."""
        source = DStream(self, generator)
        self._sources.append(source)
        return source

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, num_intervals: Optional[int] = None) -> int:
        """Process up to ``num_intervals`` micro-batches (all, if None).

        Each interval pulls one batch from every source and fires that
        source's registered outputs.  Returns the number of intervals
        actually processed (a source running dry ends the stream).
        """
        if not self._sources:
            raise RuntimeError("no stream sources registered")
        processed = 0
        while num_intervals is None or processed < num_intervals:
            time_index = self.batches_processed
            alive = False
            for source in self._sources:
                if source._advance(time_index):
                    alive = True
            if not alive:
                break
            self.batches_processed += 1
            processed += 1
        return processed


class DStream:
    """A discretised stream: one RDD per micro-batch interval, pulled
    from an iterator of batches."""

    def __init__(self, ssc: StreamingContext, batches: Iterator[List[Any]]) -> None:
        self.ssc = ssc
        self._batches = batches
        self._exhausted = False
        self._outputs: List[Callable[[int, RDD[Any]], None]] = []

    def foreach_rdd(self, f: Callable[[int, RDD[Any]], None]) -> None:
        """Register an output action run on every interval's RDD."""
        self._outputs.append(f)

    def _advance(self, time_index: int) -> bool:
        if self._exhausted:
            return False
        batch = next(self._batches, None)
        if batch is None:
            self._exhausted = True
            return False
        rdd = self.ssc.sc.parallelize(list(batch))
        for output in self._outputs:
            output(time_index, rdd)
        return True
