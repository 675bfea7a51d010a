"""Timing-aware query execution over the simulated RPC path.

The offline :class:`~repro.tsdb.query.QueryEngine` reads region data
directly (analysis correctness, no timing).  This module executes the
same queries through the full simulated machinery — TSD-side query
costs, salt-bucket scan fan-out over the HBase client, per-RegionServer
scan RPCs, network latency — so *read-side* behaviour can be studied
too: most importantly the salting trade-off (writes spread across
buckets, but every read must now fan out to all of them).

Results are bit-identical to the offline engine (asserted in the test
suite); only the timing differs.  Tier-routed plans take their column
queries from the same place the engine does
(:meth:`~repro.lifecycle.planner.TierRouter.rewrites`) and are combined
the same way (:meth:`~repro.lifecycle.planner.TierRouter.combine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lifecycle.manager import LifecycleManager

from ..cluster.simulation import Simulator
from ..hbase.client import RPC_TIMEOUT, HTableClient, ScanResult
from .aggregation import Series
from .query import QueryEngine, TsdbQuery, group_and_aggregate
from .rowkey import RowKeyCodec
from .tsd import DATA_TABLE
from .uid import UniqueIdRegistry

__all__ = ["AsyncQueryResult", "AsyncQueryExecutor"]


@dataclass
class AsyncQueryResult:
    """Outcome of one RPC-path query.

    ``complete`` is False when at least one salt-bucket scan failed
    within its retry/deadline budget (the series are then partial).
    ``staleness`` is the worst follower staleness bound that
    contributed to a timeline read; 0.0 for primary-only results.
    """

    series: List[Series]
    started_at: float
    finished_at: float
    scans_issued: int
    complete: bool = True
    staleness: float = 0.0
    retries: int = 0
    hedges: int = 0
    follower_reads: int = 0

    @property
    def latency(self) -> float:
        """End-to-end simulated latency in seconds."""
        return self.finished_at - self.started_at


class AsyncQueryExecutor:
    """Runs :class:`TsdbQuery` objects through the simulated client.

    One scan RPC per salt-bucket range (the read amplification salting
    introduces).  The RPC scanner is the third caller of the offline
    engine's one pipeline: it takes the engine's plan
    (:meth:`QueryEngine.plan_scan`), folds each range's reply into the
    plan's assembler as it arrives, and finishes with
    :func:`group_and_aggregate`.
    """

    def __init__(
        self,
        sim: Simulator,
        client: HTableClient,
        uids: UniqueIdRegistry,
        codec: RowKeyCodec,
        lifecycle: Optional["LifecycleManager"] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self._engine = QueryEngine(client.master, uids, codec)
        #: Tier router (None = always raw).  Tier-served plans are read
        #: from their column rewrites.
        self.lifecycle = lifecycle

    # ------------------------------------------------------------------
    def execute(
        self,
        query: TsdbQuery,
        on_done: Callable[[AsyncQueryResult], None],
        consistency: str = "strong",
        deadline: Optional[float] = RPC_TIMEOUT,
        hedge_delay: Optional[float] = None,
    ) -> None:
        """Run the query; ``on_done`` fires when all scans resolve.

        ``consistency``, ``deadline`` and ``hedge_delay`` pass through
        to :meth:`HTableClient.scan_replicated` per salt-bucket range;
        the merged result reports completeness and the worst staleness
        bound, so callers can distinguish a fresh-but-partial answer
        from a complete-but-stale one.
        """
        started = self.sim.now
        queries: Sequence[TsdbQuery] = (query,)
        if self.lifecycle is not None:
            rewrites = self.lifecycle.router.rewrites(
                query, self.lifecycle.plan(query, record=False)
            )
            if rewrites is not None:
                # Scan the rollup columns instead of raw cells.
                queries = rewrites
        scans = [(q, *self._engine.plan_scan(q)) for q in queries]
        total = sum(len(ranges) for _, _, ranges in scans)
        if not total:
            on_done(AsyncQueryResult([], started, self.sim.now, 0))
            return
        collected: List[ScanResult] = []

        def finish() -> None:
            answers = [group_and_aggregate(q, state.to_series()) for q, state, _ in scans]
            series = answers[0]
            if len(answers) > 1:
                assert self.lifecycle is not None
                series = self.lifecycle.router.combine(query, answers)
            on_done(
                AsyncQueryResult(
                    series,
                    started,
                    self.sim.now,
                    total,
                    complete=all(r.ok for r in collected),
                    staleness=max(r.staleness for r in collected),
                    retries=sum(r.retries for r in collected),
                    hedges=sum(r.hedges for r in collected),
                    follower_reads=sum(r.follower_reads for r in collected),
                )
            )

        for _, state, ranges in scans:

            def handle(result: ScanResult, state=state) -> None:
                collected.append(result)
                state.ingest_scan(result.cells)
                if len(collected) == total:
                    finish()

            for lo, hi in ranges:
                self.client.scan_replicated(
                    DATA_TABLE, lo, hi, handle,
                    consistency=consistency, deadline=deadline, hedge_delay=hedge_delay,
                )

    def execute_sync(
        self,
        query: TsdbQuery,
        consistency: str = "strong",
        deadline: Optional[float] = RPC_TIMEOUT,
        hedge_delay: Optional[float] = None,
    ) -> AsyncQueryResult:
        """Convenience: run the simulator until the query resolves."""
        box: List[AsyncQueryResult] = []
        self.execute(query, box.append, consistency=consistency,
                     deadline=deadline, hedge_delay=hedge_delay)
        self.sim.run()
        if not box:  # pragma: no cover - defensive
            raise RuntimeError("query did not resolve")
        return box[0]
