"""OpenTSDB-like time-series database layer over the simulated HBase.

Implements the paper's ingestion architecture: UID-interned salted row
keys, per-node TSD daemons with AsyncHBase-style write coalescing, the
buffering reverse proxy with round-robin load balancing, row
compaction, and the query engine used by analysis and visualization.
"""

from .aggregation import AGGREGATORS, Series, aggregate, align_union, downsample, rate
from .blocks import BlockBatch, SeriesBlock, blocks_from_points
from .compaction import (
    COMPACTED_MARKER,
    RowCompactor,
    compact_row_cells,
    decompact_block,
    decompact_columns,
    is_compacted,
)
from .lineprotocol import (
    LineProtocolError,
    format_put_line,
    parse_block,
    parse_lines,
    parse_put_line,
)
from .ingest import (
    ClusterConfig,
    IngestionDriver,
    IngestionReport,
    TsdbCluster,
    build_cluster,
)
from .proxy import DirectSubmitter, ReverseProxy
from .publish import BatchPublisher, PublishReport
from .query import ConsistentResult, QueryEngine, TsdbQuery, group_and_aggregate
from .readpath import AsyncQueryExecutor, AsyncQueryResult
from .rowkey import ROW_SPAN_SECONDS, DecodedKey, RowKeyCodec
from .tsd import DATA_TABLE, DataPoint, PutAck, TSDaemon, TSDServiceModel
from .uid import UniqueIdRegistry, UnknownUidError

__all__ = [
    "AGGREGATORS",
    "AsyncQueryExecutor",
    "AsyncQueryResult",
    "BatchPublisher",
    "BlockBatch",
    "COMPACTED_MARKER",
    "ClusterConfig",
    "ConsistentResult",
    "DATA_TABLE",
    "DataPoint",
    "DecodedKey",
    "DirectSubmitter",
    "IngestionDriver",
    "IngestionReport",
    "LineProtocolError",
    "PublishReport",
    "PutAck",
    "QueryEngine",
    "ROW_SPAN_SECONDS",
    "ReverseProxy",
    "RowCompactor",
    "RowKeyCodec",
    "Series",
    "SeriesBlock",
    "TSDServiceModel",
    "TSDaemon",
    "TsdbCluster",
    "TsdbQuery",
    "UniqueIdRegistry",
    "UnknownUidError",
    "aggregate",
    "align_union",
    "blocks_from_points",
    "build_cluster",
    "compact_row_cells",
    "decompact_block",
    "decompact_columns",
    "downsample",
    "format_put_line",
    "group_and_aggregate",
    "is_compacted",
    "parse_block",
    "parse_lines",
    "parse_put_line",
    "rate",
]
