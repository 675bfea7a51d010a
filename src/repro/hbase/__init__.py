"""HBase-like distributed, region-sharded key-value store (simulated).

Data plane is real (cells written are cells read back); RPC timing,
queueing and crashes are modelled on the :mod:`repro.cluster`
discrete-event substrate.
"""

from .bytescodec import (
    concat,
    decode_f64,
    decode_u16,
    decode_u24,
    decode_u32,
    encode_f64,
    encode_f64_column,
    encode_u8,
    encode_u16,
    encode_u24,
    encode_u32,
)
from .client import CONSISTENCY_MODES, HTableClient, ScanResult
from .master import (
    HMaster,
    RegionUnavailableError,
    ReplicaLocation,
    TableNotFoundError,
)
from .region import EMPTY_BATCH, Cell, CellBatch, Region, RegionInfo, StoreFile, merge_newest
from .regionserver import (
    PutRequest,
    RegionServer,
    RpcReply,
    ScanRequest,
    ServiceModel,
)
from .replication import FollowerReplica, ReplicaSet, ReplicationCoordinator
from .wal import WriteAheadLog

__all__ = [
    "CONSISTENCY_MODES",
    "Cell",
    "CellBatch",
    "EMPTY_BATCH",
    "FollowerReplica",
    "HMaster",
    "HTableClient",
    "PutRequest",
    "Region",
    "RegionInfo",
    "RegionServer",
    "RegionUnavailableError",
    "ReplicaLocation",
    "ReplicaSet",
    "ReplicationCoordinator",
    "RpcReply",
    "ScanRequest",
    "ScanResult",
    "ServiceModel",
    "StoreFile",
    "TableNotFoundError",
    "WriteAheadLog",
    "concat",
    "decode_f64",
    "decode_u16",
    "decode_u24",
    "decode_u32",
    "encode_f64",
    "encode_f64_column",
    "encode_u16",
    "encode_u24",
    "encode_u32",
    "encode_u8",
    "merge_newest",
]
