"""Data lifecycle tier: rollups, TTL retention, backfill, tier routing.

Long-horizon dashboards over a growing fleet cannot keep scanning raw
1 Hz cells — the scan cost grows with fleet size *times* horizon.  This
package materializes coarse downsample tiers (1m/1h by default) as
first-class ``rollup.<column>.<label>.<metric>`` series holding
count/sum/min/max columns, expires raw data on per-resolution TTLs
(tombstone deletes, physically dropped at compaction), re-materializes
rollup windows touched by out-of-order writes, and transparently routes
queries to the coarsest tier that answers them **bit-identically** to
the raw path while raw still exists.

Entry point: configure ``ClusterConfig(lifecycle=LifecyclePolicy(...))``
and the cluster wires a :class:`LifecycleManager` into its write paths,
query engines and gateway automatically.
"""

from .manager import LifecycleManager
from .planner import TierPlan, TierRouter
from .retention import RetentionManager
from .rollup import RollupEngine
from .tiers import (
    ROLLUP_COLUMNS,
    ROLLUP_PREFIX,
    LifecyclePolicy,
    TierSpec,
    rollup_metric,
)

__all__ = [
    "LifecycleManager",
    "LifecyclePolicy",
    "ROLLUP_COLUMNS",
    "ROLLUP_PREFIX",
    "RetentionManager",
    "RollupEngine",
    "TierPlan",
    "TierRouter",
    "TierSpec",
    "rollup_metric",
]
