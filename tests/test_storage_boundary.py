"""The storage boundary takes cells one way (DESIGN §17, §20).

The same logical points, as a point list and as a :class:`BlockBatch`,
through the bulk loader and through the RPC put path (``block`` False
for the list, True for the batch), must leave every region — and, at
rf = 2, every follower — holding the same cells in sound columns, and
must report the same written/failed accounting.  Write timestamps differ between the
shapes (arrival order vs block order), so cells are compared by
``(row, qualifier, value)``.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.tsdb import BlockBatch, DataPoint, build_cluster
from repro.tsdb.tsd import DATA_TABLE

BUCKETS = 4
HOURS = 4


def make_cluster(rf, split_points=()):
    cluster = build_cluster(
        n_nodes=3, salt_buckets=BUCKETS, retain_data=True, crash_on_overflow=False,
        replication_factor=rf,
    )
    for bucket, hour in split_points:
        # The first metric written gets UID 1, so this key cuts one salt
        # bucket's rows of that metric at an hour boundary.
        key = bytes([bucket]) + b"\x00\x00\x01" + struct.pack(">I", hour * 3600)
        info, _ = cluster.master.locate(DATA_TABLE, key)
        if key != info.start_key:
            cluster.master.split_region(DATA_TABLE, info.name, key)
    return cluster


def contents(cluster):
    """Per region (by start key): primary cells, then each follower's.

    Every copy's memstore is checked on the way: a row's columns are
    parallel, strictly sorted by qualifier and hold each qualifier once.
    """
    out = {}
    for info, server in cluster.master.table_regions(DATA_TABLE):
        copies = [cluster.master.server(server).regions[info.name]]
        if cluster.replication is not None:
            copies.append(cluster.replication.best_follower(info.name)[0])
        for region in copies:
            for qualifiers, values, ts in region._memstore.values():
                assert len(qualifiers) == len(values) == len(ts) > 0
                assert all(a < b for a, b in zip(qualifiers, qualifiers[1:]))
        out[info.start_key] = [
            [(c.row, c.qualifier, c.value) for c in region.scan()] for region in copies
        ]
    return out


def write(cluster, payload, rpc):
    """Write ``payload``; returns ``(written, failed)`` as observers saw it."""
    seen = []
    cluster.add_ingest_observer(lambda points, written, failed: seen.append((written, failed)))
    if rpc:
        cluster.submit(payload)
    else:
        cluster.direct_put(payload)
    cluster.sim.run()  # acks, and the followers' WAL-shipping apply loops
    assert len(seen) == 1
    return seen[0]


logical_points = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, HOURS * 3600 - 1),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda rows: [
        DataPoint.make("m", t, v, {"unit": f"u{series}"}) for series, t, v in rows
    ]
)
splits = st.lists(
    st.tuples(st.integers(0, BUCKETS - 1), st.integers(1, HOURS - 1)), max_size=4, unique=True
)


@settings(max_examples=25, deadline=None)
@given(logical_points, splits, st.sampled_from([1, 2]))
def test_every_payload_shape_and_path_leaves_the_same_cells(points, split_points, rf):
    outcomes = []
    for rpc in (False, True):
        for payload in (points, BlockBatch.from_points(points)):
            cluster = make_cluster(rf, split_points)
            accounting = write(cluster, payload, rpc)
            outcomes.append((accounting, contents(cluster)))
    assert outcomes[0][0] == (len(points), 0)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    if rf == 2:  # followers hold exactly what their primaries hold
        assert all(primary == follower for primary, follower in outcomes[0][1].values())

