"""Cost ratchet for rollup materialization: a span costs kernel passes,
not series.

No clock is read here.  The rollup's one window reducer,
``reduce_windows``, is wrapped in a counter, and ``downsample`` is
replaced by a function that fails: materializing a span must reduce
every series of that span in one kernel pass, so the pass count is the
same for 2 series and for 40, and the per-series kernel is never
called.  A failure means a per-series loop came back into
``RollupEngine._materialize`` — the wall-clock benchmark would say so
too, but only after ten pairs of runs; this says it in tier-1
(DESIGN §24).
"""

import pytest

from repro.lifecycle import LifecyclePolicy, rollup
from repro.tsdb import aggregation, build_cluster, query
from repro.tsdb.tsd import DataPoint

METRIC = "energy"
CADENCE = 120  # seconds between samples: 61 a series over [0, 7200]


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def refuse(*args, **kwargs):
    raise AssertionError("rollup materialization called downsample")


def series_points(n_series, times):
    return [
        DataPoint.make(METRIC, t, float(t % 7 + s), {"unit": f"u{s}", "sensor": "s0"})
        for s in range(n_series)
        for t in times
    ]


@pytest.mark.parametrize("n_series", [2, 40])
def test_one_kernel_pass_per_span_whatever_the_series_count(monkeypatch, n_series):
    passes = []
    monkeypatch.setattr(rollup, "reduce_windows", counting(rollup.reduce_windows, passes))
    for module in (aggregation, query, rollup):
        monkeypatch.setattr(module, "downsample", refuse, raising=False)
    cluster = build_cluster(
        n_nodes=2, salt_buckets=2, retain_data=True, lifecycle=LifecyclePolicy()
    )
    engine = cluster.lifecycle.rollup
    cluster.direct_put(series_points(n_series, range(0, 7201, CADENCE)))
    fresh = engine.advance()
    # one span per tier ([0, 7200) for 1m and 1h), every series in it
    assert fresh["windows"] == 120 + 2
    assert fresh["points"] == 2 * n_series * 60
    assert len(passes) == 2
    assert all(len(set(keys.tolist())) == n_series for keys, *_ in passes)
    # two late puts, into 1m windows far apart: two 1m spans, one 1h span
    cluster.direct_put(series_points(n_series, [65]))
    cluster.direct_put(series_points(n_series, [6005]))
    late = engine.advance()
    assert late["backfill_windows"] == 2 + 2
    assert len(passes) == 2 + 3
