"""E14 — serving gateway: cache hit ratio, tail latency, stampede shedding.

The read tier the paper's "visualization tool" implies at fleet scale:
thousands of operator dashboards re-polling the same overview cannot
each scan the storage tier.  The gateway's canonical-key result cache
answers warm polls in serialization time, admission control bounds
what does reach storage, and a hot-unit stampede is either absorbed by
the cache or explicitly shed — never silently queued without bound.

Shape assertions: warm hit ratio >= 0.8 with client p99 >= 5x below
the cache-off ablation; every scenario conserves requests
(``issued == served + shed``) with zero unaccounted stale
serves; the ablated stampede demonstrably sheds.
"""

import pytest

from repro.bench import REGISTRY


@pytest.mark.benchmark(group="serve")
def test_serve_gateway(benchmark, archive):
    result = benchmark.pedantic(
        lambda: REGISTRY.run("e14", duration=10.0, stampede=60),
        rounds=1,
        iterations=1,
    )
    archive(result)
    numbers = result.numbers

    # warm cache: >= 0.8 hit ratio, p99 at least 5x below cache-off
    assert numbers["on_hit_ratio"] >= 0.8
    assert numbers["p99_speedup"] >= 5.0
    assert numbers["off_hit_ratio"] == 0.0  # the ablation really ablates

    # conservation in every scenario: nothing silently dropped
    for slug in ("on", "off", "stampede_on", "stampede_off"):
        assert numbers[f"{slug}_issued"] == (
            numbers[f"{slug}_served"] + numbers[f"{slug}_shed"]
        )
        # every stale serve carried an explicit age stamp
        assert numbers[f"{slug}_stale_unaccounted"] == 0

    # the stampede stays bounded through the cache...
    assert numbers["stampede_on_p99"] <= numbers["off_p99"]
    # ...and with the cache ablated, admission control sheds the
    # overflow instead of queueing it without bound
    assert numbers["stampede_off_shed"] > 0
    # unchanged overview polls rode the ETag/NotModified path
    assert numbers["on_not_modified"] > 0
