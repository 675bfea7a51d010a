"""Streaming workload adapters: fleet data as TSDB ingestion batches.

Bridges the dataset generator to the ingestion layer: sensor samples
become :class:`~repro.tsdb.tsd.DataPoint` batches under the paper's
schema — metric ``energy`` with ``unit`` and ``sensor`` tags ("The
simulated data generated for this project is stored into a metric
called 'energy' with tags for 'unit' and 'sensor'").

Three generators are provided:

* :func:`fleet_stream` — real generated values, for end-to-end runs
  where the data is read back (detection + dashboard examples);
* :func:`ingest_stream` — cheap synthetic values cycling the same
  series schema, for pure-throughput studies where generating
  megasamples of Gaussians would only burn benchmark wall-time;
* :func:`soak_stream` — long-horizon lifecycle soak: the fleet grows
  geometrically (100 → 10,000 units in the E18 configuration), values
  follow a diurnal cycle, ingest is periodically bursty, and sensors
  are added/removed mid-stream — the arrival pattern the rollup/
  retention tier must absorb.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

import numpy as np

from ..tsdb.tsd import DataPoint
from .generator import FleetGenerator, UnitData

__all__ = [
    "METRIC",
    "unit_tag",
    "sensor_tag",
    "fleet_stream",
    "ingest_stream",
    "unit_points",
    "soak_stream",
    "soak_units",
]

METRIC = "energy"


def unit_tag(unit_id: int) -> str:
    """The ``unit`` tag value for a unit id (zero-padded: sorts numerically)."""
    return f"unit{unit_id:03d}"


def sensor_tag(sensor_id: int) -> str:
    """The ``sensor`` tag value for a sensor index (zero-padded)."""
    return f"s{sensor_id:04d}"


def unit_points(unit: UnitData, stride: int = 1) -> Iterator[DataPoint]:
    """All samples of one unit window in time-major order.

    ``stride`` thins sensors (every ``stride``-th) for quick demos.
    """
    utag = ("unit", unit_tag(unit.unit_id))
    sensor_ids = range(0, unit.n_sensors, stride)
    stags = [(("sensor", sensor_tag(s)), utag) for s in sensor_ids]
    for row in range(unit.n_samples):
        t = unit.start_time + row
        values = unit.values[row]
        for tags, s in zip(stags, sensor_ids):
            yield DataPoint(METRIC, t, float(values[s]), tags)


def fleet_stream(
    generator: FleetGenerator,
    unit_ids: Optional[List[int]] = None,
    n_samples: int = 600,
    batch_size: int = 50,
    evaluation: bool = True,
    sensor_stride: int = 1,
) -> Iterator[List[DataPoint]]:
    """Batches of real generated samples, unit by unit."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    units = unit_ids if unit_ids is not None else list(generator.units())
    batch: List[DataPoint] = []
    for unit_id in units:
        window = (
            generator.evaluation_window(unit_id, n_samples)
            if evaluation
            else generator.training_window(unit_id, n_samples)
        )
        for point in unit_points(window, stride=sensor_stride):
            batch.append(point)
            if len(batch) >= batch_size:
                yield batch
                batch = []
    if batch:
        yield batch


def ingest_stream(
    n_units: int = 100,
    n_sensors: int = 1000,
    batch_size: int = 50,
    start_time: int = 0,
    values: str = "constant",
    seed: int = 0,
) -> Iterator[List[DataPoint]]:
    """Endless round-robin stream over the fleet's series schema.

    Cycles all ``n_units × n_sensors`` series at 1 Hz — every series
    emits one sample, then the timestamp advances — exactly the arrival
    pattern of a real fleet reporting once per second.  ``values`` is
    ``"constant"`` (cheapest) or ``"noise"`` (seeded Gaussians).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    tag_pairs = [
        (("sensor", sensor_tag(s)), ("unit", unit_tag(u)))
        for u in range(n_units)
        for s in range(n_sensors)
    ]
    rng = np.random.default_rng(seed)
    n_series = len(tag_pairs)
    t = start_time
    i = 0
    while True:
        batch: List[DataPoint] = []
        if values == "noise":
            vals = rng.standard_normal(batch_size)
        else:
            vals = None
        for j in range(batch_size):
            tags = tag_pairs[i % n_series]
            v = float(vals[j]) if vals is not None else 1.0
            batch.append(DataPoint(METRIC, t, v, tags))
            i += 1
            if i % n_series == 0:
                t += 1
        yield batch


def soak_units(elapsed: float, duration: float, start_units: int, end_units: int) -> int:
    """Active fleet size ``elapsed`` seconds into a geometric ramp.

    Interpolates ``start_units → end_units`` geometrically over
    ``duration`` — the fleet roughly doubles at fixed intervals, the way
    real deployments grow, so late soak phases dominate total volume.
    """
    if elapsed <= 0 or duration <= 0:
        return start_units
    if elapsed >= duration:
        return end_units
    ratio = end_units / start_units
    size = int(round(start_units * ratio ** (elapsed / duration)))
    return min(end_units, max(start_units, size))


def soak_stream(
    start_units: int = 100,
    end_units: int = 10_000,
    n_sensors: int = 2,
    duration: int = 43_200,
    cadence: int = 60,
    start_time: int = 0,
    batch_size: int = 2_000,
    churn_period: int = 3_600,
    burst_period: int = 1_800,
    burst_factor: int = 3,
    seed: int = 0,
) -> Iterator[List[DataPoint]]:
    """Lifecycle-soak arrival pattern: growth + diurnal + bursts + churn.

    One tick every ``cadence`` seconds for ``duration`` simulated
    seconds.  At each tick every active ``(unit, sensor)`` series emits
    one sample; the active fleet grows geometrically from
    ``start_units`` to ``end_units`` (:func:`soak_units`).  Values ride
    a diurnal sine (period 24 h) plus seeded Gaussian noise.  Every
    ``burst_period`` seconds a tick turns bursty — each series emits
    ``burst_factor`` samples at consecutive timestamps instead of one.
    Every ``churn_period`` seconds the per-unit sensor set rotates one
    slot through a pool of ``n_sensors + 2`` ids, so sensors appear and
    disappear mid-stream.

    Fully deterministic: noise is seeded per-tick from ``(seed, tick)``
    so results are independent of ``batch_size``.  No ``(series, ts)``
    pair is ever emitted twice (burst offsets stay within a tick), which
    keeps the lifecycle conservation accounting exact.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if start_units < 1 or end_units < start_units:
        raise ValueError("need 1 <= start_units <= end_units")
    if not 1 <= burst_factor <= cadence:
        raise ValueError("burst_factor must be in [1, cadence]")
    pool = n_sensors + 2
    n_ticks = duration // cadence
    batch: List[DataPoint] = []
    for tick in range(n_ticks):
        elapsed = tick * cadence
        t = start_time + elapsed
        units = soak_units(elapsed, duration, start_units, end_units)
        epoch = elapsed // churn_period
        sensor_ids = [(epoch + s) % pool for s in range(n_sensors)]
        stags = [("sensor", sensor_tag(s)) for s in sensor_ids]
        bursty = burst_period > 0 and tick > 0 and elapsed % burst_period == 0
        offsets = range(burst_factor if bursty else 1)
        rng = np.random.default_rng([seed, tick])
        noise = rng.standard_normal(len(offsets) * units * n_sensors)
        base = 100.0 + 25.0 * math.sin(2.0 * math.pi * (t % 86_400) / 86_400.0)
        i = 0
        for off in offsets:
            ts = t + off
            for u in range(units):
                utag = ("unit", unit_tag(u))
                for stag in stags:
                    batch.append(
                        DataPoint(METRIC, ts, base + float(noise[i]), (stag, utag))
                    )
                    i += 1
                    if len(batch) >= batch_size:
                        yield batch
                        batch = []
    if batch:
        yield batch
