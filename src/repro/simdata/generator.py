"""Fleet generator: the paper's §II-A evaluation dataset.

"The training dataset contains 100 simulated units, each with 1000
sensors ... We modeled three primary categories of faults: pure random
noise for comparison, pure random noise plus gradual degradation
signal, pure random noise plus sharp shift.  Injected faults are
correlated across sensors."

Every unit is generated independently and deterministically from
``(seed, unit_id)``, so the full 100 × 1000 fleet never has to be in
memory at once — the paper's own system "can deal with one machine at
a time".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .correlation import CorrelationModel
from .faults import FaultKind, FaultSpec, fault_signal

__all__ = ["FleetConfig", "UnitData", "FleetGenerator"]

#: Sensor statistics: each sensor's mean is drawn U[MEAN_RANGE], its
#: noise std U[STD_RANGE].
MEAN_RANGE: Tuple[float, float] = (20.0, 480.0)
STD_RANGE: Tuple[float, float] = (0.5, 5.0)
#: Correlation structure: latent factors per unit (at most one per
#: sensor) and the share of each sensor's variance they drive.
N_FACTORS = 10
FACTOR_STRENGTH = 0.5


@dataclass(frozen=True)
class FleetConfig:
    """Shape and statistics of the simulated fleet.

    Defaults are the paper's scale (100 units × 1000 sensors at 1 Hz);
    tests and examples pass smaller values.
    """

    n_units: int = 100
    n_sensors: int = 1000
    seed: int = 7
    # fault mix over units: P(none), P(drift), P(shift)
    fault_mix: Tuple[float, float, float] = (0.4, 0.3, 0.3)
    # fault severity in noise-std units
    magnitude_range: Tuple[float, float] = (1.5, 4.0)
    drift_ramp_range: Tuple[int, int] = (200, 600)

    def __post_init__(self) -> None:
        if self.n_units < 1 or self.n_sensors < 1:
            raise ValueError("fleet must have at least one unit and one sensor")
        if abs(sum(self.fault_mix) - 1.0) > 1e-9:
            raise ValueError("fault_mix must sum to 1")
        if any(p < 0 for p in self.fault_mix):
            raise ValueError("fault_mix probabilities must be non-negative")


@dataclass
class UnitData:
    """One generated window for one unit.

    ``values`` is ``(n_samples, n_sensors)``; ``truth`` marks
    sample×sensor cells where an injected fault signal is non-zero
    (ground truth for power/false-alarm measurements); ``faults`` lists
    the injected specs (empty for healthy windows).
    """

    unit_id: int
    start_time: int
    values: np.ndarray
    truth: np.ndarray
    faults: List[FaultSpec]
    means: np.ndarray
    stds: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.values.shape[1]


class FleetGenerator:
    """Deterministic generator for the simulated fleet."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config if config is not None else FleetConfig()

    # ------------------------------------------------------------------
    # per-unit deterministic state
    # ------------------------------------------------------------------
    def _unit_rng(self, unit_id: int, stream: str) -> np.random.Generator:
        # crc32, not hash(): Python's str hash is salted per process and
        # would break cross-run reproducibility.
        return np.random.default_rng(
            (self.config.seed, unit_id, zlib.crc32(stream.encode("ascii")))
        )

    def unit_profile(self, unit_id: int):
        """Static truth about a unit: sensor stats, correlation, fault class."""
        cfg = self.config
        if not 0 <= unit_id < cfg.n_units:
            raise ValueError(f"unit_id must be in [0, {cfg.n_units})")
        rng = self._unit_rng(unit_id, "profile")
        means = rng.uniform(*MEAN_RANGE, size=cfg.n_sensors)
        stds = rng.uniform(*STD_RANGE, size=cfg.n_sensors)
        corr = CorrelationModel(
            cfg.n_sensors, min(N_FACTORS, cfg.n_sensors), FACTOR_STRENGTH
        ).build(rng)
        kind = rng.choice(
            [FaultKind.NONE, FaultKind.DRIFT, FaultKind.SHIFT], p=list(cfg.fault_mix)
        )
        return means, stds, corr, kind

    def fault_for(self, unit_id: int, window_seconds: int) -> List[FaultSpec]:
        """The fault specs injected into a unit's evaluation window."""
        cfg = self.config
        means, stds, corr, kind = self.unit_profile(unit_id)
        del means, stds
        if kind is FaultKind.NONE:
            return []
        rng = self._unit_rng(unit_id, "fault")
        onset = int(rng.integers(window_seconds // 4, (3 * window_seconds) // 4))
        magnitude = float(rng.uniform(*cfg.magnitude_range))
        factor = int(rng.integers(corr.n_factors))
        weights = corr.fault_weights(factor, rng)
        ramp = int(rng.integers(cfg.drift_ramp_range[0], cfg.drift_ramp_range[1] + 1))
        return [
            FaultSpec(
                kind=kind,
                onset=onset,
                magnitude=magnitude,
                ramp_seconds=ramp,
                sensor_weights=tuple(weights),
            )
        ]

    # ------------------------------------------------------------------
    # window generation
    # ------------------------------------------------------------------
    def training_window(self, unit_id: int, n_samples: int = 600) -> UnitData:
        """Fault-free data for offline model estimation."""
        return self._window(unit_id, n_samples, start_time=0, with_faults=False, stream="train")

    def evaluation_window(
        self, unit_id: int, n_samples: int = 600, start_time: Optional[int] = None
    ) -> UnitData:
        """Held-out data with the unit's fault (if any) injected."""
        if start_time is None:
            start_time = n_samples  # evaluation follows training by convention
        return self._window(
            unit_id, n_samples, start_time=start_time, with_faults=True, stream="eval"
        )

    def _window(
        self, unit_id: int, n_samples: int, start_time: int, with_faults: bool, stream: str
    ) -> UnitData:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        means, stds, corr, _kind = self.unit_profile(unit_id)
        rng = self._unit_rng(unit_id, stream)
        values = corr.simulate(n_samples, rng)  # unit-variance correlated noise
        values *= stds
        values += means
        truth = np.zeros((n_samples, self.config.n_sensors), dtype=bool)
        faults: List[FaultSpec] = []
        if with_faults:
            faults = self.fault_for(unit_id, n_samples)
            rel_times = np.arange(n_samples, dtype=np.int64)
            for spec in faults:
                shape = fault_signal(spec, rel_times)  # (n_samples,)
                for sensor, weight in spec.sensor_weights:
                    signal = spec.magnitude * weight * stds[sensor] * shape
                    values[:, sensor] += signal
                    truth[:, sensor] |= shape > 0
        return UnitData(
            unit_id=unit_id,
            start_time=start_time,
            values=values,
            truth=truth,
            faults=faults,
            means=means,
            stds=stds,
        )

    # ------------------------------------------------------------------
    # fleet-level iteration
    # ------------------------------------------------------------------
    def units(self) -> range:
        return range(self.config.n_units)

    def fault_census(self, window_seconds: int = 600) -> Dict[FaultKind, int]:
        """How many units fall in each fault class (deterministic)."""
        census: Dict[FaultKind, int] = {k: 0 for k in FaultKind}
        for unit_id in self.units():
            faults = self.fault_for(unit_id, window_seconds)
            census[faults[0].kind if faults else FaultKind.NONE] += 1
        return census
