"""Tests for the synthetic fleet dataset (§II-A)."""

import hashlib

import numpy as np
import pytest

from repro.simdata import (
    CorrelationModel,
    FaultKind,
    FaultSpec,
    FleetConfig,
    FleetGenerator,
    fault_signal,
)
from repro.simdata.workload import fleet_stream, ingest_stream, unit_points


class TestFaultSpec:
    def test_none_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.NONE, onset=10, magnitude=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.SHIFT, onset=-1, magnitude=1.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.SHIFT, onset=0, magnitude=0.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DRIFT, onset=0, magnitude=1.0, ramp_seconds=0)
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.SHIFT, onset=0, magnitude=1.0,
                sensor_weights=((0, 1.5),),
            )

    def test_shift_signal_is_step(self):
        spec = FaultSpec(FaultKind.SHIFT, onset=5, magnitude=2.0)
        signal = fault_signal(spec, np.arange(10))
        assert list(signal[:5]) == [0.0] * 5
        assert list(signal[5:]) == [1.0] * 5

    def test_drift_signal_ramps(self):
        spec = FaultSpec(FaultKind.DRIFT, onset=2, magnitude=1.0, ramp_seconds=4)
        signal = fault_signal(spec, np.arange(10))
        assert signal[2] == 0.0
        assert signal[6] == pytest.approx(1.0)
        assert signal[8] > signal[6]  # keeps growing

    def test_sensors_property(self):
        spec = FaultSpec(
            FaultKind.SHIFT, onset=0, magnitude=1.0,
            sensor_weights=((3, 0.5), (7, 1.0)),
        )
        assert spec.sensors == (3, 7)
        assert spec.weights_dict() == {3: 0.5, 7: 1.0}


class TestCorrelationModel:
    def realized(self, n_sensors=40, n_factors=5, strength=0.6, seed=0):
        return CorrelationModel(n_sensors, n_factors, strength).build(
            np.random.default_rng(seed)
        )

    def test_unit_marginal_variance(self):
        real = self.realized()
        cov = real.covariance()
        assert np.allclose(np.diag(cov), 1.0)

    def test_covariance_psd(self):
        cov = self.realized().covariance()
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10)

    def test_groups_partition_sensors(self):
        real = self.realized()
        all_sensors = np.concatenate([real.factor_group(f) for f in range(real.n_factors)])
        assert sorted(all_sensors) == list(range(real.n_sensors))

    def test_simulate_statistics(self):
        real = self.realized()
        x = real.simulate(20_000, np.random.default_rng(1))
        assert abs(x.mean()) < 0.02
        assert np.allclose(x.std(axis=0), 1.0, atol=0.05)

    def test_simulate_reproduces_correlation(self):
        real = self.realized(n_sensors=10, n_factors=2, strength=0.7)
        x = real.simulate(50_000, np.random.default_rng(2))
        emp = np.corrcoef(x, rowvar=False)
        assert np.allclose(emp, real.covariance(), atol=0.05)

    def test_within_group_correlated_across_not(self):
        real = self.realized(n_sensors=20, n_factors=2, strength=0.7)
        cov = real.covariance()
        g0 = real.factor_group(0)
        g1 = real.factor_group(1)
        within = cov[np.ix_(g0, g0)][np.triu_indices(len(g0), 1)]
        across = cov[np.ix_(g0, g1)].ravel()
        assert within.mean() > 0.3
        assert abs(across.mean()) < 0.05

    def test_fault_weights_normalised(self):
        real = self.realized()
        weights = real.fault_weights(0, np.random.default_rng(0))
        ws = [w for _, w in weights]
        assert max(ws) == pytest.approx(1.0)
        assert all(0 < w <= 1 for w in ws)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationModel(0)
        with pytest.raises(ValueError):
            CorrelationModel(10, n_factors=11)
        with pytest.raises(ValueError):
            CorrelationModel(10, factor_strength=1.0)
        real = self.realized()
        with pytest.raises(ValueError):
            real.factor_group(99)


class TestFleetGenerator:
    def gen(self, **kw):
        defaults = dict(n_units=10, n_sensors=20, seed=5)
        defaults.update(kw)
        return FleetGenerator(FleetConfig(**defaults))

    def test_deterministic_across_instances(self):
        a = self.gen().evaluation_window(3, 100)
        b = self.gen().evaluation_window(3, 100)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.truth, b.truth)

    @pytest.mark.parametrize("seed, unit, values_sha, truth_sha", [
        (7, 5,  # drift
         "afe10202a4b7eff7c0083a9aa953e1993bbcd9a88a2cb1294dcf3f1f8cdc412f",
         "76eea5dd0362c65643faa29f48d8202af530a26df2f0faffae4b657bfd6cc80e"),
        (23, 1,  # shift
         "b83839c0510d4db9c792967dcc40db068c0a1ef6ab2edb7237f818783872a0d5",
         "5af8fc25344847b9ae5d1ec81b6c09b7af9e91fe026a69f37235e9c2d716f3d2"),
    ])
    def test_window_bits_are_pinned(self, seed, unit, values_sha, truth_sha):
        """Every record and bit-identity test downstream rests on these
        exact bits: the draws, their order and each product and sum of
        the noise arithmetic.  (Each factor-model row has one nonzero
        loading, so the matmul is exact and the pin holds on any BLAS.)"""
        window = FleetGenerator(
            FleetConfig(n_units=6, n_sensors=40, seed=seed)
        ).evaluation_window(unit, 300)
        assert window.faults
        assert hashlib.sha256(window.values.tobytes()).hexdigest() == values_sha
        assert hashlib.sha256(window.truth.tobytes()).hexdigest() == truth_sha

    def test_training_and_eval_windows_differ(self):
        g = self.gen()
        train = g.training_window(0, 100)
        eval_ = g.evaluation_window(0, 100)
        assert not np.array_equal(train.values[:, 0], eval_.values[:, 0])

    def test_training_window_fault_free(self):
        g = self.gen(fault_mix=(0.0, 0.0, 1.0))  # every unit faulted in eval
        train = g.training_window(0, 100)
        assert not train.truth.any()
        assert train.faults == []

    def test_fault_mix_census(self):
        g = self.gen(n_units=60, fault_mix=(0.5, 0.25, 0.25))
        census = g.fault_census()
        assert sum(census.values()) == 60
        assert census[FaultKind.NONE] > 0
        assert census[FaultKind.DRIFT] + census[FaultKind.SHIFT] > 0

    def test_truth_matches_fault_spec(self):
        g = self.gen(fault_mix=(0.0, 0.0, 1.0))
        window = g.evaluation_window(0, 200)
        assert len(window.faults) == 1
        spec = window.faults[0]
        affected = set(spec.sensors)
        flagged_sensors = set(np.flatnonzero(window.truth.any(axis=0)))
        assert flagged_sensors == affected
        # truth starts after onset
        assert not window.truth[: spec.onset + 1].any() or spec.kind is FaultKind.SHIFT

    def test_shift_fault_moves_mean(self):
        g = self.gen(fault_mix=(0.0, 0.0, 1.0), magnitude_range=(3.0, 3.0))
        window = g.evaluation_window(1, 400)
        spec = window.faults[0]
        sensor = max(spec.sensor_weights, key=lambda sw: sw[1])[0]
        pre = window.values[: spec.onset, sensor]
        post = window.values[spec.onset + 1 :, sensor]
        std = window.stds[sensor]
        assert (post.mean() - pre.mean()) / std > 1.5

    def test_healthy_units_have_empty_truth(self):
        g = self.gen(fault_mix=(1.0, 0.0, 0.0))
        window = g.evaluation_window(2, 100)
        assert not window.truth.any()
        assert window.faults == []

    def test_unit_id_bounds(self):
        with pytest.raises(ValueError):
            self.gen().unit_profile(99)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            FleetConfig(n_units=0)
        with pytest.raises(ValueError):
            FleetConfig(fault_mix=(0.5, 0.5, 0.5))

    def test_window_sample_validation(self):
        with pytest.raises(ValueError):
            self.gen().training_window(0, 0)


class TestWorkloadAdapters:
    def test_unit_points_schema(self):
        g = FleetGenerator(FleetConfig(n_units=2, n_sensors=3, seed=1))
        window = g.evaluation_window(1, 5)
        pts = list(unit_points(window))
        assert len(pts) == 15
        assert pts[0].metric == "energy"
        tags = dict(pts[0].tags)
        assert tags["unit"] == "unit001"
        assert tags["sensor"] == "s0000"
        assert pts[0].timestamp == window.start_time

    def test_unit_points_stride(self):
        g = FleetGenerator(FleetConfig(n_units=1, n_sensors=10, seed=1))
        window = g.evaluation_window(0, 2)
        pts = list(unit_points(window, stride=5))
        assert len(pts) == 4  # 2 sensors x 2 samples

    def test_fleet_stream_batching(self):
        g = FleetGenerator(FleetConfig(n_units=2, n_sensors=4, seed=1))
        batches = list(fleet_stream(g, n_samples=5, batch_size=7))
        total = sum(len(b) for b in batches)
        assert total == 2 * 4 * 5
        assert all(len(b) <= 7 for b in batches)

    def test_ingest_stream_advances_time(self):
        stream = ingest_stream(n_units=2, n_sensors=2, batch_size=4)
        first = next(stream)
        second = next(stream)
        assert {p.timestamp for p in first} == {0}
        assert {p.timestamp for p in second} == {1}

    def test_ingest_stream_noise_values(self):
        stream = ingest_stream(n_units=1, n_sensors=4, batch_size=4, values="noise", seed=3)
        batch = next(stream)
        assert len({p.value for p in batch}) > 1

    def test_ingest_stream_validation(self):
        with pytest.raises(ValueError):
            next(ingest_stream(batch_size=0))
