"""Tests for the distributed moment fold and the block store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.model import IncrementalMoments
from repro.sparklet import BlockStore, SparkletContext
from repro.sparklet.storage import BlockCorruptionError


@pytest.fixture()
def sc():
    ctx = SparkletContext(parallelism=3)
    yield ctx
    ctx.stop()


def fold_rows(sc, x, partitions):
    """The distributed trainer's reduction of a row matrix: one row block
    per partition, each block's moments on an executor, folded by merge."""
    return (
        sc.parallelize(np.array_split(x, partitions), partitions)
        .map(IncrementalMoments.of)
        .fold(IncrementalMoments(x.shape[1]), IncrementalMoments.merge)
    )


class TestRowMatrix:
    """A row matrix is an RDD of row blocks, and ``RDD.fold`` with
    ``IncrementalMoments.merge`` is the distributed trainer's whole
    reduction of it, so it must be one ``update`` over the concatenated
    rows, however the rows are split."""

    def random(self, rows=80, cols=7, seed=0):
        return np.random.default_rng(seed).normal(size=(rows, cols))

    def test_shape(self, sc):
        moments = fold_rows(sc, self.random(), 4)
        assert moments.count == 80
        assert moments.n_sensors == 7

    def test_column_means_match_numpy(self, sc):
        x = self.random()
        assert np.allclose(fold_rows(sc, x, 5).mean, x.mean(axis=0))

    def test_covariance_matches_numpy(self, sc):
        x = self.random()
        assert np.allclose(fold_rows(sc, x, 5).covariance(), np.cov(x, rowvar=False))

    def test_covariance_symmetric(self, sc):
        cov = fold_rows(sc, self.random(), 3).covariance()
        assert np.array_equal(cov, cov.T)

    def test_covariance_needs_rows(self, sc):
        moments = fold_rows(sc, np.zeros((1, 3)), 1)
        with pytest.raises(ValueError):
            moments.covariance()

    def test_from_numpy_requires_2d(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([np.zeros(5)], 1).map(IncrementalMoments.of).collect()

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 6)),
            elements=st.floats(-1e3, 1e3),
        ),
        st.lists(st.integers(0, 30), max_size=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_covariance_property(self, x, cuts, partitions):
        blocks = np.split(x, sorted(c % (x.shape[0] + 1) for c in cuts))
        with SparkletContext(parallelism=2) as ctx:
            folded = (
                ctx.parallelize(blocks, partitions)
                .map(IncrementalMoments.of)
                .fold(IncrementalMoments(x.shape[1]), IncrementalMoments.merge)
            )
        whole = IncrementalMoments.of(x)
        assert folded.count == whole.count == x.shape[0]
        assert np.allclose(folded.mean, whole.mean)
        cov = folded.covariance()
        assert np.array_equal(cov, cov.T)
        assert np.allclose(cov, whole.covariance(), atol=1e-6)
        assert np.allclose(cov, np.cov(x, rowvar=False).reshape(cov.shape), atol=1e-6)
        assert np.array_equal(folded.degenerate(), whole.degenerate())

    def test_merge_with_empty(self):
        x = np.random.default_rng(0).normal(size=(40, 5))
        whole = IncrementalMoments.of(x)
        for merged in (
            IncrementalMoments(5).merge(IncrementalMoments.of(x)),
            IncrementalMoments.of(x).merge(IncrementalMoments(5)),
        ):
            assert merged.count == 40
            assert np.array_equal(merged.mean, whole.mean)
            assert np.array_equal(merged.covariance(), whole.covariance())
            assert np.array_equal(merged.degenerate(), whole.degenerate())


class TestBlockStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = BlockStore(tmp_path)
        arrays_in = {"a": np.arange(5.0), "b": np.eye(3)}
        store.put("block-1", arrays_in)
        out = store.get("block-1")
        assert set(out) == {"a", "b"}
        assert np.array_equal(out["a"], arrays_in["a"])
        assert np.array_equal(out["b"], arrays_in["b"])

    def test_exists_and_contains(self, tmp_path):
        store = BlockStore(tmp_path)
        assert not store.exists("x")
        store.put("x", {"v": np.zeros(1)})
        assert store.exists("x") and "x" in store

    def test_get_missing_raises(self, tmp_path):
        with pytest.raises(KeyError):
            BlockStore(tmp_path).get("nope")

    def test_overwrite(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put("k", {"v": np.zeros(2)})
        store.put("k", {"v": np.ones(2)})
        assert np.array_equal(store.get("k")["v"], np.ones(2))

    def test_keys_sorted(self, tmp_path):
        store = BlockStore(tmp_path)
        for key in ("b", "a", "c"):
            store.put(key, {"v": np.zeros(1)})
        assert store.keys() == ["a", "b", "c"]
        assert len(store) == 3

    def test_corruption_detected(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put("k", {"v": np.arange(10.0)})
        path = tmp_path / "k.npz"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BlockCorruptionError):
            store.get("k")

    def test_invalid_key_rejected(self, tmp_path):
        store = BlockStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("../escape", {"v": np.zeros(1)})
        with pytest.raises(ValueError):
            store.put("sp ace", {"v": np.zeros(1)})

    def test_empty_block_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            BlockStore(tmp_path).put("k", {})

    def test_no_tmp_litter_on_success(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put("k", {"v": np.zeros(1)})
        assert not list(tmp_path.glob("*.tmp"))
