"""Tests for distributed linear algebra and the block store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparklet import BlockStore, RowMatrix, SparkletContext
from repro.sparklet.linalg import eigh_descending
from repro.sparklet.storage import BlockCorruptionError


@pytest.fixture()
def sc():
    ctx = SparkletContext(parallelism=3)
    yield ctx
    ctx.stop()


class TestRowMatrix:
    def random(self, rows=80, cols=7, seed=0):
        return np.random.default_rng(seed).normal(size=(rows, cols))

    def test_shape(self, sc):
        m = RowMatrix.from_numpy(sc, self.random(), 4)
        assert m.num_rows() == 80
        assert m.num_cols() == 7

    def test_column_means_match_numpy(self, sc):
        x = self.random()
        m = RowMatrix.from_numpy(sc, x, 5)
        assert np.allclose(m.column_means(), x.mean(axis=0))

    def test_gramian_matches_numpy(self, sc):
        x = self.random()
        m = RowMatrix.from_numpy(sc, x, 5)
        assert np.allclose(m.gramian(), x.T @ x)

    def test_covariance_matches_numpy(self, sc):
        x = self.random()
        m = RowMatrix.from_numpy(sc, x, 5)
        assert np.allclose(m.covariance(), np.cov(x, rowvar=False))

    def test_covariance_symmetric(self, sc):
        cov = RowMatrix.from_numpy(sc, self.random(), 3).covariance()
        assert np.array_equal(cov, cov.T)

    def test_covariance_eigen_descending_nonnegative(self, sc):
        m = RowMatrix.from_numpy(sc, self.random(), 4)
        eigvals, eigvecs = eigh_descending(m.covariance())
        assert np.all(np.diff(eigvals) <= 1e-12)
        assert np.all(eigvals >= 0)
        assert eigvecs.shape == (7, 7)

    def test_covariance_eigen_reconstructs(self, sc):
        x = self.random(rows=200)
        m = RowMatrix.from_numpy(sc, x, 4)
        eigvals, eigvecs = eigh_descending(m.covariance())
        recon = eigvecs @ np.diag(eigvals) @ eigvecs.T
        assert np.allclose(recon, m.covariance(), atol=1e-10)

    def test_covariance_needs_rows(self, sc):
        m = RowMatrix.from_numpy(sc, np.zeros((1, 3)), 1)
        with pytest.raises(ValueError):
            m.covariance()

    def test_from_numpy_requires_2d(self, sc):
        with pytest.raises(ValueError):
            RowMatrix.from_numpy(sc, np.zeros(5))

    def test_collect_roundtrip(self, sc):
        x = self.random()
        assert np.array_equal(np.vstack(RowMatrix.from_numpy(sc, x, 6).blocks.collect()), x)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 6)),
            elements=st.floats(-1e3, 1e3),
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_covariance_property(self, x, blocks):
        with SparkletContext(parallelism=2) as ctx:
            m = RowMatrix.from_numpy(ctx, x, blocks)
            assert np.allclose(
                m.covariance(), np.cov(x, rowvar=False).reshape(x.shape[1], x.shape[1]),
                atol=1e-6,
            )


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

    def test_delete(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put("k", {"v": np.zeros(1)})
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert not store.exists("k")

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
