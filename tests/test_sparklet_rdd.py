"""Tests for the sparklet RDD API against plain-Python references."""

import operator
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparklet import SparkletContext


@pytest.fixture()
def sc():
    ctx = SparkletContext(parallelism=3)
    yield ctx
    ctx.stop()


class TestBasicTransformations:
    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_chaining(self, sc):
        out = (
            sc.parallelize(range(100))
            .map(lambda x: x + 1)
            .map(lambda x: (x, x % 3))
            .map(lambda pair: pair[0] * pair[0] if pair[1] == 0 else 0)
            .collect()
        )
        assert out == [x * x if x % 3 == 0 else 0 for x in range(1, 101)]


class TestActions:
    def test_fold_and_sum(self, sc):
        assert sc.parallelize(range(5)).fold(0, operator.add) == 10

    def test_reduce_with_empty_partitions(self, sc):
        """Partitions with no elements contribute only ``zero`` to the reduction."""
        assert sc.parallelize([7], num_slices=3).fold(0, operator.add) == 7
        assert sc.parallelize([], num_slices=3).fold(0, operator.add) == 0

    def test_fold_gives_each_partition_its_own_zero(self, sc):
        """An in-place ``f`` must not see another partition's (or the
        merge's) accumulator: each starts from its own copy of ``zero``."""
        zero = np.zeros(2)
        ones = sc.parallelize([np.ones(2)] * 4, 2)
        out = ones.fold(zero, lambda a, b: np.add(a, b, out=a))
        assert np.array_equal(out, [4.0, 4.0])
        assert np.array_equal(zero, [0.0, 0.0])


class TestContextLifecycle:
    def test_stopped_context_rejects_work(self):
        ctx = SparkletContext(parallelism=2)
        ctx.stop()
        with pytest.raises(RuntimeError):
            ctx.parallelize([1])

    def test_context_manager(self):
        with SparkletContext(parallelism=2) as ctx:
            assert ctx.parallelize(range(3)).collect() == [0, 1, 2]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SparkletContext(parallelism=0)
        with pytest.raises(ValueError):
            SparkletContext(parallelism=2).parallelize([1], num_slices=0)

    def test_threaded_executor_matches_serial(self):
        """``parallelism > 1`` runs tasks on pool threads, ``1`` inline on
        the calling thread; the answers are the same."""
        data = list(range(200))
        out = {}
        for parallelism in (4, 1):
            threads = set()

            def square(x):
                threads.add(threading.get_ident())
                return x * x

            with SparkletContext(parallelism=parallelism) as ctx:
                rdd = ctx.parallelize(data, 8).map(square)
                out[parallelism] = (rdd.collect(), rdd.fold(0, operator.add))
            assert (threading.get_ident() in threads) == (parallelism == 1)
        assert out[4] == out[1] == ([x * x for x in data], sum(x * x for x in data))


class TestRDDProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), max_size=60),
        st.integers(min_value=1, max_value=6),
    )
    def test_collect_preserves_order(self, data, slices):
        with SparkletContext(parallelism=2) as ctx:
            assert ctx.parallelize(data, slices).collect() == data
