"""Tests for the UID registry and the salted row-key codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tsdb.rowkey import ROW_SPAN_SECONDS, RowKeyCodec
from repro.tsdb.uid import UniqueIdRegistry, UnknownUidError


class TestUidRegistry:
    def test_assignment_is_stable(self):
        reg = UniqueIdRegistry()
        first = reg.get_or_create("metric", "energy")
        second = reg.get_or_create("metric", "energy")
        assert first == second

    def test_distinct_names_distinct_uids(self):
        reg = UniqueIdRegistry()
        a = reg.get_or_create("metric", "a")
        b = reg.get_or_create("metric", "b")
        assert a != b

    def test_kinds_are_independent_namespaces(self):
        reg = UniqueIdRegistry()
        m = reg.get_or_create("metric", "x")
        t = reg.get_or_create("tagk", "x")
        assert m == t  # both first in their kind: same numeric uid
        assert reg.resolve("metric", m) == "x"
        assert reg.resolve("tagk", t) == "x"

    def test_resolve_roundtrip(self):
        reg = UniqueIdRegistry()
        uid = reg.get_or_create("tagv", "unit042")
        assert reg.resolve("tagv", uid) == "unit042"

    def test_resolve_unknown_raises(self):
        reg = UniqueIdRegistry()
        with pytest.raises(UnknownUidError):
            reg.resolve("metric", b"\x00\x00\x09")

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownUidError):
            UniqueIdRegistry().get("metric", "ghost")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            UniqueIdRegistry().get_or_create("nope", "x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            UniqueIdRegistry().get_or_create("metric", "")

    def test_uid_width(self):
        reg = UniqueIdRegistry()
        assert len(reg.get_or_create("metric", "m")) == 3

    def test_count_and_names(self):
        reg = UniqueIdRegistry()
        reg.get_or_create("tagk", "unit")
        reg.get_or_create("tagk", "sensor")
        assert reg.count("tagk") == 2
        assert set(reg.names("tagk")) == {"unit", "sensor"}

    def test_encode_tags_sorted_by_tagk_uid(self):
        reg = UniqueIdRegistry()
        # create in one order, encode map in another
        reg.get_or_create("tagk", "unit")
        reg.get_or_create("tagk", "sensor")
        pairs = reg.encode_tags({"sensor": "s1", "unit": "u1"})
        # "unit" got the lower uid (created first) so it sorts first
        assert reg.resolve("tagk", pairs[0][0]) == "unit"

    def test_decode_tags_roundtrip(self):
        reg = UniqueIdRegistry()
        tags = {"unit": "u7", "sensor": "s33"}
        assert reg.decode_tags(reg.encode_tags(tags)) == tags

    def test_known(self):
        reg = UniqueIdRegistry()
        assert not reg.known("metric", "m")
        reg.get_or_create("metric", "m")
        assert reg.known("metric", "m")


def make_key_inputs(reg: UniqueIdRegistry, metric="energy", unit="u1", sensor="s1"):
    metric_uid = reg.get_or_create("metric", metric)
    tag_pairs = reg.encode_tags({"unit": unit, "sensor": sensor})
    return metric_uid, tag_pairs


class TestRowKeyCodec:
    def test_roundtrip(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=16)
        metric_uid, tags = make_key_inputs(reg)
        row, qual = codec.encode(metric_uid, 7261, tags)
        decoded = codec.decode(row, qual)
        assert decoded.metric_uid == metric_uid
        assert decoded.timestamp == 7261
        assert decoded.base_time == (7261 // ROW_SPAN_SECONDS) * ROW_SPAN_SECONDS
        assert decoded.tag_pairs == tags
        assert 0 <= decoded.salt < 16

    def test_unsalted_layout(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=0)
        metric_uid, tags = make_key_inputs(reg)
        row, qual = codec.encode(metric_uid, 100, tags)
        assert row[:3] == metric_uid  # no salt byte
        assert codec.decode(row, qual).salt == -1

    def test_same_series_same_hour_same_row(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=8)
        metric_uid, tags = make_key_inputs(reg)
        r1, q1 = codec.encode(metric_uid, 3600, tags)
        r2, q2 = codec.encode(metric_uid, 3600 + 42, tags)
        assert r1 == r2
        assert q1 != q2

    def test_different_hours_different_rows(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=8)
        metric_uid, tags = make_key_inputs(reg)
        r1, _ = codec.encode(metric_uid, 100, tags)
        r2, _ = codec.encode(metric_uid, 3700, tags)
        assert r1 != r2

    def test_salt_is_deterministic(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=20)
        metric_uid, tags = make_key_inputs(reg)
        assert codec.encode(metric_uid, 50, tags) == codec.encode(metric_uid, 50, tags)

    def test_salt_distribution_roughly_uniform(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=10)
        metric_uid = reg.get_or_create("metric", "energy")
        counts = np.zeros(10)
        for u in range(40):
            for s in range(25):
                tags = reg.encode_tags({"unit": f"u{u}", "sensor": f"s{s}"})
                row, _ = codec.encode(metric_uid, 10, tags)
                counts[row[0]] += 1
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 1.5

    def test_unsalted_sequential_keys_share_prefix(self):
        """The hot-spotting mechanism: unsalted keys are contiguous."""
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=0)
        metric_uid, tags = make_key_inputs(reg)
        rows = [codec.encode(metric_uid, t, tags)[0] for t in (0, 3600, 7200)]
        assert all(r[:3] == rows[0][:3] for r in rows)  # same metric prefix
        assert rows == sorted(rows)  # chronological == lexicographic

    def test_series_id_ignores_salt_and_time(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=8)
        metric_uid, tags = make_key_inputs(reg)
        r1, _ = codec.encode(metric_uid, 0, tags)
        r2, _ = codec.encode(metric_uid, 360000, tags)
        assert codec.series_id(r1) == codec.series_id(r2)

    def test_scan_ranges_cover_all_buckets(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=5)
        metric_uid, tags = make_key_inputs(reg)
        ranges = codec.scan_ranges(metric_uid, 0, 7200)
        assert len(ranges) == 5
        row, _ = codec.encode(metric_uid, 3599, tags)
        assert any(lo <= row < hi for lo, hi in ranges)

    def test_scan_ranges_unsalted_single(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=0)
        metric_uid, tags = make_key_inputs(reg)
        ranges = codec.scan_ranges(metric_uid, 0, 3600)
        assert len(ranges) == 1
        row, _ = codec.encode(metric_uid, 1800, tags)
        lo, hi = ranges[0]
        assert lo <= row < hi

    def test_scan_range_validation(self):
        codec = RowKeyCodec()
        with pytest.raises(ValueError):
            codec.scan_ranges(b"\x00\x00\x01", 100, 100)

    def test_split_keys_one_per_bucket(self):
        codec = RowKeyCodec(salt_buckets=4)
        assert codec.split_keys() == [b"\x01", b"\x02", b"\x03"]
        assert RowKeyCodec(salt_buckets=0).split_keys() == []

    def test_invalid_inputs(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec()
        with pytest.raises(ValueError):
            RowKeyCodec(salt_buckets=300)
        with pytest.raises(ValueError):
            codec.encode(b"\x00\x01", 0, ())  # short uid
        metric_uid, tags = make_key_inputs(reg)
        with pytest.raises(ValueError):
            codec.encode(metric_uid, -1, tags)
        with pytest.raises(ValueError):
            codec.encode(metric_uid, 1 << 32, tags)

    def test_decode_rejects_malformed(self):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=4)
        metric_uid, tags = make_key_inputs(reg)
        row, qual = codec.encode(metric_uid, 10, tags)
        with pytest.raises(ValueError):
            codec.decode(row + b"\x00", qual)  # truncated tag pair
        with pytest.raises(ValueError):
            codec.decode(row, b"\x0f\xff")  # offset beyond row span


class TestRowKeyProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=31),
    )
    def test_roundtrip_property(self, timestamp, unit, bucket_count_raw):
        reg = UniqueIdRegistry()
        codec = RowKeyCodec(salt_buckets=bucket_count_raw % 33)  # 0..32 buckets
        metric_uid = reg.get_or_create("metric", "energy")
        tags = reg.encode_tags({"unit": f"u{unit}"})
        row, qual = codec.encode(metric_uid, timestamp, tags)
        decoded = codec.decode(row, qual)
        assert decoded.timestamp == timestamp
        assert decoded.tag_pairs == tags
