"""Tests for byte-level key/value codecs (including property tests)."""

import pytest
from hypothesis import given, strategies as st

from repro.hbase import bytescodec as bc


class TestFixedWidth:
    @pytest.mark.parametrize(
        "enc,dec,bits",
        [
            (bc.encode_u16, bc.decode_u16, 16),
            (bc.encode_u24, bc.decode_u24, 24),
            (bc.encode_u32, bc.decode_u32, 32),
        ],
    )
    def test_roundtrip_boundaries(self, enc, dec, bits):
        for value in (0, 1, (1 << bits) - 1, (1 << (bits - 1))):
            assert dec(enc(value)) == value

    @pytest.mark.parametrize(
        "enc,bits",
        [
            (bc.encode_u8, 8),
            (bc.encode_u16, 16),
            (bc.encode_u24, 24),
            (bc.encode_u32, 32),
        ],
    )
    def test_out_of_range_rejected(self, enc, bits):
        with pytest.raises(ValueError):
            enc(1 << bits)
        with pytest.raises(ValueError):
            enc(-1)

    def test_widths(self):
        assert len(bc.encode_u8(0)) == 1
        assert len(bc.encode_u16(0)) == 2
        assert len(bc.encode_u24(0)) == 3
        assert len(bc.encode_u32(0)) == 4

    def test_big_endian_ordering_matches_numeric(self):
        # The whole point: byte-lexicographic order == numeric order.
        values = [0, 1, 255, 256, 65535, 10**6]
        encoded = [bc.encode_u32(v) for v in values]
        assert encoded == sorted(encoded)

    def test_decode_with_offset(self):
        data = b"\xff" + bc.encode_u32(1234)
        assert bc.decode_u32(data, 1) == 1234

    def test_f64_roundtrip(self):
        for v in (0.0, -1.5, 3.14159, 1e300, float("inf")):
            assert bc.decode_f64(bc.encode_f64(v)) == v


class TestHelpers:
    def test_concat(self):
        assert bc.concat([b"ab", b"", b"c"]) == b"abc"


class TestProperties:
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_u32_roundtrip(self, value):
        assert bc.decode_u32(bc.encode_u32(value)) == value

    @given(
        st.integers(min_value=0, max_value=(1 << 24) - 1),
        st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_u24_order_preserving(self, a, b):
        assert (a <= b) == (bc.encode_u24(a) <= bc.encode_u24(b))

    @given(st.floats(allow_nan=False))
    def test_f64_roundtrip_prop(self, value):
        assert bc.decode_f64(bc.encode_f64(value)) == value
