"""Tests for the OpenTSDB telnet line protocol."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.tsdb.blocks import blocks_from_points
from repro.tsdb.lineprotocol import (
    LineProtocolError,
    format_put_line,
    parse_block,
    parse_lines,
    parse_put_line,
)
from repro.tsdb.tsd import DataPoint


class TestParse:
    def test_basic_line(self):
        point = parse_put_line("put energy 1234 42.5 unit=u1 sensor=s7")
        assert point.metric == "energy"
        assert point.timestamp == 1234
        assert point.value == 42.5
        assert dict(point.tags) == {"unit": "u1", "sensor": "s7"}

    def test_whitespace_tolerant(self):
        point = parse_put_line("  put  m  1  2.0  a=b  \n")
        assert point.metric == "m"

    def test_scientific_notation_value(self):
        assert parse_put_line("put m 1 1.5e-3 a=b").value == 1.5e-3

    def test_negative_value_ok(self):
        assert parse_put_line("put m 1 -7 a=b").value == -7.0

    @pytest.mark.parametrize(
        "line",
        [
            "get m 1 2.0 a=b",            # wrong verb
            "put m 1 2.0",                 # missing tags
            "put m one 2.0 a=b",           # bad timestamp
            "put m -5 2.0 a=b",            # negative timestamp
            "put m 1 lots a=b",            # bad value
            "put m 1 inf a=b",             # non-finite
            "put m 1 2.0 a=b a=c",         # duplicate tag
            "put m 1 2.0 noequals",        # malformed tag
            "put m 1 2.0 =v",              # empty key
            "put m 1 2.0 k=",              # empty value
            "put bad metric! 1 2.0 a=b",   # invalid metric chars
            "put m 1 2.0 sp ace=b",        # invalid tag chars
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(LineProtocolError):
            parse_put_line(line)


class TestFormat:
    def test_roundtrip(self):
        point = DataPoint.make("energy", 99, 3.25, {"unit": "u2", "sensor": "s1"})
        assert parse_put_line(format_put_line(point)) == point

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=999),
    )
    def test_roundtrip_property(self, ts, value, unit):
        point = DataPoint.make("energy", ts, value, {"unit": f"u{unit}"})
        back = parse_put_line(format_put_line(point))
        assert back == point
        assert math.copysign(1.0, back.value) == math.copysign(1.0, point.value)

    def test_every_significant_digit_survives(self):
        """Regression: ``:g`` printed six digits (100.123456789 -> 100.123)."""
        point = DataPoint.make("energy", 1, 100.123456789, {"unit": "u1"})
        assert "100.123456789" in format_put_line(point)
        assert parse_put_line(format_put_line(point)).value == 100.123456789

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_has_no_wire_form(self, value):
        """Regression: ``nan`` used to be emitted, and the parser rejects it."""
        point = DataPoint.make("energy", 1, value, {"unit": "u1"})
        with pytest.raises(ValueError):
            format_put_line(point)


class TestParseLines:
    LINES = [
        "# capture file",
        "",
        "put energy 1 1.0 unit=u0 sensor=s0",
        "put energy 2 2.0 unit=u0 sensor=s0",
        "garbage line",
        "put energy 3 3.0 unit=u0 sensor=s0",
    ]

    def test_strict_raises(self):
        with pytest.raises(LineProtocolError):
            list(parse_lines(self.LINES))

    def test_skip_errors(self):
        points = list(parse_lines(self.LINES, skip_errors=True))
        assert [p.timestamp for p in points] == [1, 2, 3]

    def test_comments_and_blanks_skipped(self):
        points = list(parse_lines(["# c", "   ", "put m 1 1.0 a=b"]))
        assert len(points) == 1

    def test_end_to_end_into_cluster(self):
        from repro.tsdb.ingest import build_cluster
        from repro.tsdb.query import TsdbQuery

        cluster = build_cluster(n_nodes=1, salt_buckets=2, retain_data=True)
        lines = [
            f"put energy {t} {float(t)} unit=u0 sensor=s0" for t in range(10)
        ]
        cluster.direct_put(parse_lines(lines))
        out = cluster.query_engine().run(TsdbQuery("energy", 0, 100))
        assert list(out[0].values) == [float(t) for t in range(10)]


class TestPoisonedBatch:
    """Regression: a malformed line mid-batch must report its line number
    and must not discard the prefix parsed before it."""

    POISONED = [
        "put energy 1 1.0 unit=u0",
        "put energy 2 2.0 unit=u0",
        "put energy nope 3.0 unit=u0",  # line 3: bad timestamp
        "put energy 4 4.0 unit=u0",
    ]

    def test_parse_lines_reports_line_number(self):
        with pytest.raises(LineProtocolError) as excinfo:
            list(parse_lines(self.POISONED))
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    def test_parse_lines_comments_count_toward_line_numbers(self):
        lines = ["# header", "", *self.POISONED]
        with pytest.raises(LineProtocolError) as excinfo:
            list(parse_lines(lines))
        assert excinfo.value.line_number == 5

    def test_parse_lines_yields_prefix_before_raising(self):
        """The generator hands over every good point before the poison."""
        seen = []
        with pytest.raises(LineProtocolError):
            for point in parse_lines(self.POISONED):
                seen.append(point)
        assert [p.timestamp for p in seen] == [1, 2]

    def test_parse_block_attaches_partial_prefix(self):
        with pytest.raises(LineProtocolError) as excinfo:
            parse_block(self.POISONED)
        err = excinfo.value
        assert err.line_number == 3
        assert err.partial is not None
        assert [p.timestamp for p in err.partial] == [1, 2]

    def test_parse_block_skip_errors_keeps_suffix_too(self):
        batch = parse_block(self.POISONED, skip_errors=True)
        assert [p.timestamp for p in batch] == [1, 2, 4]

    def test_parse_block_matches_parse_lines_on_clean_input(self):
        lines = [f"put energy {t} {float(t)} unit=u0 sensor=s{t % 2}" for t in range(20)]
        from_lines = [(p.metric, p.tags, p.timestamp, p.value) for p in parse_lines(lines)]
        from_block = [(p.metric, p.tags, p.timestamp, p.value) for p in parse_block(lines)]
        assert sorted(from_block) == sorted(from_lines)


class TestTimestampTheRowKeyCannotHold:
    """Regression: ``ts >= 2**32`` used to escape the parser — as a bare
    ``OverflowError`` from ``array.append`` (no line number, no partial,
    not skippable) or, below 2**63, as a ``ValueError`` from the row-key
    codec deep inside the write path."""

    OVERSIZED = ["4294967296", "9223372036854775807", "99999999999999999999"]

    @staticmethod
    def _lines(ts):
        return [
            "put energy 1 1.0 unit=u0",
            f"put energy {ts} 2.0 unit=u0",  # line 2: a known series, so a memo hit
            "put energy 3 3.0 unit=u0",
        ]

    def test_largest_timestamp_still_parses(self):
        point = parse_put_line(f"put energy {2**32 - 1} 1.0 unit=u0")
        assert point.timestamp == 2**32 - 1
        assert [p.timestamp for p in parse_block(self._lines(2**32 - 1))] == [1, 3, 2**32 - 1]

    @pytest.mark.parametrize("ts", OVERSIZED)
    def test_parse_put_line_rejects(self, ts):
        with pytest.raises(LineProtocolError, match="32 bits"):
            parse_put_line(f"put energy {ts} 1.0 unit=u0")

    @pytest.mark.parametrize("ts", OVERSIZED)
    def test_parse_lines_strict_reports_the_line(self, ts):
        seen = []
        with pytest.raises(LineProtocolError) as excinfo:
            for point in parse_lines(self._lines(ts)):
                seen.append(point.timestamp)
        assert excinfo.value.line_number == 2
        assert seen == [1]

    @pytest.mark.parametrize("ts", OVERSIZED)
    def test_parse_block_strict_reports_the_line_and_keeps_the_prefix(self, ts):
        with pytest.raises(LineProtocolError) as excinfo:
            parse_block(self._lines(ts))
        assert excinfo.value.line_number == 2
        assert [p.timestamp for p in excinfo.value.partial] == [1]

    @pytest.mark.parametrize("ts", OVERSIZED)
    def test_skip_errors_skips_it(self, ts):
        assert [p.timestamp for p in parse_lines(self._lines(ts), skip_errors=True)] == [1, 3]
        assert [p.timestamp for p in parse_block(self._lines(ts), skip_errors=True)] == [1, 3]

    def test_whatever_parses_can_be_written(self):
        """Nothing the parser lets through is refused by ``direct_put``."""
        from repro.tsdb.ingest import build_cluster

        cluster = build_cluster(n_nodes=1, salt_buckets=2, retain_data=True)
        batch = parse_block(self._lines(2**32), skip_errors=True)
        assert cluster.direct_put(batch) == 2


# ----------------------------------------------------------------------
# differential test: parse_block against the per-line parser
# ----------------------------------------------------------------------
_SERIES = [
    ("energy", {"unit": "u0", "sensor": "s0"}),
    ("energy", {"unit": "u0", "sensor": "s1"}),
    ("energy", {"unit": "u1", "sensor": "s0", "site": "a/b"}),
    ("temp.in", {"unit": "u0"}),
    ("temp.in", {"sensor": "u0"}),  # same value under another key
]
_GAPS = [" ", "  ", "\t", " \t "]


@st.composite
def _valid_line(draw, fresh=False):
    """A well-formed line; the same series comes in many spellings."""
    if fresh:
        metric, tags = f"fresh{draw(st.integers(0, 50))}", {"k": f"v{draw(st.integers(0, 3))}"}
    else:
        metric, tags = draw(st.sampled_from(_SERIES))
    pairs = draw(st.permutations([f"{k}={v}" for k, v in tags.items()]))
    ts = draw(st.one_of(st.integers(0, 7300), st.sampled_from([2**32 - 1, 2**31])))
    value = draw(st.floats(allow_nan=False, allow_infinity=False, width=32))
    gap = st.sampled_from(_GAPS)
    text = draw(st.sampled_from(["", " ", "\t"])) + "put"
    for field in (metric, str(ts), repr(value), *pairs):
        text += draw(gap) + field
    return text + draw(st.sampled_from(["", "\n", "  ", " \r\n"]))


_MALFORMED = [
    "get energy 1 2.0 unit=u0 sensor=s0",            # bad verb
    "put energy 1 2.0",                               # no tags
    "put ener!gy 1 2.0 unit=u0 sensor=s0",            # bad metric name
    "put energy 1 2.0 un!it=u0 sensor=s0",            # bad tag key
    "put energy 1 2.0 unit=u0 sensor=s!0",            # bad tag value
    "put energy 1 2.0 unit=u0 sensor",                # tag without '='
    "put energy 1 2.0 unit=u0 sensor=s0 unit=u1",     # duplicate tag
    "put energy one 2.0 unit=u0 sensor=s0",           # bad timestamp
    "put energy -5 2.0 unit=u0 sensor=s0",            # negative timestamp
    "put energy 4294967296 2.0 unit=u0 sensor=s0",    # does not fit the row key
    "put energy 99999999999999999999 2.0 unit=u0 sensor=s0",  # nor an int64
    "put energy 1 lots unit=u0 sensor=s0",            # bad value
    "put energy 1 nan unit=u0 sensor=s0",             # non-finite value
    "put energy 1 -inf unit=u0 sensor=s0",
    "put never.seen one 2.0 k=v",                     # first line of a series is bad
    "put never.seen 1 2.0 k=v=w!",
]
_SKIPPED = ["", "   ", "\n", "# comment", "  # put energy 1 2.0 unit=u0", "#put a 1 1 a=b"]

_line = st.one_of(
    _valid_line(),
    _valid_line(),
    _valid_line(fresh=True),
    st.sampled_from(_SKIPPED),
    st.sampled_from(_MALFORMED),
)


def _columns(blocks):
    return [
        (b.metric, b.tags, b.timestamps.tolist(), b.values.tobytes()) for b in blocks
    ]


def _per_line_reference(lines, skip_errors=False):
    """What the per-line parser makes of ``lines``, as blocks."""
    return _columns(blocks_from_points(parse_lines(lines, skip_errors=skip_errors)))


class TestParseBlockAgainstPerLineParser:
    @given(st.lists(_line, max_size=40))
    def test_skip_errors_same_blocks(self, lines):
        assert _columns(parse_block(lines, skip_errors=True).blocks) == _per_line_reference(
            lines, skip_errors=True
        )

    @given(st.lists(_line, max_size=40))
    def test_strict_same_blocks_or_same_failure(self, lines):
        try:
            expected = _per_line_reference(lines)
        except LineProtocolError as exc:
            want = exc
        else:
            assert _columns(parse_block(lines).blocks) == expected
            return
        with pytest.raises(LineProtocolError) as excinfo:
            parse_block(lines)
        got = excinfo.value
        assert str(got) == str(want)
        assert got.line_number == want.line_number
        # partial == the parse of the prefix, which is clean by construction
        prefix = lines[: got.line_number - 1]
        assert _columns(got.partial.blocks) == _per_line_reference(prefix)
        assert _columns(got.partial.blocks) == _columns(parse_block(prefix).blocks)

    @given(st.lists(st.one_of(_valid_line(), _valid_line(fresh=True)), max_size=30))
    def test_single_line_parser_agrees_on_every_valid_line(self, lines):
        assert [parse_put_line(line) for line in lines] == list(parse_lines(lines))
