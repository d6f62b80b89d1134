"""Text event streams, PGM rasters and the frame index."""
from __future__ import annotations

import io
import tracemalloc
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    EventArray,
    InvalidPolarity,
    MalformedLine,
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    SensorGeometry,
    read_event_batches,
    read_pgm,
    write_events,
    write_frame_index,
    write_pgm,
)
from evframe import eventio

from conftest import event_arrays
from oracles import Event, events_of, parse_event_line, read_frame_index

GEOMETRY = SensorGeometry(240, 180)


class TestParseEventLine:
    """The per-line oracle that the chunk parser is compared with."""

    def test_parses_fields(self):
        ev = parse_event_line("0.123456 120 90 1")
        assert ev == Event(0.123456, 120, 90, 1)

    def test_zero_polarity_maps_to_negative(self):
        assert parse_event_line("1.5 3 4 0").p == -1

    def test_bad_polarity_names_line(self):
        with pytest.raises(InvalidPolarity, match="line 17"):
            parse_event_line("0.1 2 3 7", line_number=17)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine, match="4 fields"):
            parse_event_line("0.1 2 3")

    def test_non_numeric_field(self):
        with pytest.raises(MalformedLine):
            parse_event_line("abc 2 3 1")

    def test_negative_timestamp(self):
        with pytest.raises(MalformedLine, match=">= 0"):
            parse_event_line("-0.5 2 3 1")

    def test_negative_coordinate(self):
        with pytest.raises(MalformedLine):
            parse_event_line("0.5 -2 3 1")

    @given(
        st.floats(0.0, 1e6, allow_nan=False),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.sampled_from([-1, 1]),
    )
    def test_written_line_parses_back(self, t, x, y, p):
        buf = io.StringIO()
        write_events(EventArray.from_columns([t], [x], [y], [p]), buf)
        assert parse_event_line(buf.getvalue()) == Event(t, x, y, p)


class TestReadEventBatches:
    def read_all(self, text: str, geometry=GEOMETRY, **kwargs) -> EventArray:
        batches = list(read_event_batches(io.StringIO(text), geometry, **kwargs))
        return EventArray.concatenate(batches)

    def test_reads_ordered_stream(self):
        ev = self.read_all("0.1 1 2 1\n0.2 3 4 0\n0.2 5 6 1\n")
        assert ev.t.tolist() == [0.1, 0.2, 0.2]
        assert ev.x.tolist() == [1, 3, 5]
        assert ev.p.tolist() == [1, -1, 1]

    def test_blank_lines_skipped_but_counted(self):
        ev = self.read_all("0.1 1 2 1\n\n0.2 3 4 1\n\n")
        assert len(ev) == 2
        with pytest.raises(InvalidPolarity, match="line 3"):
            self.read_all("0.1 1 2 1\n\n0.2 3 4 9\n")

    def test_reports_decrease_with_both_stamps(self):
        with pytest.raises(NonMonotonicTimestamps, match=r"0\.3.*0\.2.*line 2"):
            self.read_all("0.3 1 2 1\n0.2 3 4 1\n")

    def test_reports_decrease_across_chunks(self):
        # Padding puts line 3 in a chunk of its own at batch_lines=2.
        text = "".join(f"{t} 1 2 1{' ' * 30}\n" for t in ("0.1", "0.2", "0.15"))
        assert len(read_chunks(text, 2)) > 1
        with pytest.raises(NonMonotonicTimestamps, match="line 3"):
            list(read_event_batches(io.StringIO(text), GEOMETRY, batch_lines=2))

    def test_out_of_bounds_names_line(self):
        with pytest.raises(OutOfBoundsEvent, match=r"\(240, 0\).*line 2"):
            self.read_all("0.1 1 2 1\n0.2 240 0 1\n")

    def test_malformed_line_number(self):
        with pytest.raises(MalformedLine, match="line 2"):
            self.read_all("0.1 1 2 1\n0.2 oops 0 1\n")

    def test_small_batches_match_single_read(self):
        text = "".join(f"{i * 0.01!r} {i % 7} {i % 5} {i % 2}\n" for i in range(100))
        whole = self.read_all(text)
        chunked = self.read_all(text, batch_lines=9)
        assert np.array_equal(whole.t, chunked.t)
        assert np.array_equal(whole.p, chunked.p)

    def test_reads_events_in_order(self):
        events = events_of(self.read_all("0.1 1 2 1\n0.2 3 4 0\n"))
        assert events == [Event(0.1, 1, 2, 1), Event(0.2, 3, 4, -1)]

    # Lines with four numbers pass the chunk parser even where the per-line
    # oracle is stricter (``1.0`` as a coordinate or polarity), so no
    # error may name them.
    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "0.1 1.0 2 1\n0.2 1 1\n",
                "expected 4 fields 't x y p' at line 2, got 3: '0.2 1 1'",
            ),
            (
                "0.1 1 2 1.0\n0.2 1 1\n",
                "expected 4 fields 't x y p' at line 2, got 3: '0.2 1 1'",
            ),
            (
                "0.1 1 1 1\ninf 1 1 1\n0.3 1 1\n",
                "timestamp must be finite and >= 0 at line 2, got inf",
            ),
            (
                "0.1 1 1 1\ninf 1 1 1\n0.3 1 1 1\n",
                "timestamp must be finite and >= 0 at line 2, got inf",
            ),
            (
                "1_000 1.0 2 1\n1_001 3 4 0\n1_002 oops 4 0\n",
                "could not parse numeric fields at line 3: '1_002 oops 4 0'",
            ),
        ],
        ids=["float-coordinate", "float-polarity", "inf-then-ragged", "inf", "underscore"],
    )
    def test_error_names_the_malformed_line(self, text, message):
        with pytest.raises(MalformedLine) as err:
            self.read_all(text)
        assert type(err.value) is MalformedLine
        assert str(err.value) == message

    def test_lines_the_grammar_accepts_parse(self):
        # numpy's reader rejects 1_000, so this chunk takes the split-and-cast path.
        ev = self.read_all("1_000 1.0 2 1\n1_001 3 4 0\n")
        assert ev.t.tolist() == [1000.0, 1001.0]
        assert ev.x.tolist() == [1, 3]
        assert ev.p.tolist() == [1, -1]
        assert self.read_all("0.1 1 2 1.0\n").p.tolist() == [1]

    # Padding makes each first line a chunk of its own at batch_lines=1.
    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "inf 1 1 1".ljust(39) + "\n0.3 1 1\n",
                "timestamp must be finite and >= 0 at line 1, got inf",
            ),
            (
                "0.1 oops 2 1".ljust(39) + "\n0.2 1 2\n",
                "could not parse numeric fields at line 1: '0.1 oops 2 1'",
            ),
            (
                "0.1 240 2 1".ljust(39) + "\n0.2 1 2 7\n",
                "event at (240, 2) outside 240x180 sensor at line 1",
            ),
        ],
        ids=["semantic-then-ragged", "cast-then-ragged", "bounds-then-polarity"],
    )
    @pytest.mark.parametrize("batch_lines", [1, 65536])
    def test_earliest_bad_line_wins_at_every_chunk_size(self, text, message, batch_lines):
        assert len(read_chunks(text, 1)) == 2
        with pytest.raises(ValueError) as err:
            self.read_all(text, batch_lines=batch_lines)
        assert str(err.value) == message

    def test_rows_before_a_broken_line_are_yielded(self):
        text = "0.1 1 2 1\n0.2 3 4 0\n0.3 1\n"
        batches = read_event_batches(io.StringIO(text), GEOMETRY)
        assert next(batches).t.tolist() == [0.1, 0.2]
        with pytest.raises(MalformedLine, match="line 3"):
            next(batches)

    @pytest.mark.parametrize("batch_lines", [1, 65536])
    def test_decrease_prints_plain_floats(self, batch_lines):
        # Padding makes each line a chunk of its own at batch_lines=1.
        text = "0.2 1 2 1" + " " * 30 + "\n0.1 1 2 1\n"
        with pytest.raises(NonMonotonicTimestamps) as err:
            self.read_all(text, batch_lines=batch_lines)
        assert str(err.value) == "timestamps must not decrease: 0.2 followed by 0.1 at line 2"

    @given(event_arrays(min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_write_read_round_trip(self, ev):
        buf = io.StringIO()
        write_events(ev, buf)
        buf.seek(0)
        back = EventArray.concatenate(
            list(read_event_batches(buf, SensorGeometry(8, 6)))
        )
        assert np.array_equal(ev.t, back.t)
        assert np.array_equal(ev.x, back.x)
        assert np.array_equal(ev.y, back.y)
        assert np.array_equal(ev.p, back.p)


def read_chunks(text: str, batch_lines: int) -> list:
    """The line chunks read_event_batches parses, read the way it reads them."""
    fh = io.StringIO(text)
    return list(iter(lambda: fh.readlines(batch_lines * 24), []))


def oracle(text: str) -> EventArray:
    """Parse line by line with parse_event_line, skipping blank lines."""
    events = [parse_event_line(ln) for ln in text.split("\n") if ln.strip()]
    return EventArray.from_columns(
        np.array([e.t for e in events], dtype=np.float64),
        np.array([e.x for e in events], dtype=np.int32),
        np.array([e.y for e in events], dtype=np.int32),
        np.array([e.p for e in events], dtype=np.int8),
    )


def assert_bitwise_equal(a: EventArray, b: EventArray) -> None:
    assert a.t.view(np.uint64).tolist() == b.t.view(np.uint64).tolist()
    for name in ("x", "y", "p"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


class TestParserEquivalence:
    """The chunk parser against the line-by-line parser it replaced."""

    def read_all(self, text: str, **kwargs) -> EventArray:
        """Read under filters that raise every warning but a deprecation.

        Python's default filters hide DeprecationWarning outside
        ``__main__``, so the reader must not depend on it being raised.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", DeprecationWarning)
            batches = list(read_event_batches(io.StringIO(text), GEOMETRY, **kwargs))
        return EventArray.concatenate(batches)

    def test_blank_lines_across_chunk_boundaries(self):
        text = (
            " " * 60 + "\n"  # a chunk of one blank line
            + "0.1 1 2 1\n\n0.2 3 4 0\n   \t \n0.3 5 6 1\n\n\n0.4 7 8 0\n"
            + "\t" * 50 + "\n"  # another
            + "\n \n0.5 9 10 1\n"  # blank lines opening the last chunk
        )
        chunks = read_chunks(text, 2)
        assert [bool("".join(chunk).strip()) for chunk in chunks] == [False, True, False, True]
        assert not chunks[3][0].strip() and chunks[1][1] == "\n"
        assert_bitwise_equal(self.read_all(text, batch_lines=2), oracle(text))
        assert_bitwise_equal(self.read_all(text), oracle(text))

    @pytest.mark.parametrize("batch_lines", [1, 65536])
    def test_only_blank_lines_yield_nothing(self, batch_lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = io.StringIO("\n  \n\t\n")
            assert list(read_event_batches(text, GEOMETRY, batch_lines=batch_lines)) == []

    def test_underscore_numerals_are_accepted(self):
        text = "1_000.5 1_0 2 1\n1_001 3 4 0\n"
        ev = self.read_all(text)
        assert ev.t.tolist() == [1000.5, 1001.0]
        assert ev.x.tolist() == [10, 3]
        assert_bitwise_equal(ev, oracle(text))

    def test_crlf_line_endings(self, tmp_path):
        text = "0.1 1 2 1\r\n\r\n0.2 3 4 0\r\n"
        assert_bitwise_equal(self.read_all(text), oracle(text))
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.encode("ascii"))
        back = EventArray.concatenate(list(read_event_batches(path, GEOMETRY)))
        assert_bitwise_equal(back, oracle(text))

    @pytest.mark.parametrize(
        "bad_line,error,message",
        [
            ("0.3 1 2 2", InvalidPolarity, "polarity must be 0 or 1 at line 5"),
            ("-0.3 1 2 1", MalformedLine, "timestamp must be finite and >= 0 at line 5"),
            ("nan 1 2 1", MalformedLine, "timestamp must be finite and >= 0 at line 5"),
            ("0.3 1.5 2 1", MalformedLine, "coordinates must be integers at line 5"),
            ("0.3 240 2 1", OutOfBoundsEvent, "sensor at line 5"),
            ("0.05 1 2 1", NonMonotonicTimestamps, r"followed by \S*0\.05\S* at line 5"),
            ("0.3 1 2", MalformedLine, "4 fields 't x y p' at line 5"),
        ],
    )
    def test_errors_name_the_line_after_blank_lines(self, bad_line, error, message):
        text = "0.1 1 2 1\n\n  \n0.2 3 4 0\n" + bad_line + "\n0.4 1 2 1\n"
        with pytest.raises(error, match=message):
            self.read_all(text)

    @given(
        event_arrays(min_size=1),
        st.lists(st.integers(0, 200), max_size=6),
        st.sampled_from([1, 7, 65536]),
    )
    @settings(max_examples=60, deadline=None)
    def test_written_streams_read_back_like_the_line_parser(self, ev, blanks, batch_lines):
        buf = io.StringIO()
        write_events(ev, buf)
        lines = buf.getvalue().split("\n")
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "  ")
        text = "\n".join(lines)
        assert_bitwise_equal(self.read_all(text, batch_lines=batch_lines), oracle(text))


class TestPgm:
    def test_golden_8bit_bytes(self, tmp_path):
        raster = np.array([[0, 255], [128, 0]], dtype=np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(raster, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 0])

    def test_16bit_big_endian_payload(self, tmp_path):
        raster = np.array([[0x0102]], dtype=np.uint16)
        path = tmp_path / "f.pgm"
        write_pgm(raster, path)
        assert path.read_bytes() == b"P5\n1 1\n65535\n" + bytes([0x01, 0x02])

    def test_round_trip_both_depths(self, tmp_path):
        for dtype, maxval in ((np.uint8, 255), (np.uint16, 65535)):
            raster = (np.arange(12, dtype=np.int64).reshape(3, 4) * maxval // 11).astype(dtype)
            path = tmp_path / "r.pgm"
            write_pgm(raster, path)
            back = read_pgm(path)
            assert back.dtype == dtype
            assert np.array_equal(back, raster)

    def test_rejects_float_raster(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_pgm(np.zeros((2, 2)), tmp_path / "f.pgm")

    def test_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_pgm(np.zeros(4, dtype=np.uint8), tmp_path / "f.pgm")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_pgm(np.zeros((3, 4), dtype=np.uint16), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated PGM .*: 23 of 24 payload bytes"):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"", b"P5\n4 3", b"P5\n4 3\n255"])
    def test_truncated_header(self, tmp_path, data):
        path = tmp_path / "f.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated PGM"):
            read_pgm(path)

    def test_read_rejects_other_magic(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)


class TestFrameIndex:
    def test_round_trip(self, tmp_path):
        rows = [(0.03125, "frame_000000.pgm", False), (0.0625, "frame_000000.pgm", True)]
        path = tmp_path / "index.csv"
        write_frame_index(rows, path)
        assert read_frame_index(path) == rows

    def test_written_format(self, tmp_path):
        path = tmp_path / "index.csv"
        write_frame_index([(0.03125, "frame_000000.pgm", False)], path)
        assert path.read_text() == (
            "stamp,filename,held\n0.031250000,frame_000000.pgm,0\n"
        )

    def test_later_calls_append_rows_to_an_open_file(self):
        buf = io.StringIO()
        write_frame_index((), buf)
        write_frame_index([(0.03125, "frame_000000.pgm", False)], buf)
        write_frame_index([(0.0625, "frame_000001.pgm", True)], buf)
        assert buf.getvalue() == (
            "stamp,filename,held\n"
            "0.031250000,frame_000000.pgm,0\n"
            "0.062500000,frame_000001.pgm,1\n"
        )

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("time,file\n")
        with pytest.raises(ValueError, match="header"):
            read_frame_index(path)


# Line 5 of FALLBACK_TEXT holds the token under test, after blank lines.
FALLBACK_TEXT = "0.1 1 2 1\n\n0.2 3 4 0\n   \n{}\n2000.0 7 8 0\n2000.5 9 10 1\n"


class TestTypedChunks:
    """Typed chunks against the float and split-and-cast fallbacks."""

    def read_all(self, text: str, **kwargs) -> EventArray:
        """Read under filters that raise every warning but a deprecation.

        Python's default filters hide DeprecationWarning outside
        ``__main__``, so the reader must not depend on it being raised.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", DeprecationWarning)
            batches = list(read_event_batches(io.StringIO(text), GEOMETRY, **kwargs))
        return EventArray.concatenate(batches)

    @pytest.mark.parametrize(
        "line,typed_line",
        [
            ("1000 3.0 4 1", "1000 3 4 1"),
            ("1_000 3 4 1", "1000 3 4 1"),
            ("1000 1_0 4 1", "1000 10 4 1"),
            ("1000 +3 4 +1", "1000 3 4 1"),
            ("1000 3e0 4 1e0", "1000 3 4 1"),
            ("1000 3 4.0 1.0", "1000 3 4 1"),
            ("1000 3 4 0.0", "1000 3 4 0"),
        ],
    )
    @pytest.mark.parametrize("batch_lines", [1, 3, None])
    def test_fallback_reads_the_same_events(self, line, typed_line, batch_lines):
        kwargs = {} if batch_lines is None else {"batch_lines": batch_lines}
        typed = self.read_all(FALLBACK_TEXT.format(typed_line), **kwargs)
        assert_bitwise_equal(typed, oracle(FALLBACK_TEXT.format(typed_line)))
        assert_bitwise_equal(self.read_all(FALLBACK_TEXT.format(line), **kwargs), typed)

    def test_typed_lines_skip_the_float_parse(self, monkeypatch):
        calls = []
        float_rows = eventio._float_rows
        monkeypatch.setattr(
            eventio, "_float_rows", lambda lines: calls.append(1) or float_rows(lines)
        )
        self.read_all(FALLBACK_TEXT.format("1000 +3 4 1"))
        assert calls == []
        self.read_all(FALLBACK_TEXT.format("1000 3.0 4 1"))
        assert calls == [1]

    @pytest.mark.parametrize(
        "line,error,message",
        [
            ("1000 3 4 300", InvalidPolarity, "polarity must be 0 or 1 at line 5, got 300"),
            ("1000 3 4 -1", InvalidPolarity, "polarity must be 0 or 1 at line 5, got -1"),
            (
                "1000 12345678901 4 1",
                OutOfBoundsEvent,
                "event at (12345678901, 4) outside 240x180 sensor at line 5",
            ),
            ("1000 -3 4 1", OutOfBoundsEvent, "event at (-3, 4) outside 240x180 sensor at line 5"),
            ("1000 3.5 4 1", MalformedLine, "coordinates must be integers at line 5: (3.5, 4)"),
            (
                "1000 3 4 1 1",
                MalformedLine,
                "expected 4 fields 't x y p' at line 5, got 5: '1000 3 4 1 1'",
            ),
            (
                "1000 3 4 0x1",
                MalformedLine,
                "could not parse numeric fields at line 5: '1000 3 4 0x1'",
            ),
            (
                "0.15 3 4 1",
                NonMonotonicTimestamps,
                "timestamps must not decrease: 0.2 followed by 0.15 at line 5",
            ),
        ],
    )
    @pytest.mark.parametrize("batch_lines", [1, 3, None])
    def test_fallback_reports_the_same_error(self, line, error, message, batch_lines):
        kwargs = {} if batch_lines is None else {"batch_lines": batch_lines}
        with pytest.raises(error) as err:
            self.read_all(FALLBACK_TEXT.format(line), **kwargs)
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "line,error,message",
        [
            ("1000 3.5 4 1", MalformedLine, "coordinates must be integers at line 5: (3.5, 4)"),
            ("1000 3 4 300", InvalidPolarity, "polarity must be 0 or 1 at line 5, got 300"),
            (
                "1000 12345678901 4 1",
                OutOfBoundsEvent,
                "event at (12345678901, 4) outside 240x180 sensor at line 5",
            ),
        ],
    )
    def test_int_via_float_deprecation_rejects_the_typed_parse(
        self, monkeypatch, line, error, message
    ):
        """numpy 1.23 to 1.26 cast such a token to its column with only a warning."""
        loadtxt = np.loadtxt

        def loadtxt_casting_via_float(lines, dtype, **kwargs):
            try:
                return loadtxt(lines, dtype=dtype, **kwargs)
            except ValueError:
                if dtype.names is None:
                    raise
            try:
                warnings.warn(
                    "loadtxt(): Parsing an integer via a float is deprecated.",
                    DeprecationWarning,
                )
            except DeprecationWarning as warning:
                raise ValueError("could not convert string") from warning
            raw = loadtxt(lines, dtype=np.float64, **kwargs)
            rows = np.empty(len(raw), dtype=dtype)
            for name, column in zip(dtype.names, raw.T):
                rows[name] = column.astype(np.int64).astype(dtype[name])
            return rows

        monkeypatch.setattr(np, "loadtxt", loadtxt_casting_via_float)
        with pytest.raises(error) as err:
            self.read_all(FALLBACK_TEXT.format(line))
        assert type(err.value) is error
        assert str(err.value) == message

    def test_chunk_memory_does_not_grow_with_the_stream(self):
        rng = np.random.default_rng(0)
        n = 200_000
        ev = EventArray.from_columns(
            np.sort(rng.uniform(0.0, 3.0, n)),
            rng.integers(0, 240, n),
            rng.integers(0, 180, n),
            rng.choice([-1, 1], n),
        )
        buf = io.StringIO()
        write_events(ev, buf)
        lines = buf.getvalue().splitlines(keepends=True)

        def traced_peak(count: int) -> int:
            text = io.StringIO("".join(lines[:count]))
            tracemalloc.start()
            try:
                assert sum(len(b) for b in read_event_batches(text, GEOMETRY)) == count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = traced_peak(n)
        assert whole < 2_000_000
        assert whole < 1.25 * traced_peak(n // 4)


def outcome(text: str, batch_lines: int, geometry: SensorGeometry = GEOMETRY) -> tuple:
    """Each batch's columns as (dtype, bytes, writeable), then the error's type and text."""
    batches = []
    try:
        for batch in read_event_batches(io.StringIO(text), geometry, batch_lines=batch_lines):
            columns = (batch.t, batch.x, batch.y, batch.p)
            batches.append([(c.dtype.str, c.tobytes(), c.flags.writeable) for c in columns])
    except ValueError as err:
        return batches, (type(err), str(err))
    return batches, None


def fallback_outcome(text: str, batch_lines: int, geometry: SensorGeometry = GEOMETRY) -> tuple:
    """outcome() with the fixed-point tier switched off."""
    with mock.patch.object(eventio, "_fixed_point_rows", lambda block: None):
        return outcome(text, batch_lines, geometry)


# Tokens that leave the fixed-point grammar, or stay in it in an unusual form.
ODD_TOKENS = (
    ["1.", ".5", "1e-05", "1e5", "+1", "00", "007", "00.5", "0.10000000000000001",
     "1234.123456789"],
    ["007", "00", "+3", "3.0", "1234567890", "9999999999", "999999999", "-3", "1_0", ""],
    ["007", "00", "+3", "4.0", "1234567890", "inf"],
    ["300", "+1", "1.0", "00", "01", "2", "9", "-1", "1e0", ""],
)


@st.composite
def fixed_point_texts(draw) -> str:
    """Mostly fixed-point "t x y p" lines with 1 to 19 stamp digits, some of them odd."""
    k = draw(st.integers(1, 17))
    ticks = sorted(draw(st.lists(st.integers(0, 10 ** (k + 2)), min_size=1, max_size=12)))
    lines = []
    for u in ticks:
        fields = [
            f"{u // 10 ** k}.{u % 10 ** k:0{k}d}",
            str(draw(st.integers(0, 239))),
            str(draw(st.integers(0, 179))),
            draw(st.sampled_from("01")),
        ]
        if draw(st.integers(0, 7)) == 0:
            i = draw(st.integers(0, 3))
            fields[i] = draw(st.sampled_from(ODD_TOKENS[i]))
        space = draw(st.sampled_from([" "] * 12 + ["\t", "  "]))
        end = draw(st.sampled_from(["\n"] * 12 + ["\r\n", "\n\n", "\n  \n"]))
        lines.append(space.join(fields) + end)
    text = "".join(lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


# Every coordinate of up to nine digits is inside it.
WIDE_GEOMETRY = SensorGeometry(10**9, 10**9)
DIGITS = "0123456789"


@st.composite
def mixed_width_texts(draw) -> str:
    """Fixed-point lines whose field widths differ from line to line.

    Stamps have 1 to 14 whole digits and up to 15 digits in all, now and
    then 16 or 17, which leave the tier.  Coordinates have 1 to 9 digits,
    leading zeros included.  Stamps are sorted by their exact value.
    """
    stamps = []
    for _ in range(draw(st.integers(1, 16))):
        whole = draw(st.integers(1, 14))
        long = draw(st.integers(0, 15)) == 0
        total = draw(st.integers(16, 17) if long else st.integers(whole + 1, 15))
        digits = draw(st.text(DIGITS, min_size=total, max_size=total))
        stamps.append(f"{digits[:whole]}.{digits[whole:]}")
    coordinate = st.text(DIGITS, min_size=1, max_size=9)
    return "".join(
        f"{stamp} {draw(coordinate)} {draw(coordinate)} {draw(st.sampled_from('01'))}\n"
        for stamp in sorted(stamps, key=Decimal)
    )


def fixed_point_text(ticks: range, decimals: int) -> str:
    """Lines stamped ``tick / 10**decimals`` s, written with that many decimals."""
    scale = 10**decimals
    return "".join(
        f"{i // scale}.{i % scale:0{decimals}d} {i % 240} {i % 180} {i % 2}\n" for i in ticks
    )


class TestFixedPointChunks:
    """The byte-level fixed-point tier against the line parsers behind it."""

    @given(fixed_point_texts(), st.sampled_from([1, 3, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_tier_matches_the_fallback(self, text, batch_lines):
        assert outcome(text, batch_lines) == fallback_outcome(text, batch_lines)

    @given(mixed_width_texts(), st.sampled_from([1, 3, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_mixed_widths_match_the_fallback(self, text, batch_lines):
        assert outcome(text, batch_lines, WIDE_GEOMETRY) == fallback_outcome(
            text, batch_lines, WIDE_GEOMETRY
        )

    @pytest.mark.parametrize(
        "text",
        [
            # 1 to 15 stamp digits, then 16 to 18, which fall back.
            *(
                f"{'1' * w}.{'2' * f} 3 4 1\n"
                for w, f in [(1, 1), (1, 6), (5, 9), (1, 14), (14, 1), (6, 9)]
                + [(1, 15), (7, 9), (1, 17), (9, 9)]
            ),
            # 16 and 17 digits where int / 10**k is not strtod's float.
            "91073.62417086303 3 4 1\n",
            "6147098.1056725315 3 4 1\n",
            "0e5 3 4 1\n",
            "0.000004 57 17 0\n0.000021 174 39 1\n1.999999 0 0 1\n",
            "1305030004.123456789 12 34 0\n1305030004.123456790 12 34 1\n",
            "0.3 1 2 1\n0.30000000000000004 1 2 1\n",
            "1. 3 4 1\n",
            ".5 3 4 1\n",
            "1e-05 3 4 1\n",
            "+1.5 3 4 1\n",
            "0.5 +3 4 +1\n",
            "00.5 00 007 1\n",
            "0.5 3 4 300\n",
            "0.5 3 4 2\n",
            "0.5 1234567890 4 1\n",
            "0.5 9999999999 4 1\n",
            "0.5  3 1\n",
            "0.5 3,4 1\n",
            "0.5 3 4 1;0.6 3 4 1\n",
            "0.5 3 4 01\n",
            "0.5 3 4 1\n0.6 3 4 \n",
            "0.5 3 4 9\n",
            "0.5 999999999 4 1\n",
            "0.5 3 1234567890 1\n",
            "0.5\t3 4 1\n",
            "0.5  3 4 1\n",
            " 0.5 3 4 1\n",
            "0.5 3 4 1 \n",
            "0.5 3 4 1\r\n0.6 3 4 1\r\n",
            "0.5 3 4 1\n\n0.6 3 4 1\n",
            "0.5 3 4 1\n0.6 3 4 1",
            "0.5 3 4\n",
            "0.5 3 4 1 1\n",
            "0.5 3.0 4 1\n",
            "0.5 3.5 4 1\n",
            "0.5 inf 4 1\n",
            "0.6 3 4 1\n0.5 3 4 1\n",
            "0.5 240 4 1\n",
            "0.5 3 4 1\n0.5 3 4 1\n0.5 3 4 1\n",
        ],
    )
    @pytest.mark.parametrize("batch_lines", [1, 3, 8192])
    @pytest.mark.parametrize("first", ["", "0.0 0 0 0\n"], ids=["first", "second"])
    def test_tier_matches_the_fallback_on(self, text, batch_lines, first):
        text = first + text
        assert outcome(text, batch_lines) == fallback_outcome(text, batch_lines)

    @pytest.mark.parametrize(
        "bad",
        ["0.5 3 4 2", "0.05 3 4 1", "0.5 3 4", "0.5 240 4 1", "0.5\t3 4 1", "0.5 3.5 4 1"],
    )
    @pytest.mark.parametrize("side", ["last", "first"])
    def test_a_bad_line_at_a_chunk_edge(self, bad, side):
        lines = [f"0.{i + 1} 3 4 1\n" for i in range(9)]
        edge = len(read_chunks("".join(lines), 3)[0])
        lines[edge - 1 if side == "last" else edge] = bad + "\n"
        text = "".join(lines)
        assert len(read_chunks(text, 3)) > 1
        got = outcome(text, 3)
        assert got[1] is not None
        assert got == fallback_outcome(text, 3)

    @given(
        st.lists(st.integers(1, 14), min_size=1, max_size=30),
        st.integers(1, 6),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunks_are_the_lines_readlines_gives(self, widths, batch_lines, tier):
        # Lines of 10 to 23 characters, each one fixed point.
        text = "".join(f"0.{'0' * w} 1 2 1\n" for w in widths)
        want = [len(chunk) for chunk in read_chunks(text, batch_lines)]
        read = outcome if tier else fallback_outcome
        batches, error = read(text, batch_lines)
        assert error is None
        assert [len(batch[0][1]) // 8 for batch in batches] == want

    @pytest.mark.parametrize("end", ["\n", ""], ids=["", "no-final-newline"])
    @pytest.mark.parametrize(
        "text",
        [
            fixed_point_text(range(0, 3 * 10**6, 997), 6),
            fixed_point_text(range(0, 6 * 10**10, 3 * 10**7 + 1), 9),
        ],
        ids=["microseconds", "nanoseconds"],
    )
    def test_fixed_point_text_skips_the_line_parsers(self, monkeypatch, text, end):
        text = text[:-1] + end
        fixed_point_rows = eventio._fixed_point_rows
        parsed = []
        monkeypatch.setattr(
            eventio, "_fixed_point_rows", lambda block: parsed.append(1) or fixed_point_rows(block)
        )
        monkeypatch.setattr(eventio, "_parse_chunk", None)
        batches = list(read_event_batches(io.StringIO(text), GEOMETRY, batch_lines=512))
        assert len(parsed) == len(batches) > 1
        assert sum(len(b) for b in batches) == len(text.splitlines())
        assert_bitwise_equal(EventArray.concatenate(batches), oracle(text))

    def test_written_text_is_rejected_at_its_first_line(self, monkeypatch):
        buf = io.StringIO()
        write_events(EventArray.from_columns([1 / 3, 0.5], [1, 2], [3, 4], [1, -1]), buf)
        monkeypatch.setattr(eventio, "_separators", None)
        assert eventio._fixed_point_rows(buf.getvalue()) is None


class TestNonAsciiLines:
    """A line holding any character outside ASCII is malformed, by every route in."""

    def test_a_stray_byte_in_a_path_names_its_line(self, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"0.1 1 2 1\n0.2 \xc3 4 0\n0.3 5 6 1\n")
        batches = []
        with pytest.raises(MalformedLine, match="^non-ASCII text at line 2: "):
            batches.extend(read_event_batches(path, GEOMETRY))
        assert [b.t.tolist() for b in batches] == [[0.1]]

    @pytest.mark.parametrize(
        "line", ["0.2 \u0663 4 0", "0.2\u00a03 4 0", "0.2 3 4 0\u00a0", "\u00a0", "0.2 \udcc3 4 0"]
    )
    @pytest.mark.parametrize("batch_lines", [1, 2, 8192])
    def test_a_non_ascii_line_in_a_stream_names_its_line(self, line, batch_lines):
        text = io.StringIO("0.05 1 2 1\n0.1 1 2 1\n" + line + "\n0.3 5 6 1\n")
        batches = []
        with pytest.raises(MalformedLine) as err:
            batches.extend(read_event_batches(text, GEOMETRY, batch_lines=batch_lines))
        assert str(err.value) == f"non-ASCII text at line 3: {line.strip()!r}"
        assert EventArray.concatenate(batches).t.tolist() == [0.05, 0.1]

    @pytest.mark.parametrize(
        "first,error,message",
        [
            ("0.1 1 2", MalformedLine, "^expected 4 fields 't x y p' at line 1"),
            ("0.1 1 2 5", InvalidPolarity, "^polarity must be 0 or 1 at line 1"),
        ],
    )
    def test_an_earlier_bad_line_is_reported_first(self, first, error, message):
        with pytest.raises(error, match=message):
            list(read_event_batches(io.StringIO(first + "\n0.2 \u0663 4 0\n"), GEOMETRY))


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize(
        "line,shown",
        [("0.1 inf 2 1", "(inf, 2)"), ("0.1 -inf 2 1", "(-inf, 2)"),
         ("0.1 2 inf 1", "(2, inf)"), ("0.1 2 -inf 1", "(2, -inf)"), ("0.1 nan 2 1", "(nan, 2)")],
    )
    def test_are_not_integers(self, line, shown):
        with pytest.raises(MalformedLine) as err:
            list(read_event_batches(io.StringIO("0.05 1 1 1\n" + line + "\n"), GEOMETRY))
        assert str(err.value) == f"coordinates must be integers at line 2: {shown}"


def joined_text(events: EventArray) -> str:
    """write_events' text for the whole stream, built as one string."""
    rows = zip(events.t.tolist(), events.x.tolist(), events.y.tolist(), (events.p > 0).tolist())
    return "".join(f"{t!r} {x} {y} {1 if on else 0}\n" for t, x, y, on in rows)


class TestWriteEvents:
    @staticmethod
    def events(n: int) -> EventArray:
        rng = np.random.default_rng(1)
        return EventArray.from_columns(
            np.sort(rng.uniform(0.0, 3.0, n)),
            rng.integers(0, 240, n),
            rng.integers(0, 180, n),
            rng.choice([-1, 1], n),
        )

    @pytest.mark.parametrize("n", [0, 1, eventio._BATCH_LINES, eventio._BATCH_LINES + 1, 20_000])
    def test_text_is_the_whole_stream_joined(self, n):
        buf = io.StringIO()
        write_events(self.events(n), buf)
        assert buf.getvalue() == joined_text(self.events(n))

    def test_memory_does_not_grow_with_the_stream(self):
        class Discard(io.TextIOBase):
            def write(self, text: str) -> int:
                return len(text)

        def traced_peak(n: int) -> int:
            events = self.events(n)
            tracemalloc.start()
            try:
                write_events(events, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(200_000) < 1.25 * traced_peak(50_000)
