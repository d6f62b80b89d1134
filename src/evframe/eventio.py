"""Reading and writing event streams and frame rasters.

Event text files carry one event per line as "t x y p" with polarity
encoded 1 for brightness increase and 0 for decrease.  Reading is
chunked so arbitrarily large files stream through constant memory, and
every format or contract violation is reported with its 1-based line
number.

A chunk holds the lines ``readlines(batch_lines * 24)`` would return,
about 8,192 by default, so reading holds one chunk's text and columns,
a few MB, however long the file is.  Lines end at ``\n``, as they do
when read from a path, stdin or a StringIO.  Columns are typed: float64
stamps, int32 coordinates, int8 polarity.  Parsing tries four tiers in
turn, and each later one accepts more:

1. Fixed point: every line is ``D+.D+ D{1,9} D{1,9} D`` with single
   spaces and at most 15 stamp digits, as in microsecond ``S.UUUUUU``
   or nanosecond stamps.  The chunk's bytes less 48 are taken once:
   the separators are the values above 9, found in one pass and laid
   out as contiguous rows of positions, one subtract gives every
   field's width, and each digit is gathered from that array.  On a
   1.8M-line microsecond text the reader yields 8-10M events/s on
   a 2-core VM.  A stamp is the integer of its digits divided by
   ``10**k``, k its fraction digits; both are exact in float64, so the
   division is correctly rounded and gives the float strtod gives.
   The first line alone decides most other chunks, so they pay nothing.
2. One call to numpy's C text reader into the typed columns.
3. The same reader as floats, for ``3.0`` as a coordinate or a value
   its column cannot hold.
4. Fields split and converted by numpy's string-to-float cast, which
   also accepts ``1_000``.

All four yield the same events and the same errors.  That is the whole
grammar: four whitespace-separated numbers per line, in ASCII.  When a
chunk breaks it, the first line with a field count other than four, a
field the cast rejects or a character outside ASCII is reported.  The
ASCII rule is the same for every route in: a path is decoded as ASCII
with ``surrogateescape``, so a stray byte becomes a non-ASCII character
on its line, and a non-ASCII line of any source is rejected before
numpy sees its chunk, which would read U+0663 (Arabic-Indic three) as 3
and a no-break space as a separator.  Every other rule (polarity,
timestamp range and order, integer and in-bounds coordinates) is
checked on the parsed columns, so an error never names a line the
grammar accepts.  The rows before a grammar break are checked and
yielded first, and the rules report their earliest row, so the earliest
bad line is reported at every chunk size.

Frames are written as binary PGM (P5), 8 bit or big-endian 16 bit, and
a run's frames are listed in a CSV index of publish stamp, filename and
hold flag.
"""
from __future__ import annotations

import re
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import IO, ContextManager, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    EventArray,
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    SensorGeometry,
    StreamError,
)

__all__ = [
    "MalformedLine",
    "InvalidPolarity",
    "read_event_batches",
    "write_events",
    "write_pgm",
    "read_pgm",
    "write_frame_index",
]

_BATCH_LINES = 8192
# A typed row is 17 bytes against 32 for four float64 fields.
_RECORD = np.dtype([("t", "<f8"), ("x", "<i4"), ("y", "<i4"), ("p", "i1")])
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# A first line that cannot be fixed-point sends its chunk straight on.
_FIXED_POINT_LINE = re.compile(
    r"(?=[0-9.]{3,16} )[0-9]+\.[0-9]+ [0-9]{1,9} [0-9]{1,9} [0-9](?:\n|\Z)"
)
_STAMP_DIGITS = 15  # 10**15 < 2**53
_COORD_DIGITS = 9  # 10**9 < 2**31
_POW10 = np.array([float(10**k) for k in range(_STAMP_DIGITS + 1)])
# A fixed-point line's separators, as a column of bytes less 48.
_SEPARATORS = (np.frombuffer(b".   \n", dtype=np.uint8) - 48)[:, None]


class MalformedLine(StreamError):
    """A stream line did not parse as "t x y p"."""


class InvalidPolarity(StreamError):
    """Polarity token was not 0 or 1."""


def _open(path: Union[str, Path, IO[str]], mode: str) -> ContextManager[IO[str]]:
    """Open a path as ASCII text in `mode` ("r" or "w"), or pass an open file through unclosed.

    Bytes that are not ASCII decode to lone surrogates, so a reader
    sees them as non-ASCII characters on their line.
    """
    if hasattr(path, "read" if mode == "r" else "write"):
        return nullcontext(path)
    return open(path, mode, encoding="ascii", errors="surrogateescape")


def read_event_batches(
    path: Union[str, Path, IO[str]],
    geometry: SensorGeometry,
    batch_lines: int = _BATCH_LINES,
) -> Iterator[EventArray]:
    """Stream a "t x y p" text file as validated EventArray chunks.

    Checks per line: four numeric fields, finite non-negative timestamp,
    polarity in {0, 1}, integer coordinates.  Checks across the stream:
    timestamps non-decreasing (the error reports both offending stamps)
    and coordinates inside `geometry`.  Line numbers are 1-based.  Blank
    lines are skipped.
    """
    prev_t: float | None = None
    line_base = 0
    with _open(path, "r") as fh:
        while True:
            # The lines fh.readlines(hint) returns: whole lines until
            # more than `hint` characters are read (hint 0 reads all).
            block = fh.read(batch_lines * 24 or -1) + fh.readline()
            if not block:
                break
            columns = _fixed_point_rows(block)
            if columns is not None:
                numbers: Sequence[int] = range(line_base + 1, line_base + 1 + len(columns[0]))
                broken = None
                line_base += len(numbers)
            else:
                lines = block.split("\n")  # readline's lines, less their "\n"
                if not lines[-1]:
                    lines.pop()
                ascii_only = block.isascii()
                block = ""  # hold the lines only
                columns, numbers, broken = _parse_chunk(lines, line_base, ascii_only)
                line_base += len(lines)
            if len(numbers):
                _validate_batch(*columns, numbers, geometry, prev_t)
                prev_t = float(columns[0][-1])
                yield _event_array(*columns)
            if broken is not None:
                raise broken


def _event_array(t: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> EventArray:
    """Wrap columns that `_validate_batch` accepted, without checking them again."""
    columns = (
        np.ascontiguousarray(t, dtype=np.float64),
        np.ascontiguousarray(x, dtype=np.int32),
        np.ascontiguousarray(y, dtype=np.int32),
        (2 * p - 1).astype(np.int8, copy=False),
    )
    for column in columns:
        column.setflags(write=False)
    return EventArray(*columns)


def _fixed_point_rows(block: str) -> Optional[_Columns]:
    """Parse a chunk of fixed-point lines from its bytes, or None if a line is not one.

    A fixed-point line is ``D+.D+ D{1,9} D{1,9} D`` and a newline, with
    at most 15 stamp digits.  The stamp is the integer of its digits
    over ``10**k`` for k fraction digits: both are exact in float64,
    below 2**53, so the one division is correctly rounded and gives
    strtod's bits.  Nine digits fit int32, so no cast wraps.
    """
    if not (block.isascii() and _FIXED_POINT_LINE.match(block)):
        return None  # most fallback chunks stop here, at the first line
    if not block.endswith("\n"):
        block += "\n"
    digits = np.frombuffer(block.encode("ascii"), dtype=np.uint8) - 48
    bounds = _separators(digits)
    if bounds is None:
        return None
    widths = bounds[1:] - bounds[:-1]
    widths -= 1
    low, high = widths.min(axis=1), widths.max(axis=1)
    if (
        low.min() < 1
        or high[4] > 1
        or max(high[2], high[3]) > _COORD_DIGITS
        or (widths[0] + widths[1]).max() > _STAMP_DIGITS
    ):
        return None
    dot, space, space2, space3, newline = bounds[1:]
    whole = _digit_runs(digits, dot, widths[0], low[0], high[0], np.int64)
    fraction = _digit_runs(digits, space, widths[1], low[1], high[1], np.int64)
    scale = _POW10[low[1]] if low[1] == high[1] else _POW10[widths[1]]
    return (
        (whole * scale + fraction) / scale,
        _digit_runs(digits, space2, widths[2], low[2], high[2], np.int32),
        _digit_runs(digits, space3, widths[3], low[3], high[3], np.int32),
        digits.take(newline - 1).view(np.int8),
    )


def _separators(digits: np.ndarray) -> Optional[np.ndarray]:
    """Each line's dot, three spaces and newline, after the newline before it, or None.

    `digits` is the chunk's bytes less 48, so only the separators exceed
    9.  The six rows of positions are C-contiguous.  Row 0 is row 5 one
    line back, -1 before the first line, so a field's width is the gap
    between its row and the row above, less one.
    """
    found = np.flatnonzero(digits > 9)
    n = len(found) // 5
    if len(found) != 5 * n:
        return None
    bounds = np.empty((6, n), dtype=np.int32 if len(digits) < 2**31 else np.int64)
    bounds[1:] = found.reshape(n, 5).T
    if (digits.take(bounds[1:]) != _SEPARATORS).any():
        return None
    bounds[0, 0] = -1
    bounds[0, 1:] = bounds[5, :-1]
    return bounds


def _digit_runs(
    digits: np.ndarray, stop: np.ndarray, width: np.ndarray, low: int, high: int, dtype: type
) -> np.ndarray:
    """The values of the digit runs ``digits[stop - width:stop]``, `width` from `low` to `high`."""
    value = np.zeros(len(stop), dtype=dtype)
    for k in range(high, 0, -1):
        digit = digits.take(stop - k)
        value *= 10
        value += digit if k <= low else digit * (width >= k)
    return value


def _typed_rows(lines: List[str]) -> Optional[_Columns]:
    rows = _loadtxt(lines, _RECORD, ndmin=1)
    return None if rows is None else (rows["t"], rows["x"], rows["y"], rows["p"])


# Float-formatted integers (``3.0``, np.savetxt's default ``%.18e``) parse
# here in C rather than through the split-and-cast path.
def _float_rows(lines: List[str]) -> Optional[_Columns]:
    raw = _loadtxt(lines, np.dtype(np.float64), ndmin=2)
    return None if raw is None or raw.shape[1] != 4 else tuple(raw.T)


def _loadtxt(lines: List[str], dtype: np.dtype, ndmin: int) -> Optional[np.ndarray]:
    """numpy's C reader on whitespace-separated lines, or None where it rejects them.

    numpy 1.23 to 1.26 read an integer field that is not an integer of
    the column's range (``3.5``, ``300`` as int8) as a float cast to the
    column, with only a DeprecationWarning.  Raising that warning makes
    the reader reject the chunk, as later numpy does.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines only
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=ndmin)
    except ValueError:
        return None


def _parse_chunk(
    lines: List[str], line_base: int, ascii_only: bool
) -> Tuple[_Columns, Sequence[int], Optional[MalformedLine]]:
    """Parse lines into (t, x, y, p) columns and each row's 1-based line number.

    The typed parse reads integer coordinates and polarity.  A chunk it
    rejects (``3.0``, ``1e0``, ``1_000``, a value its column cannot
    hold) is parsed as floats.  A chunk that reader rejects too, or
    whose rows do not line up with the non-blank lines, is split and
    cast field by field.  Then only the rows before the first line that
    breaks the grammar are returned, with the error that names that
    line, so the caller checks the earlier rows first.  Unless
    `ascii_only`, the first non-ASCII line breaks the grammar, and only
    the lines before it reach numpy.
    """
    first = line_base + 1
    if not ascii_only:
        end = next(i for i, ln in enumerate(lines) if not ln.isascii())
        columns, numbers, broken = _parse_chunk(lines[:end], line_base, True)
        if broken is None:
            broken = MalformedLine(f"non-ASCII text at line {first + end}: {lines[end].strip()!r}")
        return columns, numbers, broken
    numbers: Sequence[int] = range(first, first + len(lines))
    for parse in (_typed_rows, _float_rows):
        columns = parse(lines)
        if columns is None:
            continue
        if len(columns[0]) != len(numbers):
            numbers = [first + i for i, ln in enumerate(lines) if ln.strip()]
        if len(columns[0]) == len(numbers):
            return columns, numbers, None
    numbers = [first + i for i, ln in enumerate(lines) if ln.strip()]
    rows = [lines[n - first].split() for n in numbers]
    end = next((i for i, fields in enumerate(rows) if len(fields) != 4), len(rows))
    try:
        raw = np.array(rows[:end], dtype=np.float64).reshape(-1, 4)
    except ValueError:
        end = next(i for i, fields in enumerate(rows) if not _is_numeric(fields))
        raw = np.array(rows[:end], dtype=np.float64).reshape(-1, 4)
    if end == len(rows):
        return tuple(raw.T), numbers, None
    n, fields = numbers[end], rows[end]
    if len(fields) != 4:
        problem = f"expected 4 fields 't x y p' at line {n}, got {len(fields)}"
    else:
        problem = f"could not parse numeric fields at line {n}"
    return tuple(raw.T), numbers[:end], MalformedLine(f"{problem}: {lines[n - first].strip()!r}")


def _is_numeric(fields: List[str]) -> bool:
    try:
        np.array(fields, dtype=np.float64)
    except ValueError:
        return False
    return True


def _validate_batch(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    numbers: Sequence[int],
    geometry: SensorGeometry,
    prev_t: float | None,
) -> None:
    """Raise the error of the earliest row that breaks a rule.

    A row that breaks two rules reports the first one listed here.
    """
    before = np.concatenate([[-np.inf if prev_t is None else prev_t], t[:-1]])
    rules = [
        (
            (p != 0) & (p != 1),
            lambda i: InvalidPolarity(
                f"polarity must be 0 or 1 at line {numbers[i]}, got {p[i]:g}"
            ),
        ),
        (
            ~np.isfinite(t) | (t < 0.0),
            lambda i: MalformedLine(
                f"timestamp must be finite and >= 0 at line {numbers[i]}, got {float(t[i])}"
            ),
        ),
        (
            _not_whole(x) | _not_whole(y),
            lambda i: MalformedLine(
                f"coordinates must be integers at line {numbers[i]}: ({x[i]:g}, {y[i]:g})"
            ),
        ),
        (
            (x < 0) | (x >= geometry.width) | (y < 0) | (y >= geometry.height),
            lambda i: OutOfBoundsEvent(
                f"event at ({int(x[i])}, {int(y[i])}) outside "
                f"{geometry.width}x{geometry.height} sensor at line {numbers[i]}"
            ),
        ),
        (
            t < before,
            lambda i: NonMonotonicTimestamps(
                f"timestamps must not decrease: {float(before[i])} followed by "
                f"{float(t[i])} at line {numbers[i]}"
            ),
        ),
    ]
    firsts = [int(np.argmax(bad)) if bad.any() else len(t) for bad, _ in rules]
    i = min(firsts)
    if i < len(t):
        raise rules[firsts.index(i)][1](i)


def _not_whole(column: np.ndarray) -> np.ndarray:
    """Where a coordinate column holds no integer: a fraction, inf or nan."""
    if column.dtype.kind != "f":
        return np.zeros(len(column), dtype=bool)
    return ~np.isfinite(column) | (column != np.floor(column))


def write_events(events: EventArray, path: Union[str, Path, IO[str]]) -> None:
    """Write events as "t x y p" lines, one per event.

    The stamp is written as the float's repr, so it reads back exactly.
    An empty stream writes nothing.  The text is built and written
    `_BATCH_LINES` events at a time, so it is never held whole.
    """
    with _open(path, "w") as fh:
        for start in range(0, len(events), _BATCH_LINES):
            part = events[start : start + _BATCH_LINES]
            rows = zip(part.t.tolist(), part.x.tolist(), part.y.tolist(), (part.p > 0).tolist())
            fh.write("".join(f"{t!r} {x} {y} {1 if on else 0}\n" for t, x, y, on in rows))


def write_pgm(raster: np.ndarray, path: Union[str, Path]) -> None:
    """Write an integer raster as binary PGM (P5).

    uint8 maps to maxval 255; uint16 to maxval 65535 with big-endian
    sample bytes as the format requires.
    """
    if raster.ndim != 2:
        raise ValueError(f"raster must be 2D, got shape {raster.shape}")
    if raster.dtype == np.uint8:
        payload = raster.tobytes()
        maxval = 255
    elif raster.dtype == np.uint16:
        payload = raster.astype(">u2").tobytes()
        maxval = 65535
    else:
        raise ValueError(f"raster dtype must be uint8 or uint16, got {raster.dtype}")
    h, w = raster.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_pgm(path: Union[str, Path]) -> np.ndarray:
    """Read back a binary PGM written by :func:`write_pgm`."""
    data = Path(path).read_bytes()
    fields: List[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if not fields[3]:
        raise ValueError(f"truncated PGM {path}: the header ends after {len(data)} bytes")
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval not in (255, 65535):
        raise ValueError(f"unsupported maxval {maxval}")
    sample = np.dtype(np.uint8 if maxval == 255 else ">u2")
    if len(data) - pos < w * h * sample.itemsize:
        raise ValueError(
            f"truncated PGM {path}: {max(len(data) - pos, 0)} of "
            f"{w * h * sample.itemsize} payload bytes"
        )
    raster = np.frombuffer(data, dtype=sample, count=w * h, offset=pos)
    return raster.astype(sample.newbyteorder("="), copy=False).reshape(h, w)


def write_frame_index(
    entries: Iterable[Tuple[float, str, bool]],
    path: Union[str, Path, IO[str]],
) -> None:
    """Write the per-run frame index CSV: stamp,filename,held.

    The header goes first into a new file, a stream, or an open file
    still at its start, so later calls on the same open file append
    rows to it.
    """
    with _open(path, "w") as fh:
        if not fh.seekable() or fh.tell() == 0:
            fh.write("stamp,filename,held\n")
        for stamp, filename, held in entries:
            fh.write(f"{stamp:.9f},{filename},{1 if held else 0}\n")
