"""Reading and writing event streams and frame rasters.

Event text files carry one event per line as "t x y p" with polarity
encoded 1 for brightness increase and 0 for decrease.  Reading is
chunked so arbitrarily large files stream through constant memory, and
every format or contract violation is reported with its 1-based line
number.

A chunk is ``batch_lines`` x 24 characters, about 8,192 lines by
default, so reading holds one chunk's lines and columns, a few MB,
however long the file is.  Each chunk is parsed by one call to numpy's
C text reader into typed columns: float64 stamps, int32 coordinates,
int8 polarity.  A chunk that parse rejects (say ``3.0`` as a
coordinate, or a value its column cannot hold) is read again as
floats, and a chunk that reader rejects too is split into fields and
converted by numpy's string-to-float cast, which also accepts
``1_000``.  The typed parse and the fallbacks yield the same events and
the same errors.  That is the whole grammar: four whitespace-separated
numbers per line.  When a chunk breaks it, the first line with a field
count other than four or a field the cast rejects is reported.  Every
other rule (polarity, timestamp range and order, integer and in-bounds
coordinates) is checked on the parsed columns, so an error never names
a line the grammar accepts.  The rows before a grammar break are
checked and yielded first, and the rules report their earliest row, so
the earliest bad line is reported at every chunk size.

Frames are written as binary PGM (P5), 8 bit or big-endian 16 bit, and
a run's frames are listed in a CSV index of publish stamp, filename and
hold flag.
"""
from __future__ import annotations

import warnings
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
    "read_frame_index",
]

_BATCH_LINES = 8192
# A typed row is 17 bytes against 32 for four float64 fields.
_RECORD = np.dtype([("t", "<f8"), ("x", "<i4"), ("y", "<i4"), ("p", "i1")])
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class MalformedLine(StreamError):
    """A stream line did not parse as "t x y p"."""


class InvalidPolarity(StreamError):
    """Polarity token was not 0 or 1."""


def _open_text(path: Union[str, Path, IO[str]]) -> Tuple[IO[str], bool]:
    if hasattr(path, "read"):
        return path, False
    return open(path, "r", encoding="ascii"), True


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
    fh, owned = _open_text(path)
    prev_t: float | None = None
    line_base = 0
    try:
        while True:
            lines = fh.readlines(batch_lines * 24)
            if not lines:
                break
            (t, x, y, p), numbers, broken = _parse_chunk(lines, line_base)
            line_base += len(lines)
            if len(numbers):
                _validate_batch(t, x, y, p, numbers, geometry, prev_t)
                prev_t = float(t[-1])
                yield EventArray.from_columns(t, x, y, np.where(p > 0, 1, -1))
            if broken is not None:
                raise broken
    finally:
        if owned:
            fh.close()


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
    lines: List[str], line_base: int
) -> Tuple[_Columns, Sequence[int], Optional[MalformedLine]]:
    """Parse lines into (t, x, y, p) columns and each row's 1-based line number.

    The typed parse reads integer coordinates and polarity.  A chunk it
    rejects (``3.0``, ``1e0``, ``1_000``, a value its column cannot
    hold) is parsed as floats.  A chunk that reader rejects too, or
    whose rows do not line up with the non-blank lines, is split and
    cast field by field.  Then only the rows before the first line that
    breaks the grammar are returned, with the error that names that
    line, so the caller checks the earlier rows first.
    """
    first = line_base + 1
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
            ~np.isin(p, (0.0, 1.0)),
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
            (x != np.floor(x)) | (y != np.floor(y)),
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


def write_events(events: EventArray, path: Union[str, Path, IO[str]]) -> None:
    """Write events as "t x y p" lines, one per event.

    The stamp is written as the float's repr, so it reads back exactly.
    An empty stream writes nothing.
    """
    rows = zip(events.t.tolist(), events.x.tolist(), events.y.tolist(), (events.p > 0).tolist())
    fh, owned = _open_out(path)
    try:
        fh.write("".join(f"{t!r} {x} {y} {1 if on else 0}\n" for t, x, y, on in rows))
    finally:
        if owned:
            fh.close()


def _open_out(path: Union[str, Path, IO[str]]) -> Tuple[IO[str], bool]:
    if hasattr(path, "write"):
        return path, False
    return open(path, "w", encoding="ascii"), True


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
    fh, owned = _open_out(path)
    try:
        if not fh.seekable() or fh.tell() == 0:
            fh.write("stamp,filename,held\n")
        for stamp, filename, held in entries:
            fh.write(f"{stamp:.9f},{filename},{1 if held else 0}\n")
    finally:
        if owned:
            fh.close()


def read_frame_index(path: Union[str, Path]) -> List[Tuple[float, str, bool]]:
    """Parse a frame index CSV back into (stamp, filename, held) rows."""
    out: List[Tuple[float, str, bool]] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "stamp,filename,held":
            raise ValueError(f"unexpected index header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            stamp, filename, held = line.strip().split(",")
            out.append((float(stamp), filename, held == "1"))
    return out
