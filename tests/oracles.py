"""Scalar per-event oracles that the vectorized library paths are checked against.

The library carries events only as :class:`evframe.EventArray` columns.
These one-event-at-a-time versions are kept here, unchanged, so the
batch paths can be compared with the plain definitions.
"""
from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from evframe import EventArray, InvalidPolarity, MalformedLine, OutOfBoundsEvent, PolarityMode


class Event(NamedTuple):
    """One event as the oracles take it: t seconds, pixel (x, y), p = +-1."""

    t: float
    x: int
    y: int
    p: int


def events_of(events: EventArray) -> List[Event]:
    """The events of a batch, one record each, in time order."""
    return [
        Event(*row)
        for row in zip(events.t.tolist(), events.x.tolist(), events.y.tolist(), events.p.tolist())
    ]


def parse_event_line(line: str, line_number: int | None = None) -> Event:
    """Parse one "t x y p" line; p is 1 for +1 and 0 for -1.

    Raises MalformedLine, or InvalidPolarity when only the polarity
    token is bad.  Error messages name the offending line number when
    one is given.
    """
    where = f" at line {line_number}" if line_number is not None else ""
    parts = line.split()
    if len(parts) != 4:
        raise MalformedLine(
            f"expected 4 fields 't x y p'{where}, got {len(parts)}: {line.strip()!r}"
        )
    try:
        t = float(parts[0])
        x = int(parts[1])
        y = int(parts[2])
    except ValueError:
        raise MalformedLine(f"could not parse numeric fields{where}: {line.strip()!r}") from None
    if parts[3] == "1":
        p = 1
    elif parts[3] == "0":
        p = -1
    else:
        raise InvalidPolarity(f"polarity must be 0 or 1{where}, got {parts[3]!r}")
    if not t >= 0.0:
        raise MalformedLine(f"timestamp must be >= 0{where}, got {parts[0]}")
    if x < 0 or y < 0:
        raise MalformedLine(f"coordinates must be >= 0{where}, got ({x}, {y})")
    return Event(t, x, y, p)


def integrate_event(
    pixels: np.ndarray,
    event: Event,
    polarity_mode: PolarityMode,
    contribution: float,
) -> np.ndarray:
    """Add one event's contribution to its pixel, clamped to [0, 1].

    Mutates `pixels` in place and returns it.  This is the reference
    path; `accumulate_slice` integrates whole slices vectorized.
    """
    h, w = pixels.shape
    if not (0 <= event.x < w and 0 <= event.y < h):
        raise OutOfBoundsEvent(
            f"event at ({event.x}, {event.y}) outside {w}x{h} frame"
        )
    if polarity_mode is PolarityMode.SIGNED and event.p < 0:
        contribution = -contribution
    v = pixels[event.y, event.x] + contribution
    pixels[event.y, event.x] = min(1.0, max(0.0, v))
    return pixels
