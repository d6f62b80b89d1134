"""Plain reference versions that the fast library paths are checked against.

The library carries events only as :class:`evframe.EventArray` columns.
These one-event-at-a-time versions, and the synthesis loop that
resamples every pixel at every step, are kept here, unchanged, so the
fast paths can be compared with the plain definitions.
"""
from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np

from evframe import (
    EventArray,
    InvalidPolarity,
    MalformedLine,
    MotionProfile,
    OutOfBoundsEvent,
    PolarityMode,
    SensorModel,
    SyntheticScene,
)
from evframe.synth import _THRESHOLD_SLACK, _sample


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


def dense_generate_events(
    scene: SyntheticScene,
    motion: MotionProfile,
    sensor: SensorModel,
    time_step: float,
) -> EventArray:
    """Simulate the event stream by resampling every pixel at every step.

    This is the reference for :func:`evframe.generate_events`, which
    resamples only the pixels whose sample can change; the two must
    agree bit for bit.
    """
    if not time_step > 0.0:
        raise ValueError(f"time step must be > 0, got {time_step}")
    if motion.max_speed * time_step >= 0.5:
        raise ValueError(
            "time step too coarse: max speed * time_step = "
            f"{motion.max_speed * time_step:.3f} px, needs to stay below 0.5 px"
        )
    duration = motion.duration
    n_steps = max(1, int(math.ceil(duration / time_step - 1e-12)))
    times = np.minimum(np.arange(1, n_steps + 1) * time_step, duration)
    offsets = motion.offsets_at(times)
    c = sensor.contrast_threshold
    h, w = scene.field.shape
    cols = np.tile(np.arange(w, dtype=np.int32), h)
    rows = np.repeat(np.arange(h, dtype=np.int32), w)
    reference = _sample(scene.field, 0.0, 0.0).reshape(-1)
    t_parts = []
    x_parts = []
    y_parts = []
    p_parts = []
    for i in range(n_steps):
        now = _sample(scene.field, float(offsets[i, 0]), float(offsets[i, 1])).reshape(-1)
        residual = now - reference
        quanta = np.floor(np.abs(residual) / c + _THRESHOLD_SLACK).astype(np.int64)
        fired = np.flatnonzero(quanta)
        if len(fired) == 0:
            continue
        reps = quanta[fired]
        sign = np.sign(residual[fired]).astype(np.int8)
        x_parts.append(np.repeat(cols[fired], reps))
        y_parts.append(np.repeat(rows[fired], reps))
        p_parts.append(np.repeat(sign, reps))
        t_parts.append(np.full(int(reps.sum()), times[i]))
        reference[fired] += sign * reps * c
    if not t_parts:
        return EventArray.empty()
    return EventArray.from_columns(
        np.concatenate(t_parts),
        np.concatenate(x_parts),
        np.concatenate(y_parts),
        np.concatenate(p_parts),
    )
