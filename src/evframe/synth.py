"""Synthetic event streams with known ground truth.

A scene is a log-brightness field that translates in front of the
sensor.  Each pixel tracks the difference between the brightness it
currently sees and a per-pixel reference; whenever that residual
reaches the contrast threshold C, an event fires and the reference
steps by C toward the observed value, repeating until the residual is
below threshold again.  A pixel swept by an edge of log-brightness
height H therefore emits exactly floor(H / C) events, which is the
ground truth the rest of the toolkit is checked against.

Motion is piecewise-constant translation.  Sampling off the grid is
bilinear with clamp-to-edge borders, so an edge leaving the field of
view simply stops producing events.  Background noise is an optional
per-pixel homogeneous Poisson process with uniform random polarity,
seeded and reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import EventArray, SensorGeometry

__all__ = [
    "SyntheticScene",
    "MotionProfile",
    "SensorModel",
    "step_edge",
    "bars",
    "checker",
    "generate_events",
    "expected_event_count",
    "add_noise",
]

# Slack for deciding that a floating-point residual has reached the
# threshold; keeps quantum counts exact when H is a multiple of C.
_THRESHOLD_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """A log-brightness field the sensor looks at.

    `field` has shape (height, width) and is sampled bilinearly;
    coordinates outside the field clamp to its border.
    """

    field: np.ndarray
    geometry: SensorGeometry

    def __post_init__(self) -> None:
        if self.field.shape != (self.geometry.height, self.geometry.width):
            raise ValueError(
                f"field shape {self.field.shape} does not match geometry "
                f"{self.geometry.width}x{self.geometry.height}"
            )
        if not np.isfinite(self.field).all():
            raise ValueError("scene field must be finite")
        self.field.setflags(write=False)


@dataclass(frozen=True)
class MotionProfile:
    """Piecewise-constant planar velocity, in pixels per second.

    `segments` is a sequence of (duration, (vx, vy)) pieces; the total
    duration is their sum.
    """

    segments: Tuple[Tuple[float, Tuple[float, float]], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("motion profile needs at least one segment")
        for duration, _ in self.segments:
            if not duration > 0.0:
                raise ValueError(f"segment duration must be > 0, got {duration}")

    @classmethod
    def constant(cls, velocity: Tuple[float, float], duration: float) -> "MotionProfile":
        return cls(((duration, velocity),))

    @classmethod
    def reversing(cls, velocity: Tuple[float, float], half_duration: float) -> "MotionProfile":
        """Out and back: `velocity` for half the run, then its negation."""
        vx, vy = velocity
        return cls(((half_duration, (vx, vy)), (half_duration, (-vx, -vy))))

    @property
    def duration(self) -> float:
        return float(sum(d for d, _ in self.segments))

    @property
    def max_speed(self) -> float:
        return max(math.hypot(vx, vy) for _, (vx, vy) in self.segments)

    def offsets_at(self, times: np.ndarray) -> np.ndarray:
        """Integrated displacement at each time, shape (n, 2)."""
        times = np.asarray(times, dtype=np.float64)
        out = np.zeros(times.shape + (2,))
        start = 0.0
        for duration, (vx, vy) in self.segments:
            inside = np.clip(times - start, 0.0, duration)
            out[..., 0] += inside * vx
            out[..., 1] += inside * vy
            start += duration
        return out


@dataclass(frozen=True)
class SensorModel:
    """Contrast threshold, background noise rate, and RNG seed."""

    contrast_threshold: float
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.contrast_threshold > 0.0:
            raise ValueError(
                f"contrast threshold must be > 0, got {self.contrast_threshold}"
            )
        if self.noise_rate < 0.0:
            raise ValueError(f"noise rate must be >= 0, got {self.noise_rate}")


def step_edge(
    geometry: SensorGeometry, height: float, edge_x: int | None = None
) -> SyntheticScene:
    """A single vertical edge: bright (height) left of edge_x, dark right.

    Translating the scene rightward sweeps the edge across pixels in
    increasing x, brightening each one by `height`.
    """
    if edge_x is None:
        edge_x = geometry.width // 4
    if not 0 <= edge_x < geometry.width:
        raise ValueError(f"edge_x must be inside the field, got {edge_x}")
    field = np.zeros((geometry.height, geometry.width))
    field[:, : edge_x + 1] = height
    return SyntheticScene(field, geometry)


def bars(
    geometry: SensorGeometry,
    height: float = 0.6,
    ramp_px: int = 6,
) -> SyntheticScene:
    """Two rising edges of equal height but different sharpness.

    The left edge is a hard step; the right one ramps up linearly over
    `ramp_px` pixels.  Under motion both release the same total
    brightness change per pixel, but spread differently in time, which
    is what makes frame gray levels distinguish sharpness at small
    contributions and collapse to binary at contribution 1.
    """
    w, h = geometry.width, geometry.height
    if ramp_px < 1 or ramp_px * 4 > w:
        raise ValueError(f"ramp width {ramp_px} does not fit a {w}px field")
    field = np.zeros((h, w))
    sharp_x = w // 4
    field[:, : sharp_x + 1] = height
    ramp_lo = w // 2
    ramp = np.clip((np.arange(w) - ramp_lo) / ramp_px, 0.0, 1.0) * height
    field += ramp[None, :]
    return SyntheticScene(field, geometry)


def checker(geometry: SensorGeometry, cell: int = 8, height: float = 0.6) -> SyntheticScene:
    """Checkerboard of `cell`-sized squares alternating 0 and `height`."""
    if cell < 1:
        raise ValueError(f"cell size must be >= 1, got {cell}")
    ys, xs = np.indices((geometry.height, geometry.width))
    field = (((xs // cell) + (ys // cell)) % 2).astype(np.float64) * height
    return SyntheticScene(field, geometry)


def _sample(field: np.ndarray, ox: float, oy: float) -> np.ndarray:
    """Bilinear sample of the field translated by (ox, oy), clamped."""
    h, w = field.shape
    u = np.clip(np.arange(w) - ox, 0.0, w - 1.0)
    v = np.clip(np.arange(h) - oy, 0.0, h - 1.0)
    x0 = np.minimum(u.astype(np.intp), w - 2) if w > 1 else np.zeros(w, dtype=np.intp)
    y0 = np.minimum(v.astype(np.intp), h - 2) if h > 1 else np.zeros(h, dtype=np.intp)
    fx = u - x0
    fy = v - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # Interpolate along x once for every row, then between row pairs.
    left = field[:, x0]
    rows = left + (field[:, x1] - left) * fx
    top = rows[y0]
    return top + (rows[y1] - top) * fy[:, None]


def expected_event_count(edge_height: float, contrast_threshold: float) -> int:
    """Events a pixel emits when swept by an edge: floor(H / C).

    The small slack keeps the count exact when H is a floating-point
    multiple of C (0.6 / 0.2 must give 3, not 2).
    """
    if not contrast_threshold > 0.0:
        raise ValueError(f"contrast threshold must be > 0, got {contrast_threshold}")
    if edge_height < 0.0:
        raise ValueError(f"edge height must be >= 0, got {edge_height}")
    return int(math.floor(edge_height / contrast_threshold + _THRESHOLD_SLACK))


def generate_events(
    scene: SyntheticScene,
    motion: MotionProfile,
    sensor: SensorModel,
    time_step: float,
) -> EventArray:
    """Simulate the event stream for a translating scene.

    The scene is advanced in `time_step` increments; at each step every
    pixel releases as many threshold quanta as its residual allows, all
    stamped with the step time, and the per-pixel reference moves by
    the released amount.  Requires max_speed * time_step < 0.5 px so no
    step skips over scene structure.

    The output is deterministic: it contains no randomness at all
    (noise is added separately by :func:`add_noise`).
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


def add_noise(
    stream: EventArray,
    sensor: SensorModel,
    geometry: SensorGeometry,
    duration: float,
    t_start: float = 0.0,
) -> EventArray:
    """Merge per-pixel Poisson background noise into a stream.

    Every pixel fires at `sensor.noise_rate` events per second over
    [t_start, t_start + duration], with uniformly random polarity.
    Deterministic for a given seed; a rate of 0 returns the input
    unchanged.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if t_start < 0.0:
        raise ValueError(f"t_start must be >= 0, got {t_start}")
    if sensor.noise_rate == 0.0 or duration == 0.0:
        return stream
    rng = np.random.default_rng(sensor.seed)
    expected = sensor.noise_rate * duration * geometry.pixel_count
    count = int(rng.poisson(expected))
    t = np.sort(t_start + rng.random(count) * duration)
    x = rng.integers(0, geometry.width, count, dtype=np.int32)
    y = rng.integers(0, geometry.height, count, dtype=np.int32)
    p = (rng.integers(0, 2, count, dtype=np.int8) * 2 - 1).astype(np.int8)
    if len(stream) == 0:
        return EventArray.from_columns(t, x, y, p)
    merged_t = np.concatenate([stream.t, t])
    order = np.argsort(merged_t, kind="stable")
    return EventArray.from_columns(
        merged_t[order],
        np.concatenate([stream.x, x])[order],
        np.concatenate([stream.y, y])[order],
        np.concatenate([stream.p, p])[order],
    )
