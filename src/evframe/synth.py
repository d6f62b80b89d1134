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

Synthesis is sparse: at each step only the pixels whose sample can
change are resampled.  A pixel reads a 2x2 footprint of the field at
its clamped coordinate.  Its sample can change only if that footprint
moved and, before or after the move, sits on a pair of columns or rows
where the field varies; otherwise the field is constant across the
footprint and its shift, and the sample repeats bit for bit.  On the
step edge that leaves one or two columns of pixels per step.  The
stream is bit-identical to resampling every pixel at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

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
    "add_noise",
]

# Slack for deciding that a floating-point residual has reached the
# threshold; keeps quantum counts exact when H is a multiple of C.
_THRESHOLD_SLACK = 1e-9

# Steps whose times, offsets and footprints `generate_events` holds at
# once.  The stream does not depend on it; it bounds the working arrays at
# about 24 * (width + height) bytes per step of a block.  The output and
# one entry per firing step still grow with the run.
_STEPS_PER_BLOCK = 256


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
            if not 0.0 < duration < math.inf:
                raise ValueError(f"segment duration must be a finite number > 0, got {duration}")

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
        if not 0.0 <= self.noise_rate < math.inf:
            raise ValueError(f"noise rate must be a finite number >= 0, got {self.noise_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _footprint(n: int, offset) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each pixel of an axis of `n` samples when translated by `offset`.

    Returns (i0, frac, i1): pixel k reads samples i0 and i1 of the axis
    with weight frac on i1, the coordinate first clamped to the border.
    `offset` broadcasts against the pixel axis, so a column of offsets
    gives one row of footprints per offset.
    """
    u = np.clip(np.arange(n) - offset, 0.0, n - 1.0)
    i0 = np.minimum(u.astype(np.intp), max(n - 2, 0))
    return i0, u - i0, np.minimum(i0 + 1, n - 1)


def _interpolate(
    field: np.ndarray, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]
) -> np.ndarray:
    """Bilinear samples of the field on a grid of pixel rows and columns.

    `xs` and `ys` are the :func:`_footprint` triples of the columns and
    rows to sample, each non-empty and in ascending pixel order.  Every
    sample takes the same operations in the same order whichever pixels
    are asked for, so a sampled subset is bit-identical to the same
    pixels of the full image.
    """
    x0, fx, x1 = xs
    y0, fy, y1 = ys
    # Interpolate along x once for every field row the pixels read, then
    # between row pairs.  Only the field rows and the span of columns
    # that the footprints cover are copied.
    used = np.zeros(len(field), dtype=bool)
    used[y0] = True
    used[y1] = True
    lo = x0[0]
    source = field[used, lo : x1[-1] + 1]
    left = source[:, x0 - lo]
    rows = left + (source[:, x1 - lo] - left) * fx
    at = np.cumsum(used) - 1
    top = rows[at[y0]]
    return top + (rows[at[y1]] - top) * fy[:, None]


def _live(footprints: Sequence[np.ndarray], pair_varies: np.ndarray) -> np.ndarray:
    """Which pixels of an axis can change sample at each step.

    `footprints` holds one :func:`_footprint` row per step, starting
    with the step before the first.  A pixel is live at a step when its
    footprint moved since the step before and, at either of the two,
    starts on a pair of samples where the field varies.  Returns one row
    per step after the first row of `footprints`.
    """
    i0, frac, _ = footprints
    touches = pair_varies[i0]
    moved = (i0[1:] != i0[:-1]) | (frac[1:] != frac[:-1])
    return moved & (touches[1:] | touches[:-1])


def _sample(field: np.ndarray, ox: float, oy: float) -> np.ndarray:
    """Bilinear sample of the field translated by (ox, oy), clamped."""
    h, w = field.shape
    return _interpolate(field, _footprint(w, ox), _footprint(h, oy))


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
    step skips over scene structure.  Within a step, events are in
    row-major pixel order.

    Only pixels whose sample can change are resampled, and the stream
    is bit-identical to resampling every pixel.  A pixel's footprint is
    taken from its clamped coordinate, one column pair and one row pair
    of the field.  Footprints of consecutive steps share a column and a
    row, because a step moves less than 0.5 px.  If the x footprint did
    not move, or sits on column pairs where the field is equal in every
    row at both steps, each row interpolates to the same value as
    before; the same holds for rows, so the sample repeats.  A pixel
    whose sample repeats and whose residual is below one quantum emits
    nothing.  Rounding can leave a whole quantum in a residual after it
    fires; such a pixel is resampled at the next step.  Step times,
    offsets and footprints are computed for a block of steps at a time,
    so the working arrays do not grow with the number of steps; what
    grows is the output, plus one entry per step that fires.  A run of
    over 2**31 steps is rejected before anything is allocated, as
    :func:`add_noise` rejects over 2**31 events.

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
    steps = duration / time_step
    if steps > 2**31:
        raise ValueError(
            f"duration {duration:g} s at time step {time_step:g} s takes {steps:.3g} steps, "
            "over 2**31"
        )
    n_steps = max(1, int(math.ceil(steps - 1e-12)))
    c = sensor.contrast_threshold
    field = scene.field
    h, w = field.shape
    # Footprint index k reads the pair (k, k + 1); the last index never
    # starts a pair that varies.
    col_varies = np.append((field[:, 1:] != field[:, :-1]).any(axis=0), False)
    row_varies = np.append((field[1:] != field[:-1]).any(axis=1), False)
    all_rows = slice(None)
    row_starts = np.arange(h) * w
    reference = _sample(field, 0.0, 0.0).reshape(-1)
    fired_times = []
    fired = []
    stale = None  # rows of pixels left holding a quantum by the last step
    # The scene at rest, which sets every pixel's reference, is the step
    # before the first.
    before = np.zeros((1, 2))
    for start in range(0, n_steps, _STEPS_PER_BLOCK):
        # Times, offsets and footprints of a block of steps and of the
        # step before it, so their memory stays bounded however many
        # steps there are.
        times = np.minimum(
            np.arange(start + 1, min(start + _STEPS_PER_BLOCK, n_steps) + 1) * time_step,
            duration,
        )
        block = np.vstack((before, motion.offsets_at(times)))
        before = block[-1:]
        xs = _footprint(w, block[:, :1])
        ys = _footprint(h, block[:, 1:])
        live_cols = _live(xs, col_varies)
        live_rows = _live(ys, row_varies)
        busy = live_cols.any(axis=1) | live_rows.any(axis=1)
        for j in range(len(block) - 1):
            if stale is not None:
                live_rows[j, stale] = True
                busy[j] = True
                stale = None
            if not busy[j]:
                continue
            # The live pixels are every row of the live columns plus the
            # other columns of the live rows: two grids, each row-major.
            grids = [(all_rows, np.flatnonzero(live_cols[j]))]
            rows_j = np.flatnonzero(live_rows[j])
            if len(rows_j):
                grids.append((rows_j, np.flatnonzero(~live_cols[j])))
            hits = []
            for rows, cols in grids:
                if len(cols) == 0:
                    continue
                now = _interpolate(
                    field,
                    [a[j + 1, cols] for a in xs],
                    [a[j + 1, rows] for a in ys],
                ).reshape(-1)
                flat = (row_starts[rows][:, None] + cols).reshape(-1)
                residual = now - reference[flat]
                quanta = np.floor(np.abs(residual) / c + _THRESHOLD_SLACK).astype(np.int64)
                hit = np.flatnonzero(quanta)
                if len(hit):
                    hits.append((flat[hit], quanta[hit], residual[hit], now[hit]))
            if not hits:
                continue
            flat, reps, residual, now = (np.concatenate(part) for part in zip(*hits))
            if len(hits) > 1:
                # Two sorted runs of distinct pixels: one merge puts them
                # in row-major order.
                order = np.argsort(flat, kind="stable")
                flat, reps, residual, now = flat[order], reps[order], residual[order], now[order]
            sign = np.sign(residual).astype(np.int8)
            settled = reference[flat] + sign * reps * c
            reference[flat] = settled
            # Rounding can leave a whole quantum in the residual.  Such a
            # pixel fires again at the next step with its sample
            # unchanged, so it must be resampled there.
            again = np.abs(now - settled) / c + _THRESHOLD_SLACK >= 1.0
            if again.any():
                stale = flat[again] // w
            fired_times.append(times[j])
            fired.append((flat, reps, sign))
    if not fired:
        return EventArray.empty()
    flat, reps, sign = (np.concatenate(part) for part in zip(*fired))
    t = np.repeat(fired_times, [len(f) for f, _, _ in fired])
    y, x = np.divmod(flat, w)
    return EventArray.from_columns(
        np.repeat(t, reps),
        np.repeat(x.astype(np.int32), reps),
        np.repeat(y.astype(np.int32), reps),
        np.repeat(sign, reps),
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
    unchanged.  An expected count over 2**31 events (36 GB of columns)
    is rejected before anything is drawn.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if t_start < 0.0:
        raise ValueError(f"t_start must be >= 0, got {t_start}")
    if sensor.noise_rate == 0.0 or duration == 0.0:
        return stream
    expected = sensor.noise_rate * duration * geometry.pixel_count
    if expected > 2**31:
        raise ValueError(
            f"noise rate {sensor.noise_rate:g}/s per pixel on {geometry.width}x{geometry.height} "
            f"pixels for {duration:g} s expects {expected:.3g} events, over 2**31"
        )
    rng = np.random.default_rng(sensor.seed)
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
