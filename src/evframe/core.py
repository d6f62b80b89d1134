"""Core types for event-to-frame accumulation.

An event camera reports a sparse stream of per-pixel brightness change
events instead of full frames.  This module defines the columnar event
batch every interface carries, the sensor geometry, the normalized frame
buffer handed to consumers, and the configuration vector that selects
how a stream is sliced and accumulated.  The numeric helpers shared by the
other modules (neutral value, quantization, window sizing) live here too.

Pixel state is kept normalized in [0, 1] and only quantized to 8 or 16
bit rasters at the output boundary.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "StreamError",
    "OutOfBoundsEvent",
    "NonMonotonicTimestamps",
    "EventArray",
    "SensorGeometry",
    "FrameSpec",
    "EventFrame",
    "SliceMethod",
    "PolarityMode",
    "DecayKind",
    "Decay",
    "AccumulatorConfig",
    "neutral_value",
    "quantize_frame",
]


class StreamError(ValueError):
    """An event stream violated its declared contract."""


class OutOfBoundsEvent(StreamError):
    """Event coordinates fall outside the sensor geometry."""


class NonMonotonicTimestamps(StreamError):
    """Event timestamps decreased within a stream."""


@dataclass(frozen=True)
class SensorGeometry:
    """Sensor resolution in pixels."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @classmethod
    def from_string(cls, text: str) -> "SensorGeometry":
        """Parse a WIDTHxHEIGHT string such as "240x180"."""
        parts = text.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"geometry must look like WIDTHxHEIGHT, got {text!r}")
        try:
            w, h = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"geometry must look like WIDTHxHEIGHT, got {text!r}") from None
        return cls(w, h)


# Former name of the frame geometry, kept because bench/ still passes
# FrameSpec(width, height) to accumulate_stream.  Delete it once bench/
# builds a SensorGeometry.
FrameSpec = SensorGeometry


@dataclass(frozen=True, eq=False)
class EventArray:
    """A time-ordered batch of events stored as columns.

    This is the only event carrier: slices hold one, the synthetic
    generator returns one, and readers yield them in chunks.  Columns are
    immutable once constructed.  Slicing returns a view-backed
    :class:`EventArray`; single events are read from the columns.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    @classmethod
    def from_columns(
        cls,
        t: Iterable[float],
        x: Iterable[int],
        y: Iterable[int],
        p: Iterable[int],
    ) -> "EventArray":
        ta = np.ascontiguousarray(t, dtype=np.float64)
        xa = np.ascontiguousarray(x, dtype=np.int32)
        ya = np.ascontiguousarray(y, dtype=np.int32)
        pa = np.ascontiguousarray(p, dtype=np.int8)
        if not (len(xa) == len(ya) == len(pa) == len(ta)):
            raise ValueError("event columns must have equal length")
        if len(ta):
            if not np.isfinite(ta).all() or float(ta[0]) < 0.0:
                raise ValueError("event timestamps must be finite and >= 0")
            drops = np.diff(ta) < 0.0
            if drops.any():
                i = int(np.argmax(drops))
                raise NonMonotonicTimestamps(
                    f"timestamps decreased: {float(ta[i])} followed by {float(ta[i + 1])}"
                )
            if not np.isin(pa, (-1, 1)).all():
                raise ValueError("event polarities must be +1 or -1")
            if np.any(xa < 0) or np.any(ya < 0):
                raise ValueError("event coordinates must be non-negative")
        for a in (ta, xa, ya, pa):
            a.setflags(write=False)
        return cls(ta, xa, ya, pa)

    @classmethod
    def empty(cls) -> "EventArray":
        """The empty batch: one shared instance, as its columns are read-only."""
        return _EMPTY_EVENTS

    @classmethod
    def concatenate(cls, parts: Iterable["EventArray"]) -> "EventArray":
        parts = [a for a in parts if len(a)]
        if not parts:
            return cls.empty()
        for prev, nxt in zip(parts, parts[1:]):
            if nxt.t[0] < prev.t[-1]:
                raise NonMonotonicTimestamps(
                    f"timestamp decreases across batches: "
                    f"{float(prev.t[-1])} then {float(nxt.t[0])}"
                )
        if len(parts) == 1:
            return parts[0]
        columns = (
            np.concatenate([a.t for a in parts]),
            np.concatenate([a.x for a in parts]),
            np.concatenate([a.y for a in parts]),
            np.concatenate([a.p for a in parts]),
        )
        for column in columns:
            column.setflags(write=False)
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: slice) -> "EventArray":
        if not isinstance(key, slice):
            raise TypeError(f"EventArray takes slices only, got {type(key).__name__}")
        return EventArray(self.t[key], self.x[key], self.y[key], self.p[key])


_EMPTY_EVENTS = EventArray.from_columns([], [], [], [])


@dataclass(frozen=True, eq=False)
class EventFrame:
    """A published frame of normalized pixel state.

    Attributes:
        spec: sensor geometry of the raster.
        pixels: (height, width) float array with values in [0, 1],
            row-major, read-only.
        stamp: publish timestamp in seconds.
        held: True when this frame republishes the previous pixel state
            because too few events arrived in the interval.
    """

    spec: SensorGeometry
    pixels: np.ndarray
    stamp: float
    held: bool = False

    def __post_init__(self) -> None:
        px = self.pixels
        if px.shape != (self.spec.height, self.spec.width):
            raise ValueError(
                f"pixel buffer shape {px.shape} does not match spec "
                f"{self.spec.height}x{self.spec.width}"
            )
        if px.dtype != np.float64:
            raise ValueError(f"pixel buffer must be float64, got {px.dtype}")
        # An idle tick's frame is one value broadcast with zero strides;
        # checking that value checks every pixel.
        values = px if any(px.strides) else px[:1, :1]
        # NaN fails every comparison, so only values inside the range pass.
        if values.size and not (0.0 <= float(values.min()) and float(values.max()) <= 1.0):
            raise ValueError("pixel values must stay within [0, 1]")
        px.setflags(write=False)


class SliceMethod(enum.Enum):
    """How a stream is cut into per-frame slices."""

    BY_NUMBER = "number"
    BY_TIME = "time"
    BY_TIME_AND_NUMBER = "time-number"

    @property
    def uses_interval(self) -> bool:
        return self is not SliceMethod.BY_NUMBER

    @property
    def uses_window(self) -> bool:
        return self is not SliceMethod.BY_TIME

    def check(self, window_size: Optional[int], interval: Optional[float]) -> None:
        """Reject a window size or interval this method uses that is out of range.

        A setting the method ignores is not checked, so it may be None.
        """
        if self.uses_window and (window_size is None or window_size < 1):
            raise ValueError(f"window size must be >= 1, got {window_size}")
        if self.uses_interval and (interval is None or not interval > 0.0):
            raise ValueError(f"interval must be > 0, got {interval}")
        if self.uses_interval and interval == math.inf:
            raise ValueError(f"interval must be finite, got {interval}")


class PolarityMode(enum.Enum):
    """Whether polarity is kept or rectified away during integration."""

    RECTIFIED = "rectified"
    SIGNED = "signed"


class DecayKind(enum.Enum):
    STEP = "step"
    LINEAR = "linear"
    EXPONENTIAL = "exp"


@dataclass(frozen=True)
class Decay:
    """Decay applied to pixel state as event time advances.

    STEP resets the frame at every slice, so parameters are ignored.
    LINEAR moves values toward neutral at `rate` per second and stops
    exactly at neutral.  EXPONENTIAL relaxes values toward neutral with
    time constant `tau` seconds and never crosses it.

    The defaults (rate 1.0/s, tau 0.1s) are illustrative starting
    points, not tuned values.
    """

    kind: DecayKind
    rate: float = 1.0
    tau: float = 0.1

    def __post_init__(self) -> None:
        if self.kind is DecayKind.LINEAR and not self.rate > 0.0:
            raise ValueError(f"linear decay rate must be > 0, got {self.rate}")
        if self.kind is DecayKind.LINEAR and self.rate == math.inf:
            # rate * dt would be inf * 0 = nan at a pixel's first event.
            raise ValueError(f"linear decay rate must be finite, got {self.rate}")
        if self.kind is DecayKind.EXPONENTIAL and not self.tau > 0.0:
            raise ValueError(f"exponential decay tau must be > 0, got {self.tau}")

    @classmethod
    def step(cls) -> "Decay":
        return cls(DecayKind.STEP)

    @classmethod
    def linear(cls, rate: float = 1.0) -> "Decay":
        return cls(DecayKind.LINEAR, rate=rate)

    @classmethod
    def exponential(cls, tau: float = 0.1) -> "Decay":
        return cls(DecayKind.EXPONENTIAL, tau=tau)


@dataclass(frozen=True)
class AccumulatorConfig:
    """Full accumulation policy for one run.

    Attributes:
        slice_method: how the stream is cut into slices.
        window_size: event count N per slice (ignored by BY_TIME).
        interval: publish period in seconds (ignored by BY_NUMBER).
        contribution: potential added per event, in (0, 1].
        polarity_mode: rectified or signed integration.
        decay: per-pixel decay policy.  LINEAR and EXPONENTIAL keep a
            buffer that needs disjoint slices, so not BY_TIME_AND_NUMBER.
        no_motion_threshold: when > 0 and fewer events than this arrive
            in a publish interval, the previous frame is republished.
            0 disables the check.  BY_NUMBER slices always carry
            window_size events, so there it may not exceed window_size.
    """

    slice_method: SliceMethod = SliceMethod.BY_TIME_AND_NUMBER
    window_size: int = 10000
    interval: float = 1.0 / 30.0
    contribution: float = 0.2
    polarity_mode: PolarityMode = PolarityMode.RECTIFIED
    decay: Decay = field(default_factory=Decay.step)
    no_motion_threshold: int = 0

    def __post_init__(self) -> None:
        self.slice_method.check(self.window_size, self.interval)
        if not (0.0 < self.contribution <= 1.0):
            raise ValueError(f"contribution must be in (0, 1], got {self.contribution}")
        if self.no_motion_threshold < 0:
            raise ValueError(
                f"no-motion threshold must be >= 0, got {self.no_motion_threshold}"
            )
        if (
            self.slice_method is SliceMethod.BY_NUMBER
            and self.no_motion_threshold > self.window_size
        ):
            # Every BY_NUMBER slice counts exactly window_size events.
            raise ValueError(
                f"no_motion_threshold {self.no_motion_threshold} exceeds window_size "
                f"{self.window_size}: slicing by number would hold every frame"
            )
        if (
            self.slice_method is SliceMethod.BY_TIME_AND_NUMBER
            and self.decay.kind is not DecayKind.STEP
        ):
            # A decaying buffer integrates each event once; overlapping
            # windows would hand it events it already holds.
            raise ValueError(
                f"decay {self.decay.kind.value} needs disjoint slices, but slice_method "
                f"{self.slice_method.value} windows overlap; slice by time or number"
            )


def neutral_value(polarity_mode: PolarityMode) -> float:
    """Resting pixel value: 0.0 rectified, 0.5 signed.

    Signed frames keep headroom on both sides of neutral so negative
    events can darken below the resting gray.
    """
    return 0.0 if polarity_mode is PolarityMode.RECTIFIED else 0.5


def quantize_frame(frame: EventFrame, bit_depth: int = 8) -> np.ndarray:
    """Quantize normalized pixels to an unsigned integer raster.

    Values map linearly onto [0, 2**bits - 1] with ties rounded half
    away from zero, so 0.5 at 8 bit becomes 128, 0.0 becomes 0 and 1.0
    becomes the full-scale value exactly.
    """
    if bit_depth == 8:
        dtype = np.uint8
    elif bit_depth == 16:
        dtype = np.uint16
    else:
        raise ValueError(f"bit depth must be 8 or 16, got {bit_depth}")
    max_value = (1 << bit_depth) - 1
    # Pixels are in [0, 1], so round-half-away-from-zero is floor(x + 0.5).
    return np.floor(frame.pixels * max_value + 0.5).astype(dtype)
