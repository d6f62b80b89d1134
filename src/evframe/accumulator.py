"""Integrating event slices into normalized frames.

Each event adds a contribution c to its pixel's potential, clamped to
[0, 1].  In RECTIFIED mode both polarities add the same positive
contribution onto a neutral value of 0.0, so the frame ignores the sign
of brightness change.  In SIGNED mode positive events add and negative
events subtract around a neutral value of 0.5.

Decay controls what survives between slices.  STEP resets the frame for
every slice, so a frame is exactly its slice and nothing older.  LINEAR
and EXPONENTIAL keep a persistent pixel buffer that relaxes toward
neutral as event time advances; integration interleaves decay up to
each event's timestamp with the event's contribution, then decays the
whole buffer to the publish stamp.

Decay acts on each pixel alone, so a slice is integrated pixel by
pixel: its events are grouped by pixel in time order, and each event,
decay from the pixel's previous event included, is one map of the
pixel value.  Nearly every mode's map has the form
x -> clip(a*x + b, lo, hi) with a > 0:

* exponential decay by dt then +s: a = exp(-dt/tau),
  b = neutral*(1 - a) + s, bounds [0, 1];
* signed STEP: a = 1, b = +-c, bounds [0, 1];
* rectified linear decay by dt then +c: a = 1, b = c - rate*dt,
  bounds [c, 1].

That family is closed under composition, so `_compose_runs` reduces
each pixel's maps to one in ceil(log2 n) vectorized passes for a pixel
with n events, and the pixel's value is that map applied to its
carried value.  Signed linear decay is a soft threshold toward 0.5,
which is not in the family; it runs one vectorized pass per event rank
(the k-th event of every pixel at once), so its loop count is the most
events any pixel has in the slice.  Rectified STEP is a clipped
per-pixel count.

Rounding: where no ordering of a pixel's events could reach a clamp,
STEP computes count*c, one rounding, the float closest to the exact
value.  Elsewhere the composed maps round in a different order than
event-by-event integration and agree with it to within 1e-12; with a
power-of-two c every partial sum is exact and signed STEP matches it
bit for bit.

When too few events arrived in a publish interval the previous frame is
republished unchanged (a "hold"), which keeps downstream consumers fed
during motion pauses instead of handing them an empty frame.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    AccumulatorConfig,
    Decay,
    DecayKind,
    EventFrame,
    FrameSpec,
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    PolarityMode,
    SensorGeometry,
    neutral_value,
)
from .slicer import Slice, detect_no_motion

__all__ = [
    "AccumulatorCarry",
    "FrameAccumulator",
    "apply_decay",
    "reset_frame",
    "accumulate_slice",
    "hold_previous",
]


@dataclass(frozen=True)
class AccumulatorCarry:
    """State carried from one published frame to the next.

    Attributes:
        previous_frame: the last published frame, used by holds.
        buffer: persistent pixel potentials for LINEAR / EXPONENTIAL
            decay, already decayed to `buffer_time`.  None under STEP.
        buffer_time: timestamp the buffer is normalized to.
    """

    previous_frame: Optional[EventFrame] = None
    buffer: Optional[np.ndarray] = None
    buffer_time: Optional[float] = None


def reset_frame(geometry: SensorGeometry, polarity_mode: PolarityMode) -> np.ndarray:
    """Fresh pixel buffer at the neutral value everywhere."""
    return np.full((geometry.height, geometry.width), neutral_value(polarity_mode))


def apply_decay(
    pixels: np.ndarray,
    dt: float,
    decay: Decay,
    neutral: float,
) -> np.ndarray:
    """Relax pixel potentials toward neutral across a time gap.

    STEP leaves the buffer untouched (slice reset happens elsewhere).
    LINEAR subtracts rate * dt from the distance to neutral, stopping
    exactly at neutral.  EXPONENTIAL scales the distance by
    exp(-dt / tau), which preserves its sign for every dt.
    Returns a new array.
    """
    if dt < 0.0:
        raise ValueError(f"decay over a negative interval: dt={dt}")
    if decay.kind is DecayKind.STEP or dt == 0.0:
        return pixels.copy()
    return _decay_values(pixels, dt, decay, neutral)


def _decay_values(pixels: np.ndarray, dt, decay: Decay, neutral: float) -> np.ndarray:
    """Decay with scalar or per-pixel dt (array dt used by lazy updates)."""
    d = pixels - neutral
    if decay.kind is DecayKind.LINEAR:
        mag = np.abs(d) - decay.rate * dt
        np.maximum(mag, 0.0, out=mag)
        return neutral + np.sign(d) * mag
    return neutral + d * np.exp(-np.asarray(dt) / decay.tau)


def _validate_slice_events(slc: Slice, spec: FrameSpec) -> None:
    ev = slc.events
    if len(ev) == 0:
        return
    if np.any(ev.x >= spec.width) or np.any(ev.y >= spec.height):
        bad = int(np.argmax((ev.x >= spec.width) | (ev.y >= spec.height)))
        raise OutOfBoundsEvent(
            f"event at ({int(ev.x[bad])}, {int(ev.y[bad])}) outside "
            f"{spec.width}x{spec.height} frame"
        )
    if np.any(np.diff(ev.t) < 0.0):
        raise NonMonotonicTimestamps("slice events are not in time order")


def _pixel_runs(idx: np.ndarray):
    """Group a slice's events by pixel, keeping time order inside each group.

    Returns `order` (the stable argsort of `idx`), the sorted pixel
    indices, the position in `order` where each pixel's run starts, and
    every event's rank inside its run.
    """
    n = len(idx)
    # Unique keys make the default sort stable, and it beats kind="stable".
    order = np.argsort(idx * n + np.arange(n))
    pix = idx[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(pix[1:], pix[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=n)
    rank = np.arange(n) - np.repeat(starts, lengths)
    return order, pix, starts, rank


def _compose_runs(a, b, lo, hi, starts, rank):
    """Compose each run of maps x -> clip(a*x + b, lo, hi), earliest first.

    This is the up-sweep of a segmented prefix scan (Blelloch 1990): at
    stride s every element whose distance to its run's end is a multiple
    of 2s absorbs the element s places earlier, so after ceil(log2 L)
    passes the last element of a run of length L holds the whole run.
    The family is closed under composition because a > 0 lets a clamp
    move through the affine step.  The arrays are overwritten.  Returns
    the composed (a, b, lo, hi) of each run, in run order.
    """
    lengths = np.diff(starts, append=len(a))
    ends = starts + lengths - 1
    to_end = np.repeat(ends, lengths) - np.arange(len(a))
    j = np.arange(len(a))
    stride = 1
    longest = lengths.max()
    while stride < longest:
        j = j[(to_end[j] % (2 * stride) == 0) & (rank[j] >= stride)]
        i = j - stride
        a2, b2, lo2, hi2 = a[j], b[j], lo[j], hi[j]
        a[j] = a2 * a[i]
        b[j] = a2 * b[i] + b2
        lo[j] = np.clip(a2 * lo[i] + b2, lo2, hi2)
        hi[j] = np.clip(a2 * hi[i] + b2, lo2, hi2)
        stride *= 2
    return a[ends], b[ends], lo[ends], hi[ends]


def _integrate_step(slc: Slice, config: AccumulatorConfig, spec: FrameSpec) -> np.ndarray:
    """Vectorized from-reset integration for STEP decay.

    Per-pixel counting is exact for RECTIFIED (the running value is
    monotone, so clamping commutes with summing).  For SIGNED the net
    sum is only used where no ordering of the pixel's events could have
    touched a clamp; the pixels that could are composed in order by
    `_compose_runs`.  Counting rounds once (count * c) instead of once
    per event, which is the closest float64 to the real-arithmetic
    pixel value.
    """
    ev = slc.events
    h, w = spec.height, spec.width
    c = config.contribution
    if config.polarity_mode is PolarityMode.RECTIFIED:
        if len(ev) == 0:
            return np.zeros((h, w))
        idx = ev.y.astype(np.intp) * w + ev.x.astype(np.intp)
        counts = np.bincount(idx, minlength=h * w)
        return np.minimum(counts.reshape(h, w) * c, 1.0)

    pixels = np.full((h, w), 0.5)
    if len(ev) == 0:
        return pixels
    idx = ev.y.astype(np.intp) * w + ev.x.astype(np.intp)
    pos = np.bincount(idx[ev.p > 0], minlength=h * w)
    neg = np.bincount(idx[ev.p < 0], minlength=h * w)
    # Worst-case prefix excursion per pixel: all of one sign first.
    clampable = (0.5 + c * pos > 1.0) | (0.5 - c * neg < 0.0)
    flat = np.clip(0.5 + c * (pos.astype(np.float64) - neg), 0.0, 1.0)
    if clampable.any():
        replay = clampable[idx]
        order, pix, starts, rank = _pixel_runs(idx[replay])
        b = np.where(ev.p[replay][order] > 0, c, -c)
        n = len(b)
        a, b, lo, hi = _compose_runs(np.ones(n), b, np.zeros(n), np.ones(n), starts, rank)
        flat[pix[starts]] = np.clip(a * 0.5 + b, lo, hi)
    return flat.reshape(h, w)


def _integrate_signed_linear(flat, pix, starts, rank, dt, signs, rate: float) -> None:
    """Signed LINEAR integration in place, one vectorized pass per event rank.

    Linear decay toward 0.5 is a soft threshold, which is not of the
    form clip(a*x + b, lo, hi), so these events cannot be composed.
    Instead the k-th event of every pixel is integrated in the same
    pass; a pixel appears at most once per rank, so the gather and the
    scatter never collide.  The loop runs once per rank, not per event.
    """
    touched = pix[starts]
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(pix)))
    by_rank = np.argsort(rank, kind="stable")
    run, signs = run[by_rank], signs[by_rank]
    width = rate * dt[by_rank]
    neg_width = -width
    # Signed distance of each touched pixel from neutral.
    u = flat[touched] - 0.5
    bounds = np.cumsum(np.bincount(rank)).tolist()
    for lo, hi in zip([0] + bounds, bounds):
        p = run[lo:hi]
        d = u[p]
        # d - clip(d, -w, w) moves d toward 0 by w and stops at 0.
        d -= np.maximum(np.minimum(d, width[lo:hi]), neg_width[lo:hi])
        d += signs[lo:hi]
        u[p] = np.minimum(np.maximum(d, -0.5, out=d), 0.5, out=d)
    flat[touched] = u + 0.5


def _integrate_decaying(
    slc: Slice,
    config: AccumulatorConfig,
    spec: FrameSpec,
    carry: AccumulatorCarry,
) -> np.ndarray:
    """Persistent-buffer integration for LINEAR / EXPONENTIAL decay.

    Decay acts on each pixel independently, so it can be applied
    lazily: each pixel is decayed from its own last touch to the event
    (or publish) timestamp, which matches advancing the whole frame to
    every event time in order.  Each event is then one map
    x -> clip(a*x + b, lo, hi) of its pixel, and each pixel's maps are
    composed by `_compose_runs`; signed LINEAR, outside that family,
    goes through `_integrate_signed_linear`.
    """
    ev = slc.events
    neutral = neutral_value(config.polarity_mode)
    if carry.buffer is not None:
        flat = carry.buffer.ravel().copy()
        start = carry.buffer_time
    else:
        flat = reset_frame(spec.geometry, config.polarity_mode).ravel()
        start = float(ev.t[0]) if len(ev) else slc.publish_stamp
    if len(ev) and float(ev.t[0]) < start:
        raise ValueError(
            "slice reaches back before the accumulated buffer; overlapping "
            "windows cannot be combined with a decaying buffer"
        )
    c = config.contribution
    decay = config.decay
    last_touch = np.full(flat.shape, start)
    if len(ev):
        idx = ev.y.astype(np.intp) * spec.width + ev.x.astype(np.intp)
        order, pix, starts, rank = _pixel_runs(idx)
        t = ev.t[order]
        dt = np.diff(t, prepend=start)
        dt[starts] = t[starts] - start
        if config.polarity_mode is PolarityMode.SIGNED:
            s = np.where(ev.p[order] > 0, c, -c)
        else:
            s = np.full(len(t), c)
        if config.polarity_mode is PolarityMode.SIGNED and decay.kind is DecayKind.LINEAR:
            _integrate_signed_linear(flat, pix, starts, rank, dt, s, decay.rate)
        else:
            if decay.kind is DecayKind.LINEAR:
                # Rectified: x -> min(max(x - r*dt, 0) + c, 1).
                a = np.ones(len(t))
                b = s - decay.rate * dt
                lo = np.full(len(t), c)
            else:
                a = np.exp(-dt / decay.tau)
                b = neutral * (1.0 - a) + s
                lo = np.zeros(len(t))
            a, b, lo, hi = _compose_runs(a, b, lo, np.ones(len(t)), starts, rank)
            touched = pix[starts]
            flat[touched] = np.clip(a * flat[touched] + b, lo, hi)
        ends = np.append(starts[1:], len(t)) - 1
        last_touch[pix[ends]] = t[ends]
    remaining = slc.publish_stamp - last_touch
    if float(remaining.min()) < 0.0:
        raise ValueError("slice events run past the publish stamp")
    return _decay_values(flat, remaining, decay, neutral).reshape(spec.height, spec.width)


def accumulate_slice(
    slc: Slice,
    config: AccumulatorConfig,
    spec: FrameSpec,
    carry: Optional[AccumulatorCarry] = None,
) -> Tuple[EventFrame, AccumulatorCarry]:
    """Integrate one slice and publish the resulting frame.

    Returns the frame plus the carry to hand to the next call.  STEP
    decay starts from a fresh neutral buffer, so the carry only tracks
    the published frame; the other decays continue from the carried
    buffer.
    """
    if carry is None:
        carry = AccumulatorCarry()
    _validate_slice_events(slc, spec)
    if config.decay.kind is DecayKind.STEP:
        pixels = _integrate_step(slc, config, spec)
        buffer = carry.buffer
        buffer_time = carry.buffer_time
    else:
        pixels = _integrate_decaying(slc, config, spec, carry)
        buffer = pixels.copy()
        buffer.setflags(write=False)
        buffer_time = slc.publish_stamp
    frame = EventFrame(spec=spec, pixels=pixels, stamp=slc.publish_stamp, held=False)
    new_carry = AccumulatorCarry(
        previous_frame=frame, buffer=buffer, buffer_time=buffer_time
    )
    return frame, new_carry


def hold_previous(
    carry: AccumulatorCarry,
    publish_stamp: float,
    spec: FrameSpec,
    polarity_mode: PolarityMode,
) -> EventFrame:
    """Republish the previous frame at a new stamp, flagged as held.

    The pixel buffer is shared byte for byte with the previous frame.
    Before anything has been published, a neutral frame is emitted
    instead (still flagged held).
    """
    prev = carry.previous_frame
    if prev is None:
        pixels = reset_frame(spec.geometry, polarity_mode)
        return EventFrame(spec=spec, pixels=pixels, stamp=publish_stamp, held=True)
    return EventFrame(
        spec=prev.spec, pixels=prev.pixels, stamp=publish_stamp, held=True
    )


class FrameAccumulator:
    """Stateful slice-to-frame driver combining accumulation and holds.

    Feed it slices in publish order; it applies the configured
    no-motion hold and keeps the carry between calls.
    """

    def __init__(self, config: AccumulatorConfig, spec: FrameSpec) -> None:
        if spec.width < 1 or spec.height < 1:
            raise ValueError("frame spec must cover at least one pixel")
        self._config = config
        self._spec = spec
        self._carry = AccumulatorCarry()

    @property
    def carry(self) -> AccumulatorCarry:
        return self._carry

    def process(self, slc: Slice) -> EventFrame:
        if detect_no_motion(slc.interval_event_count, self._config.no_motion_threshold):
            frame = hold_previous(
                self._carry, slc.publish_stamp, self._spec, self._config.polarity_mode
            )
            self._carry = replace(self._carry, previous_frame=frame)
            return frame
        frame, self._carry = accumulate_slice(slc, self._config, self._spec, self._carry)
        return frame
