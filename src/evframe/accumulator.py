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
carried value.  Rectified STEP is a clipped per-pixel count, and an
empty STEP slice publishes one shared read-only neutral buffer.

Signed linear decay is a soft threshold toward 0.5, which is not in the
family.  While many pixels share an event rank it runs one vectorized
pass per rank (the k-th event of every pixel at once).  The deep tails
beyond, where a pass would integrate only a few pixels, split each
event by its prior's sign.  With u the distance from 0.5 and
w = rate*dt, the event is P(u) = clip(u + s - w, clip(s), 1/2) for
every u >= -w and N(u) = clip(u + s + w, -1/2, clip(s)) for every
u <= w, both in the family with a = 1.  `_speculate` guesses each
prior's sign, composes the guessed branches with one inclusive scan
into every prior state, and keeps what verifies: everything before a
run's first prior outside its branch's domain is exact.  Windows grow
while the checks pass, a cost budget bounds the failed rounds, and rank
passes finish what speculation leaves.  Only the run depths in the
slice choose between passes and scans.

Rounding: where no ordering of a pixel's events could reach a clamp,
STEP computes count*c, one rounding, the float closest to the exact
value.  Elsewhere the composed maps, speculated signed linear runs
included, round in a different order than event-by-event integration
and agree with it to within 1e-12; with a power-of-two c every partial
sum is exact and signed STEP matches it bit for bit.

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
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    PolarityMode,
    SensorGeometry,
    neutral_value,
)
from .slicer import Slice

__all__ = [
    "AccumulatorCarry",
    "FrameAccumulator",
    "apply_decay",
    "accumulate_slice",
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


# One read-only value per polarity mode; every neutral frame of every
# geometry is a zero-stride view of it, so idle gaps allocate no pixels.
_NEUTRAL = {mode: np.broadcast_to(neutral_value(mode), ()) for mode in PolarityMode}


def _neutral_pixels(geometry: SensorGeometry, polarity_mode: PolarityMode) -> np.ndarray:
    """Read-only neutral pixels of `geometry`'s shape, sharing one buffer."""
    return np.broadcast_to(_NEUTRAL[polarity_mode], (geometry.height, geometry.width))


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


def _validate_slice_events(slc: Slice, geometry: SensorGeometry) -> None:
    ev = slc.events
    if len(ev) == 0:
        return
    w, h = geometry.width, geometry.height
    if np.any(ev.x >= w) or np.any(ev.y >= h):
        bad = int(np.argmax((ev.x >= w) | (ev.y >= h)))
        raise OutOfBoundsEvent(
            f"event at ({int(ev.x[bad])}, {int(ev.y[bad])}) outside {w}x{h} frame"
        )
    if np.any(np.diff(ev.t) < 0.0):
        raise NonMonotonicTimestamps("slice events are not in time order")


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys, 16 bits per pass.

    numpy sorts 16-bit keys stably by radix, which beats a comparison
    sort of wider keys.  Keys of 2**16 or more take one more pass per
    further 16 bits, least significant first.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # casting keeps the low bits
    top = int(keys.max()) if len(keys) else 0
    shift = 16
    while top >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _pixel_runs(idx: np.ndarray):
    """Group a slice's events by pixel, keeping time order inside each group.

    Returns `order` (the stable argsort of `idx`), the sorted pixel
    indices, the position in `order` where each pixel's run starts, and
    every event's rank inside its run.
    """
    n = len(idx)
    order = _stable_order(idx)
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


def _integrate_step(slc: Slice, config: AccumulatorConfig, geometry: SensorGeometry) -> np.ndarray:
    """Vectorized from-reset integration for STEP decay.

    Per-pixel counting is exact for RECTIFIED (the running value is
    monotone, so clamping commutes with summing).  For SIGNED the net
    sum is only used where no ordering of the pixel's events could have
    touched a clamp; the pixels that could are composed in order by
    `_compose_runs`.  Counting rounds once (count * c) instead of once
    per event, which is the closest float64 to the real-arithmetic
    pixel value.  An empty slice gets the shared read-only neutral
    pixels, so an idle gap costs no frame buffers.
    """
    ev = slc.events
    h, w = geometry.height, geometry.width
    c = config.contribution
    if len(ev) == 0:
        return _neutral_pixels(geometry, config.polarity_mode)
    idx = ev.y.astype(np.intp) * w + ev.x.astype(np.intp)
    if config.polarity_mode is PolarityMode.RECTIFIED:
        counts = np.bincount(idx, minlength=h * w)
        return np.minimum(counts.reshape(h, w) * c, 1.0)

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


# Signed LINEAR integration runs one vectorized pass per event rank
# while at least _SHARED_RANK pixels reach that rank.  Fewer pixels make
# a scan step cheaper per event than a pass, so the tails beyond are
# speculated if their first round would cost at most 1/_MIN_GAIN of
# their rank passes.  Costs are counted in rank passes: a round costs
# _ROUND_COST plus _CELL_COST per window cell and scan step.  A run's
# window starts at _FIRST_WINDOW events, grows fourfold while its checks
# pass and never exceeds _MAX_WINDOW.
_SHARED_RANK = 16
_MIN_GAIN = 8
_ROUND_COST = 40
_CELL_COST = 1 / 256
_FIRST_WINDOW = 256
_MAX_WINDOW = 4096


def _round_cost(rows: int, cols: int) -> float:
    """Estimated cost of one speculation round, in rank passes."""
    return _ROUND_COST + _CELL_COST * rows * cols * (cols - 1).bit_length()


def _rank_passes(u, run, rank, width, signs) -> None:
    """Apply u -> clip(soft(u, w) + s, -1/2, 1/2) to `u`, one pass per rank.

    `u` holds each run's distance from 0.5; event i belongs to run
    `run[i]` and is its `rank[i]`-th event.  The k-th event of every run
    is integrated in the same pass; a run appears at most once per rank,
    so the gather and the scatter never collide.
    """
    by_rank = _stable_order(rank)
    run, signs, width = run[by_rank], signs[by_rank], width[by_rank]
    neg_width = -width
    bounds = np.cumsum(np.bincount(rank)).tolist()
    for lo, hi in zip([0] + bounds, bounds):
        p = run[lo:hi]
        d = u[p]
        # d - clip(d, -w, w) moves d toward 0 by w and stops at 0.
        d -= np.maximum(np.minimum(d, width[lo:hi]), neg_width[lo:hi])
        d += signs[lo:hi]
        u[p] = np.minimum(np.maximum(d, -0.5, out=d), 0.5, out=d)


def _prior_states(x, b, lo, hi):
    """Orbits of the maps v -> clip(v + b, lo, hi) along each row, from `x`.

    Row r applies its maps in column order to x[r].  The first map and
    x[r] fold into a constant map, and an inclusive Hillis-Steele scan
    composes every prefix (a = 1 members of the family `_compose_runs`
    reduces), so each prefix is constant: lo == hi is the state after
    that column.  Returns the state before each column.  Overwrites the
    arrays.
    """
    lo[:, 0] = hi[:, 0] = np.minimum(np.maximum(x + b[:, 0], lo[:, 0]), hi[:, 0])
    stride = 1
    while stride < b.shape[1]:
        earlier, later = slice(None, -stride), slice(stride, None)
        new_lo = lo[:, earlier] + b[:, later]
        new_hi = hi[:, earlier] + b[:, later]
        for v in (new_lo, new_hi):
            np.maximum(v, lo[:, later], out=v)
            np.minimum(v, hi[:, later], out=v)
        lo[:, later] = new_lo
        hi[:, later] = new_hi
        b[:, later] += b[:, earlier]
        stride *= 2
    return np.concatenate([x[:, None], lo[:, :-1]], axis=1)


def _speculate(u, runs, first, count, width, signs, c: float) -> None:
    """Integrate deep run tails by speculative scans, in place.

    Run `runs[r]` has `count[r]` events left from index `first[r]`.  With
    w = rate*dt, an event is u -> clip(soft(u, w) + s, -1/2, 1/2), which
    equals P(u) = clip(u + s - w, clip(s), 1/2) wherever u >= -w and
    N(u) = clip(u + s + w, -1/2, clip(s)) wherever u <= w.  Each round
    guesses every prior sign in a window of each run from the orbit
    without decay (restarted at s where w >= c, as that gap wipes a
    typical state), composes the chosen branch with `_prior_states`, and
    checks that each prior lies in its branch's domain.  Everything up
    to a run's first failed check is exact; the failed event itself is
    integrated from its exact prior.  A run leaves speculation once its
    rounds have cost more rank passes than it resolved events, or when
    its rest is no longer than one already left; rank passes finish
    what speculation leaves.
    """
    x = u[runs]
    pos = np.zeros(len(runs), dtype=np.intp)
    window = np.full(len(runs), _FIRST_WINDOW)
    budget = np.zeros(len(runs))
    live = np.arange(len(runs))
    while live.size:
        size = np.minimum(window[live], count[live] - pos[live])
        cols = np.arange(int(size.max()))
        pad = cols >= size[:, None]
        events = (first[live] + pos[live])[:, None] + np.minimum(cols, size[:, None] - 1)
        w, s = width[events], signs[events]
        cs = np.clip(s, -0.5, 0.5)
        x0 = x[live]
        wiped = w >= c
        guess = _prior_states(
            x0, np.where(wiped, 0.0, s), np.where(wiped, cs, -0.5), np.where(wiped, cs, 0.5)
        )
        up = guess >= 0.0
        lo, hi = np.where(up, cs, -0.5), np.where(up, 0.5, cs)
        prior = _prior_states(x0, np.where(up, s - w, s + w), lo, hi)
        ok = np.where(up, prior >= -w, prior <= w) | pad
        rows = np.arange(len(live))
        bad = np.argmin(ok, axis=1)
        failed = ~ok[rows, bad]
        done = np.where(failed, bad, size)
        # The exact prior of the first failed event, or the window's result.
        state = np.where(failed, prior[rows, bad], lo[rows, size - 1])
        at = rows[failed], bad[failed]
        d = state[failed]
        d -= np.maximum(np.minimum(d, w[at]), -w[at])
        state[failed] = np.clip(d + s[at], -0.5, 0.5)
        x[live] = state
        done += failed
        pos[live] += done
        budget[live] += done - _round_cost(len(live), len(cols))
        window[live] = np.minimum(
            np.where(failed, np.maximum(_FIRST_WINDOW, 2 * done), 4 * window[live]), _MAX_WINDOW
        )
        live = live[(pos[live] < count[live]) & (budget[live] >= 0)]
        # The rank passes cost as many passes as the longest rest they
        # get, so a run whose rest is no longer joins them for free.
        rest = count - pos
        rest[live] = 0
        live = live[count[live] - pos[live] > rest.max()]
    u[runs] = x
    left = np.flatnonzero(pos < count)
    if left.size:
        n = count[left] - pos[left]
        rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        events = np.repeat(first[left] + pos[left], n) + rank
        _rank_passes(u, np.repeat(runs[left], n), rank, width[events], signs[events])


def _integrate_signed_linear(flat, pix, starts, rank, dt, signs, rate: float, c: float) -> None:
    """Signed LINEAR integration in place.

    Linear decay toward 0.5 is a soft threshold, which is not of the
    form clip(a*x + b, lo, hi), so these events cannot be composed as
    they come.  Ranks shared by many pixels run one pass per rank; the
    deep tails, where a pass would integrate only a few pixels, are
    speculated (`_speculate`).  The choice depends only on the run
    depths in the slice.
    """
    touched = pix[starts]
    lengths = np.diff(starts, append=len(pix))
    run = np.repeat(np.arange(len(starts)), lengths)
    width = rate * dt
    # Signed distance of each touched pixel from neutral.
    u = flat[touched] - 0.5
    # At least _SHARED_RANK pixels reach rank r iff the run that many
    # places from the longest is longer than r.
    shared = 0
    if len(lengths) >= _SHARED_RANK:
        shared = int(np.partition(lengths, -_SHARED_RANK)[-_SHARED_RANK])
    deep = np.flatnonzero(lengths > shared)
    depth = int(lengths.max()) - shared
    if depth < _MIN_GAIN * _round_cost(len(deep), min(depth, _FIRST_WINDOW)):
        _rank_passes(u, run, rank, width, signs)
    else:
        head = rank < shared
        _rank_passes(u, run[head], rank[head], width[head], signs[head])
        _speculate(u, deep, starts[deep] + shared, lengths[deep] - shared, width, signs, c)
    flat[touched] = u + 0.5


def _integrate_decaying(
    slc: Slice,
    config: AccumulatorConfig,
    geometry: SensorGeometry,
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
        flat = np.full(geometry.pixel_count, neutral)
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
        idx = ev.y.astype(np.intp) * geometry.width + ev.x.astype(np.intp)
        order, pix, starts, rank = _pixel_runs(idx)
        t = ev.t[order]
        dt = np.diff(t, prepend=start)
        dt[starts] = t[starts] - start
        if config.polarity_mode is PolarityMode.SIGNED:
            s = np.where(ev.p[order] > 0, c, -c)
        else:
            s = np.full(len(t), c)
        if config.polarity_mode is PolarityMode.SIGNED and decay.kind is DecayKind.LINEAR:
            _integrate_signed_linear(flat, pix, starts, rank, dt, s, decay.rate, c)
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
    return _decay_values(flat, remaining, decay, neutral).reshape(geometry.height, geometry.width)


def accumulate_slice(
    slc: Slice,
    config: AccumulatorConfig,
    geometry: SensorGeometry,
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
    _validate_slice_events(slc, geometry)
    if config.decay.kind is DecayKind.STEP:
        pixels = _integrate_step(slc, config, geometry)
        buffer = carry.buffer
        buffer_time = carry.buffer_time
    else:
        pixels = _integrate_decaying(slc, config, geometry, carry)
        # The frame makes its pixels read-only and the next slice copies
        # the buffer before writing, so the two can share memory.
        buffer = pixels
        buffer_time = slc.publish_stamp
    frame = EventFrame(spec=geometry, pixels=pixels, stamp=slc.publish_stamp, held=False)
    new_carry = AccumulatorCarry(
        previous_frame=frame, buffer=buffer, buffer_time=buffer_time
    )
    return frame, new_carry


class FrameAccumulator:
    """Stateful slice-to-frame driver combining accumulation and holds.

    Feed it slices in publish order; it applies the configured
    no-motion hold and keeps the carry between calls.
    """

    def __init__(self, config: AccumulatorConfig, geometry: SensorGeometry) -> None:
        self._config = config
        self._geometry = geometry
        self._carry = AccumulatorCarry()

    @property
    def carry(self) -> AccumulatorCarry:
        return self._carry

    def process(self, slc: Slice) -> EventFrame:
        threshold = self._config.no_motion_threshold
        if threshold and slc.interval_event_count < threshold:
            # A hold republishes the previous frame's pixels, shared byte
            # for byte, or the shared neutral pixels before any frame.
            prev = self._carry.previous_frame
            if prev is None:
                pixels = _neutral_pixels(self._geometry, self._config.polarity_mode)
            else:
                pixels = prev.pixels
            frame = EventFrame(self._geometry, pixels, slc.publish_stamp, held=True)
            self._carry = replace(self._carry, previous_frame=frame)
            return frame
        frame, self._carry = accumulate_slice(slc, self._config, self._geometry, self._carry)
        return frame
