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
whole buffer to the publish stamp.  A slice's cost follows its events:
every pixel the slice leaves untouched decays by the one interval
since the buffer's stamp, and only the touched pixels are integrated,
each then decayed from its own last event.

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
carried value.  Rectified STEP is a clipped per-pixel count, and so is
signed STEP on a pixel whose events share one sign, which is monotone;
only mixed-sign pixels that could reach a bound are composed.  An empty
STEP slice publishes one shared read-only neutral buffer.

Signed linear decay is a soft threshold toward 0.5, which is not in the
family.  Its events run one vectorized pass per event rank, the k-th
event of every pixel at once: with u the distance from 0.5 and
w = rate*dt, an event is u -> clip(u - clip(u, -w, w) + s, -1/2, 1/2).

A saturated pixel forgets its past.  Every event map is monotone and
clamps to [0, 1], so once some stretch of a pixel's events sends every
starting value to one value (the pixel clamped within it, or linear
decay stopped it at neutral), nothing before that stretch reaches the
frame.  A hot pixel clamps all the time, so a run longer than W =
`_SUFFIX` events is first integrated over its last W events alone.
Composed runs build the same end-aligned pairwise tree over those W
maps that `_compose_runs` would build; where it is a constant L (lo ==
hi), every later combination of the whole run keeps lo = hi = L
exactly, so L is bit for bit the full composition's value.  Signed
linear runs the last W events from both ends of the state range, u =
-1/2 and u = +1/2, as two rows of the rank passes; each event is
monotone in floating point, so the pixel's own orbit stays between the
two and ends where they end equal.  Runs whose last W events do not
decide them take the paths above over all their events.

Rounding: where a pixel's events share one sign, or where no ordering
of them could reach a clamp, STEP computes count*c, one rounding, the
float closest to the exact value.  Signed linear equals event-by-event
integration in u bit for bit, settled runs included.  Elsewhere the
composed maps round in a different order than event-by-event
integration and agree with it to within 1e-12; with a power-of-two c
every partial sum is exact and signed STEP matches it bit for bit.

When too few events arrived in a publish interval the previous frame is
republished unchanged (a "hold"), which keeps downstream consumers fed
during motion pauses instead of handing them an empty frame.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

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

__all__ = ["FrameAccumulator", "apply_decay"]


@lru_cache(maxsize=16)
def _neutral_pixels(geometry: SensorGeometry, polarity_mode: PolarityMode) -> np.ndarray:
    """Read-only neutral pixels of `geometry`'s shape, one view per mode.

    The view has zero strides and every idle frame shares it, so idle
    gaps allocate no pixels.
    """
    return np.broadcast_to(neutral_value(polarity_mode), (geometry.height, geometry.width))


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
        # d - clip(d, -w, w) moves d toward 0 by w and stops at 0.
        w = decay.rate * dt
        d -= np.clip(d, -w, w)
    else:
        d *= np.exp(-np.asarray(dt) / decay.tau)
    d += neutral
    return d


def _validate_slice_events(slc: Slice, geometry: SensorGeometry) -> None:
    ev = slc.events
    if len(ev) == 0:
        return
    w, h = geometry.width, geometry.height
    if ev.x.max() >= w or ev.y.max() >= h:
        bad = int(np.argmax((ev.x >= w) | (ev.y >= h)))
        raise OutOfBoundsEvent(
            f"event at ({int(ev.x[bad])}, {int(ev.y[bad])}) outside {w}x{h} frame"
        )
    if (ev.t[1:] < ev.t[:-1]).any():
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
    rank = np.arange(n) - np.repeat(starts, _run_lengths(starts, n))
    return order, pix, starts, rank


def _run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Length of each run of a sequence of `n` items, given the run starts."""
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = n - starts[-1]
    return lengths


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
    lengths = _run_lengths(starts, len(a))
    ends = starts + lengths - 1
    to_end = np.repeat(ends, lengths) - np.arange(len(a))
    j = np.arange(len(a))
    stride = 1
    longest = lengths.max()
    while stride < longest:
        # stride is a power of two, so the mask tests divisibility by 2*stride.
        j = j[(to_end[j] & (2 * stride - 1) == 0) & (rank[j] >= stride)]
        i = j - stride
        a2, b2, lo2, hi2 = a[j], b[j], lo[j], hi[j]
        a[j] = a2 * a[i]
        b[j] = a2 * b[i] + b2
        # Composed maps keep lo <= hi, so min(max()) is the clip.
        lo[j] = np.minimum(np.maximum(a2 * lo[i] + b2, lo2), hi2)
        hi[j] = np.minimum(np.maximum(a2 * hi[i] + b2, lo2), hi2)
        stride *= 2
    return a[ends], b[ends], lo[ends], hi[ends]


def _suffix_bounds(a, b, lo, hi, ends):
    """Bounds of the composition of the last _SUFFIX maps of each run.

    The runs end at `ends` and are longer than _SUFFIX.  Neighbouring
    pairs are composed, later after earlier, until one map is left:
    with a power-of-two window that is the end-aligned tree of
    `_compose_runs`, so the bounds equal, bit for bit, the ones it holds
    at each run's end after log2(_SUFFIX) passes.
    """
    cols = ends[:, None] - np.arange(_SUFFIX - 1, -1, -1)
    a, b, lo, hi = a[cols], b[cols], lo[cols], hi[cols]
    while a.shape[1] > 1:
        a1, b1, lo1, hi1 = a[:, 0::2], b[:, 0::2], lo[:, 0::2], hi[:, 0::2]
        a2, b2, lo2, hi2 = a[:, 1::2], b[:, 1::2], lo[:, 1::2], hi[:, 1::2]
        lo = np.minimum(np.maximum(a2 * lo1 + b2, lo2), hi2)
        hi = np.minimum(np.maximum(a2 * hi1 + b2, lo2), hi2)
        b = a2 * b1 + b2
        a = a2 * a1
    return lo[:, 0], hi[:, 0]


def _run_values(x, a, b, lo, hi, starts, rank):
    """Each run's maps x -> clip(a*x + b, lo, hi) applied in order to its x.

    A run longer than _SUFFIX whose last _SUFFIX maps compose to a
    constant (lo == hi) has that constant as its value: every later
    combination in `_compose_runs` keeps the end's lo = hi, so its
    clip(A*x + B, LO, HI) returns it too.  The other runs are composed
    whole.  The arrays may be overwritten.
    """
    lengths = _run_lengths(starts, len(a))
    values = np.empty(len(starts))
    rest = np.ones(len(starts), dtype=bool)
    deep = np.flatnonzero(lengths > _SUFFIX)
    if deep.size:
        low, high = _suffix_bounds(a, b, lo, hi, (starts + lengths - 1)[deep])
        constant = low == high
        values[deep[constant]] = low[constant]
        rest[deep[constant]] = False
        if not rest.any():
            return values
    if not rest.all():
        keep = np.repeat(rest, lengths)
        a, b, lo, hi, rank = a[keep], b[keep], lo[keep], hi[keep], rank[keep]
        x, lengths = x[rest], lengths[rest]
        starts = np.cumsum(lengths) - lengths
    a, b, lo, hi = _compose_runs(a, b, lo, hi, starts, rank)
    values[rest] = np.minimum(np.maximum(a * x + b, lo), hi)
    return values


def _integrate_step(slc: Slice, config: AccumulatorConfig, geometry: SensorGeometry) -> np.ndarray:
    """Vectorized from-reset integration for STEP decay.

    Per-pixel counting is exact wherever the running value is monotone,
    so clamping commutes with summing: every RECTIFIED pixel, and every
    SIGNED pixel whose events share one sign.  A mixed SIGNED pixel also
    takes its net sum where no ordering of its events could have touched
    a clamp; the mixed pixels that could are composed in order by
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

    order, pix, starts, rank = _pixel_runs(idx)
    lengths = _run_lengths(starts, len(idx))
    up = ev.p[order] > 0
    pos = np.add.reduceat(up, starts, dtype=np.intp)
    neg = lengths - pos
    values = np.minimum(np.maximum(0.5 + c * (pos - neg), 0.0), 1.0)
    # Worst-case prefix excursion of a mixed pixel: all of one sign first.
    clampable = (pos > 0) & (neg > 0) & ((0.5 + c * pos > 1.0) | (0.5 - c * neg < 0.0))
    if clampable.any():
        replay = np.repeat(clampable, lengths)
        b = np.where(up[replay], c, -c)
        n = len(b)
        runs = lengths[clampable]
        values[clampable] = _run_values(
            np.full(len(runs), 0.5),
            np.ones(n), b, np.zeros(n), np.ones(n), np.cumsum(runs) - runs, rank[replay],
        )
    flat = np.full(h * w, 0.5)
    flat[pix[starts]] = values
    return flat.reshape(h, w)


# A run longer than _SUFFIX events is first integrated over its last
# _SUFFIX events alone (`_run_values`, `_settle_suffixes`): a pixel that
# clamped within them has forgotten every earlier event.  On the
# benchmark's hot pixels the last 5-42 events decide every run.
# _SUFFIX must be a power of two, so that its pairwise tree is the
# end-aligned one of `_compose_runs`.
_SUFFIX = 64


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


def _settle_suffixes(u, ends, width, signs) -> np.ndarray:
    """Settle the runs that their last _SUFFIX events decide.

    The runs are consecutive: run r ends just before event `ends[r]`,
    and `u` holds each run's distance from 0.5.  Each event
    u -> clip(soft(u, w) + s, -1/2, 1/2) is monotone in floating point,
    so the orbits of a run's last _SUFFIX events from u = -1/2 and from
    u = +1/2 enclose its orbit from any state.  Both orbits of every run
    longer than _SUFFIX are rows of one state array, run by
    `_rank_passes`; where the two end equal, `u` takes that value.
    Returns which runs settled.
    """
    settled = np.zeros(len(ends), dtype=bool)
    deep = np.flatnonzero(np.diff(ends, prepend=0) > _SUFFIX)
    if not deep.size:
        return settled
    n = len(deep)
    orbit = np.repeat([-0.5, 0.5], n)
    events = (np.tile(ends[deep], 2) - np.arange(_SUFFIX, 0, -1)[:, None]).ravel()
    rows = np.tile(np.arange(2 * n), _SUFFIX)
    rank = np.repeat(np.arange(_SUFFIX), 2 * n)
    _rank_passes(orbit, rows, rank, width[events], signs[events])
    low, high = orbit.reshape(2, n)
    same = low == high
    settled[deep[same]] = True
    u[settled] = low[same]
    return settled


def _integrate_signed_linear(x, starts, rank, dt, signs, rate: float) -> np.ndarray:
    """Signed LINEAR integration of each run's pixel from its value `x`.

    Linear decay toward 0.5 is a soft threshold, which is not of the
    form clip(a*x + b, lo, hi), so these events cannot be composed.
    The runs that their last _SUFFIX events decide are settled first
    (`_settle_suffixes`); the events of the others run one pass per
    rank.  Returns the integrated values, run by run.
    """
    lengths = _run_lengths(starts, len(rank))
    run = np.repeat(np.arange(len(starts)), lengths)
    width = rate * dt
    # Signed distance of each touched pixel from neutral.
    u = x - 0.5
    settled = _settle_suffixes(u, starts + lengths, width, signs)
    if settled.any():
        left = np.repeat(~settled, lengths)
        run, rank, width, signs = run[left], rank[left], width[left], signs[left]
    _rank_passes(u, run, rank, width, signs)
    return u + 0.5


def _integrate_decaying(
    slc: Slice,
    config: AccumulatorConfig,
    geometry: SensorGeometry,
    integrated: Optional[EventFrame],
) -> np.ndarray:
    """Persistent-buffer integration for LINEAR / EXPONENTIAL decay.

    Decay acts on each pixel independently, so it can be applied
    lazily: each pixel is decayed from its own last touch to the event
    (or publish) timestamp, which matches advancing the whole frame to
    every event time in order.  The buffer is the pixels of
    `integrated`, the last integrated frame, at its stamp; before any
    it is neutral at the slice's first event.  The whole buffer is
    first decayed to the publish stamp by the one interval since its
    own stamp; the pixels the slice touches are then overwritten.
    Each event is one map x -> clip(a*x + b, lo, hi) of its pixel, and
    each pixel's maps are composed by `_compose_runs`; signed LINEAR,
    outside that family, goes through `_integrate_signed_linear`.  A
    touched pixel finally decays from its own last event to the
    publish stamp.
    """
    ev = slc.events
    stamp = slc.publish_stamp
    neutral = neutral_value(config.polarity_mode)
    if integrated is not None:
        buffer = integrated.pixels.ravel()
        start = integrated.stamp
    else:
        buffer = np.full(geometry.pixel_count, neutral)
        start = float(ev.t[0]) if len(ev) else stamp
    if len(ev) and float(ev.t[0]) < start:
        raise ValueError(
            "slice reaches back before the accumulated buffer; overlapping "
            "windows cannot be combined with a decaying buffer"
        )
    # Events are in time order and start no earlier than `start`.
    if stamp < (float(ev.t[-1]) if len(ev) else start):
        raise ValueError("slice events run past the publish stamp")
    c = config.contribution
    decay = config.decay
    out = _decay_values(buffer, stamp - start, decay, neutral)
    if len(ev):
        idx = ev.y.astype(np.intp) * geometry.width + ev.x.astype(np.intp)
        order, pix, starts, rank = _pixel_runs(idx)
        t = ev.t[order]
        dt = np.empty(len(t))
        np.subtract(t[1:], t[:-1], out=dt[1:])
        dt[starts] = t[starts] - start
        touched = pix[starts]
        x = buffer[touched]
        if config.polarity_mode is PolarityMode.SIGNED:
            s = np.where(ev.p[order] > 0, c, -c)
        else:
            s = np.full(len(t), c)
        if config.polarity_mode is PolarityMode.SIGNED and decay.kind is DecayKind.LINEAR:
            x = _integrate_signed_linear(x, starts, rank, dt, s, decay.rate)
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
            x = _run_values(x, a, b, lo, np.ones(len(t)), starts, rank)
        last = t[starts + _run_lengths(starts, len(t)) - 1]
        out[touched] = _decay_values(x, stamp - last, decay, neutral)
    return out.reshape(geometry.height, geometry.width)


class FrameAccumulator:
    """Integrates slices into frames, one slice at a time in publish order.

    Every slice's events are checked first.  A slice with fewer than
    `no_motion_threshold` events in its interval is a hold: it
    republishes the previous frame's pixels, shared byte for byte, or
    the shared neutral pixels before any frame, and its events are
    dropped.  Any other slice is integrated: STEP from a neutral frame,
    LINEAR / EXPONENTIAL from the last integrated frame, whose pixels
    and stamp are the decaying buffer and its time.  A held frame is
    never that buffer, so decay runs on from the last integrated stamp.
    """

    def __init__(self, config: AccumulatorConfig, geometry: SensorGeometry) -> None:
        self._config = config
        self._geometry = geometry
        self._previous: Optional[EventFrame] = None  # the last published frame
        self._integrated: Optional[EventFrame] = None  # the decaying buffer; None under STEP

    def process(self, slc: Slice) -> EventFrame:
        config, geometry = self._config, self._geometry
        _validate_slice_events(slc, geometry)
        threshold = config.no_motion_threshold
        if threshold and slc.interval_event_count < threshold:
            if self._previous is None:
                pixels = _neutral_pixels(geometry, config.polarity_mode)
            else:
                pixels = self._previous.pixels
            self._previous = EventFrame(geometry, pixels, slc.publish_stamp, held=True)
            return self._previous
        if config.decay.kind is DecayKind.STEP:
            frame = EventFrame(geometry, _integrate_step(slc, config, geometry), slc.publish_stamp)
        else:
            pixels = _integrate_decaying(slc, config, geometry, self._integrated)
            # The frame makes its pixels read-only and the next slice only
            # reads them, so the frame can be the buffer.
            frame = self._integrated = EventFrame(geometry, pixels, slc.publish_stamp)
        self._previous = frame
        return frame
