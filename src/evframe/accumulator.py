"""Integrating event slices into normalized frames.

README's "Accumulation and decay" section is the map of this module:
the per-event map x -> clip(a*x + b, lo, hi) of each mode, how
`_compose_runs` reduces a pixel's maps to one, and the modes that take
other paths (STEP counts, signed linear rank passes, the shared neutral
buffer of an empty STEP slice).  What follows are the contracts the
code must hold.

Rounding: where a pixel's events share one sign, or where no ordering
of them could reach a clamp, STEP computes count*c, one rounding, the
float closest to the exact value.  Signed linear equals event-by-event
integration in u bit for bit, settled runs included.  Elsewhere the
composed maps round in a different order than event-by-event
integration and agree with it to within 1e-12; with a power-of-two c
every partial sum is exact and signed STEP matches it bit for bit.

Suffix settling: every event map is monotone and clamps to [0, 1], so
once some stretch of a pixel's events sends every starting value to
one value, nothing before that stretch reaches the frame.  A run longer
than W = `_SUFFIX` events is first integrated over its last W events
alone.  Composed runs build the same end-aligned pairwise tree over
those W maps that `_compose_runs` would build; where it is a constant L
(lo == hi), every later combination of the whole run keeps lo = hi = L
exactly, so L is bit for bit the full composition's value.  Signed
linear runs the last W events from both ends of the state range,
u = -1/2 and u = +1/2, as two rows of the rank passes; each event is
monotone in floating point, so the pixel's own orbit stays between the
two and ends where they end equal.  Runs whose last W events do not
decide them take the full paths over all their events.

Groups: a slice's fixed cost is paid once per group.
`run_accumulation` announces every slice list that one push cut
(`FrameAccumulator._schedule`) before it calls `process` on each slice.
The first `process` call of a group takes the integrated slices that
follow it in that list, up to `_GROUP_EVENTS` events.  Each slice's
events are sorted by pixel, so the group's (slice, pixel) runs lie
slice by slice in one set of arrays, and one batched pass composes
every run's maps, settles every signed linear run that its last
_SUFFIX events decide, and counts every signed STEP run: the same maps
and the same end-aligned tree as for a slice alone, so the frames are
the same bit for bit.  Work arrays grow with the group's events and
runs, never with its slices times the pixel count.  Each `process`
call then only builds its own frame: it decays the carry by one
interval, applies the composed maps of its touched pixels (signed
linear: runs their few unsettled rank passes from the carried values),
decays them to the stamp, and returns the frame, so every frame reaches
the sink before the next is built.  A slice called alone is a group of
one.  Holds stay out of groups, and each slice starts from the last
integrated stamp.  A slice that fails a check ends its group, so the
frames before it are published before its own `process` call raises.
Rectified STEP keeps one `bincount` per slice.
"""
from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain
from typing import Deque, List, Optional

import numpy as np

from .core import (
    AccumulatorConfig,
    Decay,
    DecayKind,
    EventArray,
    EventFrame,
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    PolarityMode,
    SensorGeometry,
    neutral_value,
)
from .slicer import Slice

__all__ = ["FrameAccumulator"]


@lru_cache(maxsize=16)
def _neutral_pixels(geometry: SensorGeometry, polarity_mode: PolarityMode) -> np.ndarray:
    """Read-only neutral pixels of `geometry`'s shape, one view per mode.

    The view has zero strides and every idle frame shares it, so idle
    gaps allocate no pixels.
    """
    return np.broadcast_to(neutral_value(polarity_mode), (geometry.height, geometry.width))


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


def _event_fault(slc: Slice, geometry: SensorGeometry) -> Optional[ValueError]:
    """Why `slc`'s events cannot be integrated on `geometry`, or None."""
    ev = slc.events
    if len(ev) == 0:
        return None
    w, h = geometry.width, geometry.height
    if ev.x.max() >= w or ev.y.max() >= h:
        bad = int(np.argmax((ev.x >= w) | (ev.y >= h)))
        return OutOfBoundsEvent(
            f"event at ({int(ev.x[bad])}, {int(ev.y[bad])}) outside {w}x{h} frame"
        )
    if (ev.t[1:] < ev.t[:-1]).any():
        return NonMonotonicTimestamps("slice events are not in time order")
    return None


def _buffer_fault(slc: Slice, begin: float) -> Optional[ValueError]:
    """Why `slc` cannot extend a decaying buffer stamped `begin`, or None."""
    ev = slc.events
    if len(ev) and float(ev.t[0]) < begin:
        return ValueError(
            "slice reaches back before the accumulated buffer; overlapping "
            "windows cannot be combined with a decaying buffer"
        )
    # Events are in time order and start no earlier than `begin`.
    if slc.publish_stamp < (float(ev.t[-1]) if len(ev) else begin):
        return ValueError("slice events run past the publish stamp")
    return None


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


def _pixel_index(ev: EventArray, width: int) -> np.ndarray:
    """Row-major pixel index of each event."""
    idx = np.multiply(ev.y, width, dtype=np.intp)
    idx += ev.x
    return idx


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    """`arrays` end to end; a lone array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _pixel_runs(parts: List[np.ndarray]):
    """Group each part's events by pixel, keeping time order inside each group.

    `parts` holds each slice's pixel indices, and a run is one pixel's
    events in one part.  Each part is sorted on its own, stably, so the
    runs come part by part.  Returns `order` (the joined parts' argsort
    by part, then pixel), the sorted pixel indices, the position in
    `order` where each run starts, and each part's first run, followed
    by the number of runs.
    """
    orders, firsts = [], [0]
    for part in parts:
        if len(part):
            orders.append(_stable_order(part))
            if firsts[-1]:
                orders[-1] += firsts[-1]
        firsts.append(firsts[-1] + len(part))
    order = _joined(orders)
    pix = _joined(parts)[order]
    n = len(pix)
    first = np.ones(n, dtype=bool)
    np.not_equal(pix[1:], pix[:-1], out=first[1:])
    if len(parts) > 1:
        first[[at for at in firsts[1:-1] if at < n]] = True
    starts = np.flatnonzero(first)
    return order, pix, starts, np.searchsorted(starts, firsts).tolist()


def _run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Length of each run of a sequence of `n` items, given the run starts."""
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = n - starts[-1]
    return lengths


def _subruns(starts, lengths, chosen):
    """The chosen runs packed end to end, at a cost that follows their events.

    Returns the index of each of their events, the packed runs' starts,
    and each event's rank inside its run.
    """
    lengths = lengths[chosen]
    packed = np.cumsum(lengths) - lengths
    rank = np.arange(int(lengths.sum())) - np.repeat(packed, lengths)
    return rank + np.repeat(starts[chosen], lengths), packed, rank


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


class _ComposedRuns:
    """Each run of maps x -> clip(a*x + b, lo, hi) composed into one map.

    A run longer than _SUFFIX whose last _SUFFIX maps compose to a
    constant L (lo == hi) takes the map x -> L, (a, b, lo, hi) =
    (0, L, L, L): every later combination in `_compose_runs` keeps the
    end's lo = hi, so its clip(A*x + B, LO, HI) returns L too.  A run of
    one event keeps its map.  The other runs are composed whole.  When
    no run is constant and runs of more than one event hold over a
    quarter of the events, every run is composed in place at once,
    which spares the gathers.  Otherwise the runs left are packed end
    to end, so constant runs cost nothing past their suffix and single
    events no copies.  Writable arrays may be overwritten; read-only
    ones, such as broadcast constants, are copied first.
    """

    def __init__(self, a, b, lo, hi, starts) -> None:
        lengths = _run_lengths(starts, len(a))
        ends = starts + lengths - 1
        constant = np.flatnonzero(lengths > _SUFFIX)
        if constant.size:
            low, high = _suffix_bounds(a, b, lo, hi, ends[constant])
            constant, level = constant[low == high], low[low == high]
        if not constant.size and 4 * (len(a) - np.count_nonzero(lengths == 1)) > len(a):
            maps = (np.require(m, requirements="W") for m in (a, b, lo, hi))
            self.maps = _compose_runs(*maps, starts, np.arange(len(a)) - np.repeat(starts, lengths))
            return
        self.maps = (a[ends], b[ends], lo[ends], hi[ends])
        if constant.size:
            self.maps[0][constant] = 0.0
            for m in self.maps[1:]:
                m[constant] = level
        whole = lengths > 1
        whole[constant] = False
        if whole.any():
            keep, packed, rank = _subruns(starts, lengths, whole)
            composed = _compose_runs(a[keep], b[keep], lo[keep], hi[keep], packed, rank)
            for m, part in zip(self.maps, composed):
                m[whole] = part

    def values(self, x, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Runs lo..hi applied to their values `x`."""
        a, b, low, high = (m[lo:hi] for m in self.maps)
        return np.minimum(np.maximum(a * x + b, low), high)


def _signed_step_values(up, starts, c: float) -> np.ndarray:
    """Signed STEP value of each run from neutral; `up` flags each positive event.

    Per-pixel counting is exact wherever the running value is monotone,
    so clamping commutes with summing: every run whose events share one
    sign.  A mixed run also takes its net sum where no ordering of its
    events could have touched a clamp; the mixed runs that could are
    composed in order.  Counting rounds once (count * c) instead of once
    per event, which is the closest float64 to the real-arithmetic pixel
    value.
    """
    lengths = _run_lengths(starts, len(up))
    pos = np.add.reduceat(up, starts, dtype=np.intp)
    neg = lengths - pos
    values = np.minimum(np.maximum(0.5 + c * (pos - neg), 0.0), 1.0)
    # Worst-case prefix excursion of a mixed pixel: all of one sign first.
    clampable = (pos > 0) & (neg > 0) & ((0.5 + c * pos > 1.0) | (0.5 - c * neg < 0.0))
    if clampable.any():
        replay, packed, _ = _subruns(starts, lengths, clampable)
        b = np.where(up[replay], c, -c)
        one = np.broadcast_to(1.0, len(b))
        zero = np.broadcast_to(0.0, len(b))
        values[clampable] = _ComposedRuns(one, b, zero, one, packed).values(0.5)
    return values


# A run longer than _SUFFIX events is first integrated over its last
# _SUFFIX events alone (`_ComposedRuns`, `_settle_suffixes`): a pixel that
# clamped within them has forgotten every earlier event.  On the
# benchmark's hot pixels the last 5-42 events decide every run.
# _SUFFIX must be a power of two, so that its pairwise tree is the
# end-aligned one of `_compose_runs`.
_SUFFIX = 64
# A group integrates consecutive slices of up to _GROUP_EVENTS events in
# one batched pass; a larger slice is a group of its own.
_GROUP_EVENTS = 2**15


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


class _SignedLinearRuns:
    """Signed LINEAR runs, integrated from their carried values.

    Linear decay toward 0.5 is a soft threshold, which is not of the
    form clip(a*x + b, lo, hi), so these events cannot be composed.  The
    runs that their last _SUFFIX events decide are settled up front
    (`_settle_suffixes`); `values` runs the events of the others from
    their carried values, one pass per rank.
    """

    def __init__(self, starts, width, signs) -> None:
        lengths = _run_lengths(starts, len(width))
        level = np.zeros(len(starts))
        settled = _settle_suffixes(level, starts + lengths, width, signs)
        self.fixed = np.flatnonzero(settled)
        self.level = level[self.fixed]  # each settled run's distance from 0.5
        if self.fixed.size:
            left, _, self.rank = _subruns(starts, lengths, ~settled)
            width, signs = width[left], signs[left]
            lengths[self.fixed] = 0
        else:
            self.rank = np.arange(len(width)) - np.repeat(starts, lengths)
        # The unsettled events in run order: run r holds first[r]..first[r + 1].
        self.first = np.concatenate(([0], np.cumsum(lengths)))
        self.run = np.repeat(np.arange(len(starts)), lengths)
        self.width, self.signs = width, signs

    def values(self, x, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Runs lo..hi integrated from their values `x`."""
        hi = len(self.first) - 1 if hi is None else hi
        u = np.subtract(x, 0.5)  # each run's distance from 0.5
        fixed = slice(*np.searchsorted(self.fixed, [lo, hi]))
        u[self.fixed[fixed] - lo] = self.level[fixed]
        events = slice(self.first[lo], self.first[hi])
        _rank_passes(
            u, self.run[events] - lo, self.rank[events], self.width[events], self.signs[events]
        )
        return u + 0.5


class _Group:
    """Consecutive integrated slices whose runs are built in one batched pass.

    Slice k's buffer starts at `begins[k]`, and its runs are
    `bounds[k]`..`bounds[k + 1]`, each with its pixel in `touched`.
    `publish` builds the slices' pixels one at a time, in order, and
    `published` counts them.
    """

    def __init__(
        self,
        slices: List[Slice],
        begins: List[float],
        config: AccumulatorConfig,
        geometry: SensorGeometry,
    ) -> None:
        self.slices, self.begins, self.published = slices, begins, 0
        self.config, self.geometry = config, geometry
        self.bounds = [0] * (len(slices) + 1)
        step = config.decay.kind is DecayKind.STEP
        if not any(len(s) for s in slices) or (
            step and config.polarity_mode is PolarityMode.RECTIFIED
        ):
            return
        order, pix, starts, self.bounds = _pixel_runs(
            [_pixel_index(s.events, geometry.width) for s in slices]
        )
        self.touched = pix[starts]
        # Each per-event array is dropped once used: a group's peak memory
        # grows with its events, so it is kept to a few arrays of them.
        del pix
        c = config.contribution
        signed = config.polarity_mode is PolarityMode.SIGNED
        up = _joined([s.events.p for s in slices])[order] > 0 if signed else None
        if step:
            self.values = _signed_step_values(up, starts, c)
            return
        t = _joined([s.events.t for s in slices])[order]
        del order
        n = len(t)
        dt = np.empty(n)
        np.subtract(t[1:], t[:-1], out=dt[1:])
        begin = begins[0] if len(slices) == 1 else np.repeat(begins, np.diff(self.bounds))
        dt[starts] = t[starts] - begin
        self.last = t[starts + _run_lengths(starts, n) - 1]
        del t
        s = np.where(up, c, -c) if signed else c
        decay = config.decay
        one = np.broadcast_to(1.0, n)
        if decay.kind is DecayKind.LINEAR:
            dt *= decay.rate
            if signed:
                self.runs = _SignedLinearRuns(starts, dt, s)
            else:
                # x -> min(max(x - r*dt, 0) + c, 1).
                b = np.subtract(s, dt, out=dt)
                self.runs = _ComposedRuns(one, b, np.broadcast_to(c, n), one, starts)
            return
        a = np.negative(dt, out=dt)
        a /= decay.tau
        np.exp(a, out=a)
        b = np.subtract(1.0, a)
        b *= neutral_value(config.polarity_mode)
        b += s
        self.runs = _ComposedRuns(a, b, np.broadcast_to(0.0, n), one, starts)

    def publish(self, integrated: Optional[EventFrame]) -> np.ndarray:
        """Pixels of the next slice; `integrated` is the last integrated frame, if any.

        STEP integrates from a neutral frame, and an empty STEP slice
        gets the shared read-only neutral pixels, so an idle gap costs no
        frame buffers.  LINEAR / EXPONENTIAL decay the whole buffer to the
        publish stamp by the one interval since its own stamp, then
        overwrite the touched pixels: each takes its runs' maps from its
        carried value and decays from its own last event to the stamp.
        Decay acts on each pixel independently, so this matches
        advancing the whole frame to every event time in order.
        """
        k = self.published
        self.published += 1
        slc, config, geometry = self.slices[k], self.config, self.geometry
        lo, hi = self.bounds[k], self.bounds[k + 1]
        h, w = geometry.height, geometry.width
        decay = config.decay
        if decay.kind is DecayKind.STEP:
            ev = slc.events
            if len(ev) == 0:
                return _neutral_pixels(geometry, config.polarity_mode)
            if config.polarity_mode is PolarityMode.RECTIFIED:
                counts = np.bincount(_pixel_index(ev, w), minlength=h * w)
                return np.minimum(counts.reshape(h, w) * config.contribution, 1.0)
            flat = np.full(h * w, 0.5)
            flat[self.touched[lo:hi]] = self.values[lo:hi]
            return flat.reshape(h, w)
        neutral = neutral_value(config.polarity_mode)
        if integrated is not None:
            buffer = integrated.pixels.ravel()
        else:
            buffer = np.full(geometry.pixel_count, neutral)
        stamp = slc.publish_stamp
        out = _decay_values(buffer, stamp - self.begins[k], decay, neutral)
        if hi > lo:
            touched = self.touched[lo:hi]
            x = self.runs.values(buffer[touched], lo, hi)
            out[touched] = _decay_values(x, stamp - self.last[lo:hi], decay, neutral)
        return out.reshape(h, w)


class FrameAccumulator:
    """Integrates slices into frames, one slice at a time in publish order.

    It keeps one frame: the last integrated one.  Every slice's events
    are checked first.  A slice with fewer than `no_motion_threshold`
    events in its interval is a hold: it republishes the last
    integrated frame's pixels, shared byte for byte, or the shared
    neutral pixels before any frame, and its events are dropped.  A hold
    changes no pixel, so these are also the previous frame's pixels.
    Any other slice is integrated: STEP from a neutral frame, LINEAR /
    EXPONENTIAL from the last integrated frame, whose pixels and stamp
    are the decaying buffer and its time, so decay runs on from the
    last integrated stamp, never from a hold's.
    Slices announced by `_schedule` are integrated in groups (see the
    module docstring); `process` returns the same frames either way.
    """

    def __init__(self, config: AccumulatorConfig, geometry: SensorGeometry) -> None:
        self._config = config
        self._geometry = geometry
        self._integrated: Optional[EventFrame] = None  # the last integrated frame
        self._ahead: Deque[Slice] = deque()  # scheduled slices not yet processed
        self._group: Optional[_Group] = None

    def _schedule(self, slices: List[Slice]) -> None:
        """Announce the slices that the next `process` calls take, in order."""
        self._ahead.extend(slices)

    def _holds(self, slc: Slice) -> bool:
        threshold = self._config.no_motion_threshold
        return bool(threshold) and slc.interval_event_count < threshold

    def _gather(self, first: Slice) -> _Group:
        """The group that `first` starts: it and the integrated slices scheduled after it.

        The group ends before the slice that would take it past
        _GROUP_EVENTS events, and before a slice that fails a check, so
        that slice raises in its own `process` call.
        """
        decaying = self._config.decay.kind is not DecayKind.STEP
        if self._integrated is not None:
            begin = self._integrated.stamp
        else:
            begin = float(first.events.t[0]) if len(first) else first.publish_stamp
        slices: List[Slice] = []
        begins: List[float] = []
        events = 0
        for slc in chain([first], self._ahead):
            if slices:
                if self._holds(slc):
                    continue
                if events + len(slc) > _GROUP_EVENTS or _event_fault(slc, self._geometry):
                    break
            if decaying:
                fault = _buffer_fault(slc, begin)
                if fault is not None:
                    if not slices:
                        raise fault
                    break
            slices.append(slc)
            begins.append(begin)
            events += len(slc)
            begin = slc.publish_stamp
        return _Group(slices, begins, self._config, self._geometry)

    def process(self, slc: Slice) -> EventFrame:
        config, geometry = self._config, self._geometry
        if self._ahead and self._ahead[0] is slc:
            self._ahead.popleft()
        else:
            self._ahead.clear()  # called off schedule: slc is a group of one
        group = self._group
        if group is None or group.slices[group.published] is not slc:
            fault = _event_fault(slc, geometry)
            if fault is not None:
                raise fault
            if self._holds(slc):
                if self._integrated is None:
                    pixels = _neutral_pixels(geometry, config.polarity_mode)
                else:
                    pixels = self._integrated.pixels
                return EventFrame(geometry, pixels, slc.publish_stamp, held=True)
            group = self._group = self._gather(slc)
        frame = EventFrame(geometry, group.publish(self._integrated), slc.publish_stamp)
        if group.published == len(group.slices):
            self._group = None  # neither its slices nor its arrays outlive its last frame
        # The frame makes its pixels read-only and the next slice only
        # reads them, so the frame can be the buffer.
        self._integrated = frame
        return frame
