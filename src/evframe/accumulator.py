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
-1/2 and u = +1/2; each event is monotone in floating point, so the
pixel's own orbit stays between the two and ends where they end equal.
That is the event-by-event value, with no speculation.  Runs whose
last W events do not decide them take the paths above unchanged.

Rounding: where a pixel's events share one sign, or where no ordering
of them could reach a clamp, STEP computes count*c, one rounding, the
float closest to the exact value.  A signed linear run that its last
W events decide is rounded as the rank passes round it.  Elsewhere the
composed maps, speculated signed linear runs included, round in a
different order than event-by-event integration and agree with it to
within 1e-12; with a power-of-two c every partial sum is exact and
signed STEP matches it bit for bit.

When too few events arrived in a publish interval the previous frame is
republished unchanged (a "hold"), which keeps downstream consumers fed
during motion pauses instead of handing them an empty frame.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
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
# _SUFFIX events alone (`_run_values`, `_speculate`): a pixel that
# clamped within them has forgotten every earlier event.  On the
# benchmark's hot pixels the last 5-42 events decide every run.
# _SUFFIX must be a power of two, so that its pairwise tree is the
# end-aligned one of `_compose_runs`.
_SUFFIX = 64

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


def _settle_suffixes(x, pos, first, count, width, signs) -> None:
    """Settle the runs that their last _SUFFIX events decide, in place.

    Each event u -> clip(soft(u, w) + s, -1/2, 1/2) is monotone in
    floating point, so the orbits of a run's last _SUFFIX events from
    u = -1/2 and from u = +1/2 enclose its orbit from any state.  Where
    the two end equal, that is the run's value: `x` takes it and `pos`
    moves to the run's end.
    """
    deep = np.flatnonzero(count > _SUFFIX)
    if not deep.size:
        return
    end = first[deep] + count[deep]
    events = end - np.arange(_SUFFIX, 0, -1)[:, None]
    w, s = width[events], signs[events]
    orbit = np.empty((2, len(deep)))
    orbit[0], orbit[1] = -0.5, 0.5
    neg_w = -w
    for k in range(_SUFFIX):
        orbit -= np.maximum(np.minimum(orbit, w[k]), neg_w[k])
        orbit += s[k]
        np.minimum(np.maximum(orbit, -0.5, out=orbit), 0.5, out=orbit)
    settled = orbit[0] == orbit[1]
    x[deep[settled]] = orbit[0, settled]
    pos[deep[settled]] = count[deep[settled]]


def _speculate(u, runs, first, count, width, signs, c: float) -> None:
    """Integrate deep run tails by speculative scans, in place.

    Run `runs[r]` has `count[r]` events left from index `first[r]`.  The
    runs that their last _SUFFIX events decide are settled first
    (`_settle_suffixes`); the others are speculated.  With
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
    _settle_suffixes(x, pos, first, count, width, signs)
    window = np.full(len(runs), _FIRST_WINDOW)
    budget = np.zeros(len(runs))
    live = np.flatnonzero(pos < count)
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


def _integrate_signed_linear(x, starts, rank, dt, signs, rate: float, c: float) -> np.ndarray:
    """Signed LINEAR integration of each run's pixel from its value `x`.

    Linear decay toward 0.5 is a soft threshold, which is not of the
    form clip(a*x + b, lo, hi), so these events cannot be composed as
    they come.  Ranks shared by many pixels run one pass per rank; the
    deep tails, where a pass would integrate only a few pixels, are
    speculated (`_speculate`).  The choice depends only on the run
    depths in the slice.  Returns the integrated values, run by run.
    """
    lengths = _run_lengths(starts, len(rank))
    run = np.repeat(np.arange(len(starts)), lengths)
    width = rate * dt
    # Signed distance of each touched pixel from neutral.
    u = x - 0.5
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
    return u + 0.5


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
    every event time in order.  The whole buffer is first decayed to
    the publish stamp by the one interval since its own stamp; the
    pixels the slice touches are then overwritten.  Each event is one
    map x -> clip(a*x + b, lo, hi) of its pixel, and each pixel's maps
    are composed by `_compose_runs`; signed LINEAR, outside that family,
    goes through `_integrate_signed_linear`.  A touched pixel finally
    decays from its own last event to the publish stamp.
    """
    ev = slc.events
    stamp = slc.publish_stamp
    neutral = neutral_value(config.polarity_mode)
    if carry.buffer is not None:
        buffer = carry.buffer.ravel()
        start = carry.buffer_time
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
            x = _integrate_signed_linear(x, starts, rank, dt, s, decay.rate, c)
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
        # The frame makes its pixels read-only and the next slice only
        # reads the buffer, so the two can share memory.
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
