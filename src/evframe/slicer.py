"""Cutting an event stream into per-frame slices.

Three methods are supported:

* by number: consecutive non-overlapping groups of exactly N events,
  published at the last event's timestamp.  The rate of the stream sets
  the frame rate.
* by time: half-open intervals [t0 + (k-1) * dt, t0 + k * dt) published
  at t0 + k * dt.  The frame rate is fixed but the event count per
  slice scales with scene speed.
* by time and number: publish at the fixed times t_k = t0 + k * dt, and
  at each tick take the most recent N events whose timestamp is
  strictly before t_k.  The window duration adapts inversely to the
  event rate, which is what makes the resulting frames insensitive to
  scene speed.  Consecutive windows may overlap when fewer than N
  events arrive per interval, and a window with fewer than N available
  events is emitted flagged as partial.

All three are one cut over stream positions.  Number the events 0, 1,
2, ... in arrival order; every slice is ``stream[lo:hi]``.  By number
``hi = lo + N``.  By time ``lo`` is the previous slice's ``hi`` and
``hi`` is the first event at or past t_k.  By time and number ``hi`` is
the same and ``lo = hi - N``, but never before the previous window's
start.

:class:`StreamSlicer` is a single-owner state machine fed in timestamp
order in :class:`EventArray` batches of any size, down to one event.
:meth:`StreamSlicer.slices` runs it over a whole stream.

Slices also carry the number of events that arrived in their publish
interval, which feeds the no-motion hold decision.  By time that is the
slice's own events, those in [t_{k-1}, t_k).  By number it is N.  By
time and number it is the events in (t_{k-1}, t_k], and the first
interval counts everything seen before the first tick.  So by time and
by time and number the counts telescope to the stream total; by number
they leave out the withheld tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from .core import EventArray, SliceMethod

__all__ = ["Slice", "StreamSlicer"]

# One event batch, or an iterable of batches in time order.
Source = Union[EventArray, Iterable[EventArray]]


def _batches(source: Source) -> Iterable[EventArray]:
    """The batches of `source`; one EventArray is a stream of one batch."""
    return (source,) if isinstance(source, EventArray) else source


@dataclass(frozen=True, eq=False)
class Slice:
    """One batch of events to accumulate into a frame.

    Attributes:
        events: the events of this slice in time order.
        publish_stamp: when the resulting frame is published.
        interval_event_count: events that arrived in the publish
            interval: by time the slice's own events, in
            [t_{k-1}, t_k); by number N; by time and number those in
            (t_{k-1}, t_k], the first interval counting every event
            before its tick.
        partial: True when a windowed method had fewer than N events
            available.
    """

    events: EventArray
    publish_stamp: float
    interval_event_count: int
    partial: bool = False

    def __len__(self) -> int:
        return len(self.events)


class StreamSlicer:
    """Streaming slicer state machine.

    Feed events in non-decreasing timestamp order through
    :meth:`push_batch`; each call returns the slices completed by that
    input, and how the stream is split into batches does not change
    them.  Call :meth:`flush` once at end of stream to publish
    the final ticks.  For BY_NUMBER a trailing remainder of fewer than
    N events is withheld and exposed through :attr:`pending`.

    It keeps only the pushed batches that a later slice may still
    reach: the events from the position where the next slice may start
    (the previous cut; by time and number, the last window's start).  A
    push that completes no slice only appends its batch.  A push that
    completes slices joins the kept batches once, takes each slice as a
    view of that join (the pushed batch itself when it is the only one
    kept), and keeps the join's suffix from the new cut.  Slices
    without events share :meth:`EventArray.empty`.
    """

    def __init__(
        self,
        method: SliceMethod,
        *,
        window_size: Optional[int] = None,
        interval: Optional[float] = None,
        t0: Optional[float] = None,
    ) -> None:
        method.check(window_size, interval)
        if t0 is not None and not math.isfinite(t0):
            raise ValueError(f"t0 must be finite, got {t0}")
        self._method = method
        # A setting the method ignores is neither checked nor converted.
        self._n = int(window_size) if method.uses_window else 0
        self._dt = float(interval) if method.uses_interval else 0.0
        self._t0 = float(t0) if t0 is not None else None
        self._k = 1  # next tick index; stamps are t0 + k * dt
        self._kept: List[EventArray] = []  # pushed batches a later slice may reach
        self._base = 0  # stream position of the first kept event
        self._end = 0  # stream position past the last pushed event
        self._cut = 0  # stream position where the next slice may start
        self._t_last: Optional[float] = None
        self._finished = False

    @property
    def pending(self) -> EventArray:
        """Withheld remainder for BY_NUMBER; empty for other methods."""
        if self._method is not SliceMethod.BY_NUMBER:
            return EventArray.empty()
        return EventArray.concatenate(self._kept)

    def _stamp(self, k: int) -> float:
        # Multiplying rather than repeatedly adding keeps tick k at one
        # rounding error from t0 + k * dt no matter how long the run is.
        return self._t0 + k * self._dt

    def push_batch(self, events: EventArray) -> List[Slice]:
        if self._finished:
            raise RuntimeError("slicer already flushed")
        if len(events) == 0:
            return []
        first = float(events.t[0])
        if self._t_last is not None and first < self._t_last:
            raise ValueError(f"events must arrive in time order: {first} after {self._t_last}")
        if np.any(events.t[1:] < events.t[:-1]):
            raise ValueError("events within a batch must be in time order")
        if self._t0 is None and self._method.uses_interval:
            self._t0 = first
        if self._method is SliceMethod.BY_TIME and first < self._t0:
            raise ValueError(f"event at {first} precedes the window origin {self._t0}")
        self._t_last = float(events.t[-1])
        self._kept.append(events)
        self._end += len(events)
        return self._publish(flush=False)

    def slices(self, source: Source) -> Iterator[Slice]:
        """Push every batch of `source`, then flush, yielding each slice as it is cut."""
        for batch in _batches(source):
            yield from self.push_batch(batch)
        yield from self.flush()

    def flush(self) -> List[Slice]:
        """Publish the remaining ticks and seal the slicer."""
        if self._finished:
            return []
        self._finished = True
        if self._method is SliceMethod.BY_NUMBER or self._t_last is None:
            return []
        return self._publish(flush=True)

    def _close_ticks(self, flush: bool) -> List[float]:
        """Stamps of the ticks the stream so far completes; k moves past them.

        An event at or past a tick completes it by time.  By time and
        number only an event past it does, as more events at exactly the
        tick still count toward its interval.  A flush completes every
        tick up to the last event, then one tick past it for the tail.
        An interval too small to move a stamp past the one before it, or
        one that needs over 2**53 ticks (where a float stops counting
        them exactly) to reach the last event, is rejected, not looped on.
        """
        held = self._method is SliceMethod.BY_TIME_AND_NUMBER and not flush
        stamps: List[float] = []
        stamp = self._stamp(self._k)
        if self._t_last - stamp > self._dt * 2**53:
            raise ValueError(
                f"interval {self._dt} s needs over 2**53 ticks to reach the event at "
                f"{self._t_last} s from {stamp} s"
            )
        while stamp < self._t_last or (stamp == self._t_last and not held):
            stamps.append(stamp)
            self._k += 1
            stamp = self._stamp(self._k)
            if stamp <= stamps[-1]:
                raise ValueError(
                    f"interval {self._dt} s does not move the tick stamp past {stamp} s"
                )
        if flush:
            stamps.append(stamp)
            self._k += 1
        return stamps

    def _publish(self, flush: bool) -> List[Slice]:
        if self._method is SliceMethod.BY_NUMBER:
            if self._end - self._cut < self._n:
                return []
        else:
            stamps = self._close_ticks(flush)
            if not stamps:
                return []
        events = EventArray.concatenate(self._kept)
        t = events.t
        cut = self._cut - self._base  # positions below are relative to the join
        if self._method is SliceMethod.BY_NUMBER:
            his = range(cut + self._n, len(t) + 1, self._n)
            stamps = t[cut + self._n - 1 :: self._n].tolist()
        else:
            his = t.searchsorted(stamps, "left").tolist()
        if self._method is SliceMethod.BY_TIME_AND_NUMBER:
            los = [max(hi - self._n, cut) for hi in his]
            # Interval k counts the events in (t_{k-1}, t_k].  Both ends lie
            # in the join, which starts at the last window's start, before
            # t_{k-1}'s events; the first interval counts from the stream's
            # start, which is still kept.
            k = self._k - len(stamps)
            last = self._stamp(k - 1) if k > 1 else -math.inf
            ends = t.searchsorted([last, *stamps], "right").tolist()
            counts = [b - a for a, b in zip(ends, ends[1:])]
            cut = los[-1]
        else:
            los = [cut, *his[:-1]]
            counts = [hi - lo for lo, hi in zip(los, his)]
            cut = his[-1]
        # Only a short time-and-number window is partial, as _n is 0 by time.
        out = [
            Slice(events[lo:hi] if hi > lo else EventArray.empty(), stamp, count, hi - lo < self._n)
            for lo, hi, stamp, count in zip(los, his, stamps, counts)
        ]
        self._kept = [events[cut:]] if cut < len(t) else []
        self._base = self._cut = self._base + cut
        return out
