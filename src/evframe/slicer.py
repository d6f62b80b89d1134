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

:class:`StreamSlicer` is a single-owner state machine fed in timestamp
order in :class:`EventArray` batches of any size, down to one event.
The module functions wrap it for whole-stream use.

Slices also carry the number of events that arrived in their publish
interval (t_{k-1}, t_k], which feeds the no-motion hold decision.  The
first interval counts everything seen before the first tick, so the
counts always telescope to the stream total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import EventArray, SliceMethod

__all__ = [
    "Slice",
    "StreamSlicer",
    "slice_by_number",
    "slice_by_time",
    "slice_by_time_and_number",
]


@dataclass(frozen=True, eq=False)
class Slice:
    """One batch of events to accumulate into a frame.

    Attributes:
        events: the events of this slice in time order.
        publish_stamp: when the resulting frame is published.
        interval_event_count: events that arrived in the publish
            interval (t_{k-1}, t_k]; for count-based slicing this is
            simply the slice length.
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
    """

    def __init__(
        self,
        method: SliceMethod,
        *,
        window_size: Optional[int] = None,
        interval: Optional[float] = None,
        t0: Optional[float] = None,
    ) -> None:
        if method.uses_window:
            if window_size is None or window_size < 1:
                raise ValueError(f"window size must be >= 1, got {window_size}")
        if method.uses_interval:
            if interval is None or not interval > 0.0:
                raise ValueError(f"interval must be > 0, got {interval}")
            if interval == math.inf:
                raise ValueError(f"interval must be finite, got {interval}")
        self._method = method
        self._n = int(window_size) if window_size is not None else 0
        self._dt = float(interval) if interval is not None else 0.0
        self._t0 = float(t0) if t0 is not None else None
        self._k = 1  # next tick index; stamps are t0 + k * dt
        self._recent = EventArray.empty()  # last <= N events with t < next tick
        self._boundary: List[EventArray] = []  # events exactly at the next tick
        self._bucket: List[EventArray] = []  # current interval (BY_TIME)
        self._group: List[EventArray] = []  # partial group (BY_NUMBER)
        self._count = 0  # events counted toward the pending interval
        self._t_last: Optional[float] = None
        self._finished = False

    @property
    def pending(self) -> EventArray:
        """Withheld remainder for BY_NUMBER; empty for other methods."""
        return EventArray.concatenate(self._group)

    def _next_stamp(self) -> float:
        # Multiplying rather than repeatedly adding keeps tick k at one
        # rounding error from t0 + k * dt no matter how long the run is.
        return self._t0 + self._k * self._dt

    def push_batch(self, events: EventArray) -> List[Slice]:
        if self._finished:
            raise RuntimeError("slicer already flushed")
        if len(events) == 0:
            return []
        if self._t_last is not None and float(events.t[0]) < self._t_last:
            raise ValueError(
                f"events must arrive in time order: {float(events.t[0])} after {self._t_last}"
            )
        if len(events) > 1 and np.any(np.diff(events.t) < 0.0):
            raise ValueError("events within a batch must be in time order")
        self._t_last = float(events.t[-1])

        if self._method is SliceMethod.BY_NUMBER:
            return self._push_by_number(events)
        if self._t0 is None:
            self._t0 = float(events.t[0])
        if self._method is SliceMethod.BY_TIME:
            return self._push_by_time(events)
        return self._push_by_time_and_number(events)

    def flush(self) -> List[Slice]:
        """Publish the remaining ticks and seal the slicer."""
        if self._finished:
            return []
        self._finished = True
        if self._method is SliceMethod.BY_NUMBER or self._t_last is None:
            return []
        out: List[Slice] = []
        if self._method is SliceMethod.BY_TIME:
            out.append(self._publish_interval())
            return out
        # Windowed ticks: every tick at or before the last event, then one
        # final tick strictly past it so the tail events get sliced.
        while self._next_stamp() <= self._t_last:
            out.append(self._publish_window())
        out.append(self._publish_window())
        return out

    # -- by number ---------------------------------------------------

    def _push_by_number(self, events: EventArray) -> List[Slice]:
        out: List[Slice] = []
        combined = EventArray.concatenate([*self._group, events])
        self._group = []
        pos = 0
        while len(combined) - pos >= self._n:
            group = combined[pos : pos + self._n]
            out.append(
                Slice(
                    events=group,
                    publish_stamp=float(group.t[-1]),
                    interval_event_count=self._n,
                    partial=False,
                )
            )
            pos += self._n
        if pos < len(combined):
            self._group = [combined[pos:]]
        return out

    # -- by time -----------------------------------------------------

    def _push_by_time(self, events: EventArray) -> List[Slice]:
        if float(events.t[0]) < self._t0:
            raise ValueError(
                f"event at {float(events.t[0])} precedes the window origin {self._t0}"
            )
        out: List[Slice] = []
        pos = 0
        n = len(events)
        while pos < n:
            ts = self._next_stamp()
            cut = int(np.searchsorted(events.t, ts, side="left"))
            if cut > pos:
                self._bucket.append(events[pos:cut])
                pos = cut
            if pos < n:
                # Next event is at or past the tick, so the interval is done.
                out.append(self._publish_interval())
        return out

    def _publish_interval(self) -> Slice:
        stamp = self._next_stamp()
        batch = EventArray.concatenate(self._bucket)
        self._bucket = []
        self._k += 1
        return Slice(
            events=batch,
            publish_stamp=stamp,
            interval_event_count=len(batch),
            partial=False,
        )

    # -- by time and number -------------------------------------------

    def _push_by_time_and_number(self, events: EventArray) -> List[Slice]:
        out: List[Slice] = []
        pos = 0
        n = len(events)
        while pos < n:
            ts = self._next_stamp()
            before = int(np.searchsorted(events.t, ts, side="left"))
            through = int(np.searchsorted(events.t, ts, side="right"))
            if before > pos:
                self._admit(events[pos:before])
                self._count += before - pos
                pos = before
            if through > pos:
                # Events exactly at the tick count toward this interval but
                # are only eligible for later windows (strictly-before rule).
                self._count += through - pos
                self._boundary.append(events[pos:through])
                pos = through
            if pos < n:
                # An event strictly past the tick proves the interval is
                # complete.  Otherwise hold the tick open: more events at
                # exactly ts may still arrive and belong to it.
                out.append(self._publish_window())
        return out

    def _admit(self, batch: EventArray) -> None:
        merged = EventArray.concatenate([self._recent, batch])
        if len(merged) > self._n:
            merged = merged[len(merged) - self._n :]
        self._recent = merged

    def _publish_window(self) -> Slice:
        stamp = self._next_stamp()
        window = self._recent
        count = self._count
        self._count = 0
        self._k += 1
        if self._boundary:
            self._admit(EventArray.concatenate(self._boundary))
            self._boundary = []
        return Slice(
            events=window,
            publish_stamp=stamp,
            interval_event_count=count,
            partial=len(window) < self._n,
        )


def slice_by_number(stream: EventArray, window_size: int) -> List[Slice]:
    """Cut a stream into consecutive groups of exactly `window_size` events.

    A trailing remainder shorter than the window is withheld, not
    emitted; use :class:`StreamSlicer` directly when you need it.
    """
    s = StreamSlicer(SliceMethod.BY_NUMBER, window_size=window_size)
    out = s.push_batch(stream)
    out.extend(s.flush())
    return out


def slice_by_time(
    stream: EventArray,
    interval: float,
    t0: Optional[float] = None,
) -> List[Slice]:
    """Cut a stream into fixed half-open time intervals.

    `t0` defaults to the first event's timestamp.  Intervals with no
    events still produce (empty) slices, so the slices tile the stream's
    span with no gaps.
    """
    s = StreamSlicer(SliceMethod.BY_TIME, interval=interval, t0=t0)
    out = s.push_batch(stream)
    out.extend(s.flush())
    return out


def slice_by_time_and_number(
    stream: EventArray,
    interval: float,
    window_size: int,
    t0: Optional[float] = None,
) -> List[Slice]:
    """Publish the last `window_size` events at every interval tick.

    At each tick t_k = t0 + k * interval the slice holds the most
    recent `window_size` events strictly before t_k.  `t0` defaults to
    the first event's timestamp.
    """
    s = StreamSlicer(
        SliceMethod.BY_TIME_AND_NUMBER,
        interval=interval,
        window_size=window_size,
        t0=t0,
    )
    out = s.push_batch(stream)
    out.extend(s.flush())
    return out
