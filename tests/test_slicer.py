"""Slicer behavior against hand enumerations and brute-force oracles."""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    EventArray,
    FrameAccumulator,
    SensorGeometry,
    Slice,
    SliceMethod,
    StreamSlicer,
    slice_by_number,
    slice_by_time,
    slice_by_time_and_number,
)

from conftest import event_arrays


def stream(times: Sequence[float]) -> EventArray:
    """Events at the given times, coordinates tagging their index."""
    i = np.arange(len(times))
    return EventArray.from_columns(times, i % 8, i % 6, np.where(i % 2 == 0, 1, -1))


def times_of(slc: Slice) -> List[float]:
    return [float(t) for t in slc.events.t]


def assert_same_slices(a: Sequence[Slice], b: Sequence[Slice]) -> None:
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.publish_stamp == sb.publish_stamp
        assert sa.interval_event_count == sb.interval_event_count
        assert sa.partial == sb.partial
        assert times_of(sa) == times_of(sb)
        assert sa.events.x.tolist() == sb.events.x.tolist()
        assert sa.events.y.tolist() == sb.events.y.tolist()
        assert sa.events.p.tolist() == sb.events.p.tolist()


def held(interval_event_count: int, threshold: int) -> bool:
    """Whether the accumulator holds a slice with this interval count."""
    acc = FrameAccumulator(AccumulatorConfig(no_motion_threshold=threshold), SensorGeometry(8, 6))
    slc = Slice(EventArray.empty(), 1.0, interval_event_count=interval_event_count)
    return acc.process(slc).held


class TestDetectNoMotion:
    def test_below_threshold_is_no_motion(self):
        assert held(150, 200) is True

    def test_exact_threshold_is_motion(self):
        assert held(200, 200) is False

    def test_zero_threshold_disables(self):
        assert held(0, 0) is False
        assert held(10 ** 9, 0) is False


class TestByNumber:
    def test_groups_of_four(self):
        ev = stream([i / 100 for i in range(1, 11)])
        slicer = StreamSlicer(SliceMethod.BY_NUMBER, window_size=4)
        slices = slicer.push_batch(ev)
        slices.extend(slicer.flush())
        assert [times_of(s) for s in slices] == [
            [0.01, 0.02, 0.03, 0.04],
            [0.05, 0.06, 0.07, 0.08],
        ]
        assert [s.publish_stamp for s in slices] == [0.04, 0.08]
        assert all(s.interval_event_count == 4 for s in slices)
        assert all(not s.partial for s in slices)
        assert [float(t) for t in slicer.pending.t] == [0.09, 0.10]

    def test_wrapper_drops_pending(self):
        slices = slice_by_number(stream([0.1, 0.2, 0.3]), 2)
        assert len(slices) == 1
        assert times_of(slices[0]) == [0.1, 0.2]

    @given(event_arrays(min_size=0, max_size=80), st.integers(1, 9))
    def test_partitions_exactly(self, ev, n):
        slicer = StreamSlicer(SliceMethod.BY_NUMBER, window_size=n)
        slices = slicer.push_batch(ev)
        slices.extend(slicer.flush())
        rebuilt = EventArray.concatenate(
            [s.events for s in slices] + [slicer.pending]
        )
        assert rebuilt.t.tolist() == ev.t.tolist()
        assert rebuilt.x.tolist() == ev.x.tolist()
        assert rebuilt.y.tolist() == ev.y.tolist()
        assert rebuilt.p.tolist() == ev.p.tolist()
        assert all(len(s) == n for s in slices)
        assert len(slicer.pending) == len(ev) - n * len(slices) < n
        for s in slices:
            assert s.publish_stamp == float(s.events.t[-1])


def by_time_oracle(
    ev: EventArray, dt: float, t0: float
) -> List[Tuple[float, List[int], int]]:
    """Brute-force expectation: (stamp, event indices, count) per slice."""
    times = [float(t) for t in ev.t]

    def interval_of(t: float) -> int:
        k = 1
        while t0 + k * dt <= t:
            k += 1
        return k

    total = max(interval_of(t) for t in times)
    out = []
    for k in range(1, total + 1):
        members = [i for i, t in enumerate(times) if interval_of(t) == k]
        out.append((t0 + k * dt, members, len(members)))
    return out


class TestByTime:
    def test_hand_enumeration(self):
        ev = stream([i / 100 for i in range(1, 11)])
        slices = slice_by_time(ev, 0.05, t0=0.0)
        assert [times_of(s) for s in slices] == [
            [0.01, 0.02, 0.03, 0.04],
            [0.05, 0.06, 0.07, 0.08, 0.09],
            [0.10],
        ]
        assert [s.publish_stamp for s in slices] == [0.05, 0.10, 0.15000000000000002]
        assert [s.interval_event_count for s in slices] == [4, 5, 1]

    def test_boundary_event_starts_next_interval(self):
        slices = slice_by_time(stream([0.1, 0.25, 0.3]), 0.25, t0=0.0)
        assert [times_of(s) for s in slices] == [[0.1], [0.25, 0.3]]

    def test_empty_intervals_are_published(self):
        # Tick 6 lands at 6 * 0.05 = 0.30000000000000004 in float math,
        # so the event at 0.30 still belongs to the sixth interval.
        slices = slice_by_time(stream([0.01, 0.30]), 0.05, t0=0.0)
        assert len(slices) == 6
        assert [len(s) for s in slices] == [1, 0, 0, 0, 0, 1]

    def test_rejects_event_before_origin(self):
        with pytest.raises(ValueError):
            slice_by_time(stream([0.1]), 0.05, t0=0.5)

    def test_origin_defaults_to_first_event(self):
        slices = slice_by_time(stream([1.0, 1.04, 1.06]), 0.05)
        assert [times_of(s) for s in slices] == [[1.0, 1.04], [1.06]]
        assert slices[0].publish_stamp == 1.05

    @given(event_arrays(min_size=1, max_size=60), st.sampled_from([0.05, 0.3, 2.0]))
    @settings(max_examples=60)
    def test_matches_brute_force(self, ev, dt):
        slices = slice_by_time(ev, dt, t0=0.0)
        expected = by_time_oracle(ev, dt, 0.0)
        assert len(slices) == len(expected)
        all_times = [float(t) for t in ev.t]
        for s, (stamp, members, count) in zip(slices, expected):
            assert s.publish_stamp == stamp
            assert s.interval_event_count == count
            assert times_of(s) == [all_times[i] for i in members]

    @given(event_arrays(min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_every_event_in_exactly_one_slice(self, ev):
        slices = slice_by_time(ev, 0.25, t0=0.0)
        rebuilt = EventArray.concatenate([s.events for s in slices])
        assert rebuilt.t.tolist() == ev.t.tolist()
        assert sum(s.interval_event_count for s in slices) == len(ev)


def btn_oracle(
    ev: EventArray, dt: float, n: int, t0: float
) -> List[Tuple[float, List[int], int, bool]]:
    """Brute-force expectation per tick: stamp, window indices, count, partial."""
    times = [float(t) for t in ev.t]
    t_last = times[-1]
    out = []
    k = 1
    while True:
        stamp = t0 + k * dt
        eligible = [i for i, t in enumerate(times) if t < stamp]
        window = eligible[-n:]
        if k == 1:
            count = sum(1 for t in times if t <= stamp)
        else:
            prev = t0 + (k - 1) * dt
            count = sum(1 for t in times if prev < t <= stamp)
        out.append((stamp, window, count, len(window) < n))
        if stamp > t_last:
            return out
        k += 1


class TestByTimeAndNumber:
    def test_hand_enumeration(self):
        ev = stream([i / 100 for i in range(1, 11)])
        slices = slice_by_time_and_number(ev, 0.05, 3, t0=0.0)
        assert [times_of(s) for s in slices] == [
            [0.02, 0.03, 0.04],
            [0.07, 0.08, 0.09],
            [0.08, 0.09, 0.10],
        ]
        assert [s.interval_event_count for s in slices] == [5, 5, 0]
        assert [s.partial for s in slices] == [False, False, False]

    def test_boundary_events_count_into_ending_interval(self):
        ev = stream([0.1, 0.25, 0.25, 0.3, 0.5, 0.6])
        slices = slice_by_time_and_number(ev, 0.25, 2, t0=0.0)
        assert [times_of(s) for s in slices] == [[0.1], [0.25, 0.3], [0.5, 0.6]]
        assert [s.interval_event_count for s in slices] == [3, 2, 1]
        assert [s.partial for s in slices] == [True, False, False]

    def test_windows_overlap_at_low_rate(self):
        slices = slice_by_time_and_number(stream([0.02, 0.04, 0.06]), 0.05, 3, t0=0.0)
        assert [times_of(s) for s in slices] == [[0.02, 0.04], [0.02, 0.04, 0.06]]
        assert slices[0].partial and not slices[1].partial

    def test_history_before_origin_fills_window(self):
        # The first tick is t0 + dt = 1.5; events before t0 still count
        # as window history and toward the first interval's activity.
        ev = stream([0.1, 0.2, 0.3, 1.6])
        slices = slice_by_time_and_number(ev, 0.5, 2, t0=1.0)
        assert times_of(slices[0]) == [0.2, 0.3]
        assert slices[0].interval_event_count == 3
        assert not slices[0].partial
        assert times_of(slices[1]) == [0.3, 1.6]
        assert slices[1].interval_event_count == 1

    @given(
        event_arrays(min_size=1, max_size=60),
        st.sampled_from([0.05, 0.3, 2.0]),
        st.integers(1, 7),
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, ev, dt, n):
        slices = slice_by_time_and_number(ev, dt, n, t0=0.0)
        expected = btn_oracle(ev, dt, n, 0.0)
        assert len(slices) == len(expected)
        all_times = [float(t) for t in ev.t]
        for s, (stamp, window, count, partial) in zip(slices, expected):
            assert s.publish_stamp == stamp
            assert s.interval_event_count == count
            assert s.partial == partial
            assert times_of(s) == [all_times[i] for i in window]

    @given(event_arrays(min_size=1, max_size=50), st.integers(1, 5))
    @settings(max_examples=40)
    def test_interval_counts_telescope(self, ev, n):
        slices = slice_by_time_and_number(ev, 0.4, n, t0=0.0)
        assert sum(s.interval_event_count for s in slices) == len(ev)

    @given(event_arrays(min_size=1, max_size=50), st.integers(1, 5))
    @settings(max_examples=40)
    def test_full_windows_are_strictly_before_stamp(self, ev, n):
        for s in slice_by_time_and_number(ev, 0.4, n, t0=0.0):
            if not s.partial:
                assert len(s) == n
            if len(s):
                assert float(s.events.t[-1]) < s.publish_stamp

    def test_stamps_form_arithmetic_progression(self):
        ev = stream(np.linspace(0.001, 9.999, 400).tolist())
        slices = slice_by_time_and_number(ev, 0.03125, 16, t0=0.0)
        for k, s in enumerate(slices, start=1):
            assert s.publish_stamp == 0.0 + k * 0.03125

    def test_time_rescaling_preserves_slice_contents(self):
        times = [0.01 * i for i in range(1, 120)]
        base = stream(times)
        scaled = EventArray.from_columns(base.t * 2.0, base.x, base.y, base.p)
        a = slice_by_time_and_number(base, 0.25, 10, t0=0.0)
        b = slice_by_time_and_number(scaled, 0.5, 10, t0=0.0)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.events.x.tolist() == sb.events.x.tolist()
            assert sa.events.y.tolist() == sb.events.y.tolist()
            assert sa.events.p.tolist() == sb.events.p.tolist()
            assert sa.interval_event_count == sb.interval_event_count
            assert sa.partial == sb.partial
            assert np.array_equal(sa.events.t * 2.0, sb.events.t)


class TestStreaming:
    @given(
        event_arrays(min_size=1, max_size=60),
        st.sampled_from(
            [
                (SliceMethod.BY_NUMBER, None),
                (SliceMethod.BY_TIME, 0.3),
                (SliceMethod.BY_TIME_AND_NUMBER, 0.3),
            ]
        ),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_batch_splits_do_not_change_slices(self, ev, method_dt, n, rnd):
        method, dt = method_dt

        def build() -> StreamSlicer:
            return StreamSlicer(
                method,
                window_size=n if method.uses_window else None,
                interval=dt,
                t0=0.0 if method.uses_interval else None,
            )

        whole = build()
        expected = whole.push_batch(ev)
        expected.extend(whole.flush())

        split = build()
        got: List[Slice] = []
        pos = 0
        while pos < len(ev):
            step = rnd.randint(1, len(ev) - pos)
            got.extend(split.push_batch(ev[pos : pos + step]))
            pos += step
        got.extend(split.flush())
        assert_same_slices(expected, got)

        single = build()
        one_by_one: List[Slice] = []
        for i in range(len(ev)):
            one_by_one.extend(single.push_batch(ev[i : i + 1]))
        one_by_one.extend(single.flush())
        assert_same_slices(expected, one_by_one)

    def test_rejects_out_of_order_batches(self):
        slicer = StreamSlicer(SliceMethod.BY_NUMBER, window_size=2)
        slicer.push_batch(stream([0.5]))
        with pytest.raises(ValueError, match=r"^events must arrive in time order: 0\.1 after 0\.5"):
            slicer.push_batch(stream([0.1]))

    def test_rejects_events_before_the_origin(self):
        slicer = StreamSlicer(SliceMethod.BY_TIME, interval=0.1, t0=1.0)
        with pytest.raises(ValueError, match=r"^event at 0\.5 precedes the window origin 1\.0$"):
            slicer.push_batch(stream([0.5]))

    def test_push_after_flush_raises(self):
        slicer = StreamSlicer(SliceMethod.BY_TIME, interval=0.1)
        slicer.flush()
        with pytest.raises(RuntimeError):
            slicer.push_batch(stream([0.1]))

    def test_flush_twice_returns_nothing(self):
        slicer = StreamSlicer(SliceMethod.BY_TIME, interval=0.1, t0=0.0)
        slicer.push_batch(stream([0.05]))
        assert len(slicer.flush()) == 1
        assert slicer.flush() == []

    def test_requires_window_size_when_counting(self):
        with pytest.raises(ValueError):
            StreamSlicer(SliceMethod.BY_NUMBER)

    def test_requires_interval_when_timed(self):
        with pytest.raises(ValueError):
            StreamSlicer(SliceMethod.BY_TIME)

    @pytest.mark.parametrize("method", [SliceMethod.BY_TIME, SliceMethod.BY_TIME_AND_NUMBER])
    def test_rejects_infinite_interval(self, method):
        with pytest.raises(ValueError, match="^interval must be finite, got inf$"):
            StreamSlicer(method, window_size=4, interval=float("inf"))
