"""The slicer-plus-accumulator pipeline driver."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    EventArray,
    EventFrame,
    FrameSpec,
    PipelineStats,
    PolarityMode,
    SensorGeometry,
    SliceMethod,
    accumulate_stream,
    neutral_value,
    run_accumulation,
    slice_by_time_and_number,
)

from conftest import SMALL_GEOMETRY, event_arrays, uniform_events

SPEC = SensorGeometry(SMALL_GEOMETRY.width, SMALL_GEOMETRY.height)


def btn_config(**kwargs) -> AccumulatorConfig:
    base = dict(
        slice_method=SliceMethod.BY_TIME_AND_NUMBER,
        window_size=12,
        interval=0.1,
        contribution=0.2,
    )
    base.update(kwargs)
    return AccumulatorConfig(**base)


class TestPipelineStats:
    def test_events_per_second_without_timing(self):
        assert math.isnan(PipelineStats().events_per_second)

    def test_mean_events_per_frame_without_frames(self):
        assert math.isnan(PipelineStats().mean_events_per_frame)

    def test_derived_rates(self):
        stats = PipelineStats(frames=4, events_in=100, slice_events=40, build_seconds=2.0)
        assert stats.events_per_second == pytest.approx(50.0)
        assert stats.mean_events_per_frame == pytest.approx(10.0)


class TestRunAccumulation:
    def test_counts_match_direct_slicing(self):
        events = uniform_events(400, SMALL_GEOMETRY, t_end=2.0)
        config = btn_config()
        frames, stats = accumulate_stream(events, config, SPEC)
        slices = slice_by_time_and_number(events, 0.1, 12)
        assert stats.frames == len(slices) == len(frames)
        assert stats.events_in == 400
        assert stats.slice_events == sum(len(s) for s in slices)
        assert stats.held_frames == 0
        assert stats.build_seconds > 0.0

    def test_frames_arrive_in_publish_order(self):
        events = uniform_events(200, SMALL_GEOMETRY, t_end=1.0)
        stamps = []
        run_accumulation(events, btn_config(), SPEC, on_frame=lambda f: stamps.append(f.stamp))
        assert stamps == sorted(stamps)
        assert len(stamps) > 1

    def test_batched_source_matches_single_array(self):
        events = uniform_events(300, SMALL_GEOMETRY, t_end=1.5)
        whole_frames, whole = accumulate_stream(events, btn_config(), SPEC)
        parts = [events[i : i + 37] for i in range(0, len(events), 37)]
        split_frames, split = accumulate_stream(iter(parts), btn_config(), SPEC)
        assert split.frames == whole.frames
        assert split.events_in == whole.events_in
        assert split.slice_events == whole.slice_events
        for a, b in zip(whole_frames, split_frames):
            assert a.stamp == b.stamp
            assert np.array_equal(a.pixels, b.pixels)

    def test_flush_is_included(self):
        events = uniform_events(50, SMALL_GEOMETRY, t_end=0.35)
        frames, _ = accumulate_stream(events, btn_config(), SPEC)
        assert frames[-1].stamp > float(events.t[-1])

    def test_hold_counts_held_frames(self):
        events = uniform_events(40, SMALL_GEOMETRY, t_end=1.0)
        config = btn_config(window_size=500, no_motion_threshold=30)
        frames, stats = accumulate_stream(events, config, SPEC)
        assert stats.held_frames == sum(1 for f in frames if f.held)
        assert 0 < stats.held_frames <= stats.frames

    def test_empty_source_publishes_nothing_by_number(self):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_NUMBER, window_size=10, contribution=0.2
        )
        frames, stats = accumulate_stream(EventArray.empty(), config, SPEC)
        assert frames == []
        assert stats.frames == 0
        assert math.isnan(stats.mean_events_per_frame)

    @given(event_arrays(min_size=1, max_size=80), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_by_number_frame_count_is_total_div_n(self, events, n):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_NUMBER,
            window_size=n,
            contribution=0.2,
            polarity_mode=PolarityMode.SIGNED,
        )
        frames, stats = accumulate_stream(events, config, SPEC)
        assert stats.frames == len(events) // n
        assert stats.slice_events == stats.frames * n
        assert all(0.0 <= float(f.pixels.min()) and float(f.pixels.max()) <= 1.0 for f in frames)

    @pytest.mark.parametrize("mode", [PolarityMode.RECTIFIED, PolarityMode.SIGNED])
    def test_idle_gap_frames_share_one_read_only_buffer(self, mode):
        # A 50 ms gap at 1 ms ticks: 49 slices without events.
        ev = EventArray.from_columns(
            np.array([0.0005, 0.0505]),
            np.array([1, 2], dtype=np.int32),
            np.array([1, 1], dtype=np.int32),
            np.array([1, -1], dtype=np.int8),
        )
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=1e-3, polarity_mode=mode
        )
        frames, _ = accumulate_stream(ev, config, SensorGeometry(240, 180))
        idle = [f for f in frames if np.all(f.pixels == neutral_value(mode))]
        assert len(idle) == 49
        assert all(np.shares_memory(f.pixels, idle[0].pixels) for f in idle)
        assert not any(f.pixels.flags.writeable for f in idle)


def test_frame_spec_alias_serves_the_benchmark_calls():
    # bench/ passes FrameSpec(width, height) to accumulate_stream and
    # rebuilds frames from frame.spec.
    ev = EventArray.from_columns([0.01, 0.02, 0.15], [1, 2, 3], [1, 1, 2], [1, -1, 1])
    geometry = FrameSpec(SMALL_GEOMETRY.width, SMALL_GEOMETRY.height)
    frames, _ = accumulate_stream(ev, btn_config(), geometry)
    expected, _ = accumulate_stream(ev, btn_config(), SMALL_GEOMETRY)
    assert [f.pixels.tolist() for f in frames] == [f.pixels.tolist() for f in expected]
    for frame in frames:
        assert frame.spec == SMALL_GEOMETRY
        rebuilt = EventFrame(frame.spec, frame.pixels.copy(), frame.stamp)
        assert np.array_equal(rebuilt.pixels, frame.pixels)
