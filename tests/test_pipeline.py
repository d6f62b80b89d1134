"""The slicer-plus-accumulator pipeline driver."""
from __future__ import annotations

import math
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evframe
from evframe import (
    AccumulatorConfig,
    Decay,
    EventArray,
    EventFrame,
    FrameAccumulator,
    FrameSpec,
    OutOfBoundsEvent,
    PipelineStats,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SliceMethod,
    accumulate_stream,
    add_noise,
    neutral_value,
    run_accumulation,
)

from conftest import SMALL_GEOMETRY, event_arrays, uniform_events
from oracles import slice_by_time, slice_by_time_and_number

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

    def test_build_time_leaves_out_the_sink(self):
        events = uniform_events(200, SMALL_GEOMETRY, t_end=1.0)
        stats = run_accumulation(events, btn_config(), SPEC, on_frame=lambda f: time.sleep(0.01))
        assert stats.frames >= 10
        assert stats.build_seconds < 0.01 * stats.frames / 2

    def test_build_time_leaves_out_the_source(self):
        events = uniform_events(200, SMALL_GEOMETRY, t_end=1.0)
        parts = [events[i : i + 20] for i in range(0, len(events), 20)]

        def slow_source():
            for part in parts:
                time.sleep(0.01)
                yield part

        stats = run_accumulation(slow_source(), btn_config(), SPEC)
        assert stats.events_in == 200
        assert stats.build_seconds < 0.01 * len(parts) / 2

    @pytest.mark.parametrize(
        "method, ignored",
        [
            (SliceMethod.BY_NUMBER, {"interval": math.inf}),
            (SliceMethod.BY_TIME, {"window_size": 0}),
        ],
    )
    def test_a_setting_the_method_ignores_is_never_checked(self, method, ignored):
        events = uniform_events(200, SMALL_GEOMETRY, t_end=1.0)
        frames, stats = accumulate_stream(events, btn_config(slice_method=method, **ignored), SPEC)
        assert stats.frames == len(frames) > 0

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

    def test_a_held_slice_is_checked_for_bounds(self):
        # (8, 0) lies outside the 8x6 sensor, in a slice quiet enough to hold.
        ev = EventArray.from_columns([0.01, 0.02], [1, SPEC.width], [1, 0], [1, 1])
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=0.1, no_motion_threshold=5
        )
        with pytest.raises(OutOfBoundsEvent):
            accumulate_stream(ev, config, SPEC)

    def test_frames_reach_the_sink_one_at_a_time(self):
        # 2,000 decaying 64x48 frames (49 MB) from one push must not all
        # be alive at once: the peak stays near that of 8,192-event batches.
        geometry = SensorGeometry(64, 48)
        events = uniform_events(200_000, geometry, t_end=2.0, seed=5)
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=1e-3, decay=Decay.linear(5.0)
        )

        def peak(source):
            tracemalloc.start()
            try:
                stats = run_accumulation(source, config, geometry, on_frame=lambda frame: None)
                return tracemalloc.get_traced_memory()[1], stats.frames
            finally:
                tracemalloc.stop()

        whole, whole_frames = peak(events)
        batched, batched_frames = peak(events[i : i + 8192] for i in range(0, len(events), 8192))
        assert whole_frames == batched_frames == 2000
        assert whole - batched < 4_000_000

    def test_a_push_of_full_frames_keeps_its_groups_small(self):
        # 300 decaying 240x180 frames from one push: the slices are integrated
        # in groups, whose work arrays grow with their events, not their
        # frames, so the peak stays near that of 8,192-event batches.
        geometry = SensorGeometry(240, 180)
        events = uniform_events(200_000, geometry, t_end=0.3, seed=5)
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=1e-3, decay=Decay.linear(5.0)
        )

        def peak(source):
            tracemalloc.start()
            try:
                stats = run_accumulation(source, config, geometry, on_frame=lambda frame: None)
                return tracemalloc.get_traced_memory()[1], stats.frames
            finally:
                tracemalloc.stop()

        whole, whole_frames = peak(events)
        batched, batched_frames = peak(events[i : i + 8192] for i in range(0, len(events), 8192))
        assert whole_frames == batched_frames == 300
        assert whole - batched < 4_000_000

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

    @pytest.mark.parametrize("mode", [PolarityMode.RECTIFIED, PolarityMode.SIGNED])
    def test_idle_ticks_share_their_empty_objects(self, mode):
        # One empty EventArray serves every idle slice, and one neutral
        # view serves every idle frame of a geometry and mode.
        ev = EventArray.from_columns([0.0005, 0.0505], [1, 2], [1, 1], [1, -1])
        slices = slice_by_time(ev, 1e-3)
        idle = [s for s in slices if len(s) == 0]
        assert len(idle) == 49
        assert all(s.events is EventArray.empty() for s in idle)
        assert EventArray.concatenate([]) is EventArray.empty()
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=1e-3, polarity_mode=mode
        )
        for geometry in (SensorGeometry(240, 180), SPEC):
            acc = FrameAccumulator(config, geometry)
            pixels = {id(acc.process(s).pixels) for s in idle}
            assert len(pixels) == 1
            frames, _ = accumulate_stream(ev, config, geometry)
            assert len(frames) == len(slices)
            assert {id(f.pixels) for f, s in zip(frames, slices) if len(s) == 0} == pixels


# Per-slice ceilings on W1-like noise (240x180, 15 events per pixel per
# second, 0.1 s, 64,900 events) sliced by time at 1 kHz, c = 0.2, fed in
# 256-event packets and in 8,192-event batches.  Each entry holds the
# ceilings (calls, bytes) and, in the comment, the values they sit just
# above (CPython 3.11.7, numpy 2.4.6).  Calls are the Python-level calls
# made from evframe's own code (`sys.setprofile`).  Bytes are the highest
# tracemalloc peak between two published frames, above the traced memory
# at the earlier one and beyond the new frame's pixels.  Counts of work
# do not drift with the host, so a change that adds fixed work per slice
# or a full-frame temporary fails here.
SLICE_BUDGETS = {
    ("rectified", "step", 256): (152, 730_000),  # 147.2 calls, 708,520 bytes
    ("rectified", "step", 8192): (60, 865_000),  # 57.8, 837,674
    ("rectified", "linear", 256): (243, 765_000),  # 235.2, 741,083
    ("rectified", "linear", 8192): (95, 1_115_000),  # 91.9, 1,081,275
    ("rectified", "exp", 256): (242, 435_000),  # 234.2, 420,547
    ("rectified", "exp", 8192): (93, 785_000),  # 90.0, 760,859
    ("signed", "step", 256): (188, 40_000),  # 182.2, 29,016
    ("signed", "step", 8192): (74, 435_000),  # 71.3, 421,008
    ("signed", "linear", 256): (246, 770_000),  # 238.2, 746,613
    ("signed", "linear", 8192): (104, 1_180_000),  # 100.4, 1,146,685
    ("signed", "exp", 256): (246, 435_000),  # 238.2, 420,427
    ("signed", "exp", 8192): (94, 785_000),  # 90.4, 760,731
}
BUDGET_DECAYS = {"step": Decay.step(), "linear": Decay.linear(5.0), "exp": Decay.exponential(0.05)}


@pytest.fixture(scope="module")
def w1_noise():
    geometry = SensorGeometry(240, 180)
    sensor = SensorModel(0.2, noise_rate=15.0, seed=0)
    return add_noise(EventArray.empty(), sensor, geometry, 0.1), geometry


class TestPerSliceBudgets:
    @staticmethod
    def arguments(w1_noise, mode, decay, size):
        """The run's arguments, built before anything is counted."""
        events, geometry = w1_noise
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME,
            interval=1e-3,
            contribution=0.2,
            polarity_mode=PolarityMode(mode),
            decay=BUDGET_DECAYS[decay],
        )
        return [events[i : i + size] for i in range(0, len(events), size)], config, geometry

    @pytest.mark.parametrize("mode, decay, size", list(SLICE_BUDGETS))
    def test_calls_per_slice(self, w1_noise, mode, decay, size):
        args = self.arguments(w1_noise, mode, decay, size)
        package = os.path.dirname(os.path.abspath(evframe.__file__)) + os.sep
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            # A Python callee's frame is its own; a C callee runs in its caller's.
            caller = frame.f_back if event == "call" else frame
            if event in ("call", "c_call") and caller is not None:
                calls += caller.f_code.co_filename.startswith(package)

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            stats = run_accumulation(*args)
        finally:
            sys.setprofile(previous)
        assert stats.frames == 100
        ceiling = SLICE_BUDGETS[mode, decay, size][0]
        assert calls / stats.frames <= ceiling, f"{calls / stats.frames:.1f} calls a slice"

    @pytest.mark.parametrize("mode, decay, size", list(SLICE_BUDGETS))
    def test_peak_bytes_per_slice(self, w1_noise, mode, decay, size):
        args = self.arguments(w1_noise, mode, decay, size)
        worst = base = 0

        def sink(frame):
            nonlocal worst, base
            current, peak = tracemalloc.get_traced_memory()
            worst = max(worst, peak - base - frame.pixels.nbytes)
            tracemalloc.reset_peak()
            base = current

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats = run_accumulation(*args, on_frame=sink)
        finally:
            tracemalloc.stop()
        assert stats.frames == 100
        assert worst <= SLICE_BUDGETS[mode, decay, size][1], f"{worst:,} bytes"


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


def test_package_exports():
    assert evframe.__all__ == [
        "AccumulatorConfig", "Decay", "DecayKind", "DegenerateFrame", "EventArray", "EventFrame",
        "FrameAccumulator", "FrameSpec", "InvalidPolarity", "MalformedLine", "MotionProfile",
        "NonMonotonicTimestamps", "OutOfBoundsEvent", "PairScore", "PipelineStats",
        "PolarityFlipReport", "PolarityMode", "SensorGeometry", "SensorModel", "SimilarityReport",
        "Slice", "SliceMethod", "StreamError", "StreamSlicer", "SyntheticScene", "UnknownPreset",
        "accumulate_stream", "add_noise", "bars", "checker", "contribution_level_sweep",
        "distinct_levels", "fill_ratio", "generate_events", "ncc", "neutral_value",
        "polarity_flip_report", "preset", "preset_names", "quantize_frame", "read_event_batches",
        "read_pgm", "run_accumulation", "saturation_fraction", "speed_invariance_report",
        "step_edge", "window_coverage_sweep", "write_events", "write_frame_index", "write_pgm",
    ]
    assert all(hasattr(evframe, name) for name in evframe.__all__)
