"""Validation and value semantics of the shared domain types."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    Decay,
    DecayKind,
    EventArray,
    EventFrame,
    NonMonotonicTimestamps,
    PolarityMode,
    SensorGeometry,
    SliceMethod,
    StreamSlicer,
    accumulate_stream,
    neutral_value,
    quantize_frame,
)

from oracles import quantize_pixels, window_size_for


class TestSensorGeometry:
    def test_pixel_count(self):
        assert SensorGeometry(240, 180).pixel_count == 43200

    def test_from_string(self):
        assert SensorGeometry.from_string("240x180") == SensorGeometry(240, 180)

    @pytest.mark.parametrize("text", ["240", "240x", "x180", "ax b", "240x180x2"])
    def test_from_string_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            SensorGeometry.from_string(text)

    def test_rejects_non_positive_sides(self):
        with pytest.raises(ValueError):
            SensorGeometry(0, 10)


class TestEventArray:
    def test_from_columns_round_trip(self):
        arr = EventArray.from_columns([0.1, 0.2], [1, 3], [2, 4], [1, -1])
        assert len(arr) == 2
        assert (arr.t.tolist(), arr.x.tolist(), arr.y.tolist(), arr.p.tolist()) == (
            [0.1, 0.2], [1, 3], [2, 4], [1, -1]
        )
        assert [c.dtype for c in (arr.t, arr.x, arr.y, arr.p)] == [
            np.float64, np.int32, np.int32, np.int8
        ]

    def test_empty(self):
        arr = EventArray.empty()
        assert len(arr) == 0
        assert arr.t.tolist() == []

    @pytest.mark.parametrize(
        "t,x,y,p",
        [
            ([0.0], [0], [0], [0]),
            ([0.0], [0], [0], [2]),
            ([0.0], [0], [0], [-2]),
            ([-1e-9], [0], [0], [1]),
            ([float("nan")], [0], [0], [1]),
            ([0.0], [-1], [0], [1]),
            ([0.0], [0], [-1], [1]),
        ],
        ids=["p0", "p2", "p-2", "negative-t", "nan-t", "negative-x", "negative-y"],
    )
    def test_rejects_invalid_event(self, t, x, y, p):
        with pytest.raises(ValueError):
            EventArray.from_columns(t, x, y, p)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(NonMonotonicTimestamps) as err:
            EventArray.from_columns(
                np.array([0.2, 0.1]),
                np.array([0, 0]),
                np.array([0, 0]),
                np.array([1, 1]),
            )
        assert str(err.value) == "timestamps decreased: 0.2 followed by 0.1"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EventArray.from_columns(
                np.array([0.1]),
                np.array([0, 1]),
                np.array([0, 1]),
                np.array([1, 1]),
            )

    def test_rejects_bad_polarity_values(self):
        with pytest.raises(ValueError):
            EventArray.from_columns(
                np.array([0.1]), np.array([0]), np.array([0]), np.array([0])
            )

    def test_columns_are_read_only(self):
        arr = EventArray.from_columns([0.1], [1], [2], [1])
        with pytest.raises(ValueError):
            arr.t[0] = 5.0

    def test_slicing_returns_view(self):
        arr = EventArray.from_columns([0.1, 0.2], [1, 3], [2, 4], [1, -1])
        tail = arr[1:]
        assert isinstance(tail, EventArray)
        assert len(tail) == 1
        assert (tail.t.tolist(), tail.x.tolist(), tail.y.tolist(), tail.p.tolist()) == (
            [0.2], [3], [4], [-1]
        )
        assert np.shares_memory(tail.t, arr.t)

    def test_concatenate(self):
        a = EventArray.from_columns([0.1], [0], [0], [1])
        b = EventArray.from_columns([0.2], [1], [1], [-1])
        joined = EventArray.concatenate([a, b])
        assert joined.t.tolist() == [0.1, 0.2]
        assert joined.x.tolist() == [0, 1]
        assert joined.p.tolist() == [1, -1]

    def test_concatenate_rejects_out_of_order_batches(self):
        a = EventArray.from_columns([0.5], [0], [0], [1])
        b = EventArray.from_columns([0.2], [1], [1], [-1])
        with pytest.raises(NonMonotonicTimestamps) as err:
            EventArray.concatenate([a, b])
        assert str(err.value) == "timestamp decreases across batches: 0.5 then 0.2"

    def test_integer_index_and_iteration_are_rejected(self):
        arr = EventArray.from_columns([0.1, 0.2], [1, 3], [2, 4], [1, -1])
        with pytest.raises(TypeError, match="slices only"):
            arr[0]
        with pytest.raises(TypeError):
            list(arr)


class TestFrameTypes:
    def test_event_frame_validates_shape(self):
        spec = SensorGeometry(4, 3)
        with pytest.raises(ValueError):
            EventFrame(spec=spec, pixels=np.zeros((4, 4)), stamp=0.0)

    def test_event_frame_validates_range(self):
        spec = SensorGeometry(4, 3)
        with pytest.raises(ValueError):
            EventFrame(spec=spec, pixels=np.full((3, 4), 1.5), stamp=0.0)

    @pytest.mark.parametrize("value", [1.5, -0.5, np.nan])
    def test_event_frame_validates_range_of_zero_stride_pixels(self, value):
        spec = SensorGeometry(4, 3)
        pixels = np.broadcast_to(np.float64(value), (3, 4))
        with pytest.raises(ValueError):
            EventFrame(spec=spec, pixels=pixels, stamp=0.0)

    @pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 3)])
    def test_event_frame_rejects_nan_pixels(self, at):
        pixels = np.full((3, 4), 0.5)
        pixels[at] = np.nan
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            EventFrame(SensorGeometry(4, 3), pixels, 0.0)

    def test_event_frame_pixels_read_only(self):
        spec = SensorGeometry(4, 3)
        frame = EventFrame(spec=spec, pixels=np.zeros((3, 4)), stamp=0.0)
        with pytest.raises(ValueError):
            frame.pixels[0, 0] = 1.0


class TestQuantize:
    def test_rounds_half_away_from_zero_at_8_bit(self):
        spec = SensorGeometry(2, 1)
        frame = EventFrame(spec=spec, pixels=np.array([[0.5, 1.0]]), stamp=0.0)
        raster = quantize_frame(frame)
        assert raster.dtype == np.uint8
        assert raster.tolist() == [[128, 255]]

    def test_16_bit_output(self):
        spec = SensorGeometry(2, 1)
        frame = EventFrame(spec=spec, pixels=np.array([[0.0, 1.0]]), stamp=0.0)
        raster = quantize_frame(frame, 16)
        assert raster.dtype == np.uint16
        assert raster.tolist() == [[0, 65535]]

    def test_rejects_odd_depth(self):
        frame = EventFrame(SensorGeometry(2, 1), np.array([[0.0, 1.0]]), 0.0)
        with pytest.raises(ValueError, match="bit depth must be 8 or 16, got 12"):
            quantize_frame(frame, 12)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_quantized_value_in_range(self, value):
        spec = SensorGeometry(1, 1)
        frame = EventFrame(spec=spec, pixels=np.array([[value]]), stamp=0.0)
        raster = quantize_frame(frame)
        assert 0 <= int(raster[0, 0]) <= 255

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_matches_the_floor_form(self, bit_depth):
        m = (1 << bit_depth) - 1
        k = np.arange(m + 1)
        steps = np.concatenate([k / m, (k[:-1] + 0.5) / m])
        values = np.concatenate(
            [
                [0.0, 0.5, 1.0, np.nextafter(0.5, 0.0)],
                steps,
                np.nextafter(steps, 0.0),
                np.nextafter(steps, 1.0),
                np.random.default_rng(0).random(10**6),
            ]
        ).clip(0.0, 1.0)
        frame = EventFrame(SensorGeometry(len(values), 1), values[None, :], 0.0)
        got, want = quantize_frame(frame, bit_depth), quantize_pixels(frame.pixels, bit_depth)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestConfig:
    def test_defaults_validate(self):
        config = AccumulatorConfig()
        assert config.slice_method is SliceMethod.BY_TIME_AND_NUMBER
        assert config.polarity_mode is PolarityMode.RECTIFIED
        assert config.decay.kind is DecayKind.STEP

    def test_rejects_bad_contribution(self):
        with pytest.raises(ValueError):
            AccumulatorConfig(contribution=0.0)
        with pytest.raises(ValueError):
            AccumulatorConfig(contribution=1.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AccumulatorConfig(window_size=0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            AccumulatorConfig(interval=0.0)

    @pytest.mark.parametrize("method", [SliceMethod.BY_TIME, SliceMethod.BY_TIME_AND_NUMBER])
    def test_rejects_infinite_interval(self, method):
        with pytest.raises(ValueError, match="interval must be finite, got inf"):
            AccumulatorConfig(slice_method=method, interval=math.inf)
        # BY_NUMBER ignores the interval.
        AccumulatorConfig(slice_method=SliceMethod.BY_NUMBER, interval=math.inf)

    @pytest.mark.parametrize(
        "method, window_size, interval, message",
        [
            (SliceMethod.BY_NUMBER, 0, 0.1, "window size must be >= 1, got 0"),
            (SliceMethod.BY_TIME_AND_NUMBER, -3, 0.1, "window size must be >= 1, got -3"),
            (SliceMethod.BY_TIME, 4, 0.0, "interval must be > 0, got 0.0"),
            (SliceMethod.BY_TIME_AND_NUMBER, 4, math.nan, "interval must be > 0, got nan"),
            (SliceMethod.BY_TIME, 4, math.inf, "interval must be finite, got inf"),
        ],
    )
    def test_config_and_slicer_share_the_slice_checks(
        self, method, window_size, interval, message
    ):
        for check in (
            lambda: method.check(window_size, interval),
            lambda: AccumulatorConfig(
                slice_method=method, window_size=window_size, interval=interval
            ),
            lambda: StreamSlicer(method, window_size=window_size, interval=interval),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check()

    def test_slice_check_skips_what_the_method_ignores(self):
        SliceMethod.BY_NUMBER.check(4, None)
        SliceMethod.BY_TIME.check(None, 0.1)
        with pytest.raises(ValueError, match="^window size must be >= 1, got None$"):
            SliceMethod.BY_TIME_AND_NUMBER.check(None, 0.1)

    def test_rejects_negative_no_motion_threshold(self):
        with pytest.raises(ValueError):
            AccumulatorConfig(no_motion_threshold=-1)

    def test_rejects_by_number_threshold_above_window(self):
        # A BY_NUMBER slice always counts window_size events, so this
        # threshold would hold every frame.
        with pytest.raises(ValueError, match="no_motion_threshold.*window_size"):
            AccumulatorConfig(
                slice_method=SliceMethod.BY_NUMBER, window_size=100, no_motion_threshold=101
            )
        AccumulatorConfig(
            slice_method=SliceMethod.BY_NUMBER, window_size=100, no_motion_threshold=100
        )
        AccumulatorConfig(window_size=100, no_motion_threshold=101)

    @pytest.mark.parametrize("decay", [Decay.linear(1.0), Decay.exponential(0.05)])
    def test_rejects_decay_with_time_number_slicing(self, decay):
        # Time-number windows overlap; a decaying buffer takes each event once.
        with pytest.raises(ValueError, match="decay.*slice_method time-number"):
            AccumulatorConfig(decay=decay)
        for method in (SliceMethod.BY_TIME, SliceMethod.BY_NUMBER):
            assert AccumulatorConfig(slice_method=method, decay=decay).decay == decay

    def test_decay_constructors(self):
        assert Decay.step().kind is DecayKind.STEP
        assert Decay.linear(2.0).rate == 2.0
        assert Decay.exponential(0.5).tau == 0.5
        with pytest.raises(ValueError):
            Decay.linear(0.0)
        with pytest.raises(ValueError):
            Decay.exponential(-1.0)

    def test_rejects_infinite_linear_rate(self):
        with pytest.raises(ValueError, match="linear decay rate must be finite, got inf"):
            Decay.linear(math.inf)

    def test_infinite_tau_means_no_decay(self):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, interval=0.5, decay=Decay.exponential(math.inf)
        )
        events = EventArray.from_columns([0.1, 0.2, 1.2], [1, 2, 1], [1, 1, 1], [1, 1, 1])
        frames, _ = accumulate_stream(events, config, SensorGeometry(4, 3))
        assert [f.pixels[1, 1:3].tolist() for f in frames] == [[0.2, 0.2]] * 2 + [[0.4, 0.2]]

    def test_neutral_values(self):
        assert neutral_value(PolarityMode.RECTIFIED) == 0.0
        assert neutral_value(PolarityMode.SIGNED) == 0.5


class TestWindowSizeFor:
    def test_dataset_scale_round_trip(self):
        geometry = SensorGeometry(240, 180)
        assert window_size_for(10000 / geometry.pixel_count, geometry) == 10000

    def test_rounds_to_nearest(self):
        geometry = SensorGeometry(10, 10)
        assert window_size_for(0.034, geometry) == 3
        assert window_size_for(0.035, geometry) == 4

    def test_floors_at_one(self):
        assert window_size_for(1e-9, SensorGeometry(10, 10)) == 1

    def test_rejects_non_positive_density(self):
        with pytest.raises(ValueError):
            window_size_for(0.0, SensorGeometry(10, 10))
