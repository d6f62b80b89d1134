"""Frame comparison metrics and the evaluation reports."""
from __future__ import annotations

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    Decay,
    DegenerateFrame,
    EventArray,
    EventFrame,
    FrameAccumulator,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SliceMethod,
    add_noise,
    contribution_level_sweep,
    distinct_levels,
    fill_ratio,
    generate_events,
    MotionProfile,
    ncc,
    polarity_flip_report,
    saturation_fraction,
    speed_invariance_report,
    step_edge,
    window_coverage_sweep,
)

from oracles import (
    held_contribution_level_sweep,
    held_polarity_flip_report,
    held_speed_invariance_report,
    held_window_coverage_sweep,
)

SPEC = SensorGeometry(8, 6)


def frame(pixels: np.ndarray, stamp: float = 1.0) -> EventFrame:
    h, w = pixels.shape
    return EventFrame(SensorGeometry(w, h), pixels.astype(np.float64), stamp)


def ramp_pixels() -> np.ndarray:
    return np.linspace(0.0, 1.0, 48).reshape(6, 8)


class TestNcc:
    def test_identical_frames_score_one(self):
        f = frame(ramp_pixels())
        assert ncc(f, f) == pytest.approx(1.0)

    def test_reflected_frame_scores_minus_one(self):
        px = ramp_pixels()
        assert ncc(frame(px), frame(1.0 - px)) == pytest.approx(-1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = frame(rng.uniform(size=(6, 8)))
        b = frame(rng.uniform(size=(6, 8)))
        assert ncc(a, b) == pytest.approx(ncc(b, a))

    def test_invariant_to_gain_and_offset(self):
        px = ramp_pixels() * 0.5
        scaled = frame(px * 1.7 + 0.1)
        assert ncc(frame(px), scaled) == pytest.approx(1.0)

    def test_constant_frame_is_degenerate(self):
        flat = frame(np.full((6, 8), 0.25))
        with pytest.raises(DegenerateFrame):
            ncc(flat, frame(ramp_pixels()))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ncc(frame(np.zeros((6, 8))), frame(np.zeros((4, 4))))

    def test_accepts_bare_arrays(self):
        px = ramp_pixels()
        assert ncc(px, px) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_score_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(6, 8))
        b = rng.uniform(size=(6, 8))
        assert -1.0 <= ncc(a, b) <= 1.0


class TestFrameStatistics:
    def test_fill_ratio_counts_non_neutral(self):
        px = np.zeros((10, 10))
        px[0, 0] = 0.3
        assert fill_ratio(frame(px)) == pytest.approx(0.01)

    def test_fill_ratio_all_neutral(self):
        assert fill_ratio(frame(np.zeros((6, 8)))) == 0.0

    def test_fill_ratio_signed_neutral(self):
        px = np.full((10, 10), 0.5)
        px[0, :2] = 0.7
        assert fill_ratio(frame(px), neutral=0.5) == pytest.approx(0.02)

    def test_saturation_fraction_over_active_pixels(self):
        px = np.zeros((10, 10))
        px[0, 0] = 1.0
        px[0, 1] = 0.4
        px[0, 2] = 0.4
        px[0, 3] = 0.4
        assert saturation_fraction(frame(px)) == pytest.approx(0.25)

    def test_saturation_fraction_without_activity(self):
        assert saturation_fraction(frame(np.zeros((6, 8)))) == 0.0

    def test_distinct_levels_counts_quantized_values(self):
        px = np.zeros((6, 8))
        px[0, 0] = 0.2
        px[0, 1] = 0.4
        px[0, 2] = 0.4000001
        assert distinct_levels(frame(px)) == 3


SCENE = step_edge(SensorGeometry(80, 60), 0.6)


@pytest.fixture(scope="module")
def reports():
    return speed_invariance_report(SCENE, (64.0, 128.0), 1.0 / 32.0, 360, travel=40.0)


@pytest.fixture(scope="module")
def flip_report():
    return polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 360, 0.3125)


@pytest.fixture(scope="module")
def sweep_events():
    motion = MotionProfile.constant((64.0, 0.0), 0.625)
    return generate_events(SCENE, motion, SensorModel(0.2), 0.25 / 64.0)


def noise(duration: float, seed: int = 3) -> EventArray:
    """Background activity only, about 96k events per second on SCENE's sensor."""
    return add_noise(
        EventArray.empty(), SensorModel(0.2, noise_rate=20, seed=seed), SCENE.geometry, duration
    )


@pytest.fixture(scope="module")
def noise_events():
    return noise(1.0)


def batches_of(events: EventArray, size: int):
    return (events[i : i + size] for i in range(0, len(events), size))


class TestSpeedInvarianceReport:
    def test_matched_windows_reach_perfect_score(self, reports):
        _, btn = reports
        assert btn.method == "by-time-and-number"
        assert btn.pairs[0].speed_a == 64.0
        assert btn.pairs[0].speed_b == 128.0
        assert btn.min_score == pytest.approx(1.0)

    def test_fixed_interval_scores_below_matched_windows(self, reports):
        by_time, btn = reports
        assert by_time.method == "by-time"
        assert by_time.mean_score < btn.mean_score

    def test_full_windows_hold_exactly_window_size_events(self, reports):
        _, btn = reports
        for counts in btn.events_per_slice.values():
            assert counts
            assert set(counts) == {360}

    def test_by_time_counts_scale_with_speed(self, reports):
        by_time, _ = reports
        slow = np.median(by_time.events_per_slice[64.0])
        fast = np.median(by_time.events_per_slice[128.0])
        assert fast == pytest.approx(2.0 * slow, rel=0.1)

    def test_a_repeated_speed_is_compared_once(self, reports):
        repeated = speed_invariance_report(
            SCENE, (64.0, 64, 128.0), 1.0 / 32.0, 360, travel=40.0
        )
        assert repeated == reports
        assert [len(report.pairs) for report in repeated] == [1, 1]

    @pytest.mark.parametrize("speeds", [(64.0,), (64.0, 64.0)])
    def test_needs_two_distinct_speeds(self, speeds):
        with pytest.raises(ValueError, match="^need at least 2 distinct speeds to compare$"):
            speed_invariance_report(SCENE, speeds, 1.0 / 32.0, 360)

    def test_rejects_frames_finer_than_the_simulation_step(self):
        # 1/32 s at 1 px/s is 1/32 px a frame, an eighth of a step.
        with pytest.raises(
            ValueError,
            match=r"^interval 0\.03125 s at the slowest speed 1 px/s moves the scene 0\.03125 px "
            r"a frame, under a quarter of the 0\.25 px simulation step$",
        ):
            speed_invariance_report(SCENE, (1.0, 64.0), 1.0 / 32.0, 360)


class TestPolarityFlipReport:
    def test_signed_band_flips_sides(self, flip_report):
        report = flip_report
        assert report.signed_before_means
        assert all(m > 0.5 for m in report.signed_before_means)
        assert all(m < 0.5 for m in report.signed_after_means)
        assert report.sign_flips

    def test_rectified_frames_still_correlate(self, flip_report):
        assert flip_report.rectified_scores
        assert flip_report.min_rectified > 0.5

    def test_half_duration_must_align_with_intervals(self):
        with pytest.raises(ValueError, match="whole number"):
            polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 360, 0.3)

    @pytest.mark.parametrize("half_duration", [math.inf, math.nan, 0.0, -1.0])
    def test_half_duration_must_be_finite_and_positive(self, half_duration):
        message = f"half_duration must be a finite number > 0 s, got {half_duration:g}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 360, half_duration)

    @pytest.mark.parametrize(
        "interval, window_size, message",
        [
            (0.0, 360, "interval must be > 0, got 0.0"),
            (math.nan, 360, "interval must be > 0, got nan"),
            (math.inf, 360, "interval must be finite, got inf"),
            (1.0 / 32.0, 0, "window size must be >= 1, got 0"),
        ],
    )
    def test_slice_settings_are_checked_first(self, interval, window_size, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            polarity_flip_report(SCENE, 64.0, interval, window_size, 0.3125)


class TestSweeps:
    def base_config(self, **kwargs) -> AccumulatorConfig:
        base = dict(
            slice_method=SliceMethod.BY_TIME_AND_NUMBER,
            window_size=360,
            interval=1.0 / 32.0,
            contribution=0.5,
        )
        base.update(kwargs)
        return AccumulatorConfig(**base)

    def test_window_sweep_fill_grows_with_window(self, sweep_events):
        rows = window_coverage_sweep(
            sweep_events, SCENE.geometry, self.base_config(), (180, 720, 2880)
        )
        sizes = [n for n, _, _ in rows]
        fills = [f for _, f, _ in rows]
        sats = [s for _, _, s in rows]
        assert sizes == [180, 720, 2880]
        assert fills == sorted(fills)
        assert fills[0] < fills[-1]
        assert all(0.0 <= s <= 1.0 for s in sats)

    def test_contribution_sweep_levels_shrink_as_c_grows(self, sweep_events):
        rows = contribution_level_sweep(
            sweep_events, SCENE.geometry, self.base_config(window_size=720), (0.1, 0.5, 1.0)
        )
        levels = {c: n for c, n in rows}
        assert levels[0.1] >= levels[0.5] >= levels[1.0]
        assert levels[1.0] == 2

    def test_contribution_sweep_tells_contributions_apart(self, noise_events):
        rows = contribution_level_sweep(
            noise_events, SCENE.geometry, self.base_config(window_size=4000), (0.1, 0.25, 0.5, 1.0)
        )
        assert rows == [(0.1, 7), (0.25, 5), (0.5, 3), (1.0, 2)]

    def test_sweeps_take_batches(self, noise_events):
        config = self.base_config(window_size=4000)
        for sweep, values in (
            (window_coverage_sweep, (180, 720, 2880)),
            (contribution_level_sweep, (0.1, 0.25, 0.5, 1.0)),
        ):
            whole = sweep(noise_events, SCENE.geometry, config, values)
            for size in (1000, 4096, 70_000):
                batches = batches_of(noise_events, size)
                assert sweep(batches, SCENE.geometry, config, values) == whole

    def test_window_never_full_raises(self, noise_events):
        # About 3k events arrive per interval, so a 100k window is never full.
        config = self.base_config()
        args = (noise_events, SCENE.geometry, config, (180, 720, 100_000))
        for sweep in (window_coverage_sweep, held_window_coverage_sweep):
            with pytest.raises(ValueError, match="no frame index is non-partial"):
                sweep(*args)
        args = (noise_events, SCENE.geometry, replace(config, window_size=100_000), (0.1, 1.0))
        for sweep in (contribution_level_sweep, held_contribution_level_sweep):
            with pytest.raises(ValueError, match="no frame index is non-partial"):
                sweep(*args)

    @pytest.mark.parametrize(
        "sweep, values",
        [(window_coverage_sweep, (180, 720)), (contribution_level_sweep, (0.1, 0.5))],
    )
    def test_decaying_config_is_rejected_before_any_batch_is_read(
        self, noise_events, sweep, values
    ):
        # The config is valid by time, but the sweeps slice by time and number.
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=Decay.exponential(0.05)
        )
        read = []

        def batches():
            read.append(True)
            yield noise_events

        with pytest.raises(
            ValueError, match="^decay exp needs disjoint slices, but slice_method time-number "
        ):
            sweep(batches(), SCENE.geometry, config, values)
        assert read == []

    @pytest.mark.parametrize("sweep", [window_coverage_sweep, contribution_level_sweep])
    def test_memory_does_not_grow_with_the_input(self, sweep):
        events = noise(2.0, seed=4)
        assert len(events) > 190_000
        config = self.base_config(window_size=4000)
        values = (180, 720, 2880) if sweep is window_coverage_sweep else (0.1, 0.5, 1.0)

        def traced_peak(n: int) -> int:
            batches = batches_of(events[:n], 4096)
            tracemalloc.start()
            try:
                sweep(batches, SCENE.geometry, config, values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        quarter = len(events) // 4
        traced_peak(quarter)  # a first run also traces numpy's lazy imports
        assert traced_peak(len(events)) < 1.25 * traced_peak(quarter)


def assert_same_frames(new, old):
    assert (new is None) == (old is None)
    for a, b in zip(new or (), old or ()):
        assert a.stamp == b.stamp
        assert np.array_equal(a.pixels, b.pixels)


class TestStreamedReports:
    """The streamed reports against the builders that hold every frame."""

    @pytest.mark.parametrize(
        "speeds",
        [
            (64.0, 128.0, 256.0),
            (32.0, 64.0, 128.0, 256.0),
            (64.0, 100.0, 256.0),
            (256.0, 64.0),
            (64.0, 64.0, 128.0),
            (48.0, 80.0, 200.0),
            (24.0, 40.0),
        ],
    )
    def test_speed_invariance_equals_oracle(self, speeds):
        args = (SCENE, speeds, 1.0 / 32.0, 360)
        new = speed_invariance_report(*args, travel=40.0)
        old = held_speed_invariance_report(*args, travel=40.0)
        assert new == old
        assert all(report.pairs and report.panel for report in new)
        for a, b in zip(new, old):
            assert_same_frames(a.panel, b.panel)

    @pytest.mark.parametrize("interval", [1.0 / 256.0, 1.0 / 512.0])
    def test_degenerate_frames_equal_oracle(self, interval):
        scene = step_edge(SensorGeometry(8, 6), 0.6)
        args = (scene, (64.0, 128.0, 256.0), interval, 360)
        new = speed_invariance_report(*args, travel=4.0)
        old = held_speed_invariance_report(*args, travel=4.0)
        assert new == old
        assert new[0].degenerate_pairs > 0
        for a, b in zip(new, old):
            assert_same_frames(a.panel, b.panel)

    @pytest.mark.parametrize(
        "window_size, half_duration",
        [
            pytest.param(360, 0.3125, id="360"),
            pytest.param(1000, 0.3125, id="1000"),
            pytest.param(2000, 0.3125, id="2000"),
            # One interval before the reversal; a window of 360 leaves it partial.
            pytest.param(180, 1.0 / 32.0, id="180-one-interval"),
            pytest.param(360, 1.25, id="360-forty-intervals"),
        ],
    )
    def test_polarity_flip_equals_oracle(self, window_size, half_duration):
        args = (SCENE, 64.0, 1.0 / 32.0, window_size, half_duration)
        new = polarity_flip_report(*args)
        old = held_polarity_flip_report(*args)
        assert new == old
        assert new.rectified_scores
        assert new.panels.keys() == old.panels.keys() == set(PolarityMode)
        for mode in PolarityMode:
            assert_same_frames(new.panels[mode], old.panels[mode])

    def test_polarity_flip_frames_do_not_grow_with_the_run(self, monkeypatch):
        process = FrameAccumulator.process

        def peak_live_frames(half_duration: float) -> int:
            frames, peak = [], 0

            def tracked(accumulator, slc):
                nonlocal peak
                frame = process(accumulator, slc)
                frames.append(weakref.ref(frame))
                peak = max(peak, sum(ref() is not None for ref in frames))
                return frame

            monkeypatch.setattr(FrameAccumulator, "process", tracked)
            polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 360, half_duration)
            return peak

        # 10 and 40 intervals before the reversal: the four panels and one pair's frames.
        assert peak_live_frames(0.3125) == peak_live_frames(1.25) <= 8

    def test_partial_slices_drop_pairs(self):
        report = polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 2000, 0.3125)
        assert 0 < len(report.rectified_scores) < int(0.3125 * 32)

    def test_sweeps_equal_oracle(self, sweep_events, noise_events):
        config = TestSweeps().base_config()
        # The step edge gives two gray levels at every contribution; the
        # noise gives a different count at each one.
        for events, window_size, contributions in (
            (sweep_events, 720, (0.1, 0.5, 1.0)),
            (noise_events, 4000, (0.1, 0.25, 0.5, 1.0)),
        ):
            for polarity in PolarityMode:
                cfg = replace(config, polarity_mode=polarity)
                args = (events, SCENE.geometry, cfg, (180, 720, 2880))
                assert window_coverage_sweep(*args) == held_window_coverage_sweep(*args)
            cfg = replace(config, window_size=window_size)
            args = (events, SCENE.geometry, cfg, contributions)
            assert contribution_level_sweep(*args) == held_contribution_level_sweep(*args)

    def test_speed_invariance_memory_does_not_grow_with_the_sweep(self):
        scene = step_edge(SensorGeometry(240, 180), 0.6)

        def traced_peak(speeds) -> int:
            tracemalloc.start()
            try:
                speed_invariance_report(scene, speeds, 1.0 / 32.0, 360, travel=40.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The sweep at 16 px/s publishes four times the frames of the one at 64.
        assert traced_peak((16.0, 64.0, 256.0)) < 1.25 * traced_peak((64.0, 128.0, 256.0))
