"""Frame comparison metrics and the evaluation reports."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    DegenerateFrame,
    EventFrame,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SliceMethod,
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

    def test_same_speed_twice_matches_everywhere(self):
        by_time, btn = speed_invariance_report(
            SCENE, (64.0, 64.0), 1.0 / 32.0, 360, travel=20.0
        )
        for report in (by_time, btn):
            assert report.pairs
            assert report.min_score == pytest.approx(1.0)

    def test_needs_two_speeds(self):
        with pytest.raises(ValueError, match="2 speeds"):
            speed_invariance_report(SCENE, (64.0,), 1.0 / 32.0, 360)


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

    @pytest.mark.parametrize("window_size", [360, 1000, 2000])
    def test_polarity_flip_equals_oracle(self, window_size):
        args = (SCENE, 64.0, 1.0 / 32.0, window_size, 0.3125)
        new = polarity_flip_report(*args)
        old = held_polarity_flip_report(*args)
        assert new == old
        assert new.rectified_scores
        assert new.panels.keys() == old.panels.keys() == set(PolarityMode)
        for mode in PolarityMode:
            assert_same_frames(new.panels[mode], old.panels[mode])

    def test_partial_slices_drop_pairs(self):
        report = polarity_flip_report(SCENE, 64.0, 1.0 / 32.0, 2000, 0.3125)
        assert 0 < len(report.rectified_scores) < int(0.3125 * 32)

    def test_sweeps_equal_oracle(self, sweep_events):
        config = TestSweeps().base_config()
        for polarity in PolarityMode:
            cfg = replace(config, polarity_mode=polarity)
            args = (sweep_events, SCENE.geometry, cfg, (180, 720, 2880))
            assert window_coverage_sweep(*args) == held_window_coverage_sweep(*args)
        args = (sweep_events, SCENE.geometry, replace(config, window_size=720), (0.1, 0.5, 1.0))
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
