"""Acceptance suite: one test per primary behavioral guarantee.

Each test name carries its criterion number, so `pytest -v` prints one
pass/fail line per criterion.  Tolerances follow the statements the
suite certifies: exact where the behavior is discrete, bounded where
floating point or statistics are involved.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from evframe import (
    AccumulatorConfig,
    Decay,
    EventArray,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SliceMethod,
    StreamSlicer,
    MotionProfile,
    accumulate_slice,
    accumulate_stream,
    add_noise,
    apply_decay,
    distinct_levels,
    expected_event_count,
    generate_events,
    polarity_flip_report,
    quantize_frame,
    read_event_batches,
    read_frame_index,
    speed_invariance_report,
    step_edge,
    window_coverage_sweep,
    window_size_for,
    write_events,
    write_pgm,
)
from evframe.cli import main as cli_main
from evframe.slicer import Slice

from conftest import uniform_events

GEOMETRY = SensorGeometry(80, 60)
SPEC = SensorGeometry(80, 60)
SCENE = step_edge(GEOMETRY, 0.6)
INTERVAL = 1.0 / 32.0
WINDOW = 360


def one_pixel_slice(n_events: int) -> Slice:
    t = np.linspace(0.01, 0.02, n_events)
    x = np.full(n_events, 3, dtype=np.int32)
    y = np.full(n_events, 2, dtype=np.int32)
    p = np.ones(n_events, dtype=np.int8)
    return Slice(EventArray.from_columns(t, x, y, p), 0.05, n_events)


@pytest.fixture(scope="module")
def sweep_events():
    """The standard step-edge sweep: 40 px of travel at 64 px/s."""
    motion = MotionProfile.constant((64.0, 0.0), 0.625)
    return generate_events(SCENE, motion, SensorModel(0.2), 0.25 / 64.0)


def test_criterion_01_two_half_contribution_events_saturate_exactly():
    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_NUMBER, window_size=2, contribution=0.5
    )
    frame, _ = accumulate_slice(one_pixel_slice(2), config, SPEC)
    assert quantize_frame(frame)[2, 3] == 255
    frame, _ = accumulate_slice(one_pixel_slice(1), config, SPEC)
    assert quantize_frame(frame)[2, 3] == 128


def test_criterion_02_full_contribution_frames_are_binary(sweep_events):
    noise = add_noise(
        EventArray.empty(), SensorModel(0.2, noise_rate=20.0, seed=5), GEOMETRY, 0.625
    )
    for stream in (sweep_events, noise):
        for method in (SliceMethod.BY_TIME_AND_NUMBER, SliceMethod.BY_TIME):
            config = AccumulatorConfig(
                slice_method=method,
                window_size=WINDOW,
                interval=INTERVAL,
                contribution=1.0,
            )
            frames, _ = accumulate_stream(stream, config, SPEC, t0=0.0)
            assert frames
            assert all(distinct_levels(f) <= 2 for f in frames)


def test_criterion_03_window_size_formula_inverts_the_reference_density():
    assert window_size_for(10000 / (240 * 180), SensorGeometry(240, 180)) == 10000


def test_criterion_04_matched_windows_beat_fixed_intervals_across_speed():
    by_time, btn = speed_invariance_report(
        SCENE, (64.0, 128.0), INTERVAL, WINDOW, travel=40.0
    )
    assert btn.mean_score >= 0.9
    assert btn.mean_score - by_time.mean_score >= 0.05
    for counts in btn.events_per_slice.values():
        assert counts and set(counts) == {WINDOW}


def test_criterion_05_no_motion_hold_republishes_last_frame(tmp_path):
    motion = MotionProfile.constant((64.0, 0.0), 0.3125)
    moving = generate_events(SCENE, motion, SensorModel(0.2), 0.25 / 64.0)
    noise = add_noise(
        EventArray.empty(),
        SensorModel(0.2, noise_rate=0.5, seed=11),
        GEOMETRY,
        duration=0.625,
        t_start=0.3125,
    )
    stream_path = tmp_path / "events.txt"
    write_events(EventArray.concatenate([moving, noise]), stream_path)

    out_dir = tmp_path / "frames"
    code = cli_main([
        "accumulate",
        "--input", str(stream_path),
        "--geometry", "80x60",
        "--slice", "time-number",
        "--window-size", str(WINDOW),
        "--interval", str(INTERVAL),
        "--contribution", "0.5",
        "--no-motion-threshold", "200",
        "--t0", "0",
        "--out", str(out_dir),
    ])
    assert code == 0

    index = read_frame_index(out_dir / "index.csv")
    held_flags = [held for _, _, held in index]
    assert held_flags[:10] == [False] * 10
    assert all(held_flags[10:])
    assert len(held_flags) > 25
    last_motion_bytes = (out_dir / index[9][1]).read_bytes()
    assert any(px != 0 for px in last_motion_bytes[11:])
    for _, filename, held in index[10:]:
        assert (out_dir / filename).read_bytes() == last_motion_bytes


def test_criterion_06_reversal_flips_signed_mean_and_keeps_rectified_shape():
    report = polarity_flip_report(SCENE, 64.0, INTERVAL, WINDOW, 0.3125)
    assert report.signed_before_means and report.signed_after_means
    assert report.sign_flips
    assert report.rectified_scores
    assert report.min_rectified >= 0.8


def test_criterion_07_generator_matches_per_pixel_closed_form(sweep_events):
    per_event = expected_event_count(0.6, 0.2)
    assert per_event == 3
    counts = np.zeros((60, 80), dtype=np.int64)
    np.add.at(counts, (sweep_events.y, sweep_events.x), 1)
    expected = np.zeros((60, 80), dtype=np.int64)
    expected[:, 21:61] = per_event
    assert np.array_equal(counts, expected)

    motion = MotionProfile.constant((64.0, 0.0), 0.625)
    finer = generate_events(SCENE, motion, SensorModel(0.2), 0.125 / 64.0)
    fine_counts = np.zeros((60, 80), dtype=np.int64)
    np.add.at(fine_counts, (finer.y, finer.x), 1)
    assert np.array_equal(fine_counts, counts)


def test_criterion_08_slicers_conserve_events_and_stamps_do_not_drift():
    stream = uniform_events(10_000, GEOMETRY, t_end=40.0, seed=2)

    by_number = StreamSlicer(SliceMethod.BY_NUMBER, window_size=7)
    slices = by_number.push_batch(stream) + by_number.flush()
    rebuilt = EventArray.concatenate([s.events for s in slices] + [by_number.pending])
    assert len(rebuilt) == len(stream)
    assert np.array_equal(rebuilt.t, stream.t)
    assert np.array_equal(rebuilt.x, stream.x)
    assert np.array_equal(rebuilt.y, stream.y)
    assert np.array_equal(rebuilt.p, stream.p)
    assert all(len(s) == 7 for s in slices)

    for interval in (1.0 / 32.0, 1.0 / 30.0):
        slicer = StreamSlicer(
            SliceMethod.BY_TIME_AND_NUMBER, window_size=9, interval=interval, t0=0.0
        )
        published = slicer.push_batch(stream) + slicer.flush()
        assert len(published) >= 1000
        exact = Fraction(interval)
        for k, slc in enumerate(published, start=1):
            assert abs(Fraction(slc.publish_stamp) - k * exact) < Fraction(1, 1_000_000)


def test_criterion_09_decay_analytics_match_their_closed_forms():
    decayed = apply_decay(np.array([1.0]), 0.1, Decay.exponential(0.1), 0.0)
    assert abs(float(decayed[0]) - np.exp(-1.0)) < 1e-9

    stopped = apply_decay(np.array([0.3, 0.7]), 5.0, Decay.linear(1.0), 0.5)
    assert stopped.tolist() == [0.5, 0.5]

    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_NUMBER, window_size=50, contribution=0.2
    )
    probe = uniform_events(50, GEOMETRY, t_end=1.0, seed=99)
    probe_slice = Slice(probe, 1.5, 50)
    fresh, _ = accumulate_slice(probe_slice, config, SPEC)
    for seed in range(5):
        history = uniform_events(200, GEOMETRY, t_end=0.9, seed=seed)
        _, carry = accumulate_slice(Slice(history, 0.95, 200), config, SPEC)
        after_history, _ = accumulate_slice(probe_slice, config, SPEC, carry=carry)
        assert np.array_equal(after_history.pixels, fresh.pixels)


def test_criterion_10_fill_and_saturation_grow_with_window_size(sweep_events):
    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_TIME_AND_NUMBER,
        window_size=WINDOW,
        interval=INTERVAL,
        contribution=0.5,
    )
    scaled = [window_size_for(n / (240 * 180), GEOMETRY) for n in (2000, 10000, 30000)]
    assert scaled == [222, 1111, 3333]
    rows = window_coverage_sweep(sweep_events, GEOMETRY, config, scaled, t0=0.0)
    fills = [fill for _, fill, _ in rows]
    sats = [sat for _, _, sat in rows]
    assert fills == sorted(fills) and fills[0] < fills[-1]
    assert sats == sorted(sats)


def test_criterion_11_io_round_trips_and_cli_output_are_byte_stable(tmp_path):
    stream = uniform_events(100_000, SensorGeometry(240, 180), t_end=10.0, seed=7)
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    write_events(stream, first)
    with open(first, "r", encoding="ascii") as fh:
        reread = EventArray.concatenate(
            list(read_event_batches(fh, SensorGeometry(240, 180)))
        )
    write_events(reread, second)
    assert first.read_bytes() == second.read_bytes()

    golden = tmp_path / "golden.pgm"
    write_pgm(np.array([[0, 255], [128, 0]], dtype=np.uint8), golden)
    assert golden.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 0])

    events_path = tmp_path / "events.txt"
    motion = MotionProfile.constant((64.0, 0.0), 0.3125)
    write_events(generate_events(SCENE, motion, SensorModel(0.2), 0.25 / 64.0), events_path)
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        code = cli_main([
            "accumulate", "--input", str(events_path), "--geometry", "80x60",
            "--slice", "time-number", "--window-size", str(WINDOW),
            "--interval", str(INTERVAL), "--t0", "0", "--out", str(out_dir),
        ])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]


def test_criterion_12_pipeline_sustains_five_million_events_per_second():
    geometry = SensorGeometry(240, 180)
    sensor = SensorModel(0.2, noise_rate=15.0, seed=1)
    stream = add_noise(EventArray.empty(), sensor, geometry, duration=3.0)
    assert len(stream) > 1_500_000
    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_TIME_AND_NUMBER,
        window_size=20_000,
        interval=1.0 / 30.0,
        contribution=0.5,
    )
    stats = None
    for _ in range(3):
        stats = accumulate_stream(stream, config, geometry, t0=0.0)[1]
        if stats.events_per_second >= 5_000_000:
            break
    assert stats.frames > 0
    assert stats.events_per_second >= 5_000_000
