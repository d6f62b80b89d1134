"""Synthetic generator against its closed-form ground truth."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    EventArray,
    MotionProfile,
    SensorGeometry,
    SensorModel,
    SyntheticScene,
    add_noise,
    bars,
    checker,
    generate_events,
    step_edge,
)
from evframe import synth
from evframe.synth import _sample
from oracles import dense_generate_events, expected_event_count

GEOMETRY = SensorGeometry(16, 8)


def per_pixel_signed_counts(ev: EventArray, geometry: SensorGeometry) -> np.ndarray:
    out = np.zeros((geometry.height, geometry.width), dtype=np.int64)
    np.add.at(out, (ev.y, ev.x), ev.p.astype(np.int64))
    return out


def per_pixel_counts(ev: EventArray, geometry: SensorGeometry) -> np.ndarray:
    out = np.zeros((geometry.height, geometry.width), dtype=np.int64)
    np.add.at(out, (ev.y, ev.x), 1)
    return out


def four_corner_sample(field: np.ndarray, ox: float, oy: float) -> np.ndarray:
    """Bilinear sampling gathering all four corners per pixel, as originally written."""
    h, w = field.shape
    u = np.clip(np.arange(w) - ox, 0.0, w - 1.0)
    v = np.clip(np.arange(h) - oy, 0.0, h - 1.0)
    x0 = np.minimum(u.astype(np.intp), w - 2) if w > 1 else np.zeros(w, dtype=np.intp)
    y0 = np.minimum(v.astype(np.intp), h - 2) if h > 1 else np.zeros(h, dtype=np.intp)
    fx = u - x0
    fy = v - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    a = field[np.ix_(y0, x0)]
    b = field[np.ix_(y0, x1)]
    c = field[np.ix_(y1, x0)]
    d = field[np.ix_(y1, x1)]
    top = a + (b - a) * fx[None, :]
    bot = c + (d - c) * fx[None, :]
    return top + (bot - top) * fy[:, None]


class TestSample:
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.floats(-20.0, 20.0, allow_nan=False),
        st.floats(-20.0, 20.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_four_corner_formula_bitwise(self, h, w, seed, ox, oy):
        field = np.random.default_rng(seed).normal(size=(h, w))
        got = _sample(field, ox, oy)
        want = four_corner_sample(field, ox, oy)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("ox,oy", [(0.0, 0.0), (-3.5, 0.25), (1.75, -0.5), (400.0, 0.0)])
    def test_step_edge_matches_four_corner_formula_bitwise(self, ox, oy):
        field = step_edge(GEOMETRY, height=0.6).field
        want = four_corner_sample(field, ox, oy)
        assert np.array_equal(_sample(field, ox, oy).view(np.uint64), want.view(np.uint64))


class TestExpectedEventCount:
    @pytest.mark.parametrize(
        "height,threshold,count",
        [
            (0.6, 0.2, 3),
            (0.5, 0.2, 2),
            (0.2, 0.2, 1),
            (0.19, 0.2, 0),
            (0.0, 0.2, 0),
            (1.0, 0.25, 4),
            (0.6, 0.3, 2),
        ],
    )
    def test_known_counts(self, height, threshold, count):
        assert expected_event_count(height, threshold) == count

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_event_count(0.5, 0.0)
        with pytest.raises(ValueError):
            expected_event_count(-0.1, 0.2)


class TestScenes:
    def test_step_edge_field(self):
        scene = step_edge(GEOMETRY, 0.6)
        assert scene.field.shape == (8, 16)
        assert np.all(scene.field[:, :5] == 0.6)
        assert np.all(scene.field[:, 5:] == 0.0)

    def test_step_edge_rejects_outside_edge(self):
        with pytest.raises(ValueError):
            step_edge(GEOMETRY, 0.6, edge_x=16)

    def test_bars_has_sharp_and_ramped_edge(self):
        scene = bars(SensorGeometry(40, 4), height=0.6, ramp_px=6)
        field = scene.field
        assert field[0, 10] == 0.6 and field[0, 11] == 0.0
        ramp = field[0, 20:27]
        assert ramp[0] == 0.0 and ramp[-1] == 0.6
        assert np.all(np.diff(ramp) > 0.0)

    def test_checker_alternates(self):
        scene = checker(SensorGeometry(16, 16), cell=4, height=0.5)
        assert scene.field[0, 0] == 0.0
        assert scene.field[0, 4] == 0.5
        assert scene.field[4, 0] == 0.5
        assert scene.field[4, 4] == 0.0

    def test_scene_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SyntheticScene(np.zeros((4, 4)), GEOMETRY)

    def test_scene_field_locked(self):
        scene = step_edge(GEOMETRY, 0.6)
        with pytest.raises(ValueError):
            scene.field[0, 0] = 1.0


class TestMotionProfile:
    def test_duration_and_max_speed(self):
        motion = MotionProfile.reversing((3.0, 4.0), 2.0)
        assert motion.duration == 4.0
        assert motion.max_speed == 5.0

    def test_offsets_out_and_back(self):
        motion = MotionProfile.reversing((2.0, 0.0), 1.0)
        offsets = motion.offsets_at(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert offsets[:, 0].tolist() == [0.0, 1.0, 2.0, 1.0, 0.0]
        assert np.all(offsets[:, 1] == 0.0)

    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError):
            MotionProfile(())

    @pytest.mark.parametrize("duration", [0.0, math.inf, math.nan])
    def test_rejects_zero_duration_segment(self, duration):
        with pytest.raises(ValueError, match="^segment duration must be a finite number > 0, got "):
            MotionProfile.constant((1.0, 0.0), duration)


class TestGenerateEvents:
    def test_swept_pixels_fire_exactly_floor_h_over_c(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((8.0, 0.0), 1.0)
        sensor = SensorModel(contrast_threshold=0.2)
        ev = generate_events(scene, motion, sensor, 1.0 / 32.0)
        counts = per_pixel_counts(ev, GEOMETRY)
        expected = np.zeros((8, 16), dtype=np.int64)
        expected[:, 5:13] = expected_event_count(0.6, 0.2)
        assert np.array_equal(counts, expected)
        assert np.all(ev.p == 1)
        assert int(counts.sum()) == 8 * 8 * 3

    def test_counts_stable_under_time_step_refinement(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((8.0, 0.0), 1.0)
        sensor = SensorModel(contrast_threshold=0.2)
        coarse = generate_events(scene, motion, sensor, 1.0 / 32.0)
        fine = generate_events(scene, motion, sensor, 1.0 / 64.0)
        assert np.array_equal(
            per_pixel_counts(coarse, GEOMETRY), per_pixel_counts(fine, GEOMETRY)
        )

    def test_timestamps_lie_on_step_grid(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((8.0, 0.0), 0.99)
        sensor = SensorModel(contrast_threshold=0.2)
        dt = 1.0 / 32.0
        ev = generate_events(scene, motion, sensor, dt)
        assert float(ev.t[0]) > 0.0
        assert float(ev.t[-1]) <= 0.99
        on_grid = np.isclose(ev.t / dt, np.round(ev.t / dt)) | np.isclose(ev.t, 0.99)
        assert on_grid.all()

    def test_reversal_produces_both_polarities_in_order(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.reversing((8.0, 0.0), 0.5)
        sensor = SensorModel(contrast_threshold=0.2)
        ev = generate_events(scene, motion, sensor, 1.0 / 64.0)
        assert set(np.unique(ev.p)) == {-1, 1}
        first_neg = int(np.argmax(ev.p < 0))
        assert np.all(ev.p[:first_neg] == 1)
        assert float(ev.t[first_neg]) > 0.5

    def test_time_rescaling_covariance(self):
        scene = step_edge(GEOMETRY, 0.6)
        sensor = SensorModel(contrast_threshold=0.2)
        slow = generate_events(
            scene, MotionProfile.constant((8.0, 0.0), 1.0), sensor, 1.0 / 32.0
        )
        fast = generate_events(
            scene, MotionProfile.constant((16.0, 0.0), 0.5), sensor, 1.0 / 64.0
        )
        assert np.array_equal(slow.x, fast.x)
        assert np.array_equal(slow.y, fast.y)
        assert np.array_equal(slow.p, fast.p)
        assert np.array_equal(slow.t * 0.5, fast.t)

    def test_rejects_coarse_time_step(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((8.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            generate_events(scene, motion, SensorModel(0.2), 0.0625)

    def test_rejects_non_positive_time_step(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((8.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            generate_events(scene, motion, SensorModel(0.2), 0.0)

    @pytest.mark.parametrize(
        "segments, time_step, message",
        [
            # One step past the bound, exact in binary.
            (((2**21 + 2**-10, (8.0, 0.0)),), 2**-10,
             "duration 2.09715e+06 s at time step 0.000976562 s takes 2.15e+09 steps, over 2**31"),
            (((1e7, (100.0, 0.0)),), 0.0025,
             "duration 1e+07 s at time step 0.0025 s takes 4e+09 steps, over 2**31"),
            # Two finite segments whose sum overflows.
            (((1e308, (1.0, 0.0)), (1e308, (-1.0, 0.0))), 0.25,
             "duration inf s at time step 0.25 s takes inf steps, over 2**31"),
        ],
        ids=["one-step-over", "ten-million-seconds", "overflowing-sum"],
    )
    def test_rejects_over_2_31_steps_before_allocating(self, segments, time_step, message):
        with pytest.raises(ValueError) as exc:
            generate_events(step_edge(GEOMETRY, 0.6), MotionProfile(segments), SENSOR, time_step)
        assert str(exc.value) == message

    def test_static_scene_is_silent(self):
        scene = step_edge(GEOMETRY, 0.6)
        motion = MotionProfile.constant((0.0, 0.0), 1.0)
        ev = generate_events(scene, motion, SensorModel(0.2), 0.01)
        assert len(ev) == 0

    @given(
        st.integers(0, 1000),
        st.sampled_from([0.1, 0.2, 0.25]),
        st.sampled_from([(6.0, 0.0), (4.0, 2.0), (-6.0, 0.0)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_net_change_telescopes_to_brightness_change(self, salt, c, velocity):
        rng = np.random.default_rng(salt)
        geometry = SensorGeometry(10, 6)
        field = rng.uniform(0.0, 1.0, size=(6, 10))
        scene = SyntheticScene(field, geometry)
        motion = MotionProfile.constant(velocity, 0.75)
        ev = generate_events(scene, motion, SensorModel(c), 0.25 / 6.0)
        net = per_pixel_signed_counts(ev, geometry) * c

        def brightness(ox, oy):
            u = np.clip(np.arange(10) - ox, 0, 9)
            v = np.clip(np.arange(6) - oy, 0, 5)
            x0 = np.minimum(u.astype(int), 8)
            y0 = np.minimum(v.astype(int), 4)
            fx, fy = u - x0, v - y0
            f = field
            top = f[np.ix_(y0, x0)] * (1 - fx) + f[np.ix_(y0, x0 + 1)] * fx
            bot = f[np.ix_(y0 + 1, x0)] * (1 - fx) + f[np.ix_(y0 + 1, x0 + 1)] * fx
            return top * (1 - fy[:, None]) + bot * fy[:, None]

        ox, oy = velocity[0] * 0.75, velocity[1] * 0.75
        change = brightness(ox, oy) - brightness(0.0, 0.0)
        assert np.all(np.abs(change - net) < c + 1e-6)


def assert_same_stream(got: EventArray, want: EventArray) -> None:
    """Bit-for-bit equality of two streams, timestamps compared as bits."""
    assert len(got) == len(want)
    assert np.array_equal(got.t.view(np.uint64), want.t.view(np.uint64))
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.p, want.p)


def horizontal_edge(geometry: SensorGeometry, height: float = 0.6) -> SyntheticScene:
    """Bright above row h // 4, dark below: only rows vary."""
    field = np.zeros((geometry.height, geometry.width))
    field[: geometry.height // 4 + 1] = height
    return SyntheticScene(field, geometry)


SPARSE = SensorGeometry(48, 36)
SENSOR = SensorModel(contrast_threshold=0.2)


class TestSparseSynthesisMatchesDenseOracle:
    """`generate_events` resamples only live pixels; the oracle resamples all."""

    @pytest.mark.parametrize("speed", [16.0, 32.0, 64.0])
    def test_step_edge_at_each_speed(self, speed):
        scene = step_edge(SPARSE, 0.6)
        motion = MotionProfile.constant((speed, 0.0), 20.0 / speed)
        dt = 0.25 / speed
        assert_same_stream(
            generate_events(scene, motion, SENSOR, dt),
            dense_generate_events(scene, motion, SENSOR, dt),
        )

    @pytest.mark.parametrize(
        "scene,motion,dt",
        [
            pytest.param(step_edge(SPARSE, 0.6), MotionProfile.reversing((32.0, 0.0), 0.3125),
                         0.25 / 32, id="out-and-back"),
            pytest.param(bars(SPARSE), MotionProfile.constant((32.0, 0.0), 0.625),
                         0.25 / 32, id="bars"),
            pytest.param(checker(SPARSE, cell=6), MotionProfile.constant((32.0, 10.0), 0.625),
                         0.2 / 32, id="checker-diagonal"),
            pytest.param(step_edge(SPARSE, 0.6, edge_x=40),
                         MotionProfile.constant((30.0, 20.0), 1.0), 0.25 / 36,
                         id="edge-leaves-field"),
            pytest.param(step_edge(SPARSE, 0.6, edge_x=3),
                         MotionProfile.constant((-30.0, 0.0), 0.5), 0.25 / 30,
                         id="edge-leaves-left"),
            pytest.param(horizontal_edge(SPARSE), MotionProfile.reversing((0.0, 24.0), 0.5),
                         0.25 / 24, id="vertical-only"),
            pytest.param(step_edge(SensorGeometry(40, 1), 0.6),
                         MotionProfile.reversing((20.0, 0.0), 0.5), 0.25 / 20, id="one-row"),
            pytest.param(horizontal_edge(SensorGeometry(1, 40)),
                         MotionProfile.reversing((0.0, 20.0), 0.5), 0.25 / 20, id="one-column"),
            pytest.param(step_edge(SensorGeometry(40, 1), 0.6),
                         MotionProfile.constant((0.0, 20.0), 0.5), 0.25 / 20,
                         id="one-row-moving-across"),
            pytest.param(SyntheticScene(np.full((1, 1), 0.4), SensorGeometry(1, 1)),
                         MotionProfile.constant((20.0, 20.0), 0.5), 0.25 / 30, id="one-pixel"),
            pytest.param(checker(SPARSE), MotionProfile.constant((0.0, 0.0), 0.5), 0.01,
                         id="static"),
        ],
    )
    def test_scene(self, scene, motion, dt):
        assert_same_stream(
            generate_events(scene, motion, SENSOR, dt),
            dense_generate_events(scene, motion, SENSOR, dt),
        )

    @pytest.fixture
    def sampled(self, monkeypatch):
        """Pixel counts of every `_interpolate` call `generate_events` makes."""
        sizes = []
        real = synth._interpolate

        def counting(field, xs, ys):
            out = real(field, xs, ys)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(synth, "_interpolate", counting)
        return sizes

    def test_static_scene_samples_only_the_reference(self, sampled):
        ev = generate_events(
            checker(SPARSE), MotionProfile.constant((0.0, 0.0), 0.5), SENSOR, 0.01
        )
        assert len(ev) == 0
        assert sampled == [SPARSE.pixel_count]

    def test_step_edge_resamples_a_few_columns_per_step(self, sampled):
        scene = step_edge(SPARSE, 0.6)
        ev = generate_events(
            scene, MotionProfile.constant((32.0, 0.0), 0.625), SENSOR, 0.25 / 32
        )
        assert len(ev) == 20 * SPARSE.height * 3
        reference, steps = sampled[0], sampled[1:]
        assert reference == SPARSE.pixel_count
        # Each pixel column is on the edge's column pair for at most two
        # steps' worth of footprints.
        assert max(steps) <= 3 * SPARSE.height
        assert sum(steps) < 0.05 * 80 * SPARSE.pixel_count

    @pytest.mark.parametrize("scene", [step_edge, bars, checker])
    @pytest.mark.parametrize("motion", [MotionProfile.constant, MotionProfile.reversing])
    def test_cli_scenes_never_sample_a_whole_frame(self, sampled, scene, motion):
        # The CLI and the eval reports move their scenes horizontally at
        # 0.25 px a step, so no row pair is ever live: each step samples
        # every row of a few columns, never the whole frame.
        geometry = SensorGeometry(80, 60)
        generate_events(
            scene(geometry, height=0.6), motion((100.0, 0.0), 0.4), SENSOR, 0.25 / 100
        )
        reference, steps = sampled[0], sampled[1:]
        assert reference == geometry.pixel_count
        assert steps and max(steps) < geometry.pixel_count

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_blocks_of_steps_do_not_change_the_stream(self, monkeypatch, block):
        monkeypatch.setattr(synth, "_STEPS_PER_BLOCK", block)
        scene = checker(SPARSE, cell=6)
        motion = MotionProfile.reversing((32.0, 10.0), 0.3125)
        assert_same_stream(
            generate_events(scene, motion, SENSOR, 0.2 / 32),
            dense_generate_events(scene, motion, SENSOR, 0.2 / 32),
        )

    @pytest.mark.parametrize("block", [1, 2, 3, 256])
    def test_quantum_left_by_rounding_fires_at_the_next_step(self, monkeypatch, block):
        # H = 4.899999999299999 is 7 quanta of C = 0.7 within the slack,
        # but after a pixel's last bilinear step its reference rounds to
        # leave a whole quantum, which the dense loop releases one step
        # later with the sample unchanged.  The sparse loop must
        # resample that pixel although its footprint is constant, also
        # when the next step starts a new block of footprints.
        monkeypatch.setattr(synth, "_STEPS_PER_BLOCK", block)
        height, c = 4.899999999299999, 0.7
        row = np.zeros((1, 8))
        row[0, :4] = height
        # The edge swept along a row, then the same edge transposed and
        # swept down a column, where the whole frame is resampled.
        for field, velocity in ((row, (1.0, 0.0)), (row.T, (0.0, 1.0))):
            geometry = SensorGeometry(field.shape[1], field.shape[0])
            scene = SyntheticScene(field.copy(), geometry)
            motion = MotionProfile.constant(velocity, 3.0)
            for dt in (0.35, 0.41):
                got = generate_events(scene, motion, SensorModel(c), dt)
                assert_same_stream(got, dense_generate_events(scene, motion, SensorModel(c), dt))
                counts = per_pixel_counts(got, geometry).reshape(-1)
                assert counts[4:7].tolist() == [expected_event_count(height, c)] * 3

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.integers(0, 4),
        st.sampled_from([0.05, 0.1, 0.2, 0.3]),
        st.lists(
            st.tuples(
                st.integers(1, 12),
                st.floats(-0.35, 0.35, allow_nan=False),
                st.floats(-0.35, 0.35, allow_nan=False),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_fields_and_motions(self, h, w, seed, n_cells, c, pieces):
        # A constant field with a few cells changed, moved by pieces of
        # constant velocity at under 0.5 px per unit step.
        rng = np.random.default_rng(seed)
        field = np.full((h, w), rng.uniform(-1.0, 1.0))
        cells = rng.integers(0, h * w, n_cells)
        field.reshape(-1)[cells] = rng.uniform(-1.0, 1.0, n_cells)
        scene = SyntheticScene(field, SensorGeometry(w, h))
        motion = MotionProfile(tuple((float(n), (vx, vy)) for n, vx, vy in pieces))
        assert_same_stream(
            generate_events(scene, motion, SensorModel(c), 1.0),
            dense_generate_events(scene, motion, SensorModel(c), 1.0),
        )


class TestSensorModel:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(contrast_threshold=0.0), "contrast threshold must be > 0, got 0.0"),
            (dict(contrast_threshold=math.nan), "contrast threshold must be > 0, got nan"),
            (dict(noise_rate=-1.0), "noise rate must be a finite number >= 0, got -1.0"),
            (dict(noise_rate=math.nan), "noise rate must be a finite number >= 0, got nan"),
            (dict(noise_rate=math.inf), "noise rate must be a finite number >= 0, got inf"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ],
    )
    def test_rejects_a_bad_setting_by_name(self, fields, message):
        with pytest.raises(ValueError) as exc:
            SensorModel(**{"contrast_threshold": 0.2, **fields})
        assert str(exc.value) == message


class TestAddNoise:
    @pytest.mark.parametrize("rate", [1e12, 1e30])
    def test_rejects_an_expected_count_over_2_31_before_drawing(self, rate):
        sensor = SensorModel(0.2, noise_rate=rate)
        with pytest.raises(ValueError) as exc:
            add_noise(EventArray.empty(), sensor, SensorGeometry(8, 4), 0.001)
        expected = f"{rate * 0.001 * 32:.3g}"
        assert str(exc.value) == (
            f"noise rate {rate:g}/s per pixel on 8x4 pixels for 0.001 s expects {expected} "
            "events, over 2**31"
        )

    def test_zero_rate_is_identity(self):
        scene = step_edge(GEOMETRY, 0.6)
        ev = generate_events(
            scene, MotionProfile.constant((8.0, 0.0), 1.0), SensorModel(0.2), 1 / 32
        )
        assert add_noise(ev, SensorModel(0.2), GEOMETRY, 1.0) is ev

    def test_deterministic_for_a_seed(self):
        sensor = SensorModel(0.2, noise_rate=5.0, seed=42)
        a = add_noise(EventArray.empty(), sensor, GEOMETRY, 1.0)
        b = add_noise(EventArray.empty(), sensor, GEOMETRY, 1.0)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.p, b.p)

    def test_different_seeds_differ(self):
        a = add_noise(EventArray.empty(), SensorModel(0.2, 5.0, seed=1), GEOMETRY, 1.0)
        b = add_noise(EventArray.empty(), SensorModel(0.2, 5.0, seed=2), GEOMETRY, 1.0)
        assert len(a) != len(b) or not np.array_equal(a.t, b.t)

    def test_count_tracks_poisson_mean(self):
        rate, duration = 3.0, 2.0
        expected = rate * duration * GEOMETRY.pixel_count
        sigma = np.sqrt(expected)
        for seed in range(8):
            sensor = SensorModel(0.2, noise_rate=rate, seed=seed)
            got = len(add_noise(EventArray.empty(), sensor, GEOMETRY, duration))
            assert abs(got - expected) < 5 * sigma

    def test_noise_respects_bounds_and_span(self):
        sensor = SensorModel(0.2, noise_rate=10.0, seed=7)
        ev = add_noise(EventArray.empty(), sensor, GEOMETRY, 0.5, t_start=2.0)
        assert np.all((ev.x >= 0) & (ev.x < GEOMETRY.width))
        assert np.all((ev.y >= 0) & (ev.y < GEOMETRY.height))
        assert float(ev.t[0]) >= 2.0
        assert float(ev.t[-1]) <= 2.5
        assert set(np.unique(ev.p)) <= {-1, 1}

    def test_merge_keeps_signal_events(self):
        scene = step_edge(GEOMETRY, 0.6)
        signal = generate_events(
            scene, MotionProfile.constant((8.0, 0.0), 1.0), SensorModel(0.2), 1 / 32
        )
        sensor = SensorModel(0.2, noise_rate=2.0, seed=3)
        merged = add_noise(signal, sensor, GEOMETRY, 1.0)
        noise_only = add_noise(EventArray.empty(), sensor, GEOMETRY, 1.0)
        assert len(merged) == len(signal) + len(noise_only)
        assert np.all(np.diff(merged.t) >= 0.0)
        key = merged.p.astype(np.int64) * 10000 + merged.x * 100 + merged.y
        lone = np.concatenate(
            [
                signal.p.astype(np.int64) * 10000 + signal.x * 100 + signal.y,
                noise_only.p.astype(np.int64) * 10000 + noise_only.x * 100 + noise_only.y,
            ]
        )
        assert np.array_equal(np.sort(key), np.sort(lone))

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            add_noise(EventArray.empty(), SensorModel(0.2, 1.0), GEOMETRY, -1.0)
