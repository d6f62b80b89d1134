"""Accumulator math against per-event and globally-interleaved oracles."""
from __future__ import annotations

from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorConfig,
    Decay,
    DecayKind,
    EventArray,
    EventFrame,
    FrameAccumulator,
    NonMonotonicTimestamps,
    OutOfBoundsEvent,
    PolarityMode,
    SensorGeometry,
    Slice,
    SliceMethod,
    StreamSlicer,
    accumulate_stream,
    neutral_value,
    quantize_frame,
    run_accumulation,
)
from evframe import accumulator

from conftest import SMALL_GEOMETRY, event_arrays, uniform_events
from oracles import (
    Event,
    apply_decay,
    compose_runs,
    events_of,
    integrate_event,
    linear_decay_values,
    reset_frame,
)

SPEC = SensorGeometry(SMALL_GEOMETRY.width, SMALL_GEOMETRY.height)


def make_slice(events: EventArray, publish_stamp: float | None = None) -> Slice:
    if publish_stamp is None:
        publish_stamp = float(events.t[-1]) + 0.125 if len(events) else 1.0
    return Slice(
        events=events,
        publish_stamp=publish_stamp,
        interval_event_count=len(events),
        partial=False,
    )


def reference_step_pixels(
    events: EventArray, config: AccumulatorConfig, spec: SensorGeometry
) -> np.ndarray:
    """Per-event reference for STEP decay: integrate from a fresh frame."""
    pixels = reset_frame(spec, config.polarity_mode)
    for event in events_of(events):
        integrate_event(pixels, event, config.polarity_mode, config.contribution)
    return pixels


def reference_decaying_pixels(
    events: EventArray,
    publish_stamp: float,
    config: AccumulatorConfig,
    spec: SensorGeometry,
    carried: Optional[EventFrame] = None,
) -> np.ndarray:
    """Globally-interleaved reference for decaying modes.

    Decays the whole frame to every event time in order, integrates the
    event, then decays to the publish stamp.  `carried` is the last
    integrated frame, whose pixels and stamp the integration starts
    from; without one it starts neutral at the first event.  The
    production path decays each pixel lazily; both orderings express
    the same per-pixel composition, so they must agree to rounding
    error.
    """
    neutral = neutral_value(config.polarity_mode)
    if carried is not None:
        pixels = carried.pixels.copy()
        now = carried.stamp
    else:
        pixels = reset_frame(spec, config.polarity_mode)
        now = float(events.t[0]) if len(events) else publish_stamp
    for event in events_of(events):
        pixels = apply_decay(pixels, event.t - now, config.decay, neutral)
        now = event.t
        integrate_event(pixels, event, config.polarity_mode, config.contribution)
    return apply_decay(pixels, publish_stamp - now, config.decay, neutral)


class TestIntegrateEvent:
    def test_rectified_ignores_sign(self):
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.RECTIFIED)
        integrate_event(pixels, Event(0.1, 2, 1, 1), PolarityMode.RECTIFIED, 0.2)
        integrate_event(pixels, Event(0.2, 2, 1, -1), PolarityMode.RECTIFIED, 0.2)
        assert pixels[1, 2] == pytest.approx(0.4)

    def test_signed_moves_both_ways_from_half(self):
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.SIGNED)
        integrate_event(pixels, Event(0.1, 2, 1, 1), PolarityMode.SIGNED, 0.2)
        assert pixels[1, 2] == pytest.approx(0.7)
        integrate_event(pixels, Event(0.2, 2, 1, -1), PolarityMode.SIGNED, 0.2)
        assert pixels[1, 2] == pytest.approx(0.5)

    def test_clamps_at_one(self):
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.RECTIFIED)
        for i in range(5):
            integrate_event(pixels, Event(0.1 * i, 0, 0, 1), PolarityMode.RECTIFIED, 0.5)
        assert pixels[0, 0] == 1.0

    def test_clamps_at_zero(self):
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.SIGNED)
        for i in range(5):
            integrate_event(pixels, Event(0.1 * i, 0, 0, -1), PolarityMode.SIGNED, 0.5)
        assert pixels[0, 0] == 0.0

    def test_rejects_out_of_bounds(self):
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.RECTIFIED)
        with pytest.raises(OutOfBoundsEvent):
            integrate_event(
                pixels,
                Event(0.1, SMALL_GEOMETRY.width, 0, 1),
                PolarityMode.RECTIFIED,
                0.2,
            )


class TestStepAccumulation:
    def test_two_half_contributions_saturate(self):
        ev = EventArray.from_columns([0.1, 0.2], [3, 3], [2, 2], [1, 1])
        config = AccumulatorConfig(contribution=0.5)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        assert frame.pixels[2, 3] == 1.0
        assert quantize_frame(frame)[2, 3] == 255

    def test_single_half_contribution_is_midgray(self):
        ev = EventArray.from_columns([0.1], [3], [2], [1])
        config = AccumulatorConfig(contribution=0.5)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        assert frame.pixels[2, 3] == 0.5
        assert quantize_frame(frame)[2, 3] == 128

    def test_empty_slice_is_neutral(self):
        frame = FrameAccumulator(AccumulatorConfig(), SPEC).process(make_slice(EventArray.empty()))
        assert np.all(frame.pixels == 0.0)

    def test_does_not_keep_a_buffer(self):
        # STEP keeps only the frame it returned, which a hold republishes.
        ev = EventArray.from_columns([0.1], [0], [0], [1])
        acc = FrameAccumulator(AccumulatorConfig(), SPEC)
        frame = acc.process(make_slice(ev))
        assert acc._integrated is frame

    @given(
        event_arrays(min_size=0, max_size=120, max_time=2.0),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.sampled_from([PolarityMode.RECTIFIED, PolarityMode.SIGNED]),
    )
    @settings(max_examples=120)
    def test_matches_per_event_reference_exactly(self, ev, c, mode):
        # With power-of-two contributions every partial sum is exact, so
        # the counting path and the per-event path must agree bit for bit.
        config = AccumulatorConfig(contribution=c, polarity_mode=mode)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        expected = reference_step_pixels(ev, config, SPEC)
        assert np.array_equal(frame.pixels, expected)

    @given(
        event_arrays(min_size=0, max_size=120, max_time=2.0),
        st.sampled_from([0.2, 0.33]),
        st.sampled_from([PolarityMode.RECTIFIED, PolarityMode.SIGNED]),
    )
    @settings(max_examples=120)
    def test_matches_per_event_reference_to_rounding(self, ev, c, mode):
        # Counting applies one rounding to count * c; repeated addition
        # rounds at every event.  The results agree to rounding error.
        config = AccumulatorConfig(contribution=c, polarity_mode=mode)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        expected = reference_step_pixels(ev, config, SPEC)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)

    @given(event_arrays(min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_rectified_is_polarity_blind(self, ev):
        flipped = EventArray.from_columns(ev.t, ev.x, ev.y, -ev.p)
        config = AccumulatorConfig(contribution=0.25)
        a = FrameAccumulator(config, SPEC).process(make_slice(ev))
        b = FrameAccumulator(config, SPEC).process(make_slice(flipped))
        assert np.array_equal(a.pixels, b.pixels)

    @given(event_arrays(min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_signed_flip_mirrors_frame(self, ev):
        flipped = EventArray.from_columns(ev.t, ev.x, ev.y, -ev.p)
        config = AccumulatorConfig(contribution=0.25, polarity_mode=PolarityMode.SIGNED)
        a = FrameAccumulator(config, SPEC).process(make_slice(ev))
        b = FrameAccumulator(config, SPEC).process(make_slice(flipped))
        assert np.allclose(a.pixels + b.pixels, 1.0, atol=1e-12)

    def test_rejects_out_of_bounds_slice(self):
        ev = EventArray.from_columns([0.1], [SMALL_GEOMETRY.width], [0], [1])
        with pytest.raises(OutOfBoundsEvent):
            FrameAccumulator(AccumulatorConfig(), SPEC).process(make_slice(ev))

    @given(event_arrays(min_size=0, max_size=60), event_arrays(min_size=0, max_size=30))
    @settings(max_examples=40)
    def test_step_forgets_history(self, history, ev):
        config = AccumulatorConfig(contribution=0.25)
        fresh = FrameAccumulator(config, SPEC).process(make_slice(ev))
        acc = FrameAccumulator(config, SPEC)
        acc.process(make_slice(history, publish_stamp=0.0))
        ev_late = EventArray.from_columns(ev.t + 20.0, ev.x, ev.y, ev.p)
        after = acc.process(make_slice(ev_late))
        assert np.array_equal(fresh.pixels, after.pixels)


class TestApplyDecay:
    def test_step_leaves_values(self):
        pixels = np.array([[0.9, 0.1]])
        out = apply_decay(pixels, 5.0, Decay.step(), 0.0)
        assert np.array_equal(out, pixels)
        assert out is not pixels

    def test_exponential_scales_distance(self):
        pixels = np.array([[1.0]])
        out = apply_decay(pixels, 0.1, Decay.exponential(0.1), 0.0)
        assert abs(out[0, 0] - np.exp(-1.0)) < 1e-9

    def test_exponential_preserves_sign_below_neutral(self):
        pixels = np.array([[0.1]])
        out = apply_decay(pixels, 0.2, Decay.exponential(0.1), 0.5)
        assert 0.1 < out[0, 0] < 0.5

    def test_linear_stops_exactly_at_neutral(self):
        pixels = np.array([[0.9, 0.2]])
        out = apply_decay(pixels, 10.0, Decay.linear(1.0), 0.5)
        assert out[0, 0] == 0.5
        assert out[0, 1] == 0.5

    def test_linear_partial_decay(self):
        pixels = np.array([[0.9]])
        out = apply_decay(pixels, 0.1, Decay.linear(1.0), 0.5)
        assert out[0, 0] == pytest.approx(0.8)

    def test_zero_interval_is_identity(self):
        pixels = np.array([[0.7]])
        out = apply_decay(pixels, 0.0, Decay.exponential(0.1), 0.0)
        assert np.array_equal(out, pixels)

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            apply_decay(np.zeros((1, 1)), -0.1, Decay.linear(1.0), 0.0)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
        st.sampled_from([Decay.linear(1.5), Decay.exponential(0.2)]),
        st.sampled_from([0.0, 0.5]),
    )
    def test_decay_never_crosses_neutral(self, value, dt, decay, neutral):
        out = apply_decay(np.array([[value]]), dt, decay, neutral)
        d_before = value - neutral
        d_after = out[0, 0] - neutral
        assert abs(d_after) <= abs(d_before) + 1e-15
        assert d_after * d_before >= 0.0


decaying_configs = st.builds(
    AccumulatorConfig,
    slice_method=st.just(SliceMethod.BY_TIME),
    contribution=st.sampled_from([0.2, 0.5]),
    polarity_mode=st.sampled_from([PolarityMode.RECTIFIED, PolarityMode.SIGNED]),
    decay=st.sampled_from([Decay.linear(0.8), Decay.linear(5.0), Decay.exponential(0.3)]),
)


DECAYS = pytest.mark.parametrize(
    "decay", [Decay.linear(1.0), Decay.exponential(0.3)], ids=["linear", "exp"]
)
MODES = pytest.mark.parametrize("mode", [PolarityMode.RECTIFIED, PolarityMode.SIGNED])


class TestDecayingAccumulation:
    @given(event_arrays(min_size=0, max_size=100, max_time=2.0), decaying_configs)
    @settings(max_examples=100, deadline=None)
    def test_matches_interleaved_reference(self, ev, config):
        slc = make_slice(ev)
        frame = FrameAccumulator(config, SPEC).process(slc)
        expected = reference_decaying_pixels(ev, slc.publish_stamp, config, SPEC)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)

    @given(
        event_arrays(min_size=2, max_size=80, max_time=2.0),
        decaying_configs,
        st.integers(1, 79),
    )
    @settings(max_examples=80, deadline=None)
    def test_slice_boundaries_do_not_change_the_buffer(self, ev, config, cut_raw):
        cut = min(cut_raw, len(ev) - 1)
        whole = FrameAccumulator(config, SPEC).process(make_slice(ev, 3.0))

        first = ev[:cut]
        rest = ev[cut:]
        mid = float(rest.t[0])
        acc = FrameAccumulator(config, SPEC)
        acc.process(make_slice(first, mid))
        second = acc.process(make_slice(rest, 3.0))
        assert np.allclose(whole.pixels, second.pixels, atol=1e-12, rtol=0.0)

    def test_buffer_persists_between_slices(self):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=Decay.exponential(10.0), contribution=0.5
        )
        ev = EventArray.from_columns([0.0], [1], [1], [1])
        acc = FrameAccumulator(config, SPEC)
        acc.process(make_slice(ev, 0.5))
        later = acc.process(make_slice(EventArray.empty(), 1.0))
        assert 0.0 < later.pixels[1, 1] < 0.5
        assert later.pixels[1, 1] == pytest.approx(0.5 * np.exp(-0.1), abs=1e-12)

    @pytest.mark.parametrize("decay", [Decay.linear(1.0), Decay.exponential(0.3)])
    def test_carry_buffer_is_the_published_frame(self, decay):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=decay, contribution=0.5
        )
        ev = EventArray.from_columns([0.1, 0.2], [1, 2], [1, 1], [1, 1])
        acc = FrameAccumulator(config, SPEC)
        frame = acc.process(make_slice(ev, 0.5))
        assert np.shares_memory(acc._integrated.pixels, frame.pixels)
        before = frame.pixels.copy()
        later = EventArray.from_columns([0.6, 0.7], [1, 1], [1, 1], [1, 1])
        nxt = acc.process(make_slice(later, 1.0))
        assert np.array_equal(frame.pixels, before)
        assert not np.array_equal(nxt.pixels, before)

    def test_rejects_slice_overlapping_buffer(self):
        config = AccumulatorConfig(slice_method=SliceMethod.BY_TIME, decay=Decay.linear(1.0))
        ev = EventArray.from_columns([0.5], [1], [1], [1])
        acc = FrameAccumulator(config, SPEC)
        acc.process(make_slice(ev, 1.0))
        overlapping = EventArray.from_columns([0.75], [1], [1], [1])
        with pytest.raises(ValueError):
            acc.process(make_slice(overlapping, 1.5))

    def test_rejects_events_past_publish_stamp(self):
        config = AccumulatorConfig(slice_method=SliceMethod.BY_TIME, decay=Decay.linear(1.0))
        ev = EventArray.from_columns([2.0], [1], [1], [1])
        with pytest.raises(ValueError):
            FrameAccumulator(config, SPEC).process(make_slice(ev, publish_stamp=1.0))


class TestHold:
    def test_hold_shares_pixels_with_previous_frame(self):
        acc = FrameAccumulator(AccumulatorConfig(no_motion_threshold=2), SPEC)
        ev = EventArray.from_columns([0.1, 0.15], [1, 2], [1, 1], [1, 1])
        frame = acc.process(Slice(ev, 0.2, interval_event_count=2))
        held = acc.process(Slice(ev, 0.4, interval_event_count=1))
        assert frame.held is False
        assert held.held is True
        assert held.stamp == 0.4
        assert np.shares_memory(held.pixels, frame.pixels)

    def test_hold_before_any_frame_is_neutral(self):
        config = AccumulatorConfig(no_motion_threshold=1, polarity_mode=PolarityMode.SIGNED)
        acc = FrameAccumulator(config, SPEC)
        held = acc.process(Slice(EventArray.empty(), 0.1, interval_event_count=0))
        assert held.held is True
        assert np.all(held.pixels == 0.5)

    def test_accumulator_holds_below_threshold(self):
        config = AccumulatorConfig(no_motion_threshold=5, contribution=0.5)
        acc = FrameAccumulator(config, SPEC)
        busy = EventArray.from_columns(0.01 * np.arange(8), np.arange(8) % 4, [0] * 8, [1] * 8)
        first = acc.process(Slice(busy, 0.5, interval_event_count=8, partial=False))
        assert first.held is False
        quiet = EventArray.from_columns([0.6], [0], [0], [1])
        second = acc.process(Slice(quiet, 1.0, interval_event_count=1, partial=False))
        assert second.held is True
        assert second.stamp == 1.0
        assert np.array_equal(second.pixels, first.pixels)

    def test_held_frame_becomes_the_new_previous(self):
        config = AccumulatorConfig(no_motion_threshold=5, contribution=0.5)
        acc = FrameAccumulator(config, SPEC)
        empty = EventArray.empty()
        first = acc.process(Slice(empty, 0.5, interval_event_count=0, partial=False))
        assert first.held is True
        second = acc.process(Slice(empty, 1.0, interval_event_count=0, partial=False))
        assert second.held is True
        assert np.shares_memory(second.pixels, first.pixels)
        assert np.array_equal(second.pixels, first.pixels)

    def test_threshold_zero_never_holds(self):
        acc = FrameAccumulator(AccumulatorConfig(), SPEC)
        empty = EventArray.empty()
        frame = acc.process(Slice(empty, 0.5, interval_event_count=0, partial=False))
        assert frame.held is False

    @pytest.mark.parametrize("threshold", [0, 5])
    @pytest.mark.parametrize("fault", ["bounds", "time order"])
    def test_every_slice_is_checked_held_or_not(self, threshold, fault):
        acc = FrameAccumulator(AccumulatorConfig(no_motion_threshold=threshold), SPEC)
        if fault == "bounds":
            ev, error = EventArray.from_columns([0.1], [SPEC.width], [0], [1]), OutOfBoundsEvent
        else:
            # from_columns rejects this order, so the columns go in directly.
            ev = EventArray(
                np.array([0.2, 0.1]),
                np.array([1, 2], dtype=np.int32),
                np.zeros(2, dtype=np.int32),
                np.ones(2, dtype=np.int8),
            )
            error = NonMonotonicTimestamps
        with pytest.raises(error):
            acc.process(make_slice(ev, 0.5))
        assert acc._integrated is None

    @DECAYS
    @MODES
    def test_decay_runs_on_from_the_last_integrated_frame(self, mode, decay):
        # busy -> quiet (held) -> busy: the held slice's event is dropped,
        # and the second busy slice decays from the first one's stamp.
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME,
            decay=decay,
            contribution=0.2,
            polarity_mode=mode,
            no_motion_threshold=5,
        )
        acc = FrameAccumulator(config, SPEC)
        busy = uniform_events(300, SPEC, t_end=1.0, seed=3)
        first = acc.process(make_slice(busy, 1.0))
        quiet = EventArray.from_columns([1.2], [1], [1], [1])
        held = acc.process(make_slice(quiet, 1.5))
        assert held.held and np.shares_memory(held.pixels, first.pixels)
        assert acc._integrated is first
        later = uniform_events(300, SPEC, t_end=0.4, seed=4)
        later = EventArray.from_columns(later.t + 1.6, later.x, later.y, later.p)
        frame = acc.process(make_slice(later, 2.0))
        expected = reference_decaying_pixels(later, 2.0, config, SPEC, first)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)
        from_held = reference_decaying_pixels(later, 2.0, config, SPEC, held)
        assert not np.allclose(frame.pixels, from_held, atol=1e-6, rtol=0.0)


CLAMPING_RUNS = (9, 2, 7, 11, 3, 6, 1, 8)
# At c = 0.2 these keep a signed pixel inside [0.3, 0.7]: a chain that
# never clamps never forgets, so every event's map reaches the frame.
UNCLAMPED_RUNS = (1, 2, 2, 1)


def hot_pixel_stream(runs=CLAMPING_RUNS, n: int = 2800) -> EventArray:
    """A deterministic deep chain: 2,400 events on pixel (3, 2).

    Four events share each timestamp.  Runs of one polarity alternate
    with runs of the other; the default runs are long enough at c = 0.2
    to hit both clamps and to cross 0.5 on most runs.  Every seventh
    event lands on pixel (5, 1) instead, so the slice holds more than
    one pixel run.
    """
    i = np.arange(n)
    lengths = np.tile(runs, n // sum(runs) + 1)
    signs = np.resize(np.array([1, -1], dtype=np.int8), len(lengths))
    hot = i % 7 != 0
    return EventArray.from_columns(
        (i // 4) * 1e-3,
        np.where(hot, 3, 5).astype(np.int32),
        np.where(hot, 2, 1).astype(np.int32),
        np.repeat(signs, lengths)[:n],
    )


SIGNED_LINEAR_KINDS = ("hovering", "wiped", "saturating", "drifting")


def signed_linear_chain(kind: str, n: int = 6000):
    """Two deep signed LINEAR chains, on pixels (3, 2) and (5, 1).

    Returns (events, contribution, decay).  The kinds are reference
    cases for the soft threshold's corners:

    * "hovering": c = 0.01 and w = rate*dt near c/10, so each pixel
      walks around 0.5, and its last SUFFIX events never decide it;
    * "wiped": c = 0.25 with gaps of 0, 0.25 or 0.5 s, so w >= c is
      common, priors land in the dead zone and states reach exactly 0.5;
    * "saturating": c = 1, so every event clamps;
    * "drifting": pixel (3, 2) sits at 1 under +c events, then -c events
      with w = 0.6c pull it below 0.5, so it last clamps 20 events
      before its end.  Pixel (5, 1) mirrors it.
    """
    if kind == "drifting":
        c, hold, drift = 0.05, 600, 20
        t = np.cumsum(np.repeat([0.01, 0.03], [hold, drift]))
        signs = np.repeat([1, -1], [hold, drift])
        ev = EventArray.from_columns(
            np.repeat(t, 2),
            np.tile(np.array([3, 5], dtype=np.int32), hold + drift),
            np.tile(np.array([2, 1], dtype=np.int32), hold + drift),
            np.stack([signs, -signs], axis=1).ravel().astype(np.int8),
        )
        return ev, c, Decay.linear(1.0)
    rng = np.random.default_rng(SIGNED_LINEAR_KINDS.index(kind))
    if kind == "hovering":
        c, gaps = 0.01, rng.exponential(1e-3, n)
    elif kind == "wiped":
        c, gaps = 0.25, rng.choice([0.0, 0.25, 0.5], n, p=[0.4, 0.3, 0.3])
    else:
        c, gaps = 1.0, rng.exponential(0.1, n)
    # Each pixel gets every other gap, so rate*gap is its own decay width.
    hot = np.arange(n) % 2 == 0
    t = np.concatenate([np.cumsum(gaps[hot]), np.cumsum(gaps[~hot])])
    order = np.argsort(t, kind="stable")
    hot = np.concatenate([np.ones(hot.sum(), bool), np.zeros((~hot).sum(), bool)])[order]
    ev = EventArray.from_columns(
        t[order],
        np.where(hot, 3, 5).astype(np.int32),
        np.where(hot, 2, 1).astype(np.int32),
        np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8),
    )
    return ev, c, Decay.linear(1.0)


def signed_linear_config(c: float, decay: Decay) -> AccumulatorConfig:
    return AccumulatorConfig(
        slice_method=SliceMethod.BY_TIME,
        contribution=c,
        polarity_mode=PolarityMode.SIGNED,
        decay=decay,
    )


def pixel_trajectory(ev: EventArray, c: float, decay: Decay):
    """Prior value, decay width and value after each event of pixel (3, 2)."""
    value, last, out = 0.5, None, []
    for event in events_of(ev):
        if (event.x, event.y) != (3, 2):
            continue
        gap = 0.0 if last is None else event.t - last
        frame = apply_decay(np.full((1, 1), value), gap, decay, 0.5)
        integrate_event(frame, Event(event.t, 0, 0, event.p), PolarityMode.SIGNED, c)
        out.append((value, decay.rate * gap, float(frame[0, 0])))
        value, last = float(frame[0, 0]), event.t
    return out


class TestDeepChains:
    """Pixels with thousands of events, far deeper than the strategies reach.

    The signed linear chains are reference cases for every corner of the
    soft threshold, integrated whole and carried across slices.
    """

    def test_stream_is_a_deep_clamping_chain(self):
        ev = hot_pixel_stream()
        pixels = reset_frame(SMALL_GEOMETRY, PolarityMode.SIGNED)
        trajectory = []
        for event in events_of(ev):
            integrate_event(pixels, event, PolarityMode.SIGNED, 0.2)
            if (event.x, event.y) == (3, 2):
                trajectory.append(pixels[2, 3])
        trajectory = np.array(trajectory)
        assert len(trajectory) >= 2000
        assert np.sum(trajectory == 0.0) >= 50 and np.sum(trajectory == 1.0) >= 50
        assert np.sum(np.diff(np.sign(trajectory - 0.5)) != 0) >= 100
        assert np.sum(np.diff(ev.t) == 0.0) >= 2000

    @pytest.mark.parametrize("runs", [CLAMPING_RUNS, UNCLAMPED_RUNS], ids=["clamping", "unclamped"])
    @pytest.mark.parametrize("mode", [PolarityMode.RECTIFIED, PolarityMode.SIGNED])
    @pytest.mark.parametrize(
        "decay",
        [Decay.step(), Decay.linear(0.8), Decay.exponential(0.3)],
        ids=["step", "linear", "exp"],
    )
    def test_matches_reference_across_a_carry(self, runs, mode, decay):
        ev = hot_pixel_stream(runs)
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, contribution=0.2, polarity_mode=mode, decay=decay
        )
        # The cut falls inside a group of equal timestamps.
        first, rest = ev[:1401], ev[1401:]
        mid, end = float(rest.t[0]), float(ev.t[-1]) + 0.125
        acc = FrameAccumulator(config, SPEC)
        frame1 = acc.process(make_slice(first, mid))
        frame2 = acc.process(make_slice(rest, end))
        if decay.kind is DecayKind.STEP:
            expected1 = reference_step_pixels(first, config, SPEC)
            expected2 = reference_step_pixels(rest, config, SPEC)
        else:
            expected1 = reference_decaying_pixels(first, mid, config, SPEC)
            carried = EventFrame(SPEC, expected1, mid)
            expected2 = reference_decaying_pixels(rest, end, config, SPEC, carried)
        assert np.allclose(frame1.pixels, expected1, atol=1e-12, rtol=0.0)
        assert np.allclose(frame2.pixels, expected2, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("runs", [CLAMPING_RUNS, UNCLAMPED_RUNS], ids=["clamping", "unclamped"])
    def test_signed_step_is_bit_exact_at_power_of_two_contribution(self, runs):
        ev = hot_pixel_stream(runs)
        config = AccumulatorConfig(contribution=0.25, polarity_mode=PolarityMode.SIGNED)
        for part in (ev, ev[:1401], ev[1401:]):
            frame = FrameAccumulator(config, SPEC).process(make_slice(part))
            assert np.array_equal(frame.pixels, reference_step_pixels(part, config, SPEC))

    def test_signed_linear_streams_have_their_shapes(self):
        hover = pixel_trajectory(*signed_linear_chain("hovering"))
        after = np.array([v for _, _, v in hover])
        assert len(after) >= 2500
        assert np.sum(np.diff(np.sign(after - 0.5)) != 0) >= 200
        assert 0.05 < np.mean([w for _, w, _ in hover]) / 0.01 < 0.2
        wiped = pixel_trajectory(*signed_linear_chain("wiped"))
        assert sum(w >= 0.25 for _, w, _ in wiped) >= 1000
        assert sum(0.0 < abs(u - 0.5) <= w for u, w, _ in wiped) >= 1000
        assert sum(v == 0.5 for _, _, v in wiped) >= 300
        saturating = pixel_trajectory(*signed_linear_chain("saturating"))
        assert {v for _, _, v in saturating} == {0.0, 1.0}
        drifting = pixel_trajectory(*signed_linear_chain("drifting"))
        assert [v for _, _, v in drifting[100:600]] == [1.0] * 500
        after = [v for _, _, v in drifting[600:]]
        assert after[-1] < 0.35 and min(after) > 0.0

    @pytest.mark.parametrize("kind", SIGNED_LINEAR_KINDS)
    @pytest.mark.parametrize("parts", [1, 3], ids=["whole", "carried"])
    def test_signed_linear_matches_reference(self, kind, parts):
        ev, c, decay = signed_linear_chain(kind)
        config = signed_linear_config(c, decay)
        acc, expected = FrameAccumulator(config, SPEC), None
        bounds = [len(ev) * k // parts for k in range(parts + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            # Publishing at the last event keeps the deep states in the frame.
            part, stamp = ev[lo:hi], float(ev.t[hi - 1])
            frame = acc.process(make_slice(part, stamp))
            want = reference_decaying_pixels(part, stamp, config, SPEC, expected)
            expected = EventFrame(SPEC, want, stamp)
            assert np.allclose(frame.pixels, want, atol=1e-12, rtol=0.0)


class TestGrouping:
    """Radix grouping against the unique-key argsort it replaced."""

    @given(
        st.sampled_from([2**16, 320 * 240, 2**40]).flatmap(
            lambda size: st.lists(st.integers(0, size - 1), min_size=1, max_size=300)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_order_equals_unique_key_argsort(self, keys):
        idx = np.array(keys, dtype=np.intp)
        n = len(idx)
        expected = np.argsort(idx * n + np.arange(n))
        order, pix, _, _ = accumulator._pixel_runs([idx])
        assert order.tolist() == expected.tolist()
        assert pix.tolist() == sorted(keys)
        assert accumulator._stable_order(idx).tolist() == expected.tolist()

    def test_full_320x240_frame(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 320 * 240, 20_000).astype(np.intp)
        idx[:50] = 320 * 240 - 1  # a run above 2**16 with ties
        n = len(idx)
        order, _, starts, _ = accumulator._pixel_runs([idx])
        assert order.tolist() == np.argsort(idx * n + np.arange(n)).tolist()
        lengths = accumulator._run_lengths(starts, n)
        every, _, rank = accumulator._subruns(starts, lengths, lengths > 0)
        assert every.tolist() == list(range(n))
        assert accumulator._stable_order(rank).tolist() == np.argsort(rank, kind="stable").tolist()

    @given(
        st.lists(st.lists(st.integers(0, 320 * 240 - 1), max_size=60), min_size=2, max_size=5)
    )
    @settings(max_examples=100, deadline=None)
    def test_parts_sort_by_part_then_pixel(self, parts):
        # Each part is one slice's pixels; a run is one pixel's events in one part.
        arrays = [np.array(part, dtype=np.intp) for part in parts]
        keys = np.concatenate([a + k * 320 * 240 for k, a in enumerate(arrays)])
        if not len(keys):
            return
        order, pix, starts, firsts = accumulator._pixel_runs(arrays)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        assert starts.tolist() == np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
        assert pix.tolist() == (keys[order] % (320 * 240)).tolist()
        runs = np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])[order][starts]
        assert firsts == np.searchsorted(runs, np.arange(len(arrays) + 1)).tolist()


def _column_events(cells, rng) -> EventArray:
    """Events on (x, y, p) cells at sorted random times, one per cell entry."""
    x, y, p = np.array(cells, dtype=np.int64).reshape(-1, 3).T
    order = rng.permutation(len(x))
    t = np.sort(rng.uniform(0.0, 1.0, len(x)))
    return EventArray.from_columns(t, x[order], y[order], p[order])


class TestSignedStepCounts:
    """Signed STEP: one-sign pixels are counted, mixed ones composed where they can clamp."""

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.25, 0.3, 0.33])
    def test_one_sign_pixel_publishes_the_clipped_count(self, c):
        # Row 0 holds 1, 3, ..., 15 positive events per pixel and row 1 as
        # many negative ones, most of them far past the clamp; rows 2-3 mix
        # signs deeply enough to run the composing path in the same slice.
        rng = np.random.default_rng(11)
        counts = 2 * np.arange(SPEC.width) + 1
        cells = [(x, 0, 1) for x in range(SPEC.width) for _ in range(counts[x])]
        cells += [(x, 1, -1) for x in range(SPEC.width) for _ in range(counts[x])]
        signs = rng.choice([-1, 1], (SPEC.width, 12))
        cells += [(x, 2 + x % 2, int(p)) for x in range(SPEC.width) for p in signs[x]]
        ev = _column_events(cells, rng)
        config = AccumulatorConfig(contribution=c, polarity_mode=PolarityMode.SIGNED)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        assert frame.pixels[0].tolist() == np.clip(0.5 + c * counts, 0.0, 1.0).tolist()
        assert frame.pixels[1].tolist() == np.clip(0.5 - c * counts, 0.0, 1.0).tolist()
        assert frame.pixels[0, -1] == 1.0 and frame.pixels[1, -1] == 0.0
        expected = reference_step_pixels(ev, config, SPEC)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)

    def test_one_sign_pixels_are_not_composed(self, monkeypatch):
        composed = []
        compose = accumulator._compose_runs

        def spy(a, *rest):
            composed.append(len(a))
            return compose(a, *rest)

        monkeypatch.setattr(accumulator, "_compose_runs", spy)
        rng = np.random.default_rng(12)
        # Nine events of one sign on each pixel of rows 0 (positive) and 1.
        deep = [(x, y, 1 - 2 * y) for x in range(SPEC.width) for y in range(2) for _ in range(9)]
        mixed = [(0, 2, 1)] * 4 + [(0, 2, -1)] * 3
        config = AccumulatorConfig(contribution=0.2, polarity_mode=PolarityMode.SIGNED)
        FrameAccumulator(config, SPEC).process(make_slice(_column_events(deep, rng)))
        assert composed == []
        FrameAccumulator(config, SPEC).process(make_slice(_column_events(deep + mixed, rng)))
        assert composed == [len(mixed)]

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), min_size=1, max_size=240),
        st.sampled_from([0.2, 0.25, 0.33]),
    )
    @settings(max_examples=120, deadline=None)
    def test_mixed_pixels_match_the_per_event_reference(self, cells, c):
        # Three pixels take every event, so runs are deep and clamps likely.
        ev = EventArray.from_columns(
            np.linspace(0.0, 1.0, len(cells)),
            [x for x, _ in cells],
            np.zeros(len(cells), dtype=np.int32),
            [p for _, p in cells],
        )
        config = AccumulatorConfig(contribution=c, polarity_mode=PolarityMode.SIGNED)
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
        expected = reference_step_pixels(ev, config, SPEC)
        if c == 0.25:
            assert np.array_equal(frame.pixels, expected)
        else:
            assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)


class TestDecayingSlices:
    """A decaying slice integrates its touched pixels and decays the rest by one interval."""

    @staticmethod
    def carried(mode, decay):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=decay, contribution=0.2, polarity_mode=mode
        )
        first = uniform_events(300, SPEC, t_end=1.0, seed=3)
        acc = FrameAccumulator(config, SPEC)
        acc.process(make_slice(first, 1.0))
        assert len(np.unique(acc._integrated.pixels)) > 10
        return config, acc

    @DECAYS
    @MODES
    def test_untouched_pixels_decay_by_one_interval(self, mode, decay):
        config, acc = self.carried(mode, decay)
        carried = acc._integrated
        later = EventArray.from_columns([1.2, 1.3, 1.3], [1, 1, 4], [2, 2, 3], [1, -1, 1])
        frame = acc.process(make_slice(later, 1.5))
        expected = apply_decay(carried.pixels, 1.5 - carried.stamp, decay, neutral_value(mode))
        untouched = np.ones(frame.pixels.shape, dtype=bool)
        untouched[2, 1] = untouched[3, 4] = False
        assert frame.pixels[untouched].tobytes() == expected[untouched].tobytes()
        reference = reference_decaying_pixels(later, 1.5, config, SPEC, carried)
        assert np.allclose(frame.pixels, reference, atol=1e-12, rtol=0.0)

    @DECAYS
    @MODES
    def test_empty_slice_decays_the_whole_buffer(self, mode, decay):
        config, acc = self.carried(mode, decay)
        carried = acc._integrated
        frame = acc.process(make_slice(EventArray.empty(), 1.25))
        expected = apply_decay(carried.pixels, 0.25, decay, neutral_value(mode))
        assert frame.pixels.tobytes() == expected.tobytes()

    @DECAYS
    def test_rejects_a_slice_before_the_buffer(self, decay):
        config, acc = self.carried(PolarityMode.SIGNED, decay)
        early = EventArray.from_columns([0.75], [1], [1], [1])
        with pytest.raises(ValueError, match="reaches back before the accumulated buffer"):
            acc.process(make_slice(early, 1.5))

    @DECAYS
    def test_rejects_events_past_the_stamp(self, decay):
        config, acc = self.carried(PolarityMode.SIGNED, decay)
        late = EventArray.from_columns([1.2, 2.0], [1, 2], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="run past the publish stamp"):
            acc.process(make_slice(late, 1.5))
        with pytest.raises(ValueError, match="run past the publish stamp"):
            FrameAccumulator(config, SPEC).process(make_slice(late, 1.5))

    @DECAYS
    def test_rejects_an_empty_slice_stamped_before_the_buffer(self, decay):
        config, acc = self.carried(PolarityMode.RECTIFIED, decay)
        with pytest.raises(ValueError, match="run past the publish stamp"):
            acc.process(make_slice(EventArray.empty(), 0.5))


def map_runs(lengths, family: str, seed: int):
    """Runs of per-event maps (a, b, lo, hi) as a decaying or STEP slice builds them.

    Gaps mix equal stamps and short spacing, so long runs keep a long
    memory, with two huge idle spells whose exp underflows to a = 0.0.
    """
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    n = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    rank = np.arange(n) - np.repeat(starts, lengths)
    c = float(rng.choice([0.01, 0.1, 0.2, 0.25, 0.33]))
    s = c * rng.choice([-1.0, 1.0], n)
    dt = rng.choice([0.0, 1e-4, 1e-3], n) * rng.random(n)
    dt[rng.integers(0, n, 2)] = 1e6
    lo, hi = np.zeros(n), np.ones(n)
    if family == "exp":
        a = np.exp(-dt / 0.05)
        b = float(rng.choice([0.0, 0.5])) * (1.0 - a) + s
    elif family == "step":
        a, b = np.ones(n), s
    else:  # rectified linear
        a, b, lo = np.ones(n), c - 5.0 * dt, np.full(n, c)
    return (a, b, lo, hi), starts, rank


class TestComposeRuns:
    """The composition kernel against the up-sweep it replaced, bit for bit."""

    @staticmethod
    def assert_same(maps, starts, rank):
        got = accumulator._compose_runs(*(m.copy() for m in maps), starts, rank)
        want = compose_runs(*(m.copy() for m in maps), starts, rank)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @given(
        st.lists(st.integers(1, 3000), min_size=1, max_size=4),
        st.sampled_from(["exp", "step", "linear"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_first_kernel(self, lengths, family, seed):
        self.assert_same(*map_runs(lengths, family, seed))

    @pytest.mark.parametrize("family", ["exp", "step", "linear"])
    def test_equals_the_first_kernel_on_every_short_run(self, family):
        maps, starts, rank = map_runs(list(range(1, 70)) + [1000, 3000], family, 7)
        if family == "exp":
            assert (maps[0] == 0.0).sum() == 2
        self.assert_same(maps, starts, rank)


class TestLinearDecayValues:
    """The linear decay kernel against the formula it replaced, bit for bit."""

    @pytest.mark.parametrize("neutral", [0.0, 0.5])
    @pytest.mark.parametrize("per_pixel", [False, True], ids=["scalar-dt", "per-pixel-dt"])
    def test_equals_the_first_formula(self, neutral, per_pixel):
        rng = np.random.default_rng(int(per_pixel))
        n, rate = 2048, 5.0
        # Dyadic widths, so neutral +- w is exact and d lands on the kink.
        dt = rng.choice([0.0, 2.0**-10, 2.0**-6, 2.0**-3], n) if per_pixel else 2.0**-6
        w = rate * np.broadcast_to(dt, n)
        edge = neutral + rng.choice([-1.0, 1.0], n) * w
        pixels = np.stack([
            rng.random(n),
            edge,
            np.nextafter(edge, np.inf),
            np.nextafter(edge, -np.inf),
            np.full(n, neutral),
        ])
        assert (pixels[1] - neutral == np.where(edge > neutral, w, -w)).all()
        got = accumulator._decay_values(pixels, dt, Decay.linear(rate), neutral)
        assert got.tobytes() == linear_decay_values(pixels, dt, rate, neutral).tobytes()

    @pytest.mark.parametrize("neutral", [0.0, 0.5])
    def test_equals_the_first_formula_at_any_rate(self, neutral):
        rng = np.random.default_rng(9)
        pixels, dt = rng.random(4096), rng.exponential(0.05, 4096)
        for rate in (0.8, 5.0, 37.0):
            got = accumulator._decay_values(pixels, dt, Decay.linear(rate), neutral)
            assert got.tobytes() == linear_decay_values(pixels, dt, rate, neutral).tobytes()


SUFFIX = accumulator._SUFFIX
SUFFIX_LENGTHS = (SUFFIX - 1, SUFFIX, SUFFIX + 1, 2 * SUFFIX + 3, 1000, 3000)
RUN_KINDS = ("clamping", "hovering", "fading")


def suffix_maps(family: str, seed: int):
    """Per-event maps (a, b, lo, hi) of runs of every kind and suffix length.

    A "clamping" run takes random signs at c = 0.2 with short gaps, so it
    clamps every few maps.  A "hovering" run alternates signs at c = 0.05
    with tiny gaps and never clamps; before its last SUFFIX maps it has
    two idle spells, whose exp underflows to a = 0.0 and whose linear
    decay empties the pixel.  A "fading" run hovers too, but one gap
    among its last SUFFIX maps shrinks exp's a to about 4e-11.  Three
    short runs follow.  Returns the maps, starts, rank and each run's kind.
    """
    rng = np.random.default_rng(seed)
    runs = [(n, kind) for n in SUFFIX_LENGTHS for kind in RUN_KINDS] + [(1, ""), (2, ""), (5, "")]
    s, dt = [], []
    for n, kind in runs:
        if kind == "clamping":
            s.append(0.2 * rng.choice([-1.0, 1.0], n))
            dt.append(rng.uniform(0.0, 1e-3, n))
            continue
        s.append(0.05 * (-1.0) ** np.arange(n))
        gaps = rng.uniform(0.0, 1e-5, n)
        if kind == "hovering" and n >= SUFFIX + 2:
            gaps[rng.choice(n - SUFFIX, 2, replace=False)] = 1e6
        elif kind == "fading" and n > SUFFIX:
            gaps[n - SUFFIX // 2] = 1.2
        dt.append(gaps)
    s, dt = np.concatenate(s), np.concatenate(dt)
    lengths = np.array([n for n, _ in runs])
    starts = np.cumsum(lengths) - lengths
    rank = np.arange(len(s)) - np.repeat(starts, lengths)
    lo, hi = np.zeros(len(s)), np.ones(len(s))
    if family == "exp":
        a = np.exp(-dt / 0.05)
        b = 0.5 * (1.0 - a) + s
    elif family == "step":
        a, b = np.ones(len(s)), s
    else:  # rectified linear: a clamping run adds c = 0.2, the others hover
        a, lo = np.ones(len(s)), np.full(len(s), 0.2)
        b = np.where(np.repeat([k == "clamping" for _, k in runs], lengths), 0.2, s) - 5.0 * dt
    return (a, b, lo, hi), starts, rank, [k for _, k in runs]


class TestSuffixRuns:
    """Runs decided by their last SUFFIX maps against the whole composition."""

    @pytest.mark.parametrize("family", ["exp", "step", "linear"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_equal_the_whole_composition(self, family, seed):
        maps, starts, rank, kinds = suffix_maps(family, seed)
        lengths = np.diff(starts, append=len(rank))
        for x0 in (0.0, 0.5, 1.0):
            x = np.full(len(starts), x0)
            runs = accumulator._ComposedRuns(*(m.copy() for m in maps), starts)
            got = runs.values(x)
            a, b, lo, hi = compose_runs(*(m.copy() for m in maps), starts, rank)
            assert got.tobytes() == np.clip(a * x + b, lo, hi).tobytes()
        # Every kind of run is there: the deep clamping ones are decided by
        # their suffix, the hovering ones are not, nor the fading ones,
        # whose suffix bounds differ only far below any tolerance.
        deep = np.flatnonzero(lengths > SUFFIX)
        ends = (starts + lengths - 1)[deep]
        low, high = accumulator._suffix_bounds(*(m.copy() for m in maps), ends)
        kind = np.array(kinds)[deep]
        assert (low[kind == "clamping"] == high[kind == "clamping"]).all()
        if family == "step":
            assert (low[kind != "clamping"] < high[kind != "clamping"]).all()
        else:
            assert (low[kind == "hovering"] < high[kind == "hovering"]).all()
        if family == "exp":
            gap = (high - low)[kind == "fading"]
            assert (gap > 0.0).all() and (gap < 1e-9).all()
            assert (maps[0] == 0.0).sum() == 2 * sum(n >= SUFFIX + 2 for n in SUFFIX_LENGTHS)

    @staticmethod
    def spied_slice(monkeypatch, config, pattern):
        """Integrate a slice whose pixels follow `pattern`; returns the composed runs."""
        composed = []
        compose = accumulator._compose_runs

        def spy(a, b, lo, hi, starts, rank):
            composed.append((len(a), len(starts)))
            return compose(a, b, lo, hi, starts, rank)

        monkeypatch.setattr(accumulator, "_compose_runs", spy)
        # Pixel x takes its signs in order, the pixels' events interleaved.
        cells = sorted((k, x, p) for x, signs in enumerate(pattern) for k, p in enumerate(signs))
        ev = EventArray.from_columns(
            np.arange(len(cells)) * 1e-3,
            [x for _, x, _ in cells],
            np.ones(len(cells), dtype=np.int32),
            [p for _, _, p in cells],
        )
        if config.decay.kind is DecayKind.STEP:
            frame = FrameAccumulator(config, SPEC).process(make_slice(ev))
            expected = reference_step_pixels(ev, config, SPEC)
        else:
            stamp = float(ev.t[-1])
            frame = FrameAccumulator(config, SPEC).process(make_slice(ev, stamp))
            expected = reference_decaying_pixels(ev, stamp, config, SPEC)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)
        return composed

    @pytest.mark.parametrize("decay", [Decay.step(), Decay.exponential(3.0)], ids=["step", "exp"])
    def test_a_coupled_deep_run_is_not_composed(self, monkeypatch, decay):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME,
            contribution=0.2,
            polarity_mode=PolarityMode.SIGNED,
            decay=decay,
        )
        # Pixel 0 climbs five and falls one, so it clamps at 1 all the time;
        # pixel 1 alternates and never clamps; pixel 2 is short, and at STEP
        # it could reach 1.
        coupled = [1, 1, 1, 1, 1, -1] * 50
        uncoupled = [1, -1] * 150
        short = [1, 1, 1, -1]
        assert self.spied_slice(monkeypatch, config, [coupled, uncoupled, short]) == [
            (len(uncoupled) + len(short), 2)
        ]
        monkeypatch.undo()
        assert self.spied_slice(monkeypatch, config, [coupled]) == []


def run_orbit(u: float, widths, signs) -> float:
    """Signed linear events in u = value - 0.5, one at a time, as the rank passes round."""
    for w, s in zip(widths, signs):
        u -= max(min(u, w), -w)
        u = min(max(u + s, -0.5), 0.5)
    return u


def settling_chain(n: int = 3000):
    """Two pixels alternate signs at c = 0.05, then saturate in their last 40 events.

    Pixel (3, 2) ends at 1 and pixel (5, 1) at 0.  Gaps of 1e-5 s keep the
    decay far too small for the alternation to clamp, so only the last 40
    events decide each pixel.  Returns (events, contribution, decay).
    """
    signs = np.concatenate([(-1) ** np.arange(n), np.ones(40, dtype=int)])
    t = np.repeat(np.arange(len(signs)) * 1e-5, 2)
    ev = EventArray.from_columns(
        t,
        np.tile(np.array([3, 5], dtype=np.int32), len(signs)),
        np.tile(np.array([2, 1], dtype=np.int32), len(signs)),
        np.stack([signs, -signs], axis=1).ravel().astype(np.int8),
    )
    return ev, 0.05, Decay.linear(1.0)


class TestSettledSignedLinear:
    """Signed linear runs decided by their last SUFFIX events."""

    @staticmethod
    def runs_of(kind: str):
        """Widths and signs of the two pixels' events in one chain, as two runs."""
        ev, c, decay = settling_chain() if kind == "settling" else signed_linear_chain(kind)
        width, signs, lengths = [], [], []
        for px, py in ((3, 2), (5, 1)):
            mine = (ev.x == px) & (ev.y == py)
            t = ev.t[mine]
            width.append(decay.rate * np.diff(t, prepend=t[0]))
            signs.append(np.where(ev.p[mine] > 0, c, -c))
            lengths.append(int(mine.sum()))
        return np.concatenate(width), np.concatenate(signs), np.array(lengths)

    @pytest.mark.parametrize("kind", SIGNED_LINEAR_KINDS + ("settling",))
    def test_settled_runs_end_on_their_event_orbit(self, kind):
        width, signs, lengths = self.runs_of(kind)
        rng = np.random.default_rng(len(kind))
        first = np.cumsum(lengths) - lengths
        # Each run's tail from a random event on, and a run of SUFFIX events,
        # laid end to end.
        skip = rng.integers(0, lengths - SUFFIX - 1)
        first = np.append(first + skip, first[0])
        count = np.append(lengths - skip, SUFFIX)
        tails = np.concatenate([np.arange(f, f + n) for f, n in zip(first, count)])
        width, signs, ends = width[tails], signs[tails], np.cumsum(count)
        x = rng.uniform(-0.5, 0.5, len(first))
        start = x.copy()
        settled = accumulator._settle_suffixes(x, ends, width, signs)
        assert settled.dtype == bool and settled.shape == count.shape
        assert x[~settled].tobytes() == start[~settled].tobytes()
        for r in np.flatnonzero(settled):
            events = slice(ends[r] - count[r], ends[r])
            assert x[r] == run_orbit(start[r], width[events], signs[events])
        # The run of SUFFIX events is never taken; the hovering walk never
        # settles, and the saturating and settling ones always do.
        assert not settled[-1]
        if kind == "hovering":
            assert not settled.any()
        if kind in ("saturating", "settling"):
            assert settled[:-1].all()

    def test_settling_chain_has_its_shape(self):
        ev, c, decay = settling_chain()
        after = np.array([v for _, _, v in pixel_trajectory(ev, c, decay)])
        assert 0.0 < after[:-40].min() and after[:-40].max() < 1.0
        assert after[-1] == 1.0

    @pytest.mark.parametrize("parts", [1, 3], ids=["whole", "carried"])
    def test_settling_chain_matches_reference(self, parts):
        ev, c, decay = settling_chain()
        config = signed_linear_config(c, decay)
        acc, expected = FrameAccumulator(config, SPEC), None
        bounds = [len(ev) * k // parts for k in range(parts + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            part, stamp = ev[lo:hi], float(ev.t[hi - 1])
            frame = acc.process(make_slice(part, stamp))
            want = reference_decaying_pixels(part, stamp, config, SPEC, expected)
            expected = EventFrame(SPEC, want, stamp)
            assert np.allclose(frame.pixels, want, atol=1e-12, rtol=0.0)
        assert frame.pixels[2, 3] == 1.0 and frame.pixels[1, 5] == 0.0

    def test_pixels_sharing_every_rank_settle(self, monkeypatch):
        # 16 pixels take 5,000 random +-0.2 events each, one per pixel at
        # every stamp, so they share every rank and clamp every few events.
        pixels, n = 16, 5000
        rng = np.random.default_rng(16)
        ev = EventArray.from_columns(
            np.repeat(np.arange(n) * 1e-3, pixels),
            np.tile(np.arange(pixels, dtype=np.int32) % 8, n),
            np.tile(np.arange(pixels, dtype=np.int32) // 8, n),
            rng.choice(np.array([-1, 1], dtype=np.int8), n * pixels),
        )
        ranks = []
        rank_passes = accumulator._rank_passes

        def spy(u, run, rank, *rest):
            ranks.append(int(rank.max()) + 1 if len(rank) else 0)
            rank_passes(u, run, rank, *rest)

        monkeypatch.setattr(accumulator, "_rank_passes", spy)
        config = signed_linear_config(0.2, Decay.linear(0.8))
        stamp = float(ev.t[-1])
        frame = FrameAccumulator(config, SPEC).process(make_slice(ev, stamp))
        assert sum(ranks) <= SUFFIX
        want = reference_decaying_pixels(ev, stamp, config, SPEC)
        assert np.allclose(frame.pixels, want, atol=1e-12, rtol=0.0)

    @given(
        lengths=st.lists(
            st.one_of(st.integers(1, SUFFIX), st.integers(SUFFIX + 1, 2000)), min_size=1, max_size=4
        ),
        log_c=st.floats(-4.0, 0.0),
        log_w=st.floats(-7.0, 0.0),
        up=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # A lone pixel that neither clamps nor stops at 0.5 in its last SUFFIX
    # events: it drifts up by about 0.2c per event from a random state.
    @example(lengths=[20000], log_c=-4.0, log_w=-6.0, up=0.6, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_every_run_ends_on_its_event_orbit(self, lengths, log_c, log_w, up, seed):
        rng = np.random.default_rng(seed)
        c, n = 10.0**log_c, sum(lengths)
        lengths = np.array(lengths)
        starts = np.cumsum(lengths) - lengths
        rank = np.arange(n) - np.repeat(starts, lengths)
        # With rate 1 every event's decay width is its dt.
        dt = rng.exponential(10.0**log_w, n)
        signs = np.where(rng.random(n) < up, c, -c)
        x = rng.uniform(0.0, 1.0, len(lengths))
        got = accumulator._SignedLinearRuns(starts, 1.0 * dt, signs).values(x)
        for r, (start, length) in enumerate(zip(starts, lengths)):
            events = slice(start, start + length)
            assert got[r] == run_orbit(x[r] - 0.5, dt[events], signs[events]) + 0.5


# Streams for the group tests are drawn as segments laid end to end:
# ("noise", n) spreads n events over 0.1 s of the 8x6 frame, ("hot", n)
# puts n events on pixel (2, 3) within 1 ms, more than _SUFFIX when n is
# large, and ("gap", s) leaves s seconds without events.
SEGMENTS = st.one_of(
    st.tuples(st.just("noise"), st.integers(1, 60)),
    st.tuples(st.just("hot"), st.integers(SUFFIX - 4, 2 * SUFFIX + 9)),
    st.tuples(st.just("gap"), st.sampled_from([0.0, 0.013, 0.2])),
)


def segment_stream(segments, seed: int) -> EventArray:
    rng = np.random.default_rng(seed)
    t, x, y, p, now = [], [], [], [], 0.0
    for kind, size in segments:
        if kind == "gap":
            now += size
            continue
        span = 0.1 if kind == "noise" else 1e-3
        t.append(now + np.sort(rng.uniform(0.0, span, size)))
        if kind == "noise":
            x.append(rng.integers(0, SPEC.width, size))
            y.append(rng.integers(0, SPEC.height, size))
        else:
            x.append(np.full(size, 2))
            y.append(np.full(size, 3))
        p.append(rng.choice([-1, 1], size))
        now += span
    if not t:
        return EventArray.empty()
    return EventArray.from_columns(*(np.concatenate(c) for c in (t, x, y, p)))


def frame_bytes(frames):
    return [(f.pixels.tobytes(), f.stamp, f.held) for f in frames]


def slice_by_slice(events: EventArray, config: AccumulatorConfig, geometry=SPEC):
    """Frames of `process` called on each slice alone: every group holds one slice."""
    slicer = StreamSlicer(
        config.slice_method, window_size=config.window_size, interval=config.interval
    )
    acc = FrameAccumulator(config, geometry)
    return [acc.process(slc) for slc in slicer.slices(events)]


def scheduled(slices, config: AccumulatorConfig, geometry=SPEC):
    """`run_accumulation`'s calls for one push of `slices`: the frames sunk, then the error."""
    acc, frames = FrameAccumulator(config, geometry), []
    acc._schedule(slices)
    try:
        for slc in slices:
            frames.append(acc.process(slc))
    except ValueError as exc:
        return frames, exc
    return frames, None


class TestGroups:
    """Slices integrated in groups against slices integrated one at a time."""

    @given(
        polarity=st.sampled_from(list(PolarityMode)),
        decay=st.sampled_from(
            [Decay.step(), Decay.linear(0.5), Decay.linear(40.0), Decay.exponential(0.02)]
        ),
        method=st.sampled_from(list(SliceMethod)),
        window=st.sampled_from([3, 7, 2 * SUFFIX + 5]),
        interval=st.sampled_from([0.01, 0.04]),
        threshold=st.sampled_from([0, 2]),
        c=st.sampled_from([0.2, 0.3, 0.25, 0.5, 1.0]),
        segments=st.lists(SEGMENTS, min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
        cap=st.sampled_from([SUFFIX, accumulator._GROUP_EVENTS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_groups_publish_the_frames_of_single_slices(
        self, polarity, decay, method, window, interval, threshold, c, segments, seed, cap
    ):
        if method is SliceMethod.BY_TIME_AND_NUMBER and decay.kind is not DecayKind.STEP:
            return  # rejected up front: decaying buffers need disjoint slices
        config = AccumulatorConfig(
            slice_method=method, window_size=window, interval=interval, contribution=c,
            polarity_mode=polarity, decay=decay, no_motion_threshold=threshold,
        )
        events = segment_stream(segments, seed)
        expected = frame_bytes(slice_by_slice(events, config))
        with mock.patch.object(accumulator, "_GROUP_EVENTS", cap):
            pushed, _ = accumulate_stream(events, config, SPEC)
            packets, _ = accumulate_stream(
                (events[i : i + 1] for i in range(len(events))), config, SPEC
            )
        assert frame_bytes(pushed) == expected
        assert frame_bytes(packets) == expected

    def test_a_push_integrates_its_slices_in_groups(self, monkeypatch):
        # 40 slices of 50 events: groups of up to 2 * SUFFIX events hold two.
        groups = []
        gather = FrameAccumulator._gather

        def spy(acc, first):
            group = gather(acc, first)
            groups.append(len(group.slices))
            return group

        monkeypatch.setattr(FrameAccumulator, "_gather", spy)
        monkeypatch.setattr(accumulator, "_GROUP_EVENTS", 2 * SUFFIX)
        events = uniform_events(2000, SPEC, t_end=1.0, seed=3)
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_NUMBER, window_size=50, decay=Decay.exponential(0.1)
        )
        frames, _ = accumulate_stream(events, config, SPEC)
        assert groups == [2] * 20
        monkeypatch.undo()
        assert frame_bytes(frames) == frame_bytes(slice_by_slice(events, config))

    def test_an_out_of_bounds_slice_ends_its_group(self):
        # The event at x = 8 lies outside the 8x6 frame, in the fourth of
        # five slices, which one push would integrate as one group.
        events = uniform_events(250, SPEC, t_end=1.0, seed=4)
        x = events.x.copy()
        x[170] = SPEC.width
        bad = EventArray.from_columns(events.t, x, events.y, events.p)
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_NUMBER, window_size=50, decay=Decay.linear(5.0)
        )
        sunk = []
        with pytest.raises(OutOfBoundsEvent, match=r"event at \(8, \d\) outside 8x6 frame"):
            run_accumulation(bad, config, SPEC, on_frame=sunk.append)
        assert frame_bytes(sunk) == frame_bytes(slice_by_slice(events[:150], config))

    @pytest.mark.parametrize("decay", [Decay.linear(5.0), Decay.exponential(0.05)])
    def test_a_slice_before_the_buffer_ends_its_group(self, decay):
        events = uniform_events(120, SPEC, t_end=1.2, seed=6)
        cut = [events[k * 30 : (k + 1) * 30] for k in range(4)]
        slices = [make_slice(part, float(part.t[-1])) for part in cut]
        # The third slice starts before the second one's stamp.
        slices[2] = make_slice(events[55:90], float(events.t[89]))
        config = AccumulatorConfig(slice_method=SliceMethod.BY_TIME, decay=decay)
        frames, error = scheduled(slices, config)
        assert str(error) == (
            "slice reaches back before the accumulated buffer; overlapping "
            "windows cannot be combined with a decaying buffer"
        )
        acc = FrameAccumulator(config, SPEC)
        assert frame_bytes(frames) == frame_bytes([acc.process(s) for s in slices[:2]])

    def test_holds_stay_out_of_groups(self):
        # Slices of 30, 1, 30 and 1 events at threshold 2: the second and
        # fourth are holds, and the third decays from the first one's stamp.
        events = uniform_events(62, SPEC, t_end=0.62, seed=7)
        bounds = [0, 30, 31, 61, 62]
        slices = [
            make_slice(events[lo:hi], float(events.t[hi - 1]) + 1e-3)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, no_motion_threshold=2, decay=Decay.exponential(0.05)
        )
        frames, error = scheduled(slices, config)
        assert error is None
        assert [f.held for f in frames] == [False, True, False, True]
        assert frames[1].pixels is frames[0].pixels and frames[3].pixels is frames[2].pixels
        acc = FrameAccumulator(config, SPEC)
        assert frame_bytes(frames) == frame_bytes([acc.process(s) for s in slices])
