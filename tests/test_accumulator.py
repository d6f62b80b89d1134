"""Accumulator math against per-event and globally-interleaved oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evframe import (
    AccumulatorCarry,
    AccumulatorConfig,
    Decay,
    DecayKind,
    EventArray,
    EventFrame,
    FrameAccumulator,
    OutOfBoundsEvent,
    PolarityMode,
    SensorGeometry,
    Slice,
    SliceMethod,
    accumulate_slice,
    apply_decay,
    neutral_value,
    quantize_frame,
)
from evframe import accumulator

from conftest import SMALL_GEOMETRY, event_arrays
from oracles import Event, events_of, integrate_event, reset_frame

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
    carry: AccumulatorCarry,
) -> np.ndarray:
    """Globally-interleaved reference for decaying modes.

    Decays the whole frame to every event time in order, integrates the
    event, then decays to the publish stamp.  The production path decays
    each pixel lazily; both orderings express the same per-pixel
    composition, so they must agree to rounding error.
    """
    neutral = neutral_value(config.polarity_mode)
    if carry.buffer is not None:
        pixels = carry.buffer.copy()
        now = carry.buffer_time
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
        frame, _ = accumulate_slice(make_slice(ev), config, SPEC)
        assert frame.pixels[2, 3] == 1.0
        assert quantize_frame(frame)[2, 3] == 255

    def test_single_half_contribution_is_midgray(self):
        ev = EventArray.from_columns([0.1], [3], [2], [1])
        config = AccumulatorConfig(contribution=0.5)
        frame, _ = accumulate_slice(make_slice(ev), config, SPEC)
        assert frame.pixels[2, 3] == 0.5
        assert quantize_frame(frame)[2, 3] == 128

    def test_empty_slice_is_neutral(self):
        frame, _ = accumulate_slice(make_slice(EventArray.empty()), AccumulatorConfig(), SPEC)
        assert np.all(frame.pixels == 0.0)

    def test_does_not_keep_a_buffer(self):
        ev = EventArray.from_columns([0.1], [0], [0], [1])
        _, carry = accumulate_slice(make_slice(ev), AccumulatorConfig(), SPEC)
        assert carry.buffer is None
        assert carry.previous_frame is not None

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
        frame, _ = accumulate_slice(make_slice(ev), config, SPEC)
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
        frame, _ = accumulate_slice(make_slice(ev), config, SPEC)
        expected = reference_step_pixels(ev, config, SPEC)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)

    @given(event_arrays(min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_rectified_is_polarity_blind(self, ev):
        flipped = EventArray.from_columns(ev.t, ev.x, ev.y, -ev.p)
        config = AccumulatorConfig(contribution=0.25)
        a, _ = accumulate_slice(make_slice(ev), config, SPEC)
        b, _ = accumulate_slice(make_slice(flipped), config, SPEC)
        assert np.array_equal(a.pixels, b.pixels)

    @given(event_arrays(min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_signed_flip_mirrors_frame(self, ev):
        flipped = EventArray.from_columns(ev.t, ev.x, ev.y, -ev.p)
        config = AccumulatorConfig(contribution=0.25, polarity_mode=PolarityMode.SIGNED)
        a, _ = accumulate_slice(make_slice(ev), config, SPEC)
        b, _ = accumulate_slice(make_slice(flipped), config, SPEC)
        assert np.allclose(a.pixels + b.pixels, 1.0, atol=1e-12)

    def test_rejects_out_of_bounds_slice(self):
        ev = EventArray.from_columns([0.1], [SMALL_GEOMETRY.width], [0], [1])
        with pytest.raises(OutOfBoundsEvent):
            accumulate_slice(make_slice(ev), AccumulatorConfig(), SPEC)

    @given(event_arrays(min_size=0, max_size=60), event_arrays(min_size=0, max_size=30))
    @settings(max_examples=40)
    def test_step_forgets_history(self, history, ev):
        config = AccumulatorConfig(contribution=0.25)
        fresh, _ = accumulate_slice(make_slice(ev), config, SPEC)
        _, carry = accumulate_slice(make_slice(history, publish_stamp=0.0), config, SPEC)
        ev_late = EventArray.from_columns(ev.t + 20.0, ev.x, ev.y, ev.p)
        after, _ = accumulate_slice(make_slice(ev_late), config, SPEC, carry)
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


class TestDecayingAccumulation:
    @given(event_arrays(min_size=0, max_size=100, max_time=2.0), decaying_configs)
    @settings(max_examples=100, deadline=None)
    def test_matches_interleaved_reference(self, ev, config):
        carry = AccumulatorCarry()
        slc = make_slice(ev)
        frame, _ = accumulate_slice(slc, config, SPEC, carry)
        expected = reference_decaying_pixels(ev, slc.publish_stamp, config, SPEC, carry)
        assert np.allclose(frame.pixels, expected, atol=1e-12, rtol=0.0)

    @given(
        event_arrays(min_size=2, max_size=80, max_time=2.0),
        decaying_configs,
        st.integers(1, 79),
    )
    @settings(max_examples=80, deadline=None)
    def test_slice_boundaries_do_not_change_the_buffer(self, ev, config, cut_raw):
        cut = min(cut_raw, len(ev) - 1)
        whole, _ = accumulate_slice(make_slice(ev, 3.0), config, SPEC)

        first = ev[:cut]
        rest = ev[cut:]
        mid = float(rest.t[0])
        _, carry = accumulate_slice(make_slice(first, mid), config, SPEC)
        second, _ = accumulate_slice(make_slice(rest, 3.0), config, SPEC, carry)
        assert np.allclose(whole.pixels, second.pixels, atol=1e-12, rtol=0.0)

    def test_buffer_persists_between_slices(self):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=Decay.exponential(10.0), contribution=0.5
        )
        ev = EventArray.from_columns([0.0], [1], [1], [1])
        _, carry = accumulate_slice(make_slice(ev, 0.5), config, SPEC)
        later, _ = accumulate_slice(make_slice(EventArray.empty(), 1.0), config, SPEC, carry)
        assert 0.0 < later.pixels[1, 1] < 0.5
        assert later.pixels[1, 1] == pytest.approx(0.5 * np.exp(-0.1), abs=1e-12)

    @pytest.mark.parametrize("decay", [Decay.linear(1.0), Decay.exponential(0.3)])
    def test_carry_buffer_is_the_published_frame(self, decay):
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME, decay=decay, contribution=0.5
        )
        ev = EventArray.from_columns([0.1, 0.2], [1, 2], [1, 1], [1, 1])
        frame, carry = accumulate_slice(make_slice(ev, 0.5), config, SPEC)
        assert np.shares_memory(carry.buffer, frame.pixels)
        before = frame.pixels.copy()
        later = EventArray.from_columns([0.6, 0.7], [1, 1], [1, 1], [1, 1])
        nxt, _ = accumulate_slice(make_slice(later, 1.0), config, SPEC, carry)
        assert np.array_equal(frame.pixels, before)
        assert not np.array_equal(nxt.pixels, before)

    def test_rejects_slice_overlapping_buffer(self):
        config = AccumulatorConfig(slice_method=SliceMethod.BY_TIME, decay=Decay.linear(1.0))
        ev = EventArray.from_columns([0.5], [1], [1], [1])
        _, carry = accumulate_slice(make_slice(ev, 1.0), config, SPEC)
        overlapping = EventArray.from_columns([0.75], [1], [1], [1])
        with pytest.raises(ValueError):
            accumulate_slice(make_slice(overlapping, 1.5), config, SPEC, carry)

    def test_rejects_events_past_publish_stamp(self):
        config = AccumulatorConfig(slice_method=SliceMethod.BY_TIME, decay=Decay.linear(1.0))
        ev = EventArray.from_columns([2.0], [1], [1], [1])
        with pytest.raises(ValueError):
            accumulate_slice(make_slice(ev, publish_stamp=1.0), config, SPEC)


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
        assert acc.carry.previous_frame is first

    def test_threshold_zero_never_holds(self):
        acc = FrameAccumulator(AccumulatorConfig(), SPEC)
        empty = EventArray.empty()
        frame = acc.process(Slice(empty, 0.5, interval_event_count=0, partial=False))
        assert frame.held is False


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

    Returns (events, contribution, decay).  Each kind steers the deep-tail
    speculation down one branch:

    * "hovering": c = 0.01 and w = rate*dt near c/10, so each pixel
      walks around 0.5, the guessed signs keep failing and the tails
      fall back to rank passes;
    * "wiped": c = 0.25 with gaps of 0, 0.25 or 0.5 s, so w >= c is
      common, priors land in the dead zone and states reach exactly 0.5;
    * "saturating": c = 1, where each branch map has lo == hi;
    * "drifting": pixel (3, 2) sits at 1 under +c events, then -c events
      with w = 0.6c pull it below 0.5 while the orbit without decay
      stays above, so a few guesses fail and the error a wrong branch
      would leave lasts to the end.  Pixel (5, 1) mirrors it.
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
    """One pixel with thousands of events, far deeper than the strategies reach."""

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
        frame1, carry = accumulate_slice(make_slice(first, mid), config, SPEC)
        frame2, _ = accumulate_slice(make_slice(rest, end), config, SPEC, carry)
        if decay.kind is DecayKind.STEP:
            expected1 = reference_step_pixels(first, config, SPEC)
            expected2 = reference_step_pixels(rest, config, SPEC)
        else:
            expected1 = reference_decaying_pixels(first, mid, config, SPEC, AccumulatorCarry())
            carried = AccumulatorCarry(buffer=expected1, buffer_time=mid)
            expected2 = reference_decaying_pixels(rest, end, config, SPEC, carried)
        assert np.allclose(frame1.pixels, expected1, atol=1e-12, rtol=0.0)
        assert np.allclose(frame2.pixels, expected2, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("runs", [CLAMPING_RUNS, UNCLAMPED_RUNS], ids=["clamping", "unclamped"])
    def test_signed_step_is_bit_exact_at_power_of_two_contribution(self, runs):
        ev = hot_pixel_stream(runs)
        config = AccumulatorConfig(contribution=0.25, polarity_mode=PolarityMode.SIGNED)
        for part in (ev, ev[:1401], ev[1401:]):
            frame, _ = accumulate_slice(make_slice(part), config, SPEC)
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

    def test_signed_linear_streams_reach_every_branch(self, monkeypatch):
        from evframe import accumulator

        seen = {}
        speculate, rank_passes = accumulator._speculate, accumulator._rank_passes

        def spy_speculate(*args):
            seen["speculating"] = True
            speculate(*args)
            seen["speculating"] = False

        def spy_rank_passes(u, run, rank, *rest):
            if seen.get("speculating"):
                seen[kind] = seen.get(kind, 0) + len(run)
            rank_passes(u, run, rank, *rest)

        monkeypatch.setattr(accumulator, "_speculate", spy_speculate)
        monkeypatch.setattr(accumulator, "_rank_passes", spy_rank_passes)
        for kind in SIGNED_LINEAR_KINDS:
            ev, c, decay = signed_linear_chain(kind)
            seen["speculating"] = None
            accumulate_slice(make_slice(ev), signed_linear_config(c, decay), SPEC)
            assert seen["speculating"] is False, kind
        # Only the hovering walk leaves events to the fallback rank passes.
        assert seen.get("hovering", 0) > 1000
        assert not {"wiped", "saturating", "drifting"} & set(seen)

    @pytest.mark.parametrize("kind", SIGNED_LINEAR_KINDS)
    @pytest.mark.parametrize("parts", [1, 3], ids=["whole", "carried"])
    def test_signed_linear_matches_reference(self, kind, parts):
        ev, c, decay = signed_linear_chain(kind)
        config = signed_linear_config(c, decay)
        carry, expected = AccumulatorCarry(), AccumulatorCarry()
        bounds = [len(ev) * k // parts for k in range(parts + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            # Publishing at the last event keeps the deep states in the frame.
            part, stamp = ev[lo:hi], float(ev.t[hi - 1])
            frame, carry = accumulate_slice(make_slice(part, stamp), config, SPEC, carry)
            want = reference_decaying_pixels(part, stamp, config, SPEC, expected)
            expected = AccumulatorCarry(buffer=want, buffer_time=stamp)
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
        order, pix, _, _ = accumulator._pixel_runs(idx)
        assert order.tolist() == expected.tolist()
        assert pix.tolist() == sorted(keys)
        assert accumulator._stable_order(idx).tolist() == expected.tolist()

    def test_full_320x240_frame(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 320 * 240, 20_000).astype(np.intp)
        idx[:50] = 320 * 240 - 1  # a run above 2**16 with ties
        n = len(idx)
        order, _, _, rank = accumulator._pixel_runs(idx)
        assert order.tolist() == np.argsort(idx * n + np.arange(n)).tolist()
        assert accumulator._stable_order(rank).tolist() == np.argsort(rank, kind="stable").tolist()
