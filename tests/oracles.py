"""Plain reference versions that the fast library paths are checked against.

The library carries events only as :class:`evframe.EventArray` columns.
These one-event-at-a-time versions, the synthesis loop that resamples
every pixel at every step, and the report builders that hold every
frame of every run are kept here, unchanged, so the fast and streamed
paths can be compared with the plain definitions.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from evframe import (
    AccumulatorConfig,
    DegenerateFrame,
    EventArray,
    EventFrame,
    FrameAccumulator,
    InvalidPolarity,
    MalformedLine,
    MotionProfile,
    OutOfBoundsEvent,
    PairScore,
    PolarityFlipReport,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SimilarityReport,
    Slice,
    SliceMethod,
    SyntheticScene,
    distinct_levels,
    fill_ratio,
    generate_events,
    ncc,
    neutral_value,
    saturation_fraction,
    slice_by_time,
    slice_by_time_and_number,
)
from evframe.metrics import _STEP_PX, _active_mean, _check_speed, _common_full_index
from evframe.synth import _THRESHOLD_SLACK, _sample


class Event(NamedTuple):
    """One event as the oracles take it: t seconds, pixel (x, y), p = +-1."""

    t: float
    x: int
    y: int
    p: int


def events_of(events: EventArray) -> List[Event]:
    """The events of a batch, one record each, in time order."""
    return [
        Event(*row)
        for row in zip(events.t.tolist(), events.x.tolist(), events.y.tolist(), events.p.tolist())
    ]


def parse_event_line(line: str, line_number: int | None = None) -> Event:
    """Parse one "t x y p" line; p is 1 for +1 and 0 for -1.

    Raises MalformedLine, or InvalidPolarity when only the polarity
    token is bad.  Error messages name the offending line number when
    one is given.
    """
    where = f" at line {line_number}" if line_number is not None else ""
    parts = line.split()
    if len(parts) != 4:
        raise MalformedLine(
            f"expected 4 fields 't x y p'{where}, got {len(parts)}: {line.strip()!r}"
        )
    try:
        t = float(parts[0])
        x = int(parts[1])
        y = int(parts[2])
    except ValueError:
        raise MalformedLine(f"could not parse numeric fields{where}: {line.strip()!r}") from None
    if parts[3] == "1":
        p = 1
    elif parts[3] == "0":
        p = -1
    else:
        raise InvalidPolarity(f"polarity must be 0 or 1{where}, got {parts[3]!r}")
    if not t >= 0.0:
        raise MalformedLine(f"timestamp must be >= 0{where}, got {parts[0]}")
    if x < 0 or y < 0:
        raise MalformedLine(f"coordinates must be >= 0{where}, got ({x}, {y})")
    return Event(t, x, y, p)


def reset_frame(geometry: SensorGeometry, polarity_mode: PolarityMode) -> np.ndarray:
    """Fresh writable pixel buffer at the neutral value everywhere."""
    return np.full((geometry.height, geometry.width), neutral_value(polarity_mode))


def integrate_event(
    pixels: np.ndarray,
    event: Event,
    polarity_mode: PolarityMode,
    contribution: float,
) -> np.ndarray:
    """Add one event's contribution to its pixel, clamped to [0, 1].

    Mutates `pixels` in place and returns it.  This is the reference
    path; `accumulate_slice` integrates whole slices vectorized.
    """
    h, w = pixels.shape
    if not (0 <= event.x < w and 0 <= event.y < h):
        raise OutOfBoundsEvent(
            f"event at ({event.x}, {event.y}) outside {w}x{h} frame"
        )
    if polarity_mode is PolarityMode.SIGNED and event.p < 0:
        contribution = -contribution
    v = pixels[event.y, event.x] + contribution
    pixels[event.y, event.x] = min(1.0, max(0.0, v))
    return pixels


def dense_generate_events(
    scene: SyntheticScene,
    motion: MotionProfile,
    sensor: SensorModel,
    time_step: float,
) -> EventArray:
    """Simulate the event stream by resampling every pixel at every step.

    This is the reference for :func:`evframe.generate_events`, which
    resamples only the pixels whose sample can change; the two must
    agree bit for bit.
    """
    if not time_step > 0.0:
        raise ValueError(f"time step must be > 0, got {time_step}")
    if motion.max_speed * time_step >= 0.5:
        raise ValueError(
            "time step too coarse: max speed * time_step = "
            f"{motion.max_speed * time_step:.3f} px, needs to stay below 0.5 px"
        )
    duration = motion.duration
    n_steps = max(1, int(math.ceil(duration / time_step - 1e-12)))
    times = np.minimum(np.arange(1, n_steps + 1) * time_step, duration)
    offsets = motion.offsets_at(times)
    c = sensor.contrast_threshold
    h, w = scene.field.shape
    cols = np.tile(np.arange(w, dtype=np.int32), h)
    rows = np.repeat(np.arange(h, dtype=np.int32), w)
    reference = _sample(scene.field, 0.0, 0.0).reshape(-1)
    t_parts = []
    x_parts = []
    y_parts = []
    p_parts = []
    for i in range(n_steps):
        now = _sample(scene.field, float(offsets[i, 0]), float(offsets[i, 1])).reshape(-1)
        residual = now - reference
        quanta = np.floor(np.abs(residual) / c + _THRESHOLD_SLACK).astype(np.int64)
        fired = np.flatnonzero(quanta)
        if len(fired) == 0:
            continue
        reps = quanta[fired]
        sign = np.sign(residual[fired]).astype(np.int8)
        x_parts.append(np.repeat(cols[fired], reps))
        y_parts.append(np.repeat(rows[fired], reps))
        p_parts.append(np.repeat(sign, reps))
        t_parts.append(np.full(int(reps.sum()), times[i]))
        reference[fired] += sign * reps * c
    if not t_parts:
        return EventArray.empty()
    return EventArray.from_columns(
        np.concatenate(t_parts),
        np.concatenate(x_parts),
        np.concatenate(y_parts),
        np.concatenate(p_parts),
    )


def frames_for(
    slices: Sequence[Slice],
    config: AccumulatorConfig,
    spec: SensorGeometry,
) -> List[Tuple[EventFrame, Slice]]:
    acc = FrameAccumulator(config, spec)
    return [(acc.process(s), s) for s in slices]


def speed_runs(
    scene: SyntheticScene,
    speeds: Sequence[float],
    interval: float,
    window_size: int,
    sensor: SensorModel,
    travel: float,
    contribution: float,
) -> Tuple[
    Dict[float, List[Tuple[EventFrame, Slice]]],
    Dict[float, List[Tuple[EventFrame, Slice]]],
]:
    """Accumulate every speed with both slicers over equal displacement.

    Returns ({speed: [(frame, slice)]} for the fixed-interval by-time
    runs, then the same for by-time-and-number runs whose interval is
    scaled inversely with speed).
    """
    s_ref = float(min(speeds))
    spec = scene.geometry
    btn_frames: Dict[float, List[Tuple[EventFrame, Slice]]] = {}
    time_frames: Dict[float, List[Tuple[EventFrame, Slice]]] = {}
    for s in speeds:
        motion = MotionProfile.constant((float(s), 0.0), travel / float(s))
        stream = generate_events(scene, motion, sensor, _STEP_PX / float(s))
        btn_slices = slice_by_time_and_number(
            stream, interval * (s_ref / float(s)), window_size, t0=0.0
        )
        time_slices = slice_by_time(stream, interval, t0=0.0)
        btn_cfg = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME_AND_NUMBER,
            window_size=window_size,
            interval=interval * (s_ref / float(s)),
            contribution=contribution,
        )
        time_cfg = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME,
            interval=interval,
            contribution=contribution,
        )
        btn_frames[float(s)] = frames_for(btn_slices, btn_cfg, spec)
        time_frames[float(s)] = frames_for(time_slices, time_cfg, spec)
    return time_frames, btn_frames


def held_speed_invariance_report(
    scene: SyntheticScene,
    speeds: Sequence[float],
    interval: float,
    window_size: int,
    *,
    sensor: SensorModel | None = None,
    travel: float | None = None,
    contribution: float = 0.2,
) -> Tuple[SimilarityReport, SimilarityReport]:
    """Compare frame appearance across scene speeds for both slicers.

    Every speed sweeps the same scene over the same total displacement,
    so runs differ only in how fast the motion plays out.  Frames are
    aligned so corresponding indices cover identical displacement:

    * by time and number: the publish interval is scaled inversely
      with speed (frame k at speed s pairs with frame k at speed 2s
      under half the interval), and the window always holds the last
      `window_size` events, so aligned frames should match.
    * by time: the publish interval stays fixed, the realistic setting
      for a consumer running at a fixed frame rate.  Frame k at the
      faster speed pairs with the equal-displacement frame of the
      slower run.  Slice event counts scale with speed, which is what
      smears fast frames and makes them look different.

    Returns (by_time report, by_time_and_number report).
    """
    if len(speeds) < 2:
        raise ValueError("need at least 2 speeds to compare")
    for s in speeds:
        _check_speed(s)
    if sensor is None:
        sensor = SensorModel(contrast_threshold=0.2)
    if travel is None:
        travel = scene.geometry.width / 2.0
    time_frames, btn_frames = speed_runs(
        scene, speeds, interval, window_size, sensor, travel, contribution
    )
    btn_counts = {
        s: tuple(len(sl) for _, sl in runs if not sl.partial)
        for s, runs in btn_frames.items()
    }
    time_counts = {s: tuple(len(sl) for _, sl in runs) for s, runs in time_frames.items()}

    btn_pairs: List[PairScore] = []
    time_pairs: List[PairScore] = []
    btn_degen = 0
    time_degen = 0
    btn_panel = time_panel = None
    ordered = sorted(float(s) for s in speeds)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            sa, sb = ordered[i], ordered[j]
            extreme = i == 0 and j == len(ordered) - 1  # the pair the panels show
            scores: List[float] = []
            for (fa, sl_a), (fb, sl_b) in zip(btn_frames[sa], btn_frames[sb]):
                if sl_a.partial or sl_b.partial:
                    continue
                if extreme:
                    btn_panel = (fa, fb)
                try:
                    scores.append(ncc(fa, fb))
                except DegenerateFrame:
                    btn_degen += 1
            btn_pairs.append(PairScore(sa, sb, tuple(scores)))

            scores = []
            ratio = sb / sa  # frames of the faster run are this much sparser
            for kb in range(len(time_frames[sb])):
                ka_f = (kb + 1) * ratio - 1.0
                ka = int(round(ka_f))
                if abs(ka_f - ka) > 1e-9 or not 0 <= ka < len(time_frames[sa]):
                    continue
                pair = (time_frames[sa][ka][0], time_frames[sb][kb][0])
                if extreme:
                    time_panel = pair
                try:
                    scores.append(ncc(*pair))
                except DegenerateFrame:
                    time_degen += 1
            time_pairs.append(PairScore(sa, sb, tuple(scores)))

    return (
        SimilarityReport("by-time", tuple(time_pairs), time_degen, time_counts, time_panel),
        SimilarityReport(
            "by-time-and-number", tuple(btn_pairs), btn_degen, btn_counts, btn_panel
        ),
    )


def reversal_runs(
    scene: SyntheticScene,
    speed: float,
    interval: float,
    window_size: int,
    half_duration: float,
    sensor: SensorModel,
    contribution: float,
) -> Dict[PolarityMode, List[Tuple[EventFrame, Slice]]]:
    """Accumulate an out-and-back sweep in both polarity modes."""
    motion = MotionProfile.reversing((float(speed), 0.0), half_duration)
    stream = generate_events(scene, motion, sensor, _STEP_PX / float(speed))
    spec = scene.geometry
    slices = slice_by_time_and_number(stream, interval, window_size, t0=0.0)
    frames: Dict[PolarityMode, List[Tuple[EventFrame, Slice]]] = {}
    for mode in (PolarityMode.SIGNED, PolarityMode.RECTIFIED):
        cfg = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME_AND_NUMBER,
            window_size=window_size,
            interval=interval,
            contribution=contribution,
            polarity_mode=mode,
        )
        frames[mode] = frames_for(slices, cfg, spec)
    return frames


def held_polarity_flip_report(
    scene: SyntheticScene,
    speed: float,
    interval: float,
    window_size: int,
    half_duration: float,
    *,
    sensor: SensorModel | None = None,
    contribution: float = 0.2,
) -> PolarityFlipReport:
    """Drive an edge out and back and report both polarity modes.

    The motion reverses at `half_duration`, which should be a whole
    number of publish intervals so the reversal lands on a frame
    boundary.  In signed mode the swept band flips from above 0.5 to
    below it; in rectified mode aligned before/after frames should
    correlate strongly because both show the same band of activity.
    """
    _check_speed(speed)
    if sensor is None:
        sensor = SensorModel(contrast_threshold=0.2)
    m = int(round(half_duration / interval))
    if abs(m * interval - half_duration) > 1e-9:
        raise ValueError("half_duration must be a whole number of intervals")
    frames = reversal_runs(
        scene, speed, interval, window_size, half_duration, sensor, contribution
    )
    slices = [sl for _, sl in frames[PolarityMode.SIGNED]]
    total = len(slices)
    before_means: List[float] = []
    after_means: List[float] = []
    rect_scores: List[float] = []
    degenerate = 0
    j = 1
    while m - j + 1 >= 1 and m + j <= total:
        bi = m - j  # 0-based index of frame published at (m - j + 1) * interval
        ai = m + j - 1
        signed_b, slice_b = frames[PolarityMode.SIGNED][bi]
        signed_a, slice_a = frames[PolarityMode.SIGNED][ai]
        if slice_b.partial or slice_a.partial:
            j += 1
            continue
        mb = _active_mean(signed_b, 0.5)
        ma = _active_mean(signed_a, 0.5)
        if mb is not None and ma is not None:
            before_means.append(mb)
            after_means.append(ma)
        try:
            rect_scores.append(
                ncc(frames[PolarityMode.RECTIFIED][bi][0], frames[PolarityMode.RECTIFIED][ai][0])
            )
        except DegenerateFrame:
            degenerate += 1
        j += 1
    panels = {}
    if 1 <= m < total:
        panels = {mode: (runs[m - 1][0], runs[m][0]) for mode, runs in frames.items()}
    return PolarityFlipReport(
        tuple(before_means), tuple(after_means), tuple(rect_scores), degenerate, panels
    )


def held_window_coverage_sweep(
    events: EventArray,
    geometry: SensorGeometry,
    config: AccumulatorConfig,
    window_sizes: Sequence[int],
    *,
    t0: float | None = None,
) -> List[Tuple[int, float, float]]:
    """Fill and saturation of one aligned frame per window size.

    Runs the same stream through the time-and-number slicer at each
    window size and measures the latest frame index that is non-partial
    everywhere, so the comparison sees identical scene state.
    Returns rows of (window_size, fill_ratio, saturation_fraction).
    """
    spec = geometry
    neutral = neutral_value(config.polarity_mode)
    runs = [
        slice_by_time_and_number(events, config.interval, n, t0=t0) for n in window_sizes
    ]
    k = _common_full_index(runs)
    rows: List[Tuple[int, float, float]] = []
    for n, slices in zip(window_sizes, runs):
        cfg = replace(config, window_size=int(n))
        frames = frames_for(slices[: k + 1], cfg, spec)
        frame = frames[k][0]
        rows.append((int(n), fill_ratio(frame, neutral), saturation_fraction(frame, neutral)))
    return rows


def held_contribution_level_sweep(
    events: EventArray,
    geometry: SensorGeometry,
    config: AccumulatorConfig,
    contributions: Sequence[float],
    *,
    t0: float | None = None,
) -> List[Tuple[float, int]]:
    """Distinct quantized levels of one aligned frame per contribution.

    Returns rows of (contribution, distinct_levels) for the same
    publish index under each contribution value.
    """
    spec = geometry
    slices = slice_by_time_and_number(events, config.interval, config.window_size, t0=t0)
    k = _common_full_index([slices])
    rows: List[Tuple[float, int]] = []
    for c in contributions:
        cfg = replace(config, contribution=float(c))
        frames = frames_for(slices[: k + 1], cfg, spec)
        rows.append((float(c), distinct_levels(frames[k][0])))
    return rows
