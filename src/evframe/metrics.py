"""Frame quality metrics and the comparison reports built on them.

The similarity metric is zero-mean normalized cross-correlation, which
is invariant to the contribution scale and to any affine remapping of
pixel values, so it measures structure rather than brightness.  A
constant frame has no structure to correlate and raises
:class:`DegenerateFrame` instead of returning a score; report builders
count such pairs separately rather than scoring them.

The report functions compose the synthetic generator, slicer and
accumulator to quantify the claims the toolkit is built around: frame
appearance should not depend on scene speed when slicing by time and
number, rectified frames should survive a motion reversal, and fill,
saturation and gray-level depth should track window size and event
contribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .accumulator import FrameAccumulator
from .core import (
    AccumulatorConfig,
    EventArray,
    EventFrame,
    FrameSpec,
    PolarityMode,
    SensorGeometry,
    SliceMethod,
    neutral_value,
    quantize_frame,
)
from .slicer import Slice, slice_by_time, slice_by_time_and_number
from .synth import MotionProfile, SensorModel, SyntheticScene, generate_events

__all__ = [
    "DegenerateFrame",
    "ncc",
    "fill_ratio",
    "saturation_fraction",
    "distinct_levels",
    "PairScore",
    "SimilarityReport",
    "speed_invariance_report",
    "PolarityFlipReport",
    "polarity_flip_report",
    "window_coverage_sweep",
    "contribution_level_sweep",
]

FrameLike = Union[EventFrame, np.ndarray]


class DegenerateFrame(ValueError):
    """A constant frame has no variance, so correlation is undefined."""


def _pixels(frame: FrameLike) -> np.ndarray:
    if isinstance(frame, EventFrame):
        return frame.pixels
    return np.asarray(frame, dtype=np.float64)


def ncc(frame_a: FrameLike, frame_b: FrameLike) -> float:
    """Zero-mean normalized cross-correlation of two frames, in [-1, 1]."""
    a = _pixels(frame_a)
    b = _pixels(frame_b)
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    va = float((da * da).sum())
    vb = float((db * db).sum())
    if va == 0.0 or vb == 0.0:
        raise DegenerateFrame("constant frame has no variance to correlate")
    score = float((da * db).sum()) / float(np.sqrt(va) * np.sqrt(vb))
    return float(np.clip(score, -1.0, 1.0))


def fill_ratio(frame: FrameLike, neutral: float = 0.0) -> float:
    """Fraction of pixels that differ from the neutral value."""
    px = _pixels(frame)
    return float(np.count_nonzero(px != neutral)) / px.size


def saturation_fraction(frame: FrameLike, neutral: float = 0.0) -> float:
    """Fraction of non-neutral pixels sitting exactly at 0 or 1.

    Returns 0.0 when no pixel differs from neutral.
    """
    px = _pixels(frame)
    active = px != neutral
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        return 0.0
    railed = active & ((px == 0.0) | (px == 1.0))
    return float(np.count_nonzero(railed)) / n_active


def distinct_levels(frame: EventFrame, bit_depth: int | None = None) -> int:
    """Number of distinct quantized pixel values in the frame."""
    return int(len(np.unique(quantize_frame(frame, bit_depth))))


@dataclass(frozen=True)
class PairScore:
    """Aligned-frame NCC scores for one pair of speeds."""

    speed_a: float
    speed_b: float
    scores: Tuple[float, ...]

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores)) if self.scores else float("nan")

    @property
    def min_score(self) -> float:
        return float(min(self.scores)) if self.scores else float("nan")


@dataclass(frozen=True)
class SimilarityReport:
    """How similar corresponding frames look across speeds, per method.

    `events_per_slice` records the slice sizes the method produced at
    each speed (partial startup windows excluded), which is the
    histogram behind the speed-invariance mechanism.  `panel` is the
    latest aligned (slowest, fastest) frame pair, scored or degenerate,
    or None when no frames align.
    """

    method: str
    pairs: Tuple[PairScore, ...]
    degenerate_pairs: int
    events_per_slice: Dict[float, Tuple[int, ...]]
    panel: Optional[Tuple[EventFrame, EventFrame]] = field(compare=False, repr=False)

    @property
    def mean_score(self) -> float:
        pooled = [s for p in self.pairs for s in p.scores]
        return float(np.mean(pooled)) if pooled else float("nan")

    @property
    def min_score(self) -> float:
        pooled = [s for p in self.pairs for s in p.scores]
        return float(min(pooled)) if pooled else float("nan")


_STEP_PX = 0.25  # scene displacement per simulation step, in pixels


def _frames_for(
    slices: Sequence[Slice],
    config: AccumulatorConfig,
    spec: FrameSpec,
) -> List[Tuple[EventFrame, Slice]]:
    acc = FrameAccumulator(config, spec)
    return [(acc.process(s), s) for s in slices]


def _check_speed(speed: float) -> None:
    """Reject a sweep speed that gives no finite, positive duration."""
    if not 0.0 < float(speed) < math.inf:
        raise ValueError(f"speed must be a finite number > 0 px/s, got {speed:g}")


def _speed_runs(
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
    spec = FrameSpec.from_geometry(scene.geometry)
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
        btn_frames[float(s)] = _frames_for(btn_slices, btn_cfg, spec)
        time_frames[float(s)] = _frames_for(time_slices, time_cfg, spec)
    return time_frames, btn_frames


def speed_invariance_report(
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
    time_frames, btn_frames = _speed_runs(
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


@dataclass(frozen=True)
class PolarityFlipReport:
    """What a motion reversal does to frames in each polarity mode.

    Pairs are aligned so the before and after frames show the band of
    pixels the edge swept most recently at the same place.  `panels`
    holds, per mode, the frames published just before and just after
    the reversal (empty when the run is too short to have both).
    """

    signed_before_means: Tuple[float, ...]
    signed_after_means: Tuple[float, ...]
    rectified_scores: Tuple[float, ...]
    degenerate_pairs: int
    panels: Dict[PolarityMode, Tuple[EventFrame, EventFrame]] = field(
        compare=False, repr=False
    )

    @property
    def sign_flips(self) -> bool:
        if not self.signed_before_means or not self.signed_after_means:
            return False
        return all(m > 0.5 for m in self.signed_before_means) and all(
            m < 0.5 for m in self.signed_after_means
        )

    @property
    def min_rectified(self) -> float:
        return float(min(self.rectified_scores)) if self.rectified_scores else float("nan")


def _active_mean(frame: EventFrame, neutral: float) -> float | None:
    px = frame.pixels
    active = np.abs(px - neutral) > 1e-12
    if not active.any():
        return None
    return float(px[active].mean())


def _reversal_runs(
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
    spec = FrameSpec.from_geometry(scene.geometry)
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
        frames[mode] = _frames_for(slices, cfg, spec)
    return frames


def polarity_flip_report(
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
    frames = _reversal_runs(
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


def _common_full_index(slice_runs: Sequence[Sequence[Slice]]) -> int:
    """Latest frame index at which every run has a non-partial slice."""
    limit = min(len(run) for run in slice_runs)
    for k in range(limit - 1, -1, -1):
        if all(not run[k].partial for run in slice_runs):
            return k
    raise ValueError("no frame index is non-partial across all runs")


def window_coverage_sweep(
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
    spec = FrameSpec.from_geometry(geometry)
    neutral = neutral_value(config.polarity_mode)
    runs = [
        slice_by_time_and_number(events, config.interval, n, t0=t0) for n in window_sizes
    ]
    k = _common_full_index(runs)
    rows: List[Tuple[int, float, float]] = []
    for n, slices in zip(window_sizes, runs):
        cfg = replace(config, window_size=int(n))
        frames = _frames_for(slices[: k + 1], cfg, spec)
        frame = frames[k][0]
        rows.append((int(n), fill_ratio(frame, neutral), saturation_fraction(frame, neutral)))
    return rows


def contribution_level_sweep(
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
    spec = FrameSpec.from_geometry(geometry)
    slices = slice_by_time_and_number(events, config.interval, config.window_size, t0=t0)
    k = _common_full_index([slices])
    rows: List[Tuple[float, int]] = []
    for c in contributions:
        cfg = replace(config, contribution=float(c))
        frames = _frames_for(slices[: k + 1], cfg, spec)
        rows.append((float(c), distinct_levels(frames[k][0])))
    return rows
