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
contribution.  Each report builds its frames one at a time and scores
them as they arrive, so it holds O(speeds) frames (the polarity flip at
most one frame per interval before the reversal), however long the
sweeps run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice, zip_longest
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .accumulator import FrameAccumulator
from .core import (
    AccumulatorConfig,
    EventArray,
    EventFrame,
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


def distinct_levels(frame: EventFrame, bit_depth: int = 8) -> int:
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


def _frames(
    slices: Iterable[Slice], config: AccumulatorConfig, geometry: SensorGeometry
) -> Iterator[EventFrame]:
    """Accumulate slices in order, yielding each frame as it is built."""
    acc = FrameAccumulator(config, geometry)
    for s in slices:
        yield acc.process(s)


class _AlignedScores:
    """NCC of aligned frame pairs, gathered per speed pair as frames arrive."""

    def __init__(self, pairs: Sequence[Tuple[float, float]], extreme: int) -> None:
        self.pairs = pairs
        self.extreme = extreme
        self.scores: List[List[float]] = [[] for _ in pairs]
        self.degenerate = 0
        self.panel: Optional[Tuple[EventFrame, EventFrame]] = None

    def add(self, i: int, frame_a: EventFrame, frame_b: EventFrame) -> None:
        if i == self.extreme:
            self.panel = (frame_a, frame_b)
        try:
            self.scores[i].append(ncc(frame_a, frame_b))
        except DegenerateFrame:
            self.degenerate += 1

    def report(self, method: str, counts: Dict[float, Tuple[int, ...]]) -> SimilarityReport:
        pairs = tuple(
            PairScore(sa, sb, tuple(scores)) for (sa, sb), scores in zip(self.pairs, self.scores)
        )
        return SimilarityReport(method, pairs, self.degenerate, counts, self.panel)


def _check_speed(speed: float) -> None:
    """Reject a sweep speed that gives no finite, positive duration."""
    if not 0.0 < float(speed) < math.inf:
        raise ValueError(f"speed must be a finite number > 0 px/s, got {speed:g}")


_Run = Tuple[List[Slice], AccumulatorConfig]  # one sweep's slices and its config


def _speed_runs(
    scene: SyntheticScene,
    speeds: Sequence[float],
    interval: float,
    window_size: int,
    sensor: SensorModel,
    travel: float,
    contribution: float,
) -> Tuple[Dict[float, _Run], Dict[float, _Run]]:
    """Slice every distinct speed with both slicers over equal displacement.

    Returns ({speed: (slices, config)} for the fixed-interval by-time
    runs, then the same for by-time-and-number runs whose interval is
    scaled inversely with speed).  Frames are left to the caller to
    build, one at a time.
    """
    s_ref = float(min(speeds))
    btn_runs: Dict[float, _Run] = {}
    time_runs: Dict[float, _Run] = {}
    for s in dict.fromkeys(float(s) for s in speeds):
        motion = MotionProfile.constant((s, 0.0), travel / s)
        stream = generate_events(scene, motion, sensor, _STEP_PX / s)
        btn_cfg = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME_AND_NUMBER,
            window_size=window_size,
            interval=interval * (s_ref / s),
            contribution=contribution,
        )
        time_cfg = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME,
            interval=interval,
            contribution=contribution,
        )
        btn_slices = slice_by_time_and_number(stream, btn_cfg.interval, window_size, t0=0.0)
        btn_runs[s] = (btn_slices, btn_cfg)
        time_runs[s] = (slice_by_time(stream, interval, t0=0.0), time_cfg)
    return time_runs, btn_runs


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

    Frames are scored as they are built, so the report holds O(speeds)
    frames however long the sweeps are.

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
    time_runs, btn_runs = _speed_runs(
        scene, speeds, interval, window_size, sensor, travel, contribution
    )
    geometry = scene.geometry
    ordered = sorted(float(s) for s in speeds)
    pairs = [(sa, sb) for i, sa in enumerate(ordered) for sb in ordered[i + 1 :]]
    extreme = len(ordered) - 2  # (slowest, fastest), the pair the panels show
    btn = _AlignedScores(pairs, extreme)
    by_time = _AlignedScores(pairs, extreme)

    # By time and number: frame k of every speed covers the same displacement.
    btn_frames = {
        s: zip(slices, _frames(slices, cfg, geometry)) for s, (slices, cfg) in btn_runs.items()
    }
    for row in zip_longest(*btn_frames.values()):
        full = {s: item[1] for s, item in zip(btn_frames, row) if item and not item[0].partial}
        for i, (sa, sb) in enumerate(pairs):
            if sa in full and sb in full:
                btn.add(i, full[sa], full[sb])

    # By time: frame k at speed s has swept (k + 1) * interval * s pixels.
    # Building frames in that order, each pair is scored when its later
    # frame arrives, while the earlier one is still its run's latest.
    time_frames = {s: _frames(slices, cfg, geometry) for s, (slices, cfg) in time_runs.items()}
    swept = sorted(
        ((k + 1) * interval * s, s, k)
        for s, (slices, _) in time_runs.items()
        for k in range(len(slices))
    )
    latest: Dict[float, Tuple[int, EventFrame]] = {}
    for _, s, k in swept:
        latest[s] = (k, next(time_frames[s]))
        for i, (sa, sb) in enumerate(pairs):
            if s not in (sa, sb) or sa not in latest or sb not in latest:
                continue
            (held, fa), (kb, fb) = latest[sa], latest[sb]
            ratio = sb / sa  # frames of the faster run are this much sparser
            ka_f = (kb + 1) * ratio - 1.0
            ka = int(round(ka_f))
            if abs(ka_f - ka) > 1e-9 or ka != held:
                continue
            by_time.add(i, fa, fb)

    btn_counts = {
        s: tuple(len(sl) for sl in slices if not sl.partial)
        for s, (slices, _) in btn_runs.items()
    }
    time_counts = {s: tuple(len(sl) for sl in slices) for s, (slices, _) in time_runs.items()}
    return (
        by_time.report("by-time", time_counts),
        btn.report("by-time-and-number", btn_counts),
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
) -> Tuple[List[Slice], Iterator[EventFrame], Iterator[EventFrame]]:
    """Slice an out-and-back sweep; returns its slices and the signed and rectified frames."""
    motion = MotionProfile.reversing((float(speed), 0.0), half_duration)
    stream = generate_events(scene, motion, sensor, _STEP_PX / float(speed))
    slices = slice_by_time_and_number(stream, interval, window_size, t0=0.0)
    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_TIME_AND_NUMBER,
        window_size=window_size,
        interval=interval,
        contribution=contribution,
    )
    signed, rectified = (
        _frames(slices, replace(config, polarity_mode=mode), scene.geometry)
        for mode in (PolarityMode.SIGNED, PolarityMode.RECTIFIED)
    )
    return slices, signed, rectified


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

    Pair j sets frame m - j against frame m + j - 1, where m is the
    number of intervals before the reversal.  Frames are scored as they
    are built, so the report holds at most m rectified frames.
    """
    _check_speed(speed)
    if sensor is None:
        sensor = SensorModel(contrast_threshold=0.2)
    m = int(round(half_duration / interval))
    if abs(m * interval - half_duration) > 1e-9:
        raise ValueError("half_duration must be a whole number of intervals")
    slices, signed, rectified = _reversal_runs(
        scene, speed, interval, window_size, half_duration, sensor, contribution
    )
    signed_means: List[float | None] = []
    rect_before: List[EventFrame] = []
    before_means: List[float] = []
    after_means: List[float] = []
    rect_scores: List[float] = []
    degenerate = 0
    panels: Dict[PolarityMode, Tuple[EventFrame, EventFrame]] = {}
    signed_prev = None
    for k, (slc, signed_k, rect_k) in enumerate(zip(slices, signed, rectified)):
        if k < m:
            signed_means.append(_active_mean(signed_k, 0.5))
            rect_before.append(rect_k)
        elif k == m and m >= 1:
            panels = {
                PolarityMode.SIGNED: (signed_prev, signed_k),
                PolarityMode.RECTIFIED: (rect_before[m - 1], rect_k),
            }
        signed_prev = signed_k
        bi = 2 * m - 1 - k  # the before frame of pair j = k - m + 1
        if not 0 <= bi < m or slices[bi].partial or slc.partial:
            continue
        mb = signed_means[bi]
        ma = _active_mean(signed_k, 0.5)
        if mb is not None and ma is not None:
            before_means.append(mb)
            after_means.append(ma)
        try:
            rect_scores.append(ncc(rect_before[bi], rect_k))
        except DegenerateFrame:
            degenerate += 1
    return PolarityFlipReport(
        tuple(before_means), tuple(after_means), tuple(rect_scores), degenerate, panels
    )


def _frame_at(
    k: int, slices: Sequence[Slice], config: AccumulatorConfig, geometry: SensorGeometry
) -> EventFrame:
    """Frame k of a run, building the frames before it and holding none of them."""
    return next(islice(_frames(slices, config, geometry), k, None))


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
    neutral = neutral_value(config.polarity_mode)
    runs = [
        slice_by_time_and_number(events, config.interval, n, t0=t0) for n in window_sizes
    ]
    k = _common_full_index(runs)
    rows: List[Tuple[int, float, float]] = []
    for n, slices in zip(window_sizes, runs):
        frame = _frame_at(k, slices, replace(config, window_size=int(n)), geometry)
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
    slices = slice_by_time_and_number(events, config.interval, config.window_size, t0=t0)
    k = _common_full_index([slices])
    rows: List[Tuple[float, int]] = []
    for c in contributions:
        frame = _frame_at(k, slices, replace(config, contribution=float(c)), geometry)
        rows.append((float(c), distinct_levels(frame)))
    return rows
