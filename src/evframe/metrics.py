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
contribution.  The speed report scores two frames of different speeds
when they cover equal scene displacement and neither is partial; by
time and by time and number differ only in the publish interval each
run slices at.  Each report hands its slices straight to
:meth:`FrameAccumulator.process` and scores the frames as they arrive,
so it holds O(speeds) frames, however long the sweeps run.  The
polarity flip holds at most eight: its runs are STEP with holds off, so
it can build each before/after pair together and drop it once scored.
The window and contribution sweeps read their input once, as an event
batch or an iterable of batches, slice it as it streams and keep only
each run's latest frame, so their memory does not grow with the
recording.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, tee
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .accumulator import FrameAccumulator
from .core import (
    AccumulatorConfig,
    EventFrame,
    PolarityMode,
    SensorGeometry,
    SliceMethod,
    neutral_value,
    quantize_frame,
)
from .slicer import Slice, Source, StreamSlicer, _batches
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


class _AlignedScores:
    """NCC of aligned frame pairs, gathered per pair as frames arrive."""

    def __init__(self, pairs: Sequence[Tuple[float, float]], extreme: int = -1) -> None:
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

    def align(
        self, runs: Dict[float, Tuple[List[Slice], AccumulatorConfig]], geometry: SensorGeometry
    ) -> Dict[float, Tuple[int, ...]]:
        """Build every speed's frames in order of displacement and score aligned pairs.

        Frame k at speed s covers (k + 1) * interval * s pixels.  When a
        frame arrives, each pair that includes its speed is scored if
        the other speed's latest frame covers the same displacement and
        neither frame is partial.  Returns the full slice sizes per speed.
        """
        accumulators = {s: FrameAccumulator(cfg, geometry) for s, (_, cfg) in runs.items()}
        order = sorted(
            ((k + 1) * cfg.interval * s, s, k)
            for s, (slices, cfg) in runs.items()
            for k in range(len(slices))
        )
        latest: Dict[float, Tuple[float, EventFrame, bool]] = {}
        for swept, s, k in order:
            slc = runs[s][0][k]
            latest[s] = (swept, accumulators[s].process(slc), slc.partial)
            for i, (sa, sb) in enumerate(self.pairs):
                if s in (sa, sb) and sa in latest and sb in latest:
                    (da, fa, pa), (db, fb, pb) = latest[sa], latest[sb]
                    if not (pa or pb) and math.isclose(da, db, rel_tol=1e-9):
                        self.add(i, fa, fb)
        return {
            s: tuple(len(sl) for sl in slices if not sl.partial) for s, (slices, _) in runs.items()
        }

    def report(self, method: str, counts: Dict[float, Tuple[int, ...]]) -> SimilarityReport:
        pairs = tuple(
            PairScore(sa, sb, tuple(scores)) for (sa, sb), scores in zip(self.pairs, self.scores)
        )
        return SimilarityReport(method, pairs, self.degenerate, counts, self.panel)


def _check_speed(speed: float) -> None:
    """Reject a sweep speed that gives no finite, positive duration."""
    if not 0.0 < float(speed) < math.inf:
        raise ValueError(f"speed must be a finite number > 0 px/s, got {speed:g}")


def _slices(source: Source, config: AccumulatorConfig, t0: float | None) -> Iterator[Slice]:
    """Slice `source` as `config` says, yielding each slice as it is cut."""
    slicer = StreamSlicer(
        config.slice_method, window_size=config.window_size, interval=config.interval, t0=t0
    )
    return slicer.slices(source)


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
    so runs differ only in how fast the motion plays out.  Frame k of a
    run at speed s, sliced at interval dt, covers (k + 1) * dt * s
    pixels.  One rule aligns frames for both slicers: two frames of
    different speeds are scored when they cover equal displacement and
    neither is partial.  The slicers differ only in the interval:

    * by time and number: the publish interval is scaled inversely
      with speed, so frame k of every speed covers the same
      displacement, and the window always holds the last `window_size`
      events, so aligned frames should match.
    * by time: the publish interval stays fixed, the realistic setting
      for a consumer running at a fixed frame rate, so frames pair only
      where the speeds' displacements coincide.  Slice event counts
      scale with speed, which is what smears fast frames and makes them
      look different.

    Each speed's stream is generated once and sliced by both methods.
    Frames are built in order of displacement and scored as they
    arrive, so the report holds O(speeds) frames however long the
    sweeps are.

    A speed given twice is compared once.

    Returns (by_time report, by_time_and_number report).
    """
    for s in speeds:
        _check_speed(s)
    speeds = sorted(set(float(s) for s in speeds))
    if len(speeds) < 2:
        raise ValueError("need at least 2 distinct speeds to compare")
    # Each run publishes travel / (interval * slowest) frames.  A frame may
    # cover part of a simulation step, and then shows no new step, but
    # splitting a step into more than four frames is rejected.
    slowest = speeds[0]
    if interval > 0.0 and interval * slowest < _STEP_PX / 4:
        raise ValueError(
            f"interval {interval:g} s at the slowest speed {slowest:g} px/s moves the scene "
            f"{interval * slowest:g} px a frame, under a quarter of the {_STEP_PX:g} px "
            "simulation step"
        )
    if sensor is None:
        sensor = SensorModel(contrast_threshold=0.2)
    if travel is None:
        travel = scene.geometry.width / 2.0
    streams = {
        s: generate_events(
            scene, MotionProfile.constant((s, 0.0), travel / s), sensor, _STEP_PX / s
        )
        for s in speeds
    }
    pairs = [(sa, sb) for i, sa in enumerate(speeds) for sb in speeds[i + 1 :]]
    reports = []
    # By time the interval is fixed; by time and number it is scaled
    # inversely with speed, so frame k covers the same displacement at
    # every speed.
    for method, slice_method, scaled in (
        ("by-time", SliceMethod.BY_TIME, False),
        ("by-time-and-number", SliceMethod.BY_TIME_AND_NUMBER, True),
    ):
        runs = {}
        for s, stream in streams.items():
            cfg = AccumulatorConfig(
                slice_method=slice_method,
                window_size=window_size,
                interval=interval * (slowest / s) if scaled else interval,
                contribution=contribution,
            )
            runs[s] = (list(_slices(stream, cfg, 0.0)), cfg)
        # (slowest, fastest) is the pair the panels show.
        aligned = _AlignedScores(pairs, extreme=len(speeds) - 2)
        counts = aligned.align(runs, scene.geometry)
        reports.append(aligned.report(method, counts))
    return reports[0], reports[1]


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
    number of intervals before the reversal.  Both runs are STEP with
    holds off, so each frame depends on its own slice alone and slices
    can be built in any order.  The pairs are built in order j = 1..m,
    both slices of a pair through both accumulators, scored and
    dropped; the slices no pair uses are built last.  Each slice still
    goes through each accumulator once, and the report holds at most
    eight frames: the four panels and one pair's four, however many
    intervals precede the reversal.
    """
    config = AccumulatorConfig(
        slice_method=SliceMethod.BY_TIME_AND_NUMBER,
        window_size=window_size,
        interval=interval,
        contribution=contribution,
    )
    _check_speed(speed)
    if sensor is None:
        sensor = SensorModel(contrast_threshold=0.2)
    if not 0.0 < float(half_duration) < math.inf:
        raise ValueError(f"half_duration must be a finite number > 0 s, got {half_duration:g}")
    m = int(round(half_duration / interval))
    if abs(m * interval - half_duration) > 1e-9:
        raise ValueError("half_duration must be a whole number of intervals")
    motion = MotionProfile.reversing((float(speed), 0.0), half_duration)
    stream = generate_events(scene, motion, sensor, _STEP_PX / float(speed))
    signed, rectified = (
        FrameAccumulator(replace(config, polarity_mode=mode), scene.geometry)
        for mode in (PolarityMode.SIGNED, PolarityMode.RECTIFIED)
    )
    slices = list(_slices(stream, config, 0.0))
    before_means: List[float] = []
    after_means: List[float] = []
    rect = _AlignedScores([(speed, speed)])  # each before frame against its after frame

    def score_pair(
        before: Slice, after: Slice
    ) -> Dict[PolarityMode, Tuple[EventFrame, EventFrame]]:
        """Build one pair's frames in both modes, score them and return them."""
        signed_pair = (signed.process(before), signed.process(after))
        rect_pair = (rectified.process(before), rectified.process(after))
        if not (before.partial or after.partial):
            mb, ma = (_active_mean(frame, 0.5) for frame in signed_pair)
            if mb is not None and ma is not None:
                before_means.append(mb)
                after_means.append(ma)
            rect.add(0, *rect_pair)
        return {PolarityMode.SIGNED: signed_pair, PolarityMode.RECTIFIED: rect_pair}

    paired = max(0, min(m, len(slices) - m))  # pair j needs slice m + j - 1
    # Pair 1 is the frames either side of the reversal, which the panels show.
    panels = score_pair(slices[m - 1], slices[m]) if paired else {}
    for j in range(2, paired + 1):
        score_pair(slices[m - j], slices[m + j - 1])
    for slc in chain(slices[: m - paired], slices[m + paired :]):
        signed.process(slc)
        rectified.process(slc)
    return PolarityFlipReport(
        tuple(before_means), tuple(after_means), tuple(rect.scores[0]), rect.degenerate, panels
    )


def _last_frames(
    rows: Iterable[Sequence[Slice]], accumulators: Sequence[FrameAccumulator]
) -> List[EventFrame]:
    """Accumulate each row's slices, one per accumulator, and return the last frames.

    Time-and-number runs over one stream publish at the same ticks, and
    a run's partial slices all come before its first full one.  So the
    last tick is the latest at which every run is full, unless some run
    is never full.
    """
    last: Optional[List[Tuple[Slice, EventFrame]]] = None
    for row in rows:
        last = [(slc, acc.process(slc)) for slc, acc in zip(row, accumulators)]
    if last is None or any(slc.partial for slc, _ in last):
        raise ValueError("no frame index is non-partial across all runs")
    return [frame for _, frame in last]


def window_coverage_sweep(
    events: Source,
    geometry: SensorGeometry,
    config: AccumulatorConfig,
    window_sizes: Sequence[int],
    *,
    t0: float | None = None,
) -> List[Tuple[int, float, float]]:
    """Fill and saturation of one aligned frame per window size.

    Runs the same stream through the time-and-number slicer at each
    window size and measures the latest frame index that is non-partial
    everywhere, so the comparison sees identical scene state.  `events`
    is one batch or an iterable of batches; it is read once, and the
    runs take each batch in lockstep.  Every run slices by time and
    number whatever `config.slice_method` is, so `config` must use step
    decay; a decaying one is rejected before any batch is read.
    Returns rows of (window_size, fill_ratio, saturation_fraction).
    """
    neutral = neutral_value(config.polarity_mode)
    configs = [
        replace(config, slice_method=SliceMethod.BY_TIME_AND_NUMBER, window_size=int(n))
        for n in window_sizes
    ]
    branches = tee(_batches(events), len(configs))
    runs = [_slices(branch, cfg, t0) for branch, cfg in zip(branches, configs)]
    frames = _last_frames(zip(*runs), [FrameAccumulator(cfg, geometry) for cfg in configs])
    return [
        (int(n), fill_ratio(frame, neutral), saturation_fraction(frame, neutral))
        for n, frame in zip(window_sizes, frames)
    ]


def contribution_level_sweep(
    events: Source,
    geometry: SensorGeometry,
    config: AccumulatorConfig,
    contributions: Sequence[float],
    *,
    t0: float | None = None,
) -> List[Tuple[float, int]]:
    """Distinct quantized levels of one aligned frame per contribution.

    `events` is one batch or an iterable of batches; it is sliced once
    and every slice goes to one accumulator per contribution.  It is
    sliced by time and number whatever `config.slice_method` is, so
    `config` must use step decay; a decaying one is rejected before any
    batch is read.
    Returns rows of (contribution, distinct_levels) for the same
    publish index under each contribution value.
    """
    config = replace(config, slice_method=SliceMethod.BY_TIME_AND_NUMBER)
    accumulators = [
        FrameAccumulator(replace(config, contribution=float(c)), geometry) for c in contributions
    ]
    rows = ((slc,) * len(accumulators) for slc in _slices(events, config, t0))
    frames = _last_frames(rows, accumulators)
    return [(float(c), distinct_levels(frame)) for c, frame in zip(contributions, frames)]
