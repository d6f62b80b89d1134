"""End-to-end stream processing: events in, frames out, with timing.

`run_accumulation` wires a slicer and a frame accumulator together and
reports how fast the pair consumed the stream.  The clock only covers
slicing and accumulation, so parse and sink costs (reading text,
writing images) never pollute the throughput number.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .accumulator import FrameAccumulator
from .core import AccumulatorConfig, EventArray, EventFrame, SensorGeometry
from .slicer import StreamSlicer

__all__ = ["PipelineStats", "run_accumulation", "accumulate_stream"]

FrameSink = Callable[[EventFrame], None]
Source = Union[EventArray, Iterable[EventArray]]


@dataclass
class PipelineStats:
    """Counters and timing for one accumulation run.

    `build_seconds` measures slicing plus accumulation only.
    `events_in` counts events pushed into the slicer; `slice_events`
    sums the published slice lengths, which can exceed `events_in`
    when windows overlap and fall short of it when a tail is withheld.
    """

    frames: int = 0
    held_frames: int = 0
    events_in: int = 0
    slice_events: int = 0
    build_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.build_seconds <= 0.0:
            return float("nan")
        return self.events_in / self.build_seconds

    @property
    def mean_events_per_frame(self) -> float:
        if self.frames == 0:
            return float("nan")
        return self.slice_events / self.frames


def run_accumulation(
    source: Source,
    config: AccumulatorConfig,
    geometry: SensorGeometry,
    *,
    t0: Optional[float] = None,
    on_frame: Optional[FrameSink] = None,
) -> PipelineStats:
    """Slice a stream, accumulate every slice and report pipeline stats.

    `source` is a single event batch or an iterable of batches in
    time order.  Each published frame is handed to `on_frame` outside
    the timed region.  The stream is flushed at the end, so trailing
    partial windows and the final time tick are published.
    """
    method = config.slice_method
    slicer = StreamSlicer(
        method,
        window_size=config.window_size if method.uses_window else None,
        interval=config.interval if method.uses_interval else None,
        t0=t0,
    )
    accumulator = FrameAccumulator(config, geometry)
    stats = PipelineStats()
    batches: Iterable[EventArray]
    if isinstance(source, EventArray):
        batches = (source,)
    else:
        batches = source

    def consume(batch: Optional[EventArray]) -> None:
        start = perf_counter()
        slices = slicer.push_batch(batch) if batch is not None else slicer.flush()
        frames = [accumulator.process(s) for s in slices]
        stats.build_seconds += perf_counter() - start
        stats.frames += len(frames)
        stats.held_frames += sum(1 for f in frames if f.held)
        stats.slice_events += sum(len(s) for s in slices)
        if on_frame is not None:
            for frame in frames:
                on_frame(frame)

    for batch in batches:
        stats.events_in += len(batch)
        consume(batch)
    consume(None)
    return stats


def accumulate_stream(
    source: Source,
    config: AccumulatorConfig,
    geometry: SensorGeometry,
    *,
    t0: Optional[float] = None,
) -> Tuple[List[EventFrame], PipelineStats]:
    """Convenience wrapper that collects the published frames in a list."""
    frames: List[EventFrame] = []
    stats = run_accumulation(source, config, geometry, t0=t0, on_frame=frames.append)
    return frames, stats
