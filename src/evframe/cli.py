"""Command-line drivers for the event-to-frame pipeline.

Three subcommands compose the library:

* ``accumulate`` reads an event stream (file or stdin), slices it,
  accumulates frames and writes them as binary PGM files plus a CSV
  index, then prints pipeline statistics.
* ``synth`` generates a synthetic event stream from a built-in scene
  and writes it in the same text format, so it can be piped straight
  into ``accumulate``.
* ``eval`` runs the comparison reports (speed invariance, window
  sweep, contribution sweep, polarity flip) and emits CSV files plus
  optional side-by-side PGM panels.

Identical inputs and flags produce byte-identical frame files.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import replace
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import IO, Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    AccumulatorConfig,
    Decay,
    EventArray,
    EventFrame,
    PolarityMode,
    SensorGeometry,
    SliceMethod,
    quantize_frame,
)
from .eventio import read_event_batches, write_events, write_frame_index, write_pgm
from .metrics import (
    contribution_level_sweep,
    polarity_flip_report,
    speed_invariance_report,
    window_coverage_sweep,
)
from .pipeline import run_accumulation
from .presets import preset, preset_names
from .synth import (
    MotionProfile,
    SensorModel,
    add_noise,
    bars,
    checker,
    generate_events,
    step_edge,
)

__all__ = ["main"]

_SCENES = {"step-edge": step_edge, "bars": bars, "checker": checker}


def _parse_decay(text: str) -> Decay:
    """Parse a decay flag: step, linear:RATE or exp:TAU."""
    name, _, value = text.partition(":")
    if name == "step":
        if value:
            raise argparse.ArgumentTypeError("step decay takes no parameter")
        return Decay.step()
    if not value:
        raise argparse.ArgumentTypeError(f"{name} decay needs a parameter, e.g. {name}:0.1")
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad decay parameter {value!r}") from None
    try:
        if name == "linear":
            return Decay.linear(number)
        if name == "exp":
            return Decay.exponential(number)
    except ValueError as exc:
        # Keep Decay's reason; argparse shows only the type's name otherwise.
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown decay {name!r} (use step, linear:RATE, exp:TAU)")


def _parse_geometry(text: str) -> SensorGeometry:
    try:
        return SensorGeometry.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _list_of(cast: Callable[[str], object], noun: str) -> Callable[[str], tuple]:
    """An argparse type for a comma-separated list of `cast` values."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(tok) for tok in text.split(",") if tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {noun} list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evframe", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    acc = sub.add_parser("accumulate", help="slice an event stream into PGM frames")
    acc.set_defaults(handler=_cmd_accumulate)
    acc.add_argument("--input", default="-", help="event text file, or - for stdin")
    acc.add_argument("--out", required=True, help="output directory for frames and index")
    acc.add_argument("--geometry", type=_parse_geometry, required=True, metavar="WxH")
    acc.add_argument("--preset", choices=preset_names(), help="start from a named configuration")
    acc.add_argument("--slice", choices=sorted(m.value for m in SliceMethod), dest="slice_method")
    acc.add_argument("--window-size", type=int)
    acc.add_argument("--interval", type=float)
    acc.add_argument("--contribution", type=float)
    acc.add_argument("--polarity", choices=["rectified", "signed"])
    acc.add_argument("--decay", type=_parse_decay, metavar="step|linear:RATE|exp:TAU")
    acc.add_argument("--no-motion-threshold", type=int)
    acc.add_argument("--bit-depth", type=int, choices=[8, 16], default=8)
    acc.add_argument("--t0", type=float, help="stream start time (default: first event)")

    syn = sub.add_parser("synth", help="generate a synthetic event stream")
    syn.set_defaults(handler=_cmd_synth)
    syn.add_argument("--scene", choices=sorted(_SCENES), default="step-edge")
    syn.add_argument("--geometry", type=_parse_geometry, default=SensorGeometry(240, 180),
                     metavar="WxH")
    syn.add_argument("--height", type=float, default=0.6, help="log-brightness edge height")
    syn.add_argument("--threshold", type=float, default=0.2, help="contrast threshold")
    syn.add_argument("--speed", type=float, default=100.0, help="horizontal speed in px/s")
    syn.add_argument("--duration", type=float, help="seconds (default: half-width sweep)")
    syn.add_argument("--reverse", action="store_true",
                     help="reverse the motion halfway through the duration")
    syn.add_argument("--time-step", type=float, help="simulation step (default 0.25px/speed)")
    syn.add_argument("--noise-rate", type=float, default=0.0, help="events per pixel per second")
    syn.add_argument("--seed", type=int, default=0, help="noise seed")
    syn.add_argument("--out", default="-", help="output file, or - for stdout")

    ev = sub.add_parser("eval", help="quantify frame-appearance claims as CSV reports")
    ev_sub = ev.add_subparsers(dest="report", required=True)

    # Flags shared by the reports that synthesize their own scene.
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--geometry", type=_parse_geometry, default=SensorGeometry(80, 60),
                       metavar="WxH")
    scene.add_argument("--height", type=float, default=0.6)
    scene.add_argument("--threshold", type=float, default=0.2)
    scene.add_argument("--window-size", type=int, default=360)
    scene.add_argument("--contribution", type=float, default=0.2)
    scene.add_argument("--out", default=".", help="directory for CSV (and panel) output")
    scene.add_argument("--panels", action="store_true",
                       help="also write side-by-side PGM comparison panels")
    # Flags shared by the sweeps over a recorded event file.
    recorded = argparse.ArgumentParser(add_help=False)
    recorded.add_argument("--input", required=True, help="event text file, or - for stdin")
    recorded.add_argument("--geometry", type=_parse_geometry, required=True, metavar="WxH")
    recorded.add_argument("--interval", type=float, default=1.0 / 30.0)
    recorded.add_argument("--t0", type=float, default=0.0)
    recorded.add_argument("--out", default=".", help="directory for CSV output")

    si = ev_sub.add_parser("speed-invariance", parents=[scene],
                           help="frame similarity across scene speeds")
    si.set_defaults(handler=_cmd_eval_speed_invariance)
    si.add_argument("--scene", choices=sorted(_SCENES), default="step-edge")
    si.add_argument("--speeds", type=_list_of(float, "number"), default=(64.0, 128.0),
                    metavar="S1,S2,...")
    si.add_argument("--interval", type=float, default=1.0 / 32.0,
                    help="publish interval at the slowest speed")
    si.add_argument("--travel", type=float, default=40.0, help="total sweep in pixels")

    ws = ev_sub.add_parser("window-sweep", parents=[recorded],
                           help="fill and saturation versus window size")
    ws.set_defaults(handler=_cmd_eval_window_sweep)
    ws.add_argument("--windows", type=_list_of(int, "integer"), required=True, metavar="N1,N2,...")
    ws.add_argument("--contribution", type=float, default=0.2)
    ws.add_argument("--polarity", choices=["rectified", "signed"], default="rectified")

    cs = ev_sub.add_parser("contribution-sweep", parents=[recorded],
                           help="gray-level depth versus contribution")
    cs.set_defaults(handler=_cmd_eval_contribution_sweep)
    cs.add_argument("--contributions", type=_list_of(float, "number"), required=True,
                    metavar="C1,C2,...")
    cs.add_argument("--window-size", type=int, default=10000)

    pf = ev_sub.add_parser("polarity-flip", parents=[scene],
                           help="what a motion reversal does per polarity mode")
    pf.set_defaults(handler=_cmd_eval_polarity_flip)
    pf.add_argument("--speed", type=float, default=64.0)
    pf.add_argument("--interval", type=float, default=1.0 / 32.0)
    pf.add_argument("--half-duration", type=float, default=0.3125,
                    help="time until reversal (a whole number of intervals)")
    return parser


def _config_from_args(args: argparse.Namespace) -> AccumulatorConfig:
    """Build the accumulator configuration, logging preset overrides."""
    config = preset(args.preset) if args.preset else AccumulatorConfig()
    overrides = {
        "slice_method": SliceMethod(args.slice_method) if args.slice_method else None,
        "window_size": args.window_size,
        "interval": args.interval,
        "contribution": args.contribution,
        "polarity_mode": PolarityMode(args.polarity) if args.polarity else None,
        "decay": args.decay,
        "no_motion_threshold": args.no_motion_threshold,
    }
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if args.preset:
        for name, value in overrides.items():
            print(
                f"overriding preset {args.preset} {name}: "
                f"{getattr(config, name)} -> {value}",
                file=sys.stderr,
            )
    # One replace, so the config is validated with every override in place.
    return replace(config, **overrides)


def _read_input(args: argparse.Namespace) -> Iterator[EventArray]:
    """Event batches from `--input`: a text file, or stdin's bytes for -."""
    if args.input == "-" and sys.stdin is None:
        raise ValueError("--input -: stdin is closed")
    source = getattr(sys.stdin, "buffer", sys.stdin) if args.input == "-" else args.input
    return read_event_batches(source, args.geometry)


def _cmd_accumulate(args: argparse.Namespace) -> int:
    started = perf_counter()
    config = _config_from_args(args)
    geometry = args.geometry
    out_dir = Path(args.out)

    names = (f"frame_{i:06d}.pgm" for i in count())
    batches = _read_input(args)
    # The output directory and its index are created with the first frame,
    # so a run rejected before any frame leaves neither.  Each row is
    # written as its frame is, so a run that fails part-way still indexes
    # every frame it wrote.
    with ExitStack() as opened:
        index: Optional[IO[str]] = None

        def sink(frame: EventFrame) -> None:
            nonlocal index
            if index is None:
                out_dir.mkdir(parents=True, exist_ok=True)
                index = opened.enter_context(
                    open(out_dir / "index.csv", "w", encoding="ascii", buffering=1)
                )
            name = next(names)
            write_pgm(quantize_frame(frame, args.bit_depth), out_dir / name)
            write_frame_index([(frame.stamp, name, frame.held)], index)

        stats = run_accumulation(batches, config, geometry, t0=args.t0, on_frame=sink)
    if not stats.frames:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_frame_index((), out_dir / "index.csv")
    wall = perf_counter() - started

    print(f"frames emitted: {stats.frames}")
    print(f"held frames: {stats.held_frames}")
    print(f"events in: {stats.events_in}")
    print(f"mean events/slice: {stats.mean_events_per_frame:.1f}")
    if stats.frames:
        print(f"mean frame build time: {stats.build_seconds / stats.frames * 1e3:.3f} ms")
    # Core covers slicing and accumulation only; wall adds parsing and writing.
    print(f"core throughput: {stats.events_per_second:,.0f} events/s")
    print(f"wall throughput: {stats.events_in / wall:,.0f} events/s")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.out == "-" and sys.stdout is None:
        raise ValueError("--out -: stdout is closed")
    geometry = args.geometry
    scene = _SCENES[args.scene](geometry, height=args.height)
    speed = float(args.speed)
    if speed == 0.0 and (args.duration is None or args.time_step is None):
        raise ValueError(
            "--speed 0 leaves no default --duration or --time-step; "
            "give both, or a nonzero --speed"
        )
    duration = args.duration
    if duration is None:
        duration = (geometry.width / 2.0) / abs(speed)
    if args.reverse:
        motion = MotionProfile.reversing((speed, 0.0), duration / 2.0)
    else:
        motion = MotionProfile.constant((speed, 0.0), duration)
    time_step = args.time_step if args.time_step is not None else 0.25 / abs(speed)
    sensor = SensorModel(
        contrast_threshold=args.threshold, noise_rate=args.noise_rate, seed=args.seed
    )
    events = generate_events(scene, motion, sensor, time_step)
    events = add_noise(events, sensor, geometry, motion.duration)
    if args.out == "-":
        write_events(events, sys.stdout)
    else:
        write_events(events, args.out)
        print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
    return 0


def _panel(frames: Sequence[EventFrame]) -> np.ndarray:
    """Two quantized frames and their difference, (a, b, |a - b|), with 2-pixel gaps."""
    a, b = (quantize_frame(f) for f in frames)
    diff = np.abs(a.astype(np.int32) - b.astype(np.int32)).astype(a.dtype)
    gap = np.zeros((a.shape[0], 2), dtype=a.dtype)
    return np.hstack([a, gap, b, gap, diff])


def _write_csv(path: Path, header: str, rows: Sequence[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")


def _cmd_eval_speed_invariance(args: argparse.Namespace) -> int:
    scene = _SCENES[args.scene](args.geometry, height=args.height)
    sensor = SensorModel(contrast_threshold=args.threshold)
    by_time, by_both = speed_invariance_report(
        scene,
        args.speeds,
        args.interval,
        args.window_size,
        sensor=sensor,
        travel=args.travel,
        contribution=args.contribution,
    )
    out_dir = Path(args.out)
    rows = []
    for report in (by_time, by_both):
        for pair in report.pairs:
            for k, score in enumerate(pair.scores):
                rows.append(f"{report.method},{pair.speed_a:g},{pair.speed_b:g},{k},{score:.6f}")
    _write_csv(out_dir / "speed_invariance.csv", "method,speed_a,speed_b,frame,ncc", rows)
    for report in (by_time, by_both):
        print(
            f"{report.method}: mean ncc {report.mean_score:.4f}, "
            f"min {report.min_score:.4f}, degenerate pairs {report.degenerate_pairs}"
        )
    if args.panels:
        for report, name in ((by_both, "panel_by_time_and_number.pgm"),
                             (by_time, "panel_by_time.pgm")):
            if report.panel is not None:
                write_pgm(_panel(report.panel), out_dir / name)
    return 0


def _cmd_eval_window_sweep(args: argparse.Namespace) -> int:
    config = AccumulatorConfig(
        interval=args.interval,
        contribution=args.contribution,
        polarity_mode=PolarityMode(args.polarity),
    )
    batches = _read_input(args)
    rows = window_coverage_sweep(batches, args.geometry, config, args.windows, t0=args.t0)
    _write_csv(
        Path(args.out) / "window_sweep.csv",
        "window_size,fill_ratio,saturation_fraction",
        [f"{n},{fill:.6f},{sat:.6f}" for n, fill, sat in rows],
    )
    for n, fill, sat in rows:
        print(f"window {n}: fill {fill:.4f}, saturation {sat:.4f}")
    return 0


def _cmd_eval_contribution_sweep(args: argparse.Namespace) -> int:
    config = AccumulatorConfig(interval=args.interval, window_size=args.window_size)
    batches = _read_input(args)
    rows = contribution_level_sweep(
        batches, args.geometry, config, args.contributions, t0=args.t0
    )
    _write_csv(
        Path(args.out) / "contribution_sweep.csv",
        "contribution,distinct_levels",
        [f"{c:g},{levels}" for c, levels in rows],
    )
    for c, levels in rows:
        print(f"contribution {c:g}: {levels} distinct levels")
    return 0


def _cmd_eval_polarity_flip(args: argparse.Namespace) -> int:
    scene = _SCENES["step-edge"](args.geometry, height=args.height)
    sensor = SensorModel(contrast_threshold=args.threshold)
    report = polarity_flip_report(
        scene,
        args.speed,
        args.interval,
        args.window_size,
        args.half_duration,
        sensor=sensor,
        contribution=args.contribution,
    )
    out_dir = Path(args.out)
    rows = [
        f"{j},{before:.6f},{after:.6f},{score:.6f}"
        for j, (before, after, score) in enumerate(
            zip(report.signed_before_means, report.signed_after_means, report.rectified_scores),
            start=1,
        )
    ]
    _write_csv(
        out_dir / "polarity_flip.csv",
        "pair,signed_before_mean,signed_after_mean,rectified_ncc",
        rows,
    )
    print(f"signed mean flips across 0.5: {report.sign_flips}")
    print(f"min rectified ncc: {report.min_rectified:.4f}")
    if args.panels:
        for mode, pair in report.panels.items():
            write_pgm(_panel(pair), out_dir / f"panel_{mode.value}.pgm")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # StreamError and the config checks derive from ValueError; OSError
    # covers an input or output path that cannot be opened.
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader of stdout left (``| head``): a quiet end of output,
        # as SIGPIPE would give.  Point stdout at devnull so the flush at
        # exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"evframe: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
