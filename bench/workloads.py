"""One workload in its own process: load inputs, time operations, check them.

Run by ``run.py``; prints one JSON line with the operations' timings and
check results.  Inputs come pre-generated from ``run.py``'s cache, so
the generator's memory is not part of this process's peak RSS.  An
untraced run also measures set-up time: between operations it starts
fresh interpreters that import evframe, spread over the whole run.

Every operation calls evframe through a public entry point looked up at
call time (``evframe.cli.main``, ``evframe.pipeline.run_accumulation``,
``evframe.pipeline.accumulate_stream``), so a traced run sees the
wrapped functions.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

import numpy as np

import reference as ref
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import evframe  # noqa: E402
import evframe.cli  # noqa: E402,F401
import evframe.pipeline  # noqa: E402,F401

MIN_OPS = 3  # timed operations per phase, however long each one takes
MIN_TRACED_OPS = 2
# Fresh-interpreter imports per untraced run.  They are spread over the
# run, as the operations are, so the host's speed drift averages out.
SETUP_SAMPLES = 32

# Wrapped functions each workload must reach; a traced run that sees
# zero calls to one of them reports an error instead of a silent 0.
EXPECTED_CALLS = {
    "cli_commands": (
        "cli.main",
        "eventio.read_event_batches",
        "eventio.write_pgm",
        "eventio.write_frame_index",
        "core.quantize_frame",
        "pipeline.run_accumulation",
        "slicer.push_batch",
        "slicer.flush",
        "accumulator.process",
        "synth.generate_events",
        "metrics.speed_invariance_report",
        "metrics.polarity_flip_report",
        "metrics.ncc",
    ),
    "accumulate_modes": (
        "pipeline.accumulate_stream",
        "pipeline.run_accumulation",
        "slicer.push_batch",
        "slicer.flush",
        "accumulator.process",
    ),
}


@dataclass
class Op:
    """One timed operation: seconds, per-frame latencies, events, check result."""

    wall: Optional[float] = None
    latencies: List[float] = field(default_factory=list)
    events: int = 0
    error: Optional[str] = None


def _written_after(started_ns, paths) -> List[float]:
    """Seconds from `started_ns` (wall clock) until each file was last written.

    A command's outputs reach the user as files, so a file's mtime is when
    that frame or report was delivered.
    """
    return [max(0.0, (p.stat().st_mtime_ns - started_ns) / 1e9) for p in paths]


def peak_rss_mb() -> float:
    """This process's peak resident set since exec (VmHWM), in MB.

    ``ru_maxrss`` is not used where /proc is available: Linux carries the
    parent's peak across fork and exec into it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing evframe and evframe.cli."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import evframe, evframe.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-s", "-E", "-c", code], check=True)
    return perf_counter() - start


def _stamp_error(k, got, expected):
    if abs(got - expected) > ref.TOLERANCE:
        return f"frame {k}: stamp {got!r}, expected {expected!r}"
    return None


class CliFile:
    """``evframe accumulate`` on a text file with the default config."""

    def __init__(self, inputs: Path, scratch: Path, size: str):
        self.text = inputs / "events.txt"
        data = np.load(inputs / "reference.npz")
        self.frames = data["frames"]
        self.stamps = data["stamps"]
        self.n_events = int(data["events"])
        self.scratch = scratch

    def run_op(self) -> Op:
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            argv = ["accumulate", "--input", str(self.text), "--out", str(out),
                    "--geometry", f"{ref.WIDTH}x{ref.HEIGHT}"]
            with contextlib.redirect_stdout(io.StringIO()):
                started = time.time_ns()
                start = perf_counter()
                code = evframe.cli.main(argv)
                wall = perf_counter() - start
            error = f"exit code {code}" if code else self.check(out)
            latencies = _written_after(started, out.glob("*.pgm"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Op(wall, latencies, self.n_events, error)

    def check(self, out: Path) -> Optional[str]:
        lines = (out / "index.csv").read_text(encoding="ascii").split("\n")[1:]
        rows = [line.split(",") for line in lines if line]
        if len(rows) != len(self.stamps):
            return f"{len(rows)} frames, expected {len(self.stamps)}"
        for k, (stamp, name, held) in enumerate(rows):
            error = _stamp_error(k, float(stamp), float(self.stamps[k]))
            if error or held != "0":
                return error or f"frame {k} held"
            data = (out / name).read_bytes()
            header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
            if header is None or (int(header[1]), int(header[2])) != (ref.WIDTH, ref.HEIGHT):
                return f"frame {k}: not a {ref.WIDTH}x{ref.HEIGHT} 8-bit PGM"
            if data[header.end():] != self.frames[k].tobytes():
                return f"frame {k}: PGM pixels differ from the reference"
        return None


class ModesPart:
    """accumulate_stream on one batch, once per polarity x decay config."""

    def __init__(self, inputs: Path, name: str, slicing: dict):
        data = np.load(inputs / f"{name}_stream.npz")
        expected = np.load(inputs / f"{name}_reference.npz")
        self.name = name
        self.n_events = len(data["t_us"])
        self.events = evframe.EventArray.from_columns(
            ref.seconds(data["t_us"]), data["x"], data["y"], data["p"]
        )
        self.expected = expected["values"]
        self.stamps = expected["stamps"]
        self.pixels = expected["pixels"]
        self.spec = evframe.FrameSpec(ref.WIDTH, ref.HEIGHT)
        self.configs = [self.config(mode, slicing) for mode in ref.MODES]

    @staticmethod
    def config(mode, slicing):
        polarity, kind, param = mode
        decay = {
            "step": lambda: evframe.Decay.step(),
            "linear": lambda: evframe.Decay.linear(param),
            "exp": lambda: evframe.Decay.exponential(param),
        }[kind]()
        return evframe.AccumulatorConfig(
            contribution=ref.CONTRIBUTION,
            polarity_mode=evframe.PolarityMode(polarity),
            decay=decay,
            **slicing,
        )

    def check(self, i, frames) -> Optional[str]:
        mode = "/".join(str(v) for v in (self.name, *ref.MODES[i]))
        if len(frames) != len(self.stamps):
            return f"{mode}: {len(frames)} frames, expected {len(self.stamps)}"
        for k, frame in enumerate(frames):
            error = _stamp_error(k, frame.stamp, float(self.stamps[k]))
            if error or frame.held:
                return f"{mode}: {error or f'frame {k} held'}"
            got = frame.pixels.ravel()[self.pixels]
            if np.max(np.abs(got - self.expected[i, k])) > ref.TOLERANCE:
                return f"{mode}: frame {k} differs from the per-event reference"
        return None

    def run(self, op: Op) -> None:
        """Run every config once, adding time, frames and events to `op`."""
        for i, config in enumerate(self.configs):
            start = perf_counter()
            frames, _ = evframe.pipeline.accumulate_stream(self.events, config, self.spec)
            elapsed = perf_counter() - start
            op.wall += elapsed
            op.events += self.n_events
            # A batch call hands every frame over when it returns.
            op.latencies += [elapsed] * len(frames)
            op.error = op.error or self.check(i, frames)


class AccumulateModes:
    """Every polarity x decay config on the edge batch and the hot-pixel batch."""

    def __init__(self, inputs: Path, scratch: Path, size: str):
        self.parts = [
            ModesPart(inputs, "edges", {
                "slice_method": evframe.SliceMethod.BY_TIME,
                "interval": ref.EDGES_PART["interval"],
            }),
            ModesPart(inputs, "hot", {
                "slice_method": evframe.SliceMethod.BY_NUMBER,
                "window_size": ref.HOT_PART["window"],
            }),
        ]

    def run_op(self) -> Op:
        op = Op(wall=0.0)
        for part in self.parts:
            part.run(op)
        return op


class EvalReports:
    """``evframe eval speed-invariance`` and ``polarity-flip`` with panels."""

    PANELS = (
        "panel_by_time.pgm",
        "panel_by_time_and_number.pgm",
        "panel_signed.pgm",
        "panel_rectified.pgm",
    )

    def __init__(self, inputs: Path, scratch: Path, size: str):
        self.geometry = ref.EVAL_GEOMETRY[size]
        self.scratch = scratch

    def commands(self, out: Path):
        geometry = ["--geometry", "{}x{}".format(*self.geometry), "--out", str(out), "--panels"]
        return (
            ["eval", "speed-invariance", "--speeds", ref.EVAL_SPEEDS, *geometry],
            ["eval", "polarity-flip", *geometry],
        )

    def run_op(self) -> Op:
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        op = Op(wall=0.0, events=ref.eval_events(self.geometry))
        try:
            started = time.time_ns()
            for argv in self.commands(out):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = perf_counter()
                    code = evframe.cli.main(argv)
                    op.wall += perf_counter() - start
                if code:
                    op.error = op.error or f"{argv[1]}: exit code {code}"
            op.error = op.error or self.check(out)
            op.latencies = _written_after(started, out.iterdir())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return op

    def check(self, out: Path) -> Optional[str]:
        speed = _csv(out / "speed_invariance.csv")
        flip = _csv(out / "polarity_flip.csv")
        rows = ref.EVAL_ROWS[self.geometry]
        if (len(speed), len(flip)) != rows:
            return f"csv rows {(len(speed), len(flip))}, expected {rows}"
        scores = [float(r["ncc"]) for r in speed if r["method"] == "by-time-and-number"]
        if not scores or statistics.fmean(scores) < ref.EVAL_MIN_NCC:
            return f"by-time-and-number mean ncc below {ref.EVAL_MIN_NCC}"
        flipped = all(
            float(r["signed_before_mean"]) > 0.5 > float(r["signed_after_mean"]) for r in flip
        )
        if not flipped:
            return "signed mean does not flip across 0.5"
        missing = [name for name in self.PANELS if not (out / name).is_file()]
        return f"missing panels {missing}" if missing else None


class CliCommands:
    """``evframe accumulate`` on a text file, then the two eval reports.

    One operation runs the three commands; its time, events and frame
    latencies are theirs added up.
    """

    def __init__(self, inputs: Path, scratch: Path, size: str):
        self.parts = (CliFile(inputs, scratch, size), EvalReports(inputs, scratch, size))

    def run_op(self) -> Op:
        op = Op(wall=0.0)
        for part in self.parts:
            done = part.run_op()
            op.wall += done.wall
            op.events += done.events
            op.latencies += done.latencies
            op.error = op.error or done.error
        return op


def _csv(path: Path):
    header, *lines = path.read_text(encoding="ascii").split("\n")
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines if line]


WORKLOADS = {
    "cli_commands": CliCommands,
    "accumulate_modes": AccumulateModes,
}


def _attempt(workload) -> Op:
    try:
        return workload.run_op()
    except Exception:  # an operation that raises counts as failed; keep measuring
        return Op(error=traceback.format_exc())


def measure(workload, budget: float, minimum: int, ops: List[Op], setup=None) -> List[Op]:
    """Run operations for about `budget` seconds; returns this phase's ops.

    With a `setup` list, SETUP_SAMPLES set-up times are appended to it,
    taken between operations in step with the elapsed share of `budget`.
    """
    phase: List[Op] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        phase.append(_attempt(workload))
        while setup is not None and len(setup) < SETUP_SAMPLES * min(
            1.0, (perf_counter() - start) / max(budget, 1e-9)
        ):
            setup.append(setup_sample())
        each = perf_counter() - began
        if len(phase) >= minimum and perf_counter() - start + each > budget:
            break
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    ops.extend(phase)
    return phase


class _Traced:
    """Numbers the operations of a traced phase 0, 1, 2, ... for the tracer."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer

    def run_op(self) -> Op:
        self.tracer.op += 1
        return self.workload.run_op()


def _timed(ops: List[Op]) -> List[Op]:
    return [op for op in ops if op.wall is not None]


def end_to_end(ops: List[Op], setup: List[float]) -> dict:
    """Medians over the timed operations and set-up samples.

    Latency percentiles are taken per operation, then their median.
    """
    timed = _timed(ops)

    def latency_ms(q):
        return statistics.median(float(np.percentile(op.latencies, q)) * 1e3 for op in timed)

    return {
        "wall_s": (statistics.median(op.wall for op in timed), "s"),
        "events_per_s": (statistics.median(op.events / op.wall for op in timed), "events/s"),
        "frame_latency_p50_ms": (latency_ms(50), "ms"),
        "frame_latency_p90_ms": (latency_ms(90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }, {
        "ops": len(timed),
        "frames_per_op": statistics.median(len(op.latencies) for op in timed),
        "setup": len(setup),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(ref.EVAL_GEOMETRY), default="full")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.inputs, args.scratch, args.size)
    began = perf_counter()
    ops: List[Op] = []
    measure(workload, 0.0, 1, ops)  # warm-up: checked and counted, not timed
    ops[0].wall = None
    trace_errors: List[str] = []
    if args.trace == 0:
        setup: List[float] = []
        measure(workload, args.seconds - (perf_counter() - began), MIN_OPS, ops, setup)
        metrics, samples = end_to_end(ops, setup)
    else:
        half = (args.seconds - (perf_counter() - began)) / 2
        untraced = measure(workload, half, MIN_TRACED_OPS, ops)
        tracer = Tracer()
        tracer.install()
        try:
            budget = args.seconds - (perf_counter() - began)
            traced = measure(_Traced(workload, tracer), budget, MIN_TRACED_OPS, ops)
        finally:
            tracer.uninstall()
        walls = [(i, op.wall) for i, op in enumerate(traced) if op.wall is not None]
        base = statistics.median(op.wall for op in _timed(untraced))
        summary = tracer.summary(walls, base)
        metrics = {name: (m["value"], m["unit"]) for name, m in summary.items()}
        samples = {"ops": len(walls)}
        trace_errors = [
            name for name in EXPECTED_CALLS[args.workload]
            if name not in tracer.installed or tracer.calls(name) == 0
        ]
        if trace_errors:
            print(f"trace: no calls recorded for {', '.join(trace_errors)}", file=sys.stderr)
        if args.spans is not None:
            tracer.write_spans(args.spans)

    errors = [op.error for op in ops if op.error]
    for error in sorted(set(errors)):
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(errors),
        "trace_errors": trace_errors,
        "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not Path(evframe.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"evframe imported from {evframe.__file__}, not from {ROOT / 'src'}")
    raise SystemExit(main())
