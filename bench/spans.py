"""Spans and counters around evframe's public functions, from outside.

`Tracer.install` replaces every public function of the layer modules
(each name in a module's ``__all__`` that the module defines), and the
public methods of the slicer and accumulator classes, with a wrapper
that records a span.  A function is replaced where it is defined and
wherever an evframe module imported it by name, found by object
identity, so calls through ``from .x import f`` are traced too.
Generator functions get an iterator wrapper that times each ``next``.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory and are written out once, when the run ends.  A span's self
time is its duration minus the duration of its direct children.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("eventio", "slicer", "accumulator", "core", "pipeline", "synth", "metrics", "cli")
TRACED_CLASSES = ("StreamSlicer", "FrameAccumulator")
MODES = tuple(
    f"{polarity}_{kind}"
    for polarity in ("rectified", "signed")
    for kind in ("step", "linear", "exp")
)

# Per-layer metrics: (name, unit, better).  Every traced run prints all
# of them; a layer the workload does not reach reads 0.
LAYER_METRICS = (
    ("eventio.read_event_batches.s", "s", "lower"),
    ("eventio.read_event_batches.events", "events", "lower"),
    ("eventio.write_pgm.s", "s", "lower"),
    ("eventio.write_pgm.frames", "frames", "lower"),
    ("eventio.write_frame_index.s", "s", "lower"),
    ("core.quantize_frame.s", "s", "lower"),
    ("core.quantize_frame.frames", "frames", "lower"),
    ("slicer.push_batch.s", "s", "lower"),
    ("slicer.push_batch.calls", "calls", "lower"),
    ("slicer.flush.s", "s", "lower"),
    ("slicer.slices", "slices", "lower"),
    ("slicer.partial_slices", "slices", "lower"),
    ("slicer.empty_slices", "slices", "lower"),
    ("slicer.events_per_slice", "events", "lower"),
    ("slicer.overlap_ratio", "ratio", "lower"),
    ("slicer.withheld_events", "events", "lower"),
    ("accumulator.process.s", "s", "lower"),
    ("accumulator.process.calls", "calls", "lower"),
    ("accumulator.process.events", "events", "lower"),
    ("accumulator.process.held_frames", "frames", "lower"),
    *((f"accumulator.{mode}.s", "s", "lower") for mode in MODES),
    ("pipeline.run_accumulation.self_s", "s", "lower"),
    ("pipeline.source_wait_s", "s", "lower"),
    ("pipeline.sink_s", "s", "lower"),
    ("pipeline.reported_events_per_s", "events/s", "higher"),
    ("synth.generate_events.s", "s", "lower"),
    ("synth.generate_events.calls", "calls", "lower"),
    ("synth.generate_events.events", "events", "lower"),
    ("synth.redundant_generate_frac", "ratio", "lower"),
    ("metrics.report.self_s", "s", "lower"),
    ("metrics.ncc.calls", "calls", "lower"),
    ("metrics.ncc.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"),
    ("trace.wall_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

# Spans around the batch source and the frame sink that evframe's own
# callers (the CLI, accumulate_stream) hand to run_accumulation.  They are
# named apart from the layers because the callables are the callers'.
SOURCE_SPAN = "bench.source"
SINK_SPAN = "bench.sink"


def _digest(value) -> object:
    """Hashable stand-in for a call argument, compared by value."""
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        return ("array", value.shape, str(value.dtype), hashlib.sha1(value.tobytes()).hexdigest())
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,) + tuple(
            _digest(getattr(value, f)) for f in value.__dataclass_fields__
        )
    if isinstance(value, (tuple, list)):
        return tuple(_digest(v) for v in value)
    return repr(value)


class _TracedIterator:
    """Iterator proxy that records one span per ``next``."""

    def __init__(self, tracer, name, iterator, on_item=None):
        self._tracer = tracer
        self._name = name
        self._it = iter(iterator)
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.open(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.close(span)
        if self._on_item is not None:
            self._on_item(item)
        return item

    def close(self):
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self._stack = []
        self.op = -1
        self.counts = defaultdict(float)  # (op, key) -> value
        self.installed = set()
        self._restore = []
        self._modes = weakref.WeakKeyDictionary()
        self._seen_args = defaultdict(set)

    # -- spans -------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, key, value=1):
        self.counts[(self.op, key)] += value

    def wrap(self, name, fn, before=None, after=None, on_item=None):
        """Wrap `fn` in a span; generators are traced per ``next``."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self.add(f"{name}.calls")
                return _TracedIterator(self, name, fn(*args, **kwargs), on_item)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls")
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    # -- installation ------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module; see module doc."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"evframe.{layer}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self.wrap(name, obj, **self._hooks(name)))
                    self.installed.add(name)
                elif attr in TRACED_CLASSES and obj.__module__ == module.__name__:
                    self._install_methods(layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "evframe" and not module_name.startswith("evframe."):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def _install_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(member):
                continue
            name = f"{layer}.{attr}"
            setattr(cls, attr, self.wrap(name, member, **self._hooks(name)))
            self._restore.append((cls, attr, member))
            self.installed.add(name)
        init = vars(cls).get("__init__")
        if cls.__name__ == "FrameAccumulator" and init is not None:

            @functools.wraps(init)
            def remember_mode(acc, *args, **kwargs):
                init(acc, *args, **kwargs)
                config = args[0] if args else kwargs.get("config")
                self._modes[acc] = f"{config.polarity_mode.value}_{config.decay.kind.value}"

            cls.__init__ = remember_mode
            self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _hooks(self, name):
        hooks = {
            "eventio.read_event_batches": {
                "on_item": lambda batch: self.add("eventio.read_event_batches.events", len(batch))
            },
            "eventio.write_pgm": {"after": self._count("eventio.write_pgm.frames")},
            "core.quantize_frame": {"after": self._count("core.quantize_frame.frames")},
            "slicer.push_batch": {"after": self._after_push},
            "slicer.flush": {"after": self._after_flush},
            "accumulator.process": {"after": self._after_process},
            "pipeline.run_accumulation": {
                "before": self._before_run,
                "after": self._after_run,
            },
            "synth.generate_events": {"after": self._after_generate},
        }
        return hooks.get(name, {})

    def _count(self, key):
        return lambda args, kwargs, result, span: self.add(key)

    def _slices(self, slices):
        self.add("slicer.slices", len(slices))
        self.add("slicer.partial_slices", sum(1 for s in slices if s.partial))
        self.add("slicer.empty_slices", sum(1 for s in slices if len(s) == 0))
        self.add("slicer.slice_events", sum(len(s) for s in slices))

    def _after_push(self, args, kwargs, result, span):
        self.add("slicer.events_in", len(args[1]))
        self._slices(result)

    def _after_flush(self, args, kwargs, result, span):
        self._slices(result)
        pending = getattr(args[0], "pending", ())
        self.add("slicer.withheld_events", len(pending))

    def _after_process(self, args, kwargs, result, span):
        self.add("accumulator.process.events", len(args[1]))
        self.add("accumulator.process.held_frames", int(result.held))
        mode = self._modes.get(args[0])
        if mode is not None:
            start, end = self.spans[span][1:3]
            self.add(f"accumulator.{mode}.s", end - start)

    def _before_run(self, args, kwargs):
        source = args[0]
        if not hasattr(source, "t"):  # an iterable of batches, not one batch
            args = (_TracedIterator(self, SOURCE_SPAN, source),) + tuple(args[1:])
        on_frame = kwargs.get("on_frame")
        if on_frame is not None:
            kwargs = dict(kwargs, on_frame=self.wrap(SINK_SPAN, on_frame))
        return args, kwargs

    def _after_run(self, args, kwargs, result, span):
        self.add("pipeline.events_in", result.events_in)
        self.add("pipeline.build_seconds", result.build_seconds)

    def _after_generate(self, args, kwargs, result, span):
        self.add("synth.generate_events.events", len(result))
        key = _digest((args, sorted(kwargs.items())))
        if key in self._seen_args[self.op]:
            self.add("synth.redundant_calls")
        self._seen_args[self.op].add(key)

    # -- results -----------------------------------------------------

    def calls(self, name):
        return sum(v for (op, key), v in self.counts.items() if key == f"{name}.calls")

    def op_metrics(self, op, wall):
        """Per-layer metrics of one traced operation."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        child_time = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, start, end, parent, _) in spans:
            own = (end - start) - child_time[i]
            total[name] += end - start
            self_time[name] += own
            layer = name.split(".")[0]
            if layer in LAYERS:
                layer_self[layer] += own
        count = lambda key: self.counts.get((op, key), 0.0)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        out = {
            "eventio.read_event_batches.s": total["eventio.read_event_batches"],
            "eventio.read_event_batches.events": count("eventio.read_event_batches.events"),
            "eventio.write_pgm.s": total["eventio.write_pgm"],
            "eventio.write_pgm.frames": count("eventio.write_pgm.frames"),
            "eventio.write_frame_index.s": total["eventio.write_frame_index"],
            "core.quantize_frame.s": total["core.quantize_frame"],
            "core.quantize_frame.frames": count("core.quantize_frame.frames"),
            "slicer.push_batch.s": total["slicer.push_batch"],
            "slicer.push_batch.calls": count("slicer.push_batch.calls"),
            "slicer.flush.s": total["slicer.flush"],
            "slicer.slices": count("slicer.slices"),
            "slicer.partial_slices": count("slicer.partial_slices"),
            "slicer.empty_slices": count("slicer.empty_slices"),
            "slicer.events_per_slice": ratio(count("slicer.slice_events"), count("slicer.slices")),
            "slicer.overlap_ratio": ratio(count("slicer.slice_events"), count("slicer.events_in")),
            "slicer.withheld_events": count("slicer.withheld_events"),
            "accumulator.process.s": total["accumulator.process"],
            "accumulator.process.calls": count("accumulator.process.calls"),
            "accumulator.process.events": count("accumulator.process.events"),
            "accumulator.process.held_frames": count("accumulator.process.held_frames"),
            "pipeline.run_accumulation.self_s": self_time["pipeline.run_accumulation"],
            "pipeline.source_wait_s": total[SOURCE_SPAN],
            "pipeline.sink_s": total[SINK_SPAN],
            "pipeline.reported_events_per_s": ratio(
                count("pipeline.events_in"), count("pipeline.build_seconds")
            ),
            "synth.generate_events.s": total["synth.generate_events"],
            "synth.generate_events.calls": count("synth.generate_events.calls"),
            "synth.generate_events.events": count("synth.generate_events.events"),
            "synth.redundant_generate_frac": ratio(
                count("synth.redundant_calls"), count("synth.generate_events.calls")
            ),
            "metrics.report.self_s": sum(
                v for k, v in self_time.items()
                if k.startswith("metrics.") and k.endswith("_report")
            ),
            "metrics.ncc.calls": count("metrics.ncc.calls"),
            "metrics.ncc.s": total["metrics.ncc"],
            "cli.main.self_s": self_time["cli.main"],
            "trace.wall_s": wall,
        }
        for mode in MODES:
            out[f"accumulator.{mode}.s"] = count(f"accumulator.{mode}.s")
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def summary(self, walls, untraced_wall):
        """Median of each per-layer metric over the traced operations."""
        per_op = [self.op_metrics(op, wall) for op, wall in walls]
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "trace_overhead_frac":
                traced = statistics.median(w for _, w in walls)
                value = traced / untraced_wall - 1.0
            else:
                value = statistics.median(m[name] for m in per_op)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
