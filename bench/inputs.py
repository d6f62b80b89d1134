"""Seeded benchmark inputs and their reference outputs, cached on disk.

``inputs_for`` returns a directory holding one workload's inputs for one
seed, generating it on first use.  Entries are keyed by workload, size,
seed and the source of the files that make them, and live in
``.bench_cache/`` at the repository root; the newest few per workload
are kept.
"""
from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

import gen
import reference as ref

BENCH = Path(__file__).resolve().parent
CACHE = BENCH.parent / ".bench_cache"
KEEP_INPUTS = 6  # cached input sets kept per workload


def _prepare(workload: str, seed: int, size: str, out: Path) -> None:
    """Generate a workload's inputs and reference outputs into `out`."""
    lengths = ref.TINY if size == "tiny" else ref.LENGTH
    if workload == "cli_commands":
        params = ref.CLI_FILE
        stream = gen.edges_stream(seed, lengths["cli_file"])
        gen.write_text(stream, out / "events.txt")
        t = ref.seconds(stream["t_us"])
        flat = stream["y"].astype(np.intp) * ref.WIDTH + stream["x"]
        stamps = ref.tick_stamps(float(t[0]), float(t[-1]), params["interval"])
        frames = np.stack(
            [ref.quantize8(ref.window_frame(t, flat, s, params["window"])) for s in stamps]
        )
        np.savez(out / "reference.npz", frames=frames, stamps=stamps, events=len(t))
    elif workload == "accumulate_modes":
        _prepare_modes(gen.edges_stream(seed, lengths["edges"]), "edges", out)
        _prepare_modes(gen.hot_pixel_stream(seed, lengths["hot"]), "hot", out)


def _prepare_modes(stream: dict, name: str, out: Path) -> None:
    """One accumulate_modes batch and its per-pixel reference values."""
    hot = stream.pop("hot", None)
    pixels = ref.SAMPLE_PIXELS if hot is None else np.union1d(ref.SAMPLE_PIXELS, hot)
    t = ref.seconds(stream["t_us"])
    flat = stream["y"].astype(np.intp) * ref.WIDTH + stream["x"]
    if name == "edges":
        stamps = ref.tick_stamps(float(t[0]), float(t[-1]), ref.EDGES_PART["interval"])
        slice_of = np.searchsorted(stamps, t, side="right")
    else:
        n = ref.HOT_PART["window"]
        stamps = t[n - 1 : (len(t) // n) * n : n]
        slice_of = np.arange(len(t)) // n
    values = np.stack(
        [
            ref.pixel_reference(t, flat, stream["p"], slice_of, stamps, pixels, mode)
            for mode in ref.MODES
        ]
    )
    np.savez(out / f"{name}_stream.npz", **stream)
    np.savez(out / f"{name}_reference.npz", values=values, stamps=stamps, pixels=pixels)


def inputs_for(workload: str, seed: int, size: str) -> Path:
    """Cached input directory for (workload, seed, size), made if missing."""
    digest = hashlib.sha256()
    for name in ("gen.py", "reference.py", "inputs.py"):
        digest.update((BENCH / name).read_bytes())
    path = CACHE / f"{workload}-{size}-{seed}-{digest.hexdigest()[:12]}"
    if not path.is_dir():
        CACHE.mkdir(exist_ok=True)
        partial = CACHE / f".partial-{path.name}-{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir()
        _prepare(workload, seed, size, partial)
        os.replace(partial, path)
    os.utime(path)
    old = sorted(
        (p for p in CACHE.glob(f"{workload}-*") if p != path),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in old[: max(0, len(old) + 1 - KEEP_INPUTS)]:
        shutil.rmtree(stale, ignore_errors=True)
    return path
