"""Workload parameters and the benchmark's own reference outputs.

Nothing here imports evframe.  Every expected frame is computed from
the paper's definitions with plain numpy or a scalar per-event loop:

* time-and-number slicing: the frame at tick t_k = t0 + k * dt counts
  the last N events strictly before t_k, ``min(count * c, 1)``.
* decaying integration: each pixel relaxes toward neutral between its
  own events (linear: distance shrinks by rate * dt and stops at
  neutral; exponential: distance scales by exp(-dt / tau)), each event
  adds +-c clamped to [0, 1], and the frame is the state decayed to the
  publish stamp.  STEP restarts every slice from neutral.
"""
from __future__ import annotations

import math

import numpy as np

from gen import HEIGHT, WIDTH

PIXELS = WIDTH * HEIGHT
CONTRIBUTION = 0.2
TOLERANCE = 1e-9  # count * c versus c added count times

CLI_FILE = {"window": 10000, "interval": 1.0 / 30.0}
# The two batches of accumulate_modes: edges sliced by time, hot pixels by number.
EDGES_PART = {"interval": 1.0 / 30.0}
HOT_PART = {"window": 5000}
# Stream length in seconds (the hot part: in events), and the tiny lengths
# the benchmark's own tests run.
LENGTH = {"cli_file": 3.0, "edges": 0.3, "hot": 120_000}
TINY = {"cli_file": 0.2, "edges": 0.1, "hot": 15_000}

# (polarity, decay kind, decay parameter): linear rate in 1/s, exp tau in s.
MODES = tuple(
    (polarity, kind, param)
    for polarity in ("rectified", "signed")
    for kind, param in (("step", None), ("linear", 5.0), ("exp", 0.05))
)

# A fixed 8 x 8 grid of pixels checked in every accumulate_modes frame.
SAMPLE_PIXELS = np.array(
    [y * WIDTH + x for y in range(5, HEIGHT, 22) for x in range(7, WIDTH, 30)], dtype=np.int64
)

# The eval reports run evframe's fixed report scenes: a step edge of height
# 0.6 at threshold 0.2 (3 events per swept pixel) sweeps 40 px at each of
# the three speeds, and 20 px out and back for the polarity flip.
EVAL_SPEEDS = "64,128,256"
EVAL_GEOMETRY = {"full": (240, 180), "tiny": (80, 60)}
# Data rows of speed_invariance.csv and polarity_flip.csv per geometry.
EVAL_ROWS = {(240, 180): (83, 10), (80, 60): (80, 9)}
EVAL_MIN_NCC = 0.99


def eval_events(geometry) -> int:
    """Distinct synthetic events the two reports consume: 4 sweeps of 40 px."""
    return 4 * 40 * geometry[1] * 3


def seconds(t_us: np.ndarray) -> np.ndarray:
    return t_us / 1e6


def tick_stamps(t0: float, t_last: float, dt: float) -> np.ndarray:
    """Ticks t0 + k * dt for every k >= 1 at or before t_last, plus one past it."""
    stamps = []
    k = 1
    while t0 + k * dt <= t_last:
        stamps.append(t0 + k * dt)
        k += 1
    stamps.append(t0 + k * dt)
    return np.array(stamps)


def window_frame(t: np.ndarray, flat: np.ndarray, stamp: float, n: int) -> np.ndarray:
    """Flat reference frame: last `n` events strictly before `stamp`."""
    i = int(np.searchsorted(t, stamp, side="left"))
    counts = np.bincount(flat[max(0, i - n) : i], minlength=PIXELS)
    return np.minimum(counts * CONTRIBUTION, 1.0)


def quantize8(values: np.ndarray) -> np.ndarray:
    return np.floor(values * 255 + 0.5).astype(np.uint8)


def _decay(v: float, dt: float, neutral: float, kind: str, param: float) -> float:
    d = v - neutral
    if kind == "linear":
        mag = abs(d) - param * dt
        return neutral if mag <= 0.0 else neutral + math.copysign(mag, d)
    return neutral + d * math.exp(-dt / param)


def pixel_reference(
    t: np.ndarray,
    flat: np.ndarray,
    p: np.ndarray,
    slice_of: np.ndarray,
    stamps: np.ndarray,
    pixels: np.ndarray,
    mode,
) -> np.ndarray:
    """Per-event scalar reference: (frames, len(pixels)) expected values.

    `slice_of[i]` is the 0-based slice event i belongs to; events with a
    slice index >= len(stamps) are never published.
    """
    polarity, kind, param = mode
    neutral = 0.0 if polarity == "rectified" else 0.5
    out = np.empty((len(stamps), len(pixels)))
    for j, pixel in enumerate(pixels):
        events = np.flatnonzero(flat == pixel)
        times = t[events].tolist()
        slices = slice_of[events].tolist()
        signs = p[events].tolist()
        v, last, e = neutral, None, 0
        for k, stamp in enumerate(stamps.tolist()):
            if kind == "step":
                v = neutral
            while e < len(times) and slices[e] == k:
                if kind != "step" and last is not None and times[e] > last:
                    v = _decay(v, times[e] - last, neutral, kind, param)
                step = CONTRIBUTION if polarity == "rectified" or signs[e] > 0 else -CONTRIBUTION
                v = min(1.0, max(0.0, v + step))
                last = times[e]
                e += 1
            if kind != "step":
                if last is not None:
                    v = _decay(v, stamp - last, neutral, kind, param)
                last = stamp
            out[k, j] = v
    return out
