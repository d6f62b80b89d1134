"""Seeded input streams for the benchmark, independent of evframe.

Nothing here imports evframe: the program under test must not be able
to change its own inputs.  Timestamps are whole microseconds, as a
real sensor reports them, so ``us / 1e6`` and the parsed text
``"S.UUUUUU"`` are the same float (both are the correctly rounded value
of the same rational number).

Two stream shapes:

* ``edges_stream``: Poisson background noise plus vertical edges of
  both polarities sweeping horizontally across a 240x180 sensor and
  wrapping around.  Every crossed pixel fires 3 events while the edge
  passes it.  About 600k events/s.
* ``hot_pixel_stream``: a few hot pixels that carry nearly all events,
  over a thin noise floor.
"""
from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 240, 180
EVENTS_PER_CROSSING = 3
EDGE_COUNT = 4
EDGE_SPEED = (150.0, 230.0)  # px/s, drawn per edge, then scaled so that
MEAN_EDGE_SPEED = 190.0  # the speeds always sum to EDGE_COUNT times this
NOISE_RATE = 4.4  # events per pixel per second
HOT_PIXELS = 4
HOT_BIAS = (0.3, 0.5, 0.7, 0.9)  # share of + events per hot pixel
HOT_FLOOR_RATE = 0.05  # background events per pixel per second


def _sorted(t_us, x, y, p):
    order = np.argsort(t_us, kind="stable")
    return {
        "t_us": t_us[order].astype(np.int64),
        "x": x[order].astype(np.int16),
        "y": y[order].astype(np.int16),
        "p": p[order].astype(np.int8),
    }


def _noise(rng, duration, rate):
    count = int(rng.poisson(rate * duration * WIDTH * HEIGHT))
    t = rng.random(count) * duration
    x = rng.integers(0, WIDTH, count)
    y = rng.integers(0, HEIGHT, count)
    p = rng.integers(0, 2, count) * 2 - 1
    return t, x, y, p


def edges_stream(seed: int, duration: float) -> dict:
    """Noise plus sweeping edges over `duration` seconds."""
    rng = np.random.default_rng([seed, 1])
    t, x, y, p = _noise(rng, duration, NOISE_RATE)
    ts, xs, ys, ps = [t], [x], [y], [p]
    # A fixed total speed keeps the event count, and so the work, the same
    # for every seed.
    speeds = rng.uniform(*EDGE_SPEED, EDGE_COUNT)
    speeds *= EDGE_COUNT * MEAN_EDGE_SPEED / speeds.sum()
    for k in range(EDGE_COUNT):
        speed = speeds[k] * (1 if k % 2 == 0 else -1)
        x0 = rng.uniform(0, WIDTH)
        polarity = 1 if k < EDGE_COUNT // 2 else -1
        col = np.arange(WIDTH)
        # Time until the edge first reaches each column, then every
        # WIDTH / |speed| seconds as it wraps around.
        first = (((col - x0) if speed > 0 else (x0 - col)) % WIDTH) / abs(speed)
        laps = int(np.ceil(duration * abs(speed) / WIDTH)) + 1
        cross = (first[None, :] + np.arange(laps)[:, None] * WIDTH / abs(speed)).ravel()
        cols = np.tile(col, laps)
        keep = cross < duration
        cross, cols = cross[keep], cols[keep]
        n = len(cross) * HEIGHT * EVENTS_PER_CROSSING
        # Each of the 3 events of a pixel lands in its own third of the
        # time the edge needs to cross that pixel.
        j = np.tile(np.arange(EVENTS_PER_CROSSING), len(cross) * HEIGHT)
        t = np.repeat(cross, HEIGHT * EVENTS_PER_CROSSING) + (j + rng.random(n)) / (
            EVENTS_PER_CROSSING * abs(speed)
        )
        keep = t < duration
        ts.append(t[keep])
        xs.append(np.repeat(cols, HEIGHT * EVENTS_PER_CROSSING)[keep])
        ys.append(np.tile(np.repeat(np.arange(HEIGHT), EVENTS_PER_CROSSING), len(cross))[keep])
        ps.append(np.full(int(keep.sum()), polarity))
    t_us = np.floor(np.concatenate(ts) * 1e6).astype(np.int64)
    return _sorted(t_us, np.concatenate(xs), np.concatenate(ys), np.concatenate(ps))


def hot_pixel_stream(seed: int, events: int, duration: float = 1.0) -> dict:
    """`events` total, nearly all on HOT_PIXELS pixels, over `duration` s.

    Also returns the hot pixels' flat indices (y * WIDTH + x).
    """
    rng = np.random.default_rng([seed, 2])
    t, x, y, p = _noise(rng, duration, HOT_FLOOR_RATE)
    flat = rng.choice(WIDTH * HEIGHT, HOT_PIXELS, replace=False)
    per_pixel = max(1, (events - len(t)) // HOT_PIXELS)
    ts, xs, ys, ps = [t], [x], [y], [p]
    for pixel, bias in zip(flat, HOT_BIAS):
        ts.append(rng.random(per_pixel) * duration)
        xs.append(np.full(per_pixel, pixel % WIDTH))
        ys.append(np.full(per_pixel, pixel // WIDTH))
        ps.append(np.where(rng.random(per_pixel) < bias, 1, -1))
    t_us = np.floor(np.concatenate(ts) * 1e6).astype(np.int64)
    out = _sorted(t_us, np.concatenate(xs), np.concatenate(ys), np.concatenate(ps))
    out["hot"] = np.sort(flat).astype(np.int64)
    return out


def write_text(stream: dict, path) -> None:
    """Write "t x y p" lines, p as 1 / 0, t as seconds with 6 decimals."""
    t_us = stream["t_us"]
    sec, us = np.divmod(t_us, 1_000_000)
    p01 = (stream["p"] > 0).astype(np.int64)
    cols = zip(sec.tolist(), us.tolist(), stream["x"].tolist(), stream["y"].tolist(), p01.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join([f"{s}.{u:06d} {x} {y} {q}\n" for s, u, x, y, q in cols]))
