"""The benchmark's own tests, on tiny inputs: ``python3 -m pytest bench``."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import evframe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[0] for line in text if not line.startswith("#")}
    assert printed == {m["name"] for m in expected} | {"failed_ops_frac"}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert SPEC["paths"] == ["bench"]
    baseline = json.loads((BENCH / "baseline.json").read_text())
    mapped = sorted(name for entry in baseline["layer_map"] for name in entry["metrics"])
    assert mapped == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(baseline["invariant_counts"]["metrics"]) <= set(mapped)
    workloads = {w for entry in baseline["layer_map"] for w in entry["on"]}
    assert workloads == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "accumulate_modes", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _inputs(workload):
    return inputs.inputs_for(workload, SEED, "tiny")


def _with_pixel_changed(frame, pixel):
    pixels = frame.pixels.copy().ravel()
    pixels[pixel] = 0.25 if pixels[pixel] != 0.25 else 0.75
    return evframe.EventFrame(frame.spec, pixels.reshape(frame.pixels.shape), frame.stamp)


def test_cli_file_check_catches_one_corrupted_frame(tmp_path):
    workload = wl.CliFile(_inputs("cli_commands"), tmp_path, "tiny")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        evframe.cli.main(["accumulate", "--input", str(workload.text), "--out", str(out),
                          "--geometry", f"{ref.WIDTH}x{ref.HEIGHT}"])
    assert workload.check(out) is None
    frame = out / "frame_000003.pgm"
    data = bytearray(frame.read_bytes())
    data[-100] ^= 0xFF
    frame.write_bytes(bytes(data))
    assert "frame 3" in workload.check(out)


@pytest.mark.parametrize("part", [0, 1])
def test_mode_checks_catch_one_corrupted_frame(tmp_path, part):
    workload = wl.AccumulateModes(_inputs("accumulate_modes"), tmp_path, "tiny").parts[part]
    for i, config in enumerate(workload.configs):
        frames, _ = evframe.accumulate_stream(workload.events, config, workload.spec)
        assert workload.check(i, frames) is None
        k = len(frames) - 1
        frames[k] = _with_pixel_changed(frames[k], int(workload.pixels[-1]))
        assert f"frame {k}" in workload.check(i, frames)


def test_eval_reports_check_catches_a_wrong_report(tmp_path):
    workload = wl.EvalReports(None, tmp_path, "tiny")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload.commands(out):
            evframe.cli.main(argv)
    assert workload.check(out) is None
    path = out / "polarity_flip.csv"
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[2] = "0.9"  # signed_after_mean above 0.5: no flip
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    assert "flip" in workload.check(out)


def test_pixel_reference_matches_closed_forms():
    t = np.array([0.0, 0.1, 0.2])
    flat = np.zeros(3, dtype=np.intp)
    p = np.array([1, 1, -1])
    stamps = np.array([0.3])
    slice_of = np.zeros(3, dtype=np.intp)
    pixels = np.array([0])
    rect_exp = ref.pixel_reference(
        t, flat, p, slice_of, stamps, pixels, ("rectified", "exp", 0.05)
    )
    expected = ((0.2 * np.exp(-2) + 0.2) * np.exp(-2) + 0.2) * np.exp(-2)
    assert abs(rect_exp[0, 0] - expected) < 1e-12
    signed_lin = ref.pixel_reference(
        t, flat, p, slice_of, stamps, pixels, ("signed", "linear", 1.0)
    )
    # 0.5 -> 0.7 -> decay 0.1 -> 0.6 + 0.2 = 0.8 -> 0.7 - 0.2 = 0.5 -> stays at 0.5.
    assert abs(signed_lin[0, 0] - 0.5) < 1e-12
