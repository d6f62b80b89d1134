"""End-to-end runs of the evframe command-line interface."""
from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from evframe import (
    AccumulatorConfig,
    PolarityMode,
    SensorGeometry,
    SensorModel,
    SliceMethod,
    accumulate_stream,
    quantize_frame,
    read_event_batches,
    read_frame_index,
    read_pgm,
    write_pgm,
)
from evframe.cli import _panel, main
from evframe.synth import step_edge

from oracles import reversal_runs, speed_runs


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    """A small synthetic stream shared by the accumulate/eval tests."""
    path = tmp_path_factory.mktemp("synth") / "events.txt"
    code = run(
        "synth",
        "--geometry", "80x60",
        "--speed", "64",
        "--duration", "0.625",
        "--out", str(path),
    )
    assert code == 0
    return path


def accumulate_args(stream_file, out_dir, *extra: str) -> list[str]:
    return [
        "accumulate",
        "--input", str(stream_file),
        "--geometry", "80x60",
        "--slice", "time-number",
        "--window-size", "360",
        "--interval", "0.03125",
        "--contribution", "0.2",
        "--t0", "0",
        "--out", str(out_dir),
        *extra,
    ]


class TestSynth:
    def test_writes_expected_stream(self, stream_file, capsys):
        lines = stream_file.read_text().splitlines()
        assert len(lines) == 7200
        t, x, y, p = lines[0].split()
        assert float(t) > 0.0
        assert p in {"0", "1"}

    def test_stdout_mode_pipes_cleanly(self, capsys):
        code = run("synth", "--geometry", "16x8", "--speed", "8", "--duration", "1.0", "--out", "-")
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 192
        assert out.endswith("\n")

    def test_noise_flag_adds_events(self, tmp_path):
        clean = tmp_path / "clean.txt"
        noisy = tmp_path / "noisy.txt"
        run("synth", "--geometry", "16x8", "--speed", "8", "--duration", "1.0",
            "--out", str(clean))
        run("synth", "--geometry", "16x8", "--speed", "8", "--duration", "1.0",
            "--noise-rate", "5", "--seed", "3", "--out", str(noisy))
        assert len(noisy.read_text().splitlines()) > len(clean.read_text().splitlines())

    def test_reverse_flag_emits_negative_polarity(self, tmp_path):
        path = tmp_path / "rev.txt"
        run("synth", "--geometry", "16x8", "--speed", "8", "--duration", "1.0",
            "--reverse", "--out", str(path))
        polarities = {line.split()[3] for line in path.read_text().splitlines()}
        assert polarities == {"0", "1"}


    # sha256 of `evframe synth --geometry 48x36 --scene S [flags] --out FILE`,
    # recorded with the generator that resampled every pixel at every step.
    GOLDEN = {
        ("step-edge", ""): "b1963033ac3dffa3e9af7c886ea85c2be4c96129da6e3767276833dd512347cd",
        ("step-edge", "--reverse"):
            "8ec619fe3fbfb3339d115b1c37d8a72ce8f0a8a3094000518c8dcb84fdbae98b",
        ("step-edge", "--noise-rate 5 --seed 3"):
            "b937e0cc301ef50566a984b8b16966a892d1ca90e41a86ca14f9f38e1ecd895b",
        ("bars", ""): "ef042fd5ce911f8738622814189188e393157eb8d92fe03234ea01b093c50c0c",
        ("bars", "--reverse"): "68a336d67a14eb9ae3a08537fcedaa8ff13eca3d3ead6ed07bb214c82db68510",
        ("bars", "--noise-rate 5 --seed 3"):
            "9330415fecb70a29e91e366e1b57dcea0a110f390e7afaac7e29adf36644cd74",
        ("checker", ""): "ab2fe7ba5c0f446f46af4a126cd62aca8943ace383d6fa8674f46300c4669ade",
        ("checker", "--reverse"):
            "c07227892312c42890cf59e0368a1b506c7d39c994b508bb64f074a3a36f4e76",
        ("checker", "--noise-rate 5 --seed 3"):
            "98f61f8f3da49296b85c7d19fa5f24ba5dddbeabf129eb689affae82c1e8d7ff",
    }

    @pytest.mark.parametrize("scene,flags", sorted(GOLDEN))
    def test_output_matches_recorded_hash(self, tmp_path, scene, flags):
        path = tmp_path / "events.txt"
        code = run("synth", "--geometry", "48x36", "--scene", scene, *flags.split(),
                   "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[scene, flags]

    @pytest.mark.parametrize("extra", [[], ["--duration", "1"]])
    def test_zero_speed_without_step_fails_with_one_line(self, tmp_path, capsys, extra):
        code = run("synth", "--speed", "0", *extra, "--out", str(tmp_path / "ev.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evframe: error: --speed 0 ")
        assert len(err.splitlines()) == 1

    def test_zero_speed_with_duration_and_step_is_a_static_scene(self, tmp_path):
        path = tmp_path / "ev.txt"
        code = run("synth", "--geometry", "8x4", "--speed", "0", "--duration", "1",
                   "--time-step", "0.01", "--noise-rate", "2", "--seed", "1",
                   "--out", str(path))
        assert code == 0
        clean = tmp_path / "clean.txt"
        run("synth", "--geometry", "8x4", "--speed", "0", "--duration", "1",
            "--time-step", "0.01", "--out", str(clean))
        assert clean.read_text().split() == []
        assert len(path.read_text().splitlines()) > 0

    def test_empty_stream_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "ev.txt"
        assert run("synth", "--speed", "0", "--duration", "1", "--time-step", "0.01",
                   "--out", str(path)) == 0
        assert path.read_bytes() == b""
        assert list(read_event_batches(path, SensorGeometry(240, 180))) == []


class TestAccumulate:
    def test_writes_frames_index_and_summary(self, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        assert run(*accumulate_args(stream_file, out_dir)) == 0
        captured = capsys.readouterr()
        assert "frames emitted: 21" in captured.out
        assert "held frames: 0" in captured.out
        assert "events in: 7200" in captured.out
        assert "throughput:" in captured.out
        index = read_frame_index(out_dir / "index.csv")
        assert len(index) == 21
        assert index[0][0] == pytest.approx(0.03125)
        raster = read_pgm(out_dir / index[-1][1])
        assert raster.shape == (60, 80)
        assert raster.max() > 0

    def test_repeat_runs_are_byte_identical(self, stream_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(*accumulate_args(stream_file, out_a))
        run(*accumulate_args(stream_file, out_b))
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reads_stdin_when_input_is_dash(self, stream_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(stream_file.read_text()))
        out_dir = tmp_path / "frames"
        code = run(
            "accumulate", "--geometry", "80x60", "--slice", "time-number",
            "--window-size", "360", "--interval", "0.03125", "--out", str(out_dir),
        )
        assert code == 0
        assert "events in: 7200" in capsys.readouterr().out

    def test_preset_override_is_logged(self, stream_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        code = run(
            "accumulate", "--input", str(stream_file), "--geometry", "80x60",
            "--preset", "uav", "--window-size", "500", "--out", str(out_dir),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "overriding preset uav window_size: 20000 -> 500" in err

    def test_preset_overrides_are_validated_together(self, stream_file, tmp_path):
        # uav holds below 200 events; a window of 150 is only valid with
        # the lower threshold that comes with it.
        code = run(
            "accumulate", "--input", str(stream_file), "--geometry", "80x60",
            "--preset", "uav", "--slice", "number", "--window-size", "150",
            "--no-motion-threshold", "100", "--out", str(tmp_path / "frames"),
        )
        assert code == 0

    def test_sixteen_bit_output(self, stream_file, tmp_path):
        out_dir = tmp_path / "frames"
        run(*accumulate_args(stream_file, out_dir, "--bit-depth", "16"))
        index = read_frame_index(out_dir / "index.csv")
        raster = read_pgm(out_dir / index[-1][1])
        assert raster.dtype == np.uint16
        # The same config through the library, quantized at 16 bit.
        config = AccumulatorConfig(
            slice_method=SliceMethod.BY_TIME_AND_NUMBER,
            window_size=360,
            interval=0.03125,
            contribution=0.2,
        )
        geometry = SensorGeometry(80, 60)
        frames, _ = accumulate_stream(
            read_event_batches(stream_file, geometry), config, geometry, t0=0.0
        )
        assert len(frames) == len(index)
        for frame, (stamp, name, held) in zip(frames, index):
            assert (stamp, held) == (frame.stamp, frame.held)
            assert np.array_equal(read_pgm(out_dir / name), quantize_frame(frame, 16))

    def test_decay_flag_parses_each_form(self, stream_file, tmp_path):
        # Decaying buffers need disjoint slices, so drive them by time.
        for flag in ("step", "linear:0.5", "exp:0.1"):
            out_dir = tmp_path / flag.replace(":", "_")
            code = run(
                "accumulate", "--input", str(stream_file), "--geometry", "80x60",
                "--slice", "time", "--interval", "0.03125", "--t0", "0",
                "--decay", flag, "--out", str(out_dir),
            )
            assert code == 0

    def test_decay_with_default_slicer_fails_with_one_line(self, stream_file, tmp_path, capsys):
        # Time-number windows overlap, which a decaying buffer cannot take.
        code = run(
            "accumulate", "--input", str(stream_file), "--geometry", "80x60",
            "--decay", "exp:0.05", "--out", str(tmp_path / "frames"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evframe: error: ")
        assert len(err.splitlines()) == 1

    def test_decay_with_default_slicer_fails_before_reading(self, tmp_path, capsys):
        # Line 1 is malformed, so reading any input would report it instead.
        path = tmp_path / "bad.txt"
        path.write_text("0.1 oops 2 1\n")
        code = run(
            "accumulate", "--input", str(path), "--geometry", "80x60",
            "--decay", "exp:0.05", "--out", str(tmp_path / "frames"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "decay exp" in err and "slice_method time-number" in err
        assert "line 1" not in err

    def test_failed_run_indexes_every_frame_it_wrote(self, stream_file, tmp_path, capsys):
        path = tmp_path / "truncated.txt"
        path.write_text(stream_file.read_text() + "0.7 1 1\n")
        out_dir = tmp_path / "frames"
        assert run(*accumulate_args(path, out_dir)) == 2
        assert "line 7201" in capsys.readouterr().err
        written = sorted(p.name for p in out_dir.glob("*.pgm"))
        assert len(written) >= 10
        assert [name for _, name, _ in read_frame_index(out_dir / "index.csv")] == written

    def test_prints_core_and_wall_throughput(self, stream_file, tmp_path, capsys):
        assert run(*accumulate_args(stream_file, tmp_path / "frames")) == 0
        out = capsys.readouterr().out
        assert "core throughput:" in out
        assert "wall throughput:" in out

    def test_missing_input_fails_with_one_line(self, tmp_path, capsys):
        code = run(
            "accumulate", "--input", str(tmp_path / "missing.txt"), "--geometry", "80x60",
            "--out", str(tmp_path / "frames"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evframe: error: ")
        assert "missing.txt" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "line,shown",
        [
            ("0.1 inf 2 1", "(inf, 2)"),
            ("0.1 -inf 2 1", "(-inf, 2)"),
            ("0.1 2 inf 1", "(2, inf)"),
            ("0.1 2 -inf 1", "(2, -inf)"),
        ],
    )
    def test_infinite_coordinate_fails_with_one_line(self, tmp_path, capsys, line, shown):
        path = tmp_path / "inf.txt"
        path.write_text(line + "\n")
        code = run("accumulate", "--input", str(path), "--geometry", "240x180",
                   "--out", str(tmp_path / "frames"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"evframe: error: coordinates must be integers at line 1: {shown}\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--slice", "time"]])
    def test_infinite_interval_fails_with_one_line(self, tmp_path, capsys, flags):
        path = tmp_path / "two.txt"
        path.write_text("0.1 1 1 1\n0.2 2 2 0\n")
        code = run("accumulate", "--input", str(path), "--geometry", "4x3",
                   "--interval", "inf", "--out", str(tmp_path / "frames"), *flags)
        assert code == 2
        assert capsys.readouterr().err == "evframe: error: interval must be finite, got inf\n"
        assert not list((tmp_path / "frames").glob("*.pgm"))

    def test_infinite_linear_rate_is_a_bad_decay(self, tmp_path, capsys):
        # Decay parameters are checked while the flags are parsed, as for linear:-1.
        with pytest.raises(SystemExit) as exc:
            run("accumulate", "--input", "-", "--geometry", "4x3", "--slice", "time",
                "--interval", "0.05", "--decay", "linear:inf", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "argument --decay" in capsys.readouterr().err

    def test_rejects_bad_geometry(self, stream_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("accumulate", "--input", str(stream_file), "--geometry", "80by60",
                "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_rejects_bad_decay(self, stream_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*accumulate_args(stream_file, tmp_path, "--decay", "linear"))
        assert exc.value.code == 2

    def test_geometry_is_required(self, stream_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("accumulate", "--input", str(stream_file), "--out", str(tmp_path))
        assert exc.value.code == 2


class TestEval:
    def test_speed_invariance_writes_csv_and_panels(self, tmp_path, capsys):
        code = run(
            "eval", "speed-invariance",
            "--speeds", "64,128",
            "--out", str(tmp_path),
            "--panels",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "by-time-and-number: mean ncc 1.0000" in out
        lines = (tmp_path / "speed_invariance.csv").read_text().splitlines()
        assert lines[0] == "method,speed_a,speed_b,frame,ncc"
        assert any(row.startswith("by-time-and-number,64,128") for row in lines[1:])
        panel = read_pgm(tmp_path / "panel_by_time_and_number.pgm")
        assert panel.shape[1] > 160  # two tiles plus separators

    def test_window_sweep_csv(self, stream_file, tmp_path, capsys):
        code = run(
            "eval", "window-sweep",
            "--input", str(stream_file),
            "--geometry", "80x60",
            "--windows", "180,720,2880",
            "--interval", "0.03125",
            "--contribution", "0.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "window_sweep.csv").read_text().splitlines()
        assert lines[0] == "window_size,fill_ratio,saturation_fraction"
        assert len(lines) == 4
        fills = [float(row.split(",")[1]) for row in lines[1:]]
        assert fills == sorted(fills)

    def test_contribution_sweep_csv(self, stream_file, tmp_path):
        code = run(
            "eval", "contribution-sweep",
            "--input", str(stream_file),
            "--geometry", "80x60",
            "--contributions", "0.1,0.5,1.0",
            "--interval", "0.03125",
            "--window-size", "720",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "contribution_sweep.csv").read_text().splitlines()
        assert lines[0] == "contribution,distinct_levels"
        levels = [int(row.split(",")[1]) for row in lines[1:]]
        assert levels == sorted(levels, reverse=True)

    def test_polarity_flip_csv_and_panels(self, tmp_path, capsys):
        code = run("eval", "polarity-flip", "--out", str(tmp_path), "--panels")
        assert code == 0
        assert "signed mean flips across 0.5: True" in capsys.readouterr().out
        lines = (tmp_path / "polarity_flip.csv").read_text().splitlines()
        assert lines[0] == "pair,signed_before_mean,signed_after_mean,rectified_ncc"
        assert len(lines) > 1
        assert (tmp_path / "panel_signed.pgm").exists()
        assert (tmp_path / "panel_rectified.pgm").exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["speed-invariance", "--speeds", "0,64"],
            ["speed-invariance", "--speeds", "64,-128"],
            ["polarity-flip", "--speed", "0"],
            ["polarity-flip", "--speed", "nan"],
        ],
    )
    def test_non_positive_speed_fails_with_one_line(self, tmp_path, capsys, argv):
        code = run("eval", *argv, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evframe: error: speed must be a finite number > 0 px/s, got ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "speed_invariance.csv").exists()


def old_speed_panels(speeds, out_dir):
    """Panels selected from a second sweep, as the CLI once did: the oracle."""
    scene = step_edge(SensorGeometry(80, 60), height=0.6)
    time_frames, btn_frames = speed_runs(
        scene, speeds, 1.0 / 32.0, 360, SensorModel(contrast_threshold=0.2), 40.0, 0.2
    )
    slow, fast = float(min(speeds)), float(max(speeds))
    k = min(len(btn_frames[slow]), len(btn_frames[fast])) - 1
    while k >= 0 and (btn_frames[slow][k][1].partial or btn_frames[fast][k][1].partial):
        k -= 1
    if k >= 0:
        write_pgm(
            _panel([btn_frames[slow][k][0], btn_frames[fast][k][0]]),
            out_dir / "panel_by_time_and_number.pgm",
        )
    ratio = fast / slow
    aligned = None
    for kb in range(len(time_frames[fast])):
        ka_f = (kb + 1) * ratio - 1.0
        ka = int(round(ka_f))
        if abs(ka_f - ka) <= 1e-9 and 0 <= ka < len(time_frames[slow]):
            aligned = (ka, kb)
    if aligned is not None:
        ka, kb = aligned
        write_pgm(
            _panel([time_frames[slow][ka][0], time_frames[fast][kb][0]]),
            out_dir / "panel_by_time.pgm",
        )


def old_flip_panels(out_dir):
    scene = step_edge(SensorGeometry(80, 60), height=0.6)
    frames = reversal_runs(
        scene, 64.0, 1.0 / 32.0, 360, 0.3125, SensorModel(contrast_threshold=0.2), 0.2
    )
    m = int(round(0.3125 / (1.0 / 32.0)))
    bi, ai = m - 1, m
    if 0 <= bi and ai < len(frames[PolarityMode.SIGNED]):
        for mode, name in (
            (PolarityMode.SIGNED, "panel_signed.pgm"),
            (PolarityMode.RECTIFIED, "panel_rectified.pgm"),
        ):
            write_pgm(_panel([frames[mode][bi][0], frames[mode][ai][0]]), out_dir / name)


class TestPanelsFromReports:
    @pytest.mark.parametrize("speeds", ["64,128", "64,128,256", "256,64,128"])
    def test_speed_panels_match_a_second_sweep(self, tmp_path, speeds):
        new, old = tmp_path / "new", tmp_path / "old"
        old.mkdir()
        assert run("eval", "speed-invariance", "--speeds", speeds, "--out", str(new),
                   "--panels") == 0
        old_speed_panels(tuple(float(s) for s in speeds.split(",")), old)
        names = sorted(p.name for p in old.iterdir())
        assert names == ["panel_by_time.pgm", "panel_by_time_and_number.pgm"]
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes()

    def test_flip_panels_match_a_second_sweep(self, tmp_path):
        new, old = tmp_path / "new", tmp_path / "old"
        old.mkdir()
        assert run("eval", "polarity-flip", "--out", str(new), "--panels") == 0
        old_flip_panels(old)
        names = sorted(p.name for p in old.iterdir())
        assert names == ["panel_rectified.pgm", "panel_signed.pgm"]
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes()


class TestEvalGolden:
    # sha256 of each output of `evframe eval REPORT [flags] --out DIR`,
    # recorded before the reports streamed their frames.
    GOLDEN = {
        ("speed-invariance", "--speeds", "64,100,256", "--panels"): {
            "speed_invariance.csv":
                "b77a4f61d37024af277a39de3b006b7afa3dcd6464c9e43f147363d73035513d",
            "panel_by_time.pgm":
                "049d19a855738d82bf6d4f47adf302b354b47a6872ed2ce70e65be556ccbb942",
            "panel_by_time_and_number.pgm":
                "d41eb38e08e05800e028ab4ecde7525a7673e7c44515d7c67fd375531f58213e",
        },
        ("speed-invariance", "--speeds", "32,64,128,256", "--panels"): {
            "speed_invariance.csv":
                "e8635761e1bda37a6be93237c1aabe4cc5f1cce21a343d7c7040298f700c5d83",
            "panel_by_time.pgm":
                "ad18d1e351b9e2299bd9f76b7fbc38f293c8c70cf0e2c4928c14c536f51438ce",
            "panel_by_time_and_number.pgm":
                "d41eb38e08e05800e028ab4ecde7525a7673e7c44515d7c67fd375531f58213e",
        },
        ("polarity-flip", "--panels"): {
            "polarity_flip.csv":
                "3bbf93521338ddc4f131c5feb496ad328ccdd4c7a137293b7f6721e4ff5b3cda",
            "panel_signed.pgm": "0e9b2780f16fe90853795686af60d5e5f028d95f3da70922482ca3fc850ec6f8",
            "panel_rectified.pgm":
                "5ed8d11e235d7f58a4bde2784c9514763c509db5e7aa35f70213a94c626b8714",
        },
        ("window-sweep", "--geometry", "80x60", "--windows", "180,720,2880",
         "--interval", "0.03125"): {
            "window_sweep.csv": "77c0cb13de140f34c6c706518f26a639a0413d438cdffb134f8f7fb28bb46ac7",
        },
        ("contribution-sweep", "--geometry", "80x60", "--contributions", "0.1,0.5,1",
         "--window-size", "720", "--interval", "0.03125"): {
            "contribution_sweep.csv":
                "6256f0f0013b88804783e5b179b20719ceb5f69f82c4d93c9238bfde61b57241",
        },
    }

    @pytest.mark.parametrize(
        "argv", list(GOLDEN), ids=lambda argv: "-".join(argv[:1] + argv[2:3])
    )
    def test_outputs_match_recorded_hash(self, stream_file, tmp_path, argv):
        extra = ["--input", str(stream_file)] if argv[0].endswith("sweep") else []
        assert run("eval", *argv, *extra, "--out", str(tmp_path)) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert written == self.GOLDEN[argv]
