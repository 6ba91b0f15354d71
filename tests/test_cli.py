import hashlib

import numpy as np
import pytest

from stereo_bp import read_disparity_pgm, read_pgm, write_pgm, DisparityMap
from stereo_bp.cli import main


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth(tmp_path, **over):
    args = dict(width=48, height=48, shift=3, seed=1)
    args.update(over)
    paths = {k: tmp_path / f"{k}.pgm" for k in ("left", "right", "truth")}
    rc = main(
        [
            "synth",
            "--width", str(args["width"]),
            "--height", str(args["height"]),
            "--shift", str(args["shift"]),
            "--seed", str(args["seed"]),
            "--out-left", str(paths["left"]),
            "--out-right", str(paths["right"]),
            "--out-truth", str(paths["truth"]),
        ]
    )
    assert rc == 0
    return paths


class TestSynth:
    def test_same_seed_identical_files(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _synth(tmp_path / "a")
        b = _synth(tmp_path / "b")
        for key in a:
            assert _sha(a[key]) == _sha(b[key])

    def test_zero_shift(self, tmp_path):
        paths = _synth(tmp_path, shift=0)
        assert np.array_equal(
            read_pgm(paths["left"]).samples, read_pgm(paths["right"]).samples
        )
        assert np.all(read_pgm(paths["truth"]).samples == 0)

    def test_truth_encodes_shift(self, tmp_path):
        paths = _synth(tmp_path, shift=5)
        truth = read_disparity_pgm(paths["truth"], scale_factor=8)
        assert np.all(truth.labels[12:36, 12:36] == 5)

    def test_invalid_geometry(self, tmp_path, capsys):
        rc = main(
            [
                "synth", "--width", "16", "--height", "16", "--shift", "8",
                "--out-left", str(tmp_path / "l.pgm"),
                "--out-right", str(tmp_path / "r.pgm"),
                "--out-truth", str(tmp_path / "t.pgm"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp:") and err.count("\n") == 1


class TestMatch:
    def test_writes_disparity_and_report(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out = tmp_path / "disp.pgm"
        rc = main(
            [
                "match",
                "--left", str(paths["left"]),
                "--right", str(paths["right"]),
                "--truth", str(paths["truth"]),
                "--out", str(out),
                "--max-disp", "8",
                "--scales", "3",
                "--sweeps", "5,5,10",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rate = float(captured.out.strip().split(",")[0])
        assert 0.0 <= rate <= 0.2
        assert out.exists()

    def test_zero_shift_interior_all_zero(self, tmp_path):
        paths = _synth(tmp_path, shift=0)
        out = tmp_path / "disp.pgm"
        rc = main(
            [
                "match",
                "--left", str(paths["left"]),
                "--right", str(paths["right"]),
                "--out", str(out),
                "--max-disp", "4",
                "--scales", "2",
                "--sweeps", "4,8",
            ]
        )
        assert rc == 0
        labels = read_disparity_pgm(out, scale_factor=8).labels
        assert np.all(labels[6:-6, 6:-6] == 0)

    def test_byte_identical_across_runs(self, tmp_path):
        paths = _synth(tmp_path)
        hashes = []
        for name in ("one.pgm", "two.pgm"):
            out = tmp_path / name
            rc = main(
                [
                    "match",
                    "--left", str(paths["left"]),
                    "--right", str(paths["right"]),
                    "--out", str(out),
                    "--max-disp", "8",
                    "--scales", "2",
                    "--sweeps", "4,8",
                    "--trace",
                ]
            )
            assert rc == 0
            hashes.append((_sha(out), _sha(out.with_suffix(".pgm.trace.csv"))))
        assert hashes[0] == hashes[1]

    def test_trace_file_columns(self, tmp_path):
        paths = _synth(tmp_path)
        out = tmp_path / "d.pgm"
        main(
            [
                "match",
                "--left", str(paths["left"]),
                "--right", str(paths["right"]),
                "--out", str(out),
                "--max-disp", "6",
                "--scales", "2",
                "--sweeps", "3,3",
                "--trace",
            ]
        )
        lines = (tmp_path / "d.pgm.trace.csv").read_text().splitlines()
        assert lines[0] == "scale,sweep,active,max_delta,energy"
        assert len(lines) > 1

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "match",
                "--left", str(tmp_path / "nope.pgm"),
                "--right", str(tmp_path / "nope.pgm"),
                "--out", str(tmp_path / "o.pgm"),
            ]
        )
        assert rc == 1
        assert "stereo-bp:" in capsys.readouterr().err

    def test_config_file_flags_win(self, tmp_path):
        paths = _synth(tmp_path, shift=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-disp = 6\nscales = 2\nsweeps = 3,3  # comment\n")
        out = tmp_path / "cfgout.pgm"
        rc = main(
            [
                "match",
                "--config", str(cfg),
                "--left", str(paths["left"]),
                "--right", str(paths["right"]),
                "--out", str(out),
                "--scales", "1",
                "--sweeps", "6",
                "--trace",
            ]
        )
        assert rc == 0 and out.exists()
        # the file's max-disp bounds the labels below the true shift of 8
        assert read_disparity_pgm(out, scale_factor=8).labels.max() <= 5
        # the flags' single scale of 6 sweeps beat the file's two scales
        assert _trace_rows(out)[-1][:2] == ["0", "6"]
        assert {row[0] for row in _trace_rows(out)} == {"0"}


def _trace_rows(out):
    lines = out.with_suffix(".pgm.trace.csv").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _match(paths, out, *flags):
    return main(
        [
            "match",
            "--left", str(paths["left"]),
            "--right", str(paths["right"]),
            "--out", str(out),
            *flags,
        ]
    )


class TestConfigFile:
    def test_values_take_effect(self, tmp_path, capsys):
        paths = _synth(tmp_path, shift=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_disp = 6\nscales = 2\nborder = 5\n")
        truth = ["--truth", str(paths["truth"]), "--trace"]
        assert _match(paths, tmp_path / "cfg.pgm", "--config", str(cfg), *truth) == 0
        from_file = capsys.readouterr().out
        flags = ["--max-disp", "6", "--scales", "2", "--border", "5"]
        assert _match(paths, tmp_path / "flags.pgm", *flags, *truth) == 0
        assert from_file == capsys.readouterr().out
        assert _sha(tmp_path / "cfg.pgm") == _sha(tmp_path / "flags.pgm")
        assert read_disparity_pgm(tmp_path / "cfg.pgm", 8).labels.max() <= 5
        assert {row[0] for row in _trace_rows(tmp_path / "cfg.pgm")} == {"0", "1"}

    @pytest.mark.parametrize("value, written", [("true", True), ("False", False)])
    def test_trace_boolean(self, tmp_path, value, written):
        paths = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trace = {value}\nmax-disp = 4\nsweeps = 1,1,1,1\n")
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--config", str(cfg)) == 0
        assert out.with_suffix(".pgm.trace.csv").exists() is written

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("topk = 5", "unknown config key: topk"),
            ("threads = 2", "unknown config key: threads"),
            ("trace = yes", "trace must be true or false"),
        ],
    )
    def test_bad_key_exits_one(self, tmp_path, capsys, line, reason):
        paths = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--config", str(cfg), "--max-disp", "4") == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp:") and reason in err
        assert not out.exists()


class TestOutputEncoding:
    @pytest.mark.parametrize(
        "flags",
        [["--disp-scale", "0"], ["--disp-scale", "-1"],
         ["--max-disp", "33", "--disp-scale", "8"]],
    )
    def test_match_rejects_before_compute(self, tmp_path, capsys, flags):
        paths = _synth(tmp_path)
        out = tmp_path / "o.pgm"
        assert _match(paths, out, *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp: --") and "--disp-scale" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_eval_rejects_zero_scale(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(
            ["eval", "--result", str(paths["truth"]), "--truth", str(paths["truth"]),
             "--disp-scale", "0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--disp-scale", "0"],
         ["--width", "256", "--height", "256", "--shift", "40", "--disp-scale", "8"]],
    )
    def test_synth_rejects_and_writes_nothing(self, tmp_path, flags):
        rc = main(
            [
                "synth", *flags,
                "--out-left", str(tmp_path / "l.pgm"),
                "--out-right", str(tmp_path / "r.pgm"),
                "--out-truth", str(tmp_path / "t.pgm"),
            ]
        )
        assert rc == 1
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_identical_files(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(
            [
                "eval",
                "--result", str(paths["truth"]),
                "--truth", str(paths["truth"]),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("0.000000,1.0,")

    def test_hand_counted_rate(self, tmp_path, capsys):
        res = tmp_path / "res.pgm"
        tru = tmp_path / "tru.pgm"
        write_pgm(DisparityMap(np.array([[3, 5, 0, 0]], dtype=np.int32), 8), res)
        write_pgm(DisparityMap(np.array([[3, 3, 0, 2]], dtype=np.int32), 8), tru)
        rc = main(["eval", "--result", str(res), "--truth", str(tru)])
        assert rc == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[0]) == pytest.approx(0.5)  # 2 of 4 off by 2
        assert out[2] == "4"

    def test_dimension_mismatch_names_both_sizes(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(DisparityMap(np.zeros((2, 2), dtype=np.int32), 8), a)
        write_pgm(DisparityMap(np.zeros((3, 3), dtype=np.int32), 8), b)
        rc = main(["eval", "--result", str(a), "--truth", str(b)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2x2" in err and "3x3" in err
