import hashlib

import numpy as np
import pytest

from stereo_bp import read_disparity_pgm, read_pgm, write_pgm, DisparityMap, GrayImage
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

    def test_sweeps_alone_set_the_depth(self, tmp_path):
        paths = _synth(tmp_path)
        out = tmp_path / "d.pgm"
        assert _match(paths, out, "--max-disp", "6", "--sweeps", "6", "--trace") == 0
        assert {row[0] for row in _trace_rows(out)} == {"0"}

    def test_schedule_full_is_epsilon_zero(self, tmp_path):
        paths = _synth(tmp_path)
        outputs = []
        for name, flags in [("full", ["--schedule", "full", "--epsilon", "1e-3"]),
                            ("fast", ["--schedule", "fast", "--epsilon", "0"])]:
            out = tmp_path / f"{name}.pgm"
            assert _match(paths, out, "--max-disp", "6", "--trace", *flags) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".pgm.trace.csv").read_bytes()))
        assert outputs[0] == outputs[1]


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

    def test_file_supplies_the_paths(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        lines = [f"left = {paths['left']}", f"right = {paths['right']}",
                 "max-disp = 6", "scales = 2"]
        cfg.write_text("\n".join(lines + [f"out = {tmp_path / 'cfg.pgm'}"]) + "\n")
        assert main(["match", "--config", str(cfg)]) == 0
        assert _match(paths, tmp_path / "flags.pgm", "--max-disp", "6", "--scales", "2") == 0
        assert _sha(tmp_path / "cfg.pgm") == _sha(tmp_path / "flags.pgm")
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["match", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "stereo-bp: --out is required\n"

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
        cfg.write_text(f"# one bad key\n{line}\n")
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--config", str(cfg), "--max-disp", "4") == 1
        assert capsys.readouterr().err == f"stereo-bp: {cfg}:2: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("first, repeat", [("max-disp = 4", "max-disp = 6"),
                                               ("max_disp = 4", "max-disp = 4"),
                                               ("trace = true", "trace = false")])
    def test_repeated_key_exits_one(self, tmp_path, capsys, first, repeat):
        paths = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{first}\nscales = 2\n\n{repeat}\n")
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--config", str(cfg)) == 1
        key = first.split("=")[0].strip().replace("-", "_")
        assert capsys.readouterr().err == f"stereo-bp: {cfg}:4: {key} is set twice\n"
        assert not out.exists()

    def test_quoted_hash_is_part_of_the_value(self, tmp_path):
        spaced = tmp_path / "a dir"
        spaced.mkdir()
        paths = _synth(spaced)
        out = tmp_path / "run#1.pgm"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"left = {paths['left']}  # unquoted, spaces kept\n"
                       f"right = '{paths['right']}'\n"
                       f'out = "{out}"  # a quoted # is kept\n'
                       "max-disp = 4\nsweeps = 1,1,1,1\n")
        assert main(["match", "--config", str(cfg)]) == 0
        assert out.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ['max-disp = "4', "out = 'o.pgm",
                                      'max-disp = "4" 5'])
    def test_unmatched_quote_exits_one(self, tmp_path, capsys, line):
        paths = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# quoting\n{line}\n")
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--config", str(cfg)) == 1
        assert capsys.readouterr().err.startswith(f"stereo-bp: {cfg}:2: unmatched quote")
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


def _random_pair(tmp_path, height, width, seed=0):
    rng = np.random.default_rng(seed)
    paths = {k: tmp_path / f"{k}.pgm" for k in ("left", "right")}
    for path in paths.values():
        samples = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        write_pgm(GrayImage(samples), path)
    return paths


class TestEdgeShapes:
    @pytest.mark.parametrize(
        "height, width, flags, levels",
        [
            (1, 17, [], 20),
            (17, 1, [], 20),
            (7, 13, [], 20),
            (9, 9, ["--max-disp", "1"], 1),
            (5, 7, ["--window", "5"], 20),
            (8, 8, ["--scales", "4"], 20),
        ],
    )
    def test_match_decodes_to_input_shape(self, tmp_path, height, width, flags, levels):
        paths = _random_pair(tmp_path, height, width)
        out = tmp_path / "o.pgm"
        assert _match(paths, out, *flags) == 0
        labels = read_disparity_pgm(out, scale_factor=8).labels
        assert labels.shape == (height, width)
        assert labels.min() >= 0 and labels.max() < levels

    def test_one_row_stereogram_scores(self, tmp_path, capsys):
        paths = _synth(tmp_path, width=32, height=1, shift=3)
        assert np.all(read_disparity_pgm(paths["truth"], 8).labels[0, 8:24] == 3)
        assert _match(paths, tmp_path / "o.pgm", "--truth", str(paths["truth"])) == 0
        assert capsys.readouterr().out.count(",") == 4

    def test_scale_past_one_pixel_exits_one(self, tmp_path, capsys, monkeypatch):
        def no_volume(*args):
            raise AssertionError("the depth is checked before the cost volume")

        monkeypatch.setattr("stereo_bp.cli.build_cost_volume", no_volume)
        paths = _random_pair(tmp_path, 8, 8)
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--scales", "5") == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp:") and err.count("\n") == 1
        assert not out.exists()

    def test_border_past_the_width_exits_before_the_volume(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_volume(*args):
            raise AssertionError("the border is checked before the cost volume")

        monkeypatch.setattr("stereo_bp.cli.build_cost_volume", no_volume)
        paths = _synth(tmp_path)
        out = tmp_path / "o.pgm"
        assert _match(paths, out, "--truth", str(paths["truth"]), "--border", "48") == 1
        assert capsys.readouterr().err == (
            "stereo-bp: --border 48 leaves no column of the 48-pixel-wide image to score\n")
        assert not out.exists()


class TestFailFast:
    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--scales", "4", "--sweeps", "3,3"], "--scales 4 but --sweeps has 2 budgets"),
            (["--sweeps", "3,x"], "--sweeps takes comma-separated integers"),
            (["--sweeps", "0,1,1,1"], "sweep budget must be >= 1"),
            (["--scales", "0"], "--scales must be >= 1"),
            (["--max-disp", "0"], "--max-disp must be >= 1"),
            (["--window", "0"], "window_radius must be >= 1"),
            (["--epsilon", "-1"], "epsilon must be >= 0"),
            (["--epsilon", "nan"], "epsilon must be >= 0"),
            (["--threshold", "nan"], "threshold must be > 0"),
            (["--threshold", "0"], "threshold must be > 0"),
            (["--border", "-1"], "border must be >= 0"),
        ],
    )
    def test_bad_config_rejected_before_reading(self, tmp_path, capsys, flags, reason):
        paths = {"left": tmp_path / "nope.pgm", "right": tmp_path / "nope.pgm"}
        out = tmp_path / "o.pgm"
        assert _match(paths, out, *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("stereo-bp:") and reason in err
        assert not out.exists()


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

    def test_negative_border_exits_one(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["eval", "--result", str(paths["truth"]), "--truth", str(paths["truth"]),
                   "--border", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "stereo-bp: border must be >= 0, got -1\n"

    def test_border_covering_the_width_exits_one(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["eval", "--result", str(paths["truth"]), "--truth", str(paths["truth"]),
                   "--border", "48"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("stereo-bp: nothing to score")
        assert captured.out == ""

    def test_dimension_mismatch_names_both_sizes(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(DisparityMap(np.zeros((2, 2), dtype=np.int32), 8), a)
        write_pgm(DisparityMap(np.zeros((3, 3), dtype=np.int32), 8), b)
        rc = main(["eval", "--result", str(a), "--truth", str(b)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2x2" in err and "3x3" in err
