"""Golden outputs: sha256 of the disparity PGM and the trace CSV of two
small synthetic runs, one per schedule, and of the disparity PGM, the
printed score line and the float32 NCC cost volume of the first fixture of
the two benchmark workloads, matched with the benchmark's flags. Any change
to the NCC or message arithmetic, its order of evaluation or the trace
format shows up here; refactors must keep these bytes.
"""

import hashlib

import numpy as np
import pytest

from stereo_bp import NccParams, build_cost_volume, make_stereogram
from stereo_bp.cli import main

GOLDEN = {
    "fast-64x48-l12": (
        dict(width=64, height=48, shift=4, seed=3),
        ["--max-disp", "12"],
        "f6ce6ad93be09de018603ef537d2194c00b37f4f33bb810447d2c542b70fa000",
        "0d74d6a86f014b107e8f467c0121c3fa578771859e03177e70482ed9ae3cb2bc",
    ),
    "full-40x40-l16": (
        dict(width=40, height=40, shift=6, seed=5),
        ["--max-disp", "16", "--schedule", "full"],
        "8c9065d33a946789348c24f616bfa49bec360b30392814fa9a09a6494d9559e8",
        "8d99e3922ebf5836f2d7b469571dfb337b8a21e6a1511b876730201473f6013e",
    ),
}


# The first seed-1 fixture of each benchmark workload: stereogram
# (size, shift, seed, disp_scale), the flags `perfbench/workloads.py`
# passes, and the sha256 of the disparity PGM and of the printed score line.
BENCHMARK = {
    "rds256-l20": (
        (256, 5, 4, 8),
        ["--max-disp", "20", "--scales", "4", "--sweeps", "10,10,10,20",
         "--schedule", "fast", "--epsilon", "0.001", "--window", "2",
         "--disp-scale", "8", "--threshold", "1.0", "--border", "20"],
        "a0ce8dd4d48fd76e836f0e6d282508b1546b7289706b7f2b25ccddd3f04ccd54",
        "2dd5732ce0b694850942a2b465e176e937c27c97fdaef930904d31d0f0ed5cc0",
    ),
    "rds128-l64-full": (
        (128, 12, 3, 4),
        ["--max-disp", "64", "--scales", "4", "--sweeps", "10,10,10,20",
         "--schedule", "full", "--epsilon", "0.001", "--window", "2",
         "--disp-scale", "4", "--threshold", "1.0", "--border", "64"],
        "9c8a859906ca8a3d3e28709e8db56bf21c66ca9b3e871ff8e560ac9c1c5a77e5",
        "b4445ab75516a82e0fbf93dff22fdb369c2e0d1e158dc07099db097c722305da",
    ),
}


# sha256 of the cost volume of those fixtures, built with their --max-disp
# and --window, as label-major (L, H, W) float32 bytes: the NCC bits alone.
COST_VOLUME = {
    "rds256-l20": "06ba2cb3b6bea7dcdf57937ff0828ebcb1256a56a2b93779f86f84e60ad0f3be",
    "rds128-l64-full": "e24a08cb0adc6dac81ab3bd36a455f0d2c78955444f533320166b644cbc67b03",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth(tmp_path, width, height, shift, seed, disp_scale=8):
    paths = {k: tmp_path / f"{k}.pgm" for k in ("left", "right", "truth")}
    assert main(["synth", f"--width={width}", f"--height={height}", f"--shift={shift}",
                 f"--seed={seed}", f"--disp-scale={disp_scale}",
                 "--out-left", str(paths["left"]), "--out-right", str(paths["right"]),
                 "--out-truth", str(paths["truth"])]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_hashes(tmp_path, name):
    synth, flags, disp_sha, trace_sha = GOLDEN[name]
    paths = _synth(tmp_path, **synth)
    out = tmp_path / "disp.pgm"
    assert main(["match", "--left", str(paths["left"]), "--right", str(paths["right"]),
                 "--out", str(out), "--trace", *flags]) == 0
    assert _sha(out) == disp_sha
    assert _sha(tmp_path / "disp.pgm.trace.csv") == trace_sha


@pytest.mark.parametrize("name", sorted(BENCHMARK))
def test_benchmark_fixture_matches_recorded_hashes(tmp_path, capsys, name):
    (size, shift, seed, disp_scale), flags, disp_sha, score_sha = BENCHMARK[name]
    paths = _synth(tmp_path, size, size, shift, seed, disp_scale)
    out = tmp_path / "disp.pgm"
    capsys.readouterr()
    assert main(["match", "--left", str(paths["left"]), "--right", str(paths["right"]),
                 "--truth", str(paths["truth"]), "--out", str(out), *flags]) == 0
    score = capsys.readouterr().out
    assert _sha(out) == disp_sha
    assert hashlib.sha256(score.encode()).hexdigest() == score_sha


@pytest.mark.parametrize("name", sorted(COST_VOLUME))
def test_benchmark_cost_volume_matches_recorded_hash(name):
    (size, shift, seed, _), flags, _, _ = BENCHMARK[name]
    levels = int(flags[flags.index("--max-disp") + 1])
    radius = int(flags[flags.index("--window") + 1])
    left, right, _ = make_stereogram(size, size, shift, seed)
    vol = build_cost_volume(left, right, levels, NccParams(window_radius=radius))
    assert vol.costs.dtype == np.float32 and vol.costs.flags.c_contiguous
    assert hashlib.sha256(vol.costs.tobytes()).hexdigest() == COST_VOLUME[name]
