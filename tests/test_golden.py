"""Golden outputs: sha256 of the disparity PGM and the trace CSV of two
small synthetic runs, one per schedule. Any change to the message
arithmetic, its order of evaluation or the trace format shows up here;
refactors of the BP engine must keep these bytes.
"""

import hashlib

import pytest

from stereo_bp.cli import main

GOLDEN = {
    "fast-64x48-l12": (
        dict(width=64, height=48, shift=4, seed=3),
        ["--max-disp", "12"],
        "f6ce6ad93be09de018603ef537d2194c00b37f4f33bb810447d2c542b70fa000",
        "16f8d16d9d2f5d0562deb61bcae1cec49790c660ea76b75dfbf4315c789921fa",
    ),
    "full-40x40-l16": (
        dict(width=40, height=40, shift=6, seed=5),
        ["--max-disp", "16", "--schedule", "full"],
        "8c9065d33a946789348c24f616bfa49bec360b30392814fa9a09a6494d9559e8",
        "8d99e3922ebf5836f2d7b469571dfb337b8a21e6a1511b876730201473f6013e",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_hashes(tmp_path, name):
    synth, flags, disp_sha, trace_sha = GOLDEN[name]
    paths = {k: tmp_path / f"{k}.pgm" for k in ("left", "right", "truth")}
    assert main(["synth", *(f"--{k}={v}" for k, v in synth.items()),
                 "--out-left", str(paths["left"]), "--out-right", str(paths["right"]),
                 "--out-truth", str(paths["truth"])]) == 0
    out = tmp_path / "disp.pgm"
    assert main(["match", "--left", str(paths["left"]), "--right", str(paths["right"]),
                 "--out", str(out), "--trace", *flags]) == 0
    assert _sha(out) == disp_sha
    assert _sha(tmp_path / "disp.pgm.trace.csv") == trace_sha
