"""The package exports exactly what the README documents, and every
`stereo_bp.<name>` the benchmark harness uses resolves."""

import inspect
import re
from pathlib import Path

import stereo_bp
import stereo_bp.cli  # noqa: F401  (the harness reaches stereo_bp.cli)

DOCUMENTED = sorted([
    "BpConfig", "SmoothnessParams", "labeling_energy",
    "CostVolume", "NccParams", "build_cost_volume",
    "EvalReport", "bad_pixel_rate", "make_stereogram",
    "PyramidConfig", "run_hierarchical",
    "INVALID", "DisparityMap", "GrayImage", "PgmError", "read_disparity_pgm",
    "read_pgm", "write_pgm",
])

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exports_are_the_documented_names():
    public = sorted(
        name for name in dir(stereo_bp)
        if not name.startswith("_") and not inspect.ismodule(getattr(stereo_bp, name))
    )
    assert public == DOCUMENTED


def test_names_the_benchmark_uses_resolve():
    used = set()
    for script in ("worker.py", "fixture.py"):
        used |= set(re.findall(r"\bstereo_bp\.(\w+)", (PERFBENCH / script).read_text()))
    assert used
    assert [name for name in sorted(used) if not hasattr(stereo_bp, name)] == []
