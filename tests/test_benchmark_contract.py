"""The benchmark harness runs end to end on the checkout and ends with the
strict JSON summary that BENCHMARK.json's metrics are read from, untraced
(the end-to-end metrics) and traced (the per-layer ones).

The harness calls parts of the program outside `cli.main` (the fixture
writer, `build_cost_volume` and `labeling_energy` for the final energy),
so a renamed function or a changed signature fails here, not only in a
benchmark run.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _run(trace):
    """Run one rds256-l20 pass; return its stdout and its strict-JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rds256-l20", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert summary["correct"] is True and summary["failed"] == 0
    return proc.stdout, summary


def test_untraced_run_ends_with_strict_json():
    _, summary = _run(trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        value = summary["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value > 0, (metric["name"], value)


def test_traced_run_reports_every_per_layer_metric():
    # every wrap target must be found, or its metrics silently go missing;
    # trace.overhead_s is a difference of noisy means and may be negative
    stdout, summary = _run(trace=1)
    assert "not found" not in stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        assert metric["name"] in summary["metrics"], metric["name"]
        value = summary["metrics"][metric["name"]]["value"]
        assert math.isfinite(value), (metric["name"], value)
