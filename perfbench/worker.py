"""Timed part of one benchmark run, in its own single-threaded process.

Runs `stereo_bp.cli.main(argv)` in a closed loop, one match after another,
for the given number of seconds. An untraced run cycles through the run's
fixtures and times each whole match; a traced run alternates untraced and
traced matches of the first fixture, timing the layers of the traced ones
with shims (see shims.py). Every match goes through the correctness gate.
Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload NAME --dir DIR --seconds S --trace 0|1
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np

from perfbench import gate, shims
from perfbench.fixture import FILES
from perfbench.workloads import WINDOW, WORKLOADS

# Fewest traced matches, and untraced ones, of a traced run.
MIN_EACH_TRACED = 2


@dataclass
class Outcome:
    traced: bool
    seconds: float = 0.0
    error: str | None = None
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # wrap targets not found


class Matcher:
    """Runs and gates the matches of one workload on one fixture, the
    left/right/truth PGM files in `directory`."""

    def __init__(self, workload, directory, cli):
        self.w = workload
        self.cli = cli
        self.left, self.right, truth = (os.path.join(directory, f) for f in FILES)
        self.out = os.path.join(directory, "disparity.pgm")
        self.argv = workload.match_argv(self.left, self.right, truth, self.out)
        self.shape = (workload.size, workload.size)
        with open(truth, "rb") as fp:
            self.truth = gate.decode_disparity(
                fp.read(), self.shape, workload.levels, workload.disp_scale)
        self.reference = None  # output bytes of the first good match

    def run(self, traced):
        """One match, timed and gated."""
        outcome = Outcome(traced)
        if os.path.exists(self.out):
            os.remove(self.out)
        tracer = shims.Tracer()
        if traced:
            tracer.install()
        printed = io.StringIO()
        try:
            match = tracer.begin(shims.MATCH)
            with contextlib.redirect_stdout(printed):
                status = self.cli.main(self.argv)
            tracer.end(match)
        except (Exception, SystemExit):
            outcome.error = "match raised:\n" + traceback.format_exc()
            return outcome
        finally:
            tracer.uninstall()
        outcome.seconds = match.seconds
        if traced:
            outcome.layers = shims.layer_metrics(tracer)
            outcome.missing = tracer.missing
        if status != 0:
            outcome.error = f"match exited with status {status}"
            return outcome
        try:
            self.check(traced, printed.getvalue())
        except (OSError, gate.GateError) as err:
            outcome.error = str(err)
        return outcome

    def check(self, traced, printed):
        with open(self.out, "rb") as fp:
            raster = fp.read()
        labels = gate.decode_disparity(
            raster, self.shape, self.w.levels, self.w.disp_scale)
        rate = gate.bad_pixel_rate(labels, self.truth, self.w.border)
        if rate > self.w.max_bad_rate:
            raise gate.GateError(
                f"bad-pixel rate {rate:.6f} exceeds the sanity bound "
                f"{self.w.max_bad_rate}")
        if self.reference is None:
            self.reference = raster
        elif raster != self.reference:
            kind = "traced" if traced else "untraced"
            raise gate.GateError(f"{kind} disparity differs from the first match's")
        try:
            printed_rate = float(printed.split(",", 1)[0])
        except ValueError:
            raise gate.GateError(f"match printed {printed!r}, not a score") from None
        if abs(printed_rate - rate) > 5e-7:
            raise gate.GateError(
                f"match printed bad-pixel rate {printed_rate}, the gate finds {rate}")

    def labels(self):
        return gate.decode_disparity(
            self.reference, self.shape, self.w.levels, self.w.disp_scale)


def closed_loop(matchers, seconds, trace):
    """Matches one after another until `seconds` have passed and the
    minimum is met: every fixture once and the first one again, or for a
    traced run MIN_EACH_TRACED matches of each kind."""
    if trace:
        plan = itertools.cycle([(matchers[0], False), (matchers[0], True)])
        minimum = 2 * MIN_EACH_TRACED
    else:
        plan = itertools.cycle([(m, False) for m in matchers])
        minimum = len(matchers) + 1
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < minimum or time.perf_counter() - start < seconds:
        matcher, traced = next(plan)
        outcomes.append(matcher.run(traced))
    return outcomes


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def final_energy(matcher, stereo_bp):
    """Energy of the output on the finest cost volume, which is built here,
    outside the timed region."""
    volume = stereo_bp.build_cost_volume(
        stereo_bp.read_pgm(matcher.left), stereo_bp.read_pgm(matcher.right),
        matcher.w.levels, stereo_bp.NccParams(window_radius=WINDOW))
    return stereo_bp.labeling_energy(
        volume, stereo_bp.DisparityMap(matcher.labels().astype(np.int32)),
        stereo_bp.SmoothnessParams())


def end_to_end(matchers, good, stereo_bp):
    """Median match time; accuracy as the mean over the run's fixtures
    (each scores the same number of pixels)."""
    w = matchers[0].w
    match_s = statistics.median(o.seconds for o in good)
    values = {
        "match_s": (match_s, "s"),
        "mpxl_per_s": (w.size * w.size * w.levels / match_s / 1e6, "Mpxl/s"),
        "bad_pixel_rate": (statistics.fmean(
            gate.bad_pixel_rate(m.labels(), m.truth, w.border) for m in matchers), "ratio"),
        "final_energy": (statistics.fmean(
            final_energy(m, stereo_bp) for m in matchers), "energy"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(good):
    untraced = [o.seconds for o in good if not o.traced]
    traced = [o for o in good if o.traced]
    # Means, not medians, so that the self times still add up to match_s.
    totals = {}
    for o in traced:
        for k, v in o.layers.items():
            totals[k] = totals.get(k, 0.0) + v
    metrics = {k: v / len(traced) for k, v in totals.items()}
    traced_s = statistics.fmean(o.seconds for o in traced)
    metrics["trace.overhead_s"] = traced_s - statistics.fmean(untraced)
    detail = {
        "traced_match_s": traced_s,
        "self_time_sum_s": sum(metrics.get(k, 0.0) for k in shims.SELF_TIME_METRICS.values()),
        "missing_targets": traced[0].missing,
    }
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}, detail


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import stereo_bp
    from stereo_bp import cli

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(stereo_bp.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: stereo_bp imported from {stereo_bp.__file__}, not {src}")

    w = WORKLOADS[args.workload]
    matchers = [Matcher(w, os.path.join(args.dir, str(i)), cli) for i in range(w.fixtures)]
    outcomes = closed_loop(matchers, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    good = [o for o in outcomes if o.error is None]
    for o in outcomes:
        if o.error is not None:
            print(f"perfbench: {args.workload}: {o.error}", file=sys.stderr)
    result = {
        "correct": len(good) == len(outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
        "metrics": {},
        "detail": {
            "match_seconds": [o.seconds for o in outcomes],
            "traced": [o.traced for o in outcomes],
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if result["correct"]:
        if args.trace:
            result["metrics"], extra = per_layer(good)
            result["detail"].update(extra)
        else:
            result["metrics"] = end_to_end(matchers, good, stereo_bp)
            result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
