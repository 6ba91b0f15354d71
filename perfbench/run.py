"""Benchmark of the stereo-bp matcher.

Times whole `stereo-bp match` runs (PGM read -> NCC volume -> pyramid BP
-> PGM write -> score) on seeded random-dot stereograms, checks every
output, and prints each metric with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload rds256-l20 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out BENCH.json

Each run is a fresh process tree started from the checkout, with the
program imported from its `src/`:
  1. set-up, SETUP_REPEATS times in fresh processes (fixture.py): import,
     synthesize the run's stereograms, write the PGM files; setup_s is the
     median;
  2. the timed closed loop in one single-threaded process (worker.py).
All of them run on one CPU.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
from a run that interleaves traced and untraced matches. --workload all
runs every workload both ways. The exit status is 0 only when every
match passed the correctness gate.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 5
TIME_LIMIT_S = 170  # one workload run, set-up included
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


class BenchError(RuntimeError):
    """A step of the benchmark itself failed; no result can be given."""


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(script, args, deadline):
    """Run a benchmark script in a fresh process; return its last stdout
    line as JSON."""
    argv = [sys.executable, os.path.join(ROOT, "perfbench", script), *args]
    try:
        proc = subprocess.run(
            argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {TIME_LIMIT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(WORK_DIR, f"{name}-{seed}-{trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup = [
            run_child("fixture.py", ["--workload", name, "--seed", str(seed),
                                     "--dir", work], deadline)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        result = run_child("worker.py", ["--workload", name, "--dir", work,
                                         "--seconds", str(seconds),
                                         "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it
    if result["correct"] and not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result["detail"]["setup_seconds"] = setup
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return result


def commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(runs, usable):
    detail = runs[0]["detail"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(usable),
        "pinned_cpu": max(usable),
        "cpu": cpu_model(),
        "python": detail["python"],
        "numpy": detail["numpy"],
        "commit": commit(),
    }


def report(run):
    """Human-readable lines of one workload run."""
    name, n, failed = run["workload"], run["attempted"], run["failed"]
    kind = "traced" if run["trace"] else "untraced"
    print(f"# {name} seed {run['seed']} {kind}: {n} matches, {failed} failed, "
          f"one single-threaded process")
    seconds = " ".join(f"{t:.4g}" for t in run["detail"]["match_seconds"])
    print(f"# {name} match seconds, in order: {seconds}")
    for metric, m in run["metrics"].items():
        note = f"  (median of {n} matches)" if metric == "match_s" else ""
        print(f"{name:18} {metric:28} {m['value']:.6g} {m['unit']}{note}")
    if not run["trace"]:
        print(f"{name:18} {'failed_share':28} {failed / n:.6g} share  ({failed} of {n})")
    else:
        detail = run["detail"]
        print(f"{name:18} {'traced match_s':28} {detail['traced_match_s']:.6g} s"
              f"  (self times incl. cli.self_s sum to {detail['self_time_sum_s']:.6g} s)")
        for target in run["detail"]["missing_targets"]:
            print(f"{name:18} wrap target {target} not found; its metrics are absent")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "stereo_bp")):
        sys.exit(f"perfbench: no program to measure: {ROOT}/src/stereo_bp is missing")

    # Every process of the run shares one CPU, the highest-numbered (CPU 0
    # tends to serve the machine's interrupts and other work): set-up and
    # match times vary less than when the scheduler moves them.
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(usable)})

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    runs = []
    try:
        for name, trace in plan:
            runs.append(run_workload(name, args.seed, args.seconds, trace))
            report(runs[-1])
    except BenchError as err:
        sys.exit(f"perfbench: {err}")

    record = {"provenance": provenance(runs, usable), "runs": runs}
    print("# " + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(record, fp, indent=1)
            fp.write("\n")
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        summary["metrics"] = {f"{r['workload']}/{k}": m
                              for r in runs for k, m in r["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
