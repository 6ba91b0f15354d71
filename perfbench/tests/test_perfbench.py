"""Tests of the benchmark's own logic: span arithmetic, wrap targets that
have gone away, and the correctness gate."""

import itertools
import json
import os
import types

import pytest

import stereo_bp
from stereo_bp import cli
from perfbench import shims
from perfbench.fixture import FILES
from perfbench.worker import Matcher, closed_loop
from perfbench.workloads import WORKLOADS, Workload


def ticking_clock():
    """A clock that advances by one second per reading."""
    return itertools.count().__next__


def fake_engine():
    """A module shaped like bp_engine: run_bp calls sweep three times."""
    mod = types.ModuleType("fake_engine")

    def sweep(volume, fld, mask, config):
        return 5

    def run_bp(volume, fld, config, trace=None, scale=None):
        return sum(mod.sweep(volume, fld, None, config) for _ in range(3))

    mod.sweep, mod.run_bp = sweep, run_bp
    volume = types.SimpleNamespace(height=2, width=5)
    fld = types.SimpleNamespace(prev=bytearray(8), cur=bytearray(8))
    return mod, volume, fld


def describe(name):
    return next(t[3] for t in shims.TARGETS if t[2] == name)


def test_self_times_partition_the_match():
    tracer = shims.Tracer(clock=ticking_clock())
    mod, volume, fld = fake_engine()
    tracer.wrap(mod, "sweep", "bp_engine.sweep", describe("bp_engine.sweep"))
    tracer.wrap(mod, "run_bp", "bp_engine.run", describe("bp_engine.run"))
    match = tracer.begin(shims.MATCH)
    assert mod.run_bp(volume, fld, None, trace=[], scale=1) == 15
    tracer.end(match)

    # clock: match 0..9, run 1..8, sweeps 2-3, 4-5, 6-7
    assert [s.seconds for s in tracer.spans] == [9, 7, 1, 1, 1]
    assert tracer.self_times() == [2, 4, 1, 1, 1]
    m = shims.layer_metrics(tracer)
    assert m["cli.self_s"] == 2
    assert m["bp_engine.run_self_s"] == 4
    assert m["bp_engine.sweep_s"] == 3
    assert m["hierarchy.scale1.bp_s"] == 7
    assert m["bp_engine.sweeps"] == 3
    assert m["bp_engine.scale1.sweeps"] == 3
    assert m["bp_engine.updates"] == 15
    assert m["bp_engine.useful_ratio"] == 15 / 30
    assert sum(m[k] for k in shims.SELF_TIME_METRICS.values() if k in m) == match.seconds


def test_missing_wrap_target_makes_metric_absent():
    tracer = shims.Tracer(clock=ticking_clock())
    mod, volume, fld = fake_engine()
    del mod.sweep
    tracer.install([
        ("no_such_module_anywhere", "f", "pixmap_io.read", None),
    ])
    assert tracer.wrap(mod, "sweep", "bp_engine.sweep") is False
    # run_bp whose signature no longer carries a scale: counts are dropped
    assert tracer.wrap(mod, "run_bp", "bp_engine.run",
                       lambda a, k, r: {"scale": k["scale"]})
    mod.sweep = lambda *a: 1
    match = tracer.begin(shims.MATCH)
    assert mod.run_bp(volume, fld, None) == 3
    tracer.end(match)

    assert tracer.missing == ["no_such_module_anywhere.f", "fake_engine.sweep"]
    m = shims.layer_metrics(tracer)
    assert "bp_engine.sweep_s" not in m and "bp_engine.sweeps" not in m
    assert not any(k.startswith("hierarchy.scale") for k in m)
    assert m["bp_engine.run_self_s"] + m["cli.self_s"] == match.seconds
    tracer.uninstall()


def test_uninstall_restores_originals():
    mod, _, _ = fake_engine()
    before = (mod.sweep, mod.run_bp)
    tracer = shims.Tracer()
    tracer.wrap(mod, "sweep", "bp_engine.sweep")
    tracer.wrap(mod, "run_bp", "bp_engine.run")
    assert mod.sweep is not before[0] and mod.run_bp is not before[1]
    tracer.uninstall()
    assert (mod.sweep, mod.run_bp) == before


def test_workload_rejects_disparity_scale_overflow():
    with pytest.raises(ValueError, match="exceeds 255"):
        Workload(name="x", size=128, shift=12, levels=64, sweeps="20",
                 schedule="full", disp_scale=8, max_bad_rate=1.0, why="")


TINY = Workload(name="tiny", size=32, shift=3, levels=8, sweeps="2,2",
                schedule="fast", disp_scale=8, max_bad_rate=0.5, why="")


@pytest.fixture
def matcher(tmp_path):
    left, right, truth = stereo_bp.make_stereogram(TINY.size, TINY.size, TINY.shift, 3)
    truth.scale_factor = TINY.disp_scale
    for image, name in zip((left, right, truth), FILES):
        stereo_bp.write_pgm(image, str(tmp_path / name))
    return Matcher(TINY, str(tmp_path), cli)


def test_traced_and_untraced_matches_agree(matcher):
    outcomes = closed_loop([matcher], 0, trace=1)
    assert [o.error for o in outcomes] == [None] * 4
    assert [o.traced for o in outcomes] == [False, True, False, True]
    for o in outcomes[1::2]:
        own = sum(o.layers.get(k, 0.0) for k in shims.SELF_TIME_METRICS.values())
        assert own == pytest.approx(o.seconds, abs=1e-9)


def corrupt_byte(path):
    with open(path, "r+b") as fp:
        fp.seek(-1, os.SEEK_END)
        last = fp.read(1)[0]
        fp.seek(-1, os.SEEK_END)
        fp.write(bytes([last ^ 8]))


def truncate(path):
    with open(path, "r+b") as fp:
        fp.truncate(os.path.getsize(path) - TINY.size)


def all_wrong(path):
    with open(path, "r+b") as fp:
        data = bytearray(fp.read())
        data[-TINY.size ** 2:] = bytes([7 * TINY.disp_scale]) * TINY.size ** 2
        fp.seek(0)
        fp.write(data)


@pytest.mark.parametrize("damage, reason", [
    (corrupt_byte, "differs from the first match"),
    (truncate, "raster bytes"),
    (all_wrong, "exceeds the sanity bound"),
])
def test_gate_rejects_a_corrupted_disparity(matcher, damage, reason):
    assert matcher.run(traced=False).error is None

    def corrupting_main(argv):
        status = cli.main(argv)
        damage(matcher.out)
        return status

    matcher.cli = types.SimpleNamespace(main=corrupting_main)
    error = matcher.run(traced=False).error
    assert error is not None and reason in error


@pytest.mark.parametrize("main, reason", [
    (lambda argv: 1, "status 1"),
    (lambda argv: 1 / 0, "ZeroDivisionError"),
])
def test_gate_rejects_a_failed_match(matcher, main, reason):
    matcher.cli = types.SimpleNamespace(main=main)
    error = matcher.run(traced=False).error
    assert error is not None and reason in error


def test_untraced_run_visits_every_fixture_and_repeats_one():
    class Fake:
        def __init__(self, name):
            self.name = name

        def run(self, traced):
            return (self.name, traced)

    assert closed_loop([Fake("a"), Fake("b"), Fake("c")], 0, trace=0) == [
        ("a", False), ("b", False), ("c", False), ("a", False)]


def test_benchmark_json_workloads_are_defined_here():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fp:
        listed = json.load(fp)["workloads"]
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in listed)
