"""Per-layer spans recorded from outside the program.

A `Tracer` replaces the public functions each module calls with timing
shims, keeps the spans in memory, and turns them into per-layer metrics
when the run ends. A layer's self time is its span minus the spans of the
calls it made. A wrap target that no longer exists is skipped, so the
metrics built from it are absent rather than the run failed.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    info: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _array_bytes(obj):
    """nbytes of every numpy array held as an attribute of `obj`."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _scale_of(args, kwargs):
    return kwargs["scale"] if "scale" in kwargs else args[4]


# (module, attribute, span name, describe(args, kwargs, result) -> info).
# The attribute is the name the caller looks up: cli imported
# build_cost_volume by name, so the shim replaces cli's binding, while
# hierarchy and bp_engine resolve their callees as their own globals.
TARGETS = (
    ("stereo_bp.pixmap_io", "read_pgm", "pixmap_io.read", None),
    ("stereo_bp.pixmap_io", "read_disparity_pgm", "pixmap_io.read", None),
    ("stereo_bp.pixmap_io", "write_pgm", "pixmap_io.write", None),
    ("stereo_bp.cli", "build_cost_volume", "cost_volume.build",
     lambda a, k, r: {"bytes": r.costs.nbytes}),
    ("stereo_bp.hierarchy", "build_pyramid", "hierarchy.pyramid", None),
    ("stereo_bp.hierarchy", "lift_messages", "hierarchy.lift", None),
    ("stereo_bp.hierarchy", "run_bp", "bp_engine.run",
     lambda a, k, r: {"scale": _scale_of(a, k), "msg_bytes": _array_bytes(a[1])}),
    ("stereo_bp.hierarchy", "extract_disparity", "hierarchy.extract", None),
    ("stereo_bp.bp_engine", "sweep", "bp_engine.sweep",
     lambda a, k, r: {"updates": int(r), "pixels": a[0].height * a[0].width}),
    # run_bp's per-sweep energy trace: argmin plus labeling energy.
    ("stereo_bp.bp_engine", "extract_disparity", "bp_engine.energy_trace", None),
    ("stereo_bp.bp_engine", "labeling_energy", "bp_engine.energy_trace", None),
    ("stereo_bp.evaluation", "bad_pixel_rate", "evaluation.score", None),
)

# The span that wraps one whole match; its self time is the CLI's own.
MATCH = "cli.match"

# Span name -> per-layer metric holding the sum of those spans' self times.
# Together they partition the match span.
SELF_TIME_METRICS = {
    "pixmap_io.read": "pixmap_io.read_s",
    "pixmap_io.write": "pixmap_io.write_s",
    "cost_volume.build": "cost_volume.build_s",
    "hierarchy.pyramid": "hierarchy.pyramid_s",
    "hierarchy.lift": "hierarchy.lift_s",
    "hierarchy.extract": "hierarchy.extract_s",
    "bp_engine.run": "bp_engine.run_self_s",
    "bp_engine.sweep": "bp_engine.sweep_s",
    "bp_engine.energy_trace": "bp_engine.energy_trace_s",
    "evaluation.score": "evaluation.score_s",
    MATCH: "cli.self_s",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.missing = []  # wrap targets that do not exist
        self._open = []  # indices of the spans still running
        self._patched = []  # (module, attribute, original)

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = self.clock()
        self._open.pop()

    def wrap(self, module, attr, name, describe=None):
        """Replace `module.attr` with a shim that records a `name` span per
        call. Returns False, and notes the target, when it does not exist."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        tracer = self

        def shim(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if describe is not None:
                try:
                    span.info = describe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the run
            return result

        setattr(module, attr, shim)
        self._patched.append((module, attr, original))
        return True

    def install(self, targets=TARGETS):
        for module_name, attr, name, describe in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.wrap(module, attr, name, describe)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Each span's duration minus the durations of its direct children
        (calls are nested, so children never overlap)."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


def layer_metrics(tracer):
    """Per-layer metrics of the spans of one match. A metric whose spans
    never happened is absent."""
    spans = tracer.spans
    own = tracer.self_times()
    out = {}
    for span, seconds in zip(spans, own):
        metric = SELF_TIME_METRICS.get(span.name)
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + seconds

    for span in spans:
        if span.name == "cost_volume.build" and "bytes" in span.info:
            out["cost_volume.bytes"] = span.info["bytes"]

    runs = [s for s in spans if s.name == "bp_engine.run" and "scale" in s.info]
    for run in runs:
        key = f"hierarchy.scale{run.info['scale']}.bp_s"
        out[key] = out.get(key, 0.0) + run.seconds
        if run.info["scale"] == 0:
            out["bp_engine.msg_bytes"] = run.info["msg_bytes"]

    sweeps = [s for s in spans if s.name == "bp_engine.sweep"]
    if sweeps:
        out["bp_engine.sweeps"] = len(sweeps)
    for s in sweeps:
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and "scale" in parent.info:
            key = f"bp_engine.scale{parent.info['scale']}.sweeps"
            out[key] = out.get(key, 0) + 1
    counted = [s.info for s in sweeps if "updates" in s.info]
    if counted and len(counted) == len(sweeps):
        out["bp_engine.updates"] = sum(i["updates"] for i in counted)
        out["bp_engine.useful_ratio"] = (
            out["bp_engine.updates"] / sum(i["pixels"] for i in counted)
        )
    return out
