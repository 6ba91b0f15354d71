"""The benchmark's workloads: seeded random-dot stereograms matched through
the `stereo-bp match` command line.

Each workload exists to stress a different layer; `why` says which, and
BENCHMARK.json repeats it for the workloads it lists.
"""

from __future__ import annotations

from dataclasses import dataclass

WINDOW = 2  # NCC window radius, the CLI default
EPSILON = 1e-3  # FAST convergence threshold, the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # square image side, pixels
    shift: int  # disparity of the central rectangle
    levels: int  # L, the --max-disp label count
    sweeps: str  # per-scale sweep budgets, coarsest first
    schedule: str  # "fast" or "full"
    disp_scale: int  # gray = disparity * disp_scale in the output PGM
    max_bad_rate: float  # sanity bound of the correctness gate
    why: str
    # Distinct stereograms per run. Accuracy varies from one random-dot
    # pattern to the next, most on small images; pooling several steadies
    # the accuracy metrics.
    fixtures: int = 3

    def __post_init__(self):
        # The program checks this only when it writes the output, after all
        # the compute; a workload that overflows would fail every match.
        if (self.levels - 1) * self.disp_scale > 255:
            raise ValueError(
                f"{self.name}: ({self.levels} - 1) * disp_scale "
                f"{self.disp_scale} exceeds 255"
            )

    @property
    def scales(self):
        return len(self.sweeps.split(","))

    @property
    def border(self):
        """Left columns excluded from scoring: the Middlebury convention of
        the CLI, border = L."""
        return self.levels

    def fixture_seeds(self, seed):
        """Stereogram seeds of the run with workload seed `seed`."""
        return [seed * self.fixtures + i for i in range(self.fixtures)]

    def match_argv(self, left, right, truth, out):
        """Arguments of one `stereo-bp match` run. Every knob is explicit, so
        a changed CLI default cannot change the workload."""
        return [
            "match", "--left", left, "--right", right, "--truth", truth,
            "--out", out,
            "--max-disp", str(self.levels),
            "--scales", str(self.scales),
            "--sweeps", self.sweeps,
            "--schedule", self.schedule,
            "--epsilon", repr(EPSILON),
            "--window", str(WINDOW),
            "--disp-scale", str(self.disp_scale),
            "--threshold", "1.0",
            "--border", str(self.border),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rds256-l20", size=256, shift=5, levels=20,
            sweeps="10,10,10,20", schedule="fast", disp_scale=8,
            max_bad_rate=0.05, fixtures=4,
            why="256x256, shift 5, L=20, sweeps 10,10,10,20, FAST: the default "
                "pipeline; BP dominates and only ~8% of pixel updates are useful, "
                "so active-set compaction shows here",
        ),
        Workload(
            name="rds128-l64-full", size=128, shift=12, levels=64,
            sweeps="10,10,10,20", schedule="full", disp_scale=4,
            max_bad_rate=0.15,
            why="128x128, shift 12, L=64, sweeps 10,10,10,20, FULL: label-heavy "
                "and kernel-bound; every pixel updates every sweep, so "
                "compaction is bypassed",
        ),
        # Not in BENCHMARK.json: memory-bound, so its match time follows the
        # memory traffic of whatever else shares the machine (5.4 to 9.2 s
        # across ten runs on a shared 2-CPU host). Run it by name, or with
        # --workload all, to study memory size and layout.
        Workload(
            name="rds512-l32-short", size=512, shift=8, levels=32,
            sweeps="1,1,1,2", schedule="fast", disp_scale=8,
            max_bad_rate=0.05,
            why="512x512, shift 8, L=32, sweeps 1,1,1,2, FAST: 0.5 GB of message "
                "buffers, far beyond cache; the only one where NCC, pyramid and "
                "memory size matter",
        ),
    )
}
