"""Command-line driver: match a stereo pair, evaluate a result, or
generate a synthetic random-dot stereogram fixture.

Subcommands:
  match  left + right PGM -> disparity PGM (optionally scored vs truth)
  eval   score a disparity PGM against a ground-truth PGM
  synth  write a reproducible stereogram triple (left, right, truth)

`match --config FILE` reads `key = value` lines whose keys are match's long
flag names (dashes or underscores) and whose values are parsed as the flag
would parse them; `trace` takes true or false. Explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluation, pixmap_io
from .bp_engine import BpConfig, Schedule, SmoothnessParams, labeling_energy
from .cost_volume import NccParams, build_cost_volume
from .hierarchy import PyramidConfig, run_hierarchical


def _load_config_file(path, parser):
    """Parse a key=value file (TOML-flavored: comments, blank lines, and
    quoted strings tolerated) into defaults for `parser`. Keys mirror its
    long flag names; a flag that takes no value takes true or false."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    with open(path) as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key, val = key.replace("-", "_"), val.strip("\"'")
            if key not in actions:
                raise ValueError(f"unknown config key: {key}")
            if actions[key].nargs == 0:  # store_true: argparse cannot convert it
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} must be true or false")
                val = val.lower() == "true"
            values[key] = val
    return values


def build_parser():
    """Returns (parser, match_subparser)."""
    parser = argparse.ArgumentParser(
        prog="stereo-bp",
        description="Dense stereo matching with NCC costs and hierarchical BP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("match", help="compute a disparity map from a stereo pair")
    m.add_argument("--config", help="key=value config file; flags win")
    m.add_argument("--left", required=True)
    m.add_argument("--right", required=True)
    m.add_argument("--truth", default=None)
    m.add_argument("--out", required=True)
    m.add_argument("--max-disp", type=int, default=20)
    m.add_argument("--scales", type=int, default=4)
    m.add_argument("--sweeps", default=None,
                   help="comma-separated per-scale budgets, coarsest first")
    m.add_argument("--epsilon", type=float, default=1e-3)
    m.add_argument("--schedule", choices=["full", "fast"], default="fast")
    m.add_argument("--window", type=int, default=2, help="NCC window radius")
    m.add_argument("--disp-scale", type=int, default=8)
    m.add_argument("--threshold", type=float, default=1.0)
    m.add_argument("--border", type=int, default=None,
                   help="excluded left columns when scoring (default max-disp)")
    m.add_argument("--trace", action="store_true")

    e = sub.add_parser("eval", help="score a disparity map against ground truth")
    e.add_argument("--result", required=True)
    e.add_argument("--truth", required=True)
    e.add_argument("--threshold", type=float, default=1.0)
    e.add_argument("--border", type=int, default=0)
    e.add_argument("--disp-scale", type=int, default=8)

    s = sub.add_parser("synth", help="generate a random-dot stereogram fixture")
    s.add_argument("--width", type=int, default=128)
    s.add_argument("--height", type=int, default=128)
    s.add_argument("--shift", type=int, default=5)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--disp-scale", type=int, default=8)
    s.add_argument("--out-left", required=True)
    s.add_argument("--out-right", required=True)
    s.add_argument("--out-truth", required=True)
    return parser, m


def cmd_match(args):
    if args.disp_scale < 1:
        raise ValueError(f"--disp-scale must be >= 1, got {args.disp_scale}")
    top_gray = (args.max_disp - 1) * args.disp_scale
    if top_gray > 255:
        raise ValueError(
            f"--max-disp {args.max_disp} at --disp-scale {args.disp_scale} "
            f"encodes disparity {args.max_disp - 1} as {top_gray}, above 255"
        )
    left = pixmap_io.read_pgm(args.left)
    right = pixmap_io.read_pgm(args.right)

    ncc = NccParams(window_radius=args.window)
    volume = build_cost_volume(left, right, args.max_disp, ncc)
    if args.sweeps is not None:
        sweeps = [int(s) for s in args.sweeps.split(",")]
    else:
        sweeps = [10] * (args.scales - 1) + [20] if args.scales > 1 else [20]
    bp = BpConfig(epsilon=args.epsilon, schedule=Schedule(args.schedule),
                  smoothness=SmoothnessParams())
    pyramid = PyramidConfig(scale_count=args.scales, sweeps_per_scale=sweeps, bp=bp)

    disparity, trace = run_hierarchical(volume, pyramid)
    disparity = pixmap_io.DisparityMap(disparity.labels, scale_factor=args.disp_scale)
    pixmap_io.write_pgm(disparity, args.out)

    if args.trace:
        trace_path = args.out + ".trace.csv"
        with open(trace_path, "w") as fp:
            fp.write("scale,sweep,active,max_delta,energy\n")
            for scale, it, active, delta, energy in trace:
                fp.write(f"{scale},{it},{active},{delta:.9g},{energy:.9g}\n")

    if args.truth is not None:
        truth = pixmap_io.read_disparity_pgm(args.truth, args.disp_scale)
        border = args.border if args.border is not None else args.max_disp
        report = evaluation.bad_pixel_rate(
            disparity, truth, threshold=args.threshold, border=border
        )
        print(report.csv_line())
    return 0


def cmd_eval(args):
    result = pixmap_io.read_disparity_pgm(args.result, args.disp_scale)
    truth = pixmap_io.read_disparity_pgm(args.truth, args.disp_scale)
    if result.labels.shape != truth.labels.shape:
        raise ValueError(
            f"dimension mismatch: {result.width}x{result.height} vs "
            f"{truth.width}x{truth.height}"
        )
    report = evaluation.bad_pixel_rate(
        result, truth, threshold=args.threshold, border=args.border
    )
    print(report.csv_line())
    return 0


def cmd_synth(args):
    left, right, truth = evaluation.make_stereogram(
        args.width, args.height, args.shift, args.seed
    )
    truth = pixmap_io.DisparityMap(truth.labels, scale_factor=args.disp_scale)
    # truth first: its encoding can overflow, and then nothing is written
    pixmap_io.write_pgm(truth, args.out_truth)
    pixmap_io.write_pgm(left, args.out_left)
    pixmap_io.write_pgm(right, args.out_right)
    return 0


def main(argv=None):
    parser, match = build_parser()
    args = parser.parse_args(argv)
    handlers = {"match": cmd_match, "eval": cmd_eval, "synth": cmd_synth}
    try:
        if getattr(args, "config", None):
            # file values become match's defaults: argparse converts them
            # like flags, and flags given in argv still win
            match.set_defaults(**_load_config_file(args.config, match))
            args = parser.parse_args(argv)
        return handlers[args.command](args)
    except (OSError, ValueError) as err:
        print(f"stereo-bp: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
