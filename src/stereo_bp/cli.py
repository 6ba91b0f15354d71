"""Command-line driver: match a stereo pair, evaluate a result, or
generate a synthetic random-dot stereogram fixture.

Subcommands:
  match  left + right PGM -> disparity PGM (optionally scored vs truth)
  eval   score a disparity PGM against a ground-truth PGM
  synth  write a reproducible stereogram triple (left, right, truth)

`match` takes the pyramid depth from the length of `--sweeps`; `--scales N`
alone stands for `[10] * (N - 1) + [20]`, and `--schedule full` means
`--epsilon 0`: only the pixels whose messages changed in the last sweep
are recomputed, with the bits of recomputing every pixel every sweep.

`match --config FILE` reads `key = value` lines whose keys are match's long
flag names (dashes or underscores) and whose values are parsed as the flag
would parse them; `trace` takes true or false. Explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

from . import evaluation, pixmap_io
from .bp_engine import BpConfig, SmoothnessParams
from .cost_volume import NccParams, build_cost_volume
from .hierarchy import PyramidConfig, check_depth, run_hierarchical


def _load_config_file(path, parser):
    """Parse a key=value file ('#' comments, blank lines, quoted values
    that keep their '#') into defaults for `parser`. Keys mirror its long
    flag names; a flag that takes no value takes true or false."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    with open(path) as fp:
        for lineno, line in enumerate(fp, 1):
            line, where = line.strip(), f"{path}:{lineno}"
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq or "#" in key:
                raise ValueError(f"{where}: expected key=value")
            key, val = key.strip().replace("-", "_"), val.strip()
            if val[:1] in ("'", '"'):  # verbatim to the matching quote, '#' too
                val, quote, rest = val[1:].partition(val[0])
                if not quote or rest.strip()[:1] not in ("", "#"):
                    raise ValueError(
                        f"{where}: unmatched quote, or text after a quoted value")
            else:
                val = val.split("#", 1)[0].rstrip()
            if key not in actions:
                raise ValueError(f"{where}: unknown config key: {key}")
            if key in values:
                raise ValueError(f"{where}: {key} is set twice")
            if actions[key].nargs == 0:  # store_true: argparse cannot convert it
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"{where}: {key} must be true or false")
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
    m.add_argument("--left")
    m.add_argument("--right")
    m.add_argument("--truth", default=None)
    m.add_argument("--out")
    m.add_argument("--max-disp", type=int, default=20)
    m.add_argument("--scales", type=int, default=None)
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
    # not required by argparse, so that a config file can supply them
    for name in ("left", "right", "out"):
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required")
    if args.disp_scale < 1:
        raise ValueError(f"--disp-scale must be >= 1, got {args.disp_scale}")
    top_gray = (args.max_disp - 1) * args.disp_scale
    if top_gray > 255:
        raise ValueError(
            f"--max-disp {args.max_disp} at --disp-scale {args.disp_scale} "
            f"encodes disparity {args.max_disp - 1} as {top_gray}, above 255"
        )
    if args.max_disp < 1:
        raise ValueError(f"--max-disp must be >= 1, got {args.max_disp}")
    if args.scales is not None and args.scales < 1:
        raise ValueError(f"--scales must be >= 1, got {args.scales}")
    if args.sweeps is None:
        sweeps = [10] * ((args.scales or 4) - 1) + [20]
    else:
        try:
            sweeps = [int(s) for s in args.sweeps.split(",")]
        except ValueError:
            raise ValueError(
                f"--sweeps takes comma-separated integers, got {args.sweeps!r}"
            ) from None
        if args.scales not in (None, len(sweeps)):
            raise ValueError(f"--scales {args.scales} but --sweeps has {len(sweeps)} budgets")
    ncc = NccParams(window_radius=args.window)
    bp = BpConfig(epsilon=args.epsilon, smoothness=SmoothnessParams())
    if args.schedule == "full":  # exact: the bits of all-active sweeps
        bp.epsilon = 0.0
    pyramid = PyramidConfig(sweeps_per_scale=sweeps, bp=bp)
    border = args.border if args.border is not None else args.max_disp
    evaluation.check_scoring(args.threshold, border)

    left = pixmap_io.read_pgm(args.left)
    right = pixmap_io.read_pgm(args.right)
    check_depth(left.height, left.width, len(sweeps))
    if args.truth is not None and border >= left.width:
        raise ValueError(
            f"--border {border} leaves no column of the {left.width}-pixel-wide "
            f"image to score"
        )
    volume = build_cost_volume(left, right, args.max_disp, ncc)
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
        report = evaluation.bad_pixel_rate(
            disparity, truth, threshold=args.threshold, border=border
        )
        print(report.csv_line())
    return 0


def cmd_eval(args):
    result = pixmap_io.read_disparity_pgm(args.result, args.disp_scale)
    truth = pixmap_io.read_disparity_pgm(args.truth, args.disp_scale)
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
