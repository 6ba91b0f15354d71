"""Set-up step of one benchmark run: import the program, synthesize the
workload's seeded stereograms and write each as left/right/truth PGM files
in its own subdirectory DIR/0, DIR/1, ...

Runs in a fresh process so that its time includes the program's import.
Prints {"setup_s": seconds} as its last line.

    python3 perfbench/fixture.py --workload NAME --seed N --dir DIR
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import WORKLOADS

FILES = ("left.pgm", "right.pgm", "truth.pgm")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    start = time.perf_counter()
    import stereo_bp

    for i, seed in enumerate(w.fixture_seeds(args.seed)):
        left, right, truth = stereo_bp.make_stereogram(w.size, w.size, w.shift, seed)
        truth.scale_factor = w.disp_scale
        os.makedirs(os.path.join(args.dir, str(i)), exist_ok=True)
        for image, name in zip((left, right, truth), FILES):
            stereo_bp.write_pgm(image, os.path.join(args.dir, str(i), name))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
