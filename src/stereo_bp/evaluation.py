"""Disparity-map scoring and the random-dot stereogram fixture.

bad_pixel_rate follows the Middlebury convention: a pixel is bad when its
disparity error exceeds a threshold; unknown ground truth and a left
border band (where windows shifted by the maximum disparity cannot exist)
are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pixmap_io import INVALID, DisparityMap, GrayImage


@dataclass
class EvalReport:
    bad_pixel_rate: float
    threshold: float
    evaluated_count: int
    excluded_count: int
    mean_abs_error: float

    def csv_line(self):
        return (
            f"{self.bad_pixel_rate:.6f},{self.threshold},"
            f"{self.evaluated_count},{self.excluded_count},"
            f"{self.mean_abs_error:.6f}"
        )


def check_scoring(threshold, border):
    """Reject a threshold that is not > 0 (NaN included) and a negative
    border, which would exclude all but the last columns instead."""
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if border < 0:
        raise ValueError(f"border must be >= 0, got {border}")


def bad_pixel_rate(result, truth, threshold=1.0, border=0):
    """Fraction of evaluated pixels with |d_result - d_truth| > threshold.

    Pixels with INVALID truth or within `border` columns of the left edge
    are excluded from scoring. Raises ValueError when that leaves nothing
    to score."""
    if result.labels.shape != truth.labels.shape:
        raise ValueError(
            f"dimension mismatch: result {result.width}x{result.height} vs "
            f"truth {truth.width}x{truth.height}"
        )
    check_scoring(threshold, border)
    scored = truth.labels != INVALID
    scored[:, :border] = False
    total = result.labels.size
    evaluated = int(np.count_nonzero(scored))
    if not evaluated:
        raise ValueError(
            f"nothing to score: a border of {border} columns and the INVALID "
            f"truth pixels exclude all {total} pixels"
        )
    err = np.abs(result.labels - truth.labels)[scored]
    bad = int(np.count_nonzero(err > threshold))
    return EvalReport(bad / evaluated, threshold, evaluated, total - evaluated,
                      float(err.mean()))


def make_stereogram(width, height, shift, seed):
    """Random-dot stereogram fixture: a uniform-noise left image whose
    central rectangle appears shifted left by `shift` in the right image.

    Returns (left, right, truth) with exact integer ground truth: `shift`
    inside the rectangle, 0 elsewhere."""
    if shift < 0 or 4 * shift >= width:
        raise ValueError(f"shift {shift} must be in [0, width/4) for width {width}")
    rng = np.random.default_rng(seed)
    left = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    right = left.copy()
    x0, x1 = width // 4, 3 * width // 4
    y0, y1 = height // 4, max(3 * height // 4, height // 4 + 1)  # one row at height 1
    right[y0:y1, x0 - shift : x1 - shift] = left[y0:y1, x0:x1]
    truth = np.zeros((height, width), dtype=np.int32)
    truth[y0:y1, x0:x1] = shift
    return GrayImage(left), GrayImage(right), DisparityMap(truth)
