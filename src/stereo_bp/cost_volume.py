"""NCC matching-cost volume construction and 2x2 coarsening.

The data term for matching left pixel (x, y) at disparity d is
min(lambda_d * (1 - NCC), tau_d) over the (2r+1)^2 windows at (x, y) in the
left view and (x - d, y) in the right. A pixel whose window leaves either
image gets the fully truncated cost tau_d, neutral for the optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NccParams:
    window_radius: int = 2
    data_weight: float = 1.0  # lambda_d: scales (1 - NCC) into energy units
    data_truncation: float = 1.0  # tau_d: cap on the data cost

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if not (0 < self.data_weight < np.inf and 0 < self.data_truncation < np.inf):
            raise ValueError("data_weight and data_truncation must be finite and > 0")


@dataclass
class CostVolume:
    """Per-pixel matching costs over every disparity in [0, levels):
    a finite, non-negative, C-contiguous label-major (levels, height,
    width) float32 or float64 array, one (H, W) plane per disparity. A
    float32 array stays float32; anything else is converted to float64.
    Messages take the volume's dtype."""

    costs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.costs)
        if c.dtype != np.float32:
            c = c.astype(np.float64, copy=False)
        if c.ndim != 3:
            raise ValueError("costs must be (levels, height, width)")
        self.costs = np.ascontiguousarray(c)
        if not (self.costs.min() >= 0 and self.costs.max() < np.inf):  # NaN fails >=
            raise ValueError("costs must be finite and non-negative")

    @property
    def height(self):
        return self.costs.shape[1]

    @property
    def width(self):
        return self.costs.shape[2]

    @property
    def levels(self):
        return self.costs.shape[0]


def _box_sums(arr, k):
    """Sums of arr over every interior k x k window: k - 1 adds per axis."""
    m, n = arr.shape[0] - k + 1, arr.shape[1] - k + 1
    rows = arr[:m] + arr[1 : m + 1]
    for i in range(2, k):
        rows += arr[i : m + i]
    out = rows[:, :n] + rows[:, 1 : n + 1]
    for j in range(2, k):
        out += rows[:, j : n + j]
    return out


def build_cost_volume(left, right, levels, params):
    """Build the (L, H, W) truncated NCC cost volume with the left view as
    reference: disparity d matches left (x, y) to right (x - d, y), and fills
    the volume's (H, W) plane d. With k = 2r + 1,
    NCC = (k²Σlr − ΣlΣr) / sqrt(Vl·Vr), where Vl = k²Σl² − (Σl)². Window
    sums, numerator and variances are exact integers (int32, or int64 once
    k²·k²·255² reaches 2³¹). Only Vl·Vr, the sqrt and the division round, in
    float64. A flat window's variance and numerator are 0; variances are
    raised to >= 1, so its NCC is exactly 0. Costs are stored in float32."""
    li, ri = left.samples, right.samples
    if li.shape != ri.shape:
        raise ValueError(f"image shapes differ: {li.shape} vs {ri.shape}")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    (h, w), r = li.shape, params.window_radius
    costs = np.full((levels, h, w), params.data_truncation, dtype=np.float32)
    k, k2 = 2 * r + 1, (2 * r + 1) ** 2
    ih, iw = h - 2 * r, w - 2 * r  # interior height/width where windows fit
    if ih > 0 and iw > 0:
        # k² times a window sum of products is at most k²·k²·255²
        dtype = np.int32 if k2 * k2 * 255**2 < 2**31 else np.int64
        li, ri = li.astype(dtype), ri.astype(dtype)
        ls, rs = _box_sums(li, k), _box_sums(ri, k)
        lvar = np.maximum(k2 * _box_sums(li * li, k) - ls * ls, 1).astype(np.float64)
        rvar = np.maximum(k2 * _box_sums(ri * ri, k) - rs * rs, 1).astype(np.float64)
        num_buf, den_buf = np.empty(ih * iw), np.empty(ih * iw)
        for d in range(min(levels, iw)):
            # centers x in [r + d, w - r); contiguous (ih, n) views pass faster
            n = iw - d
            num, den = (b[: ih * n].reshape(ih, n) for b in (num_buf, den_buf))
            cross = k2 * _box_sums(li[:, d:] * ri[:, : w - d], k)
            np.subtract(cross, ls[:, d:] * rs[:, :n], out=num)
            np.multiply(lvar[:, d:], rvar[:, :n], out=den)
            np.sqrt(den, out=den)
            np.divide(num, den, out=num)
            np.clip(num, -1.0, 1.0, out=num)
            np.subtract(1.0, num, out=num)
            np.multiply(num, params.data_weight, out=num)
            np.minimum(num, params.data_truncation, out=costs[d, r : r + ih, r + d : w - r])
    return CostVolume(costs)


def downsample_volume(volume):
    """Coarsen by summing costs over 2x2 blocks (ceil-halved dimensions,
    same disparity range and dtype). Each block is summed as
    ((a00 + a01) + a10) + a11 on the label planes; a block cut short by
    an odd edge leaves out the pixels it lacks, as adding 0 would, and no
    padded copy of the volume is made."""
    fine, h, w = volume.costs, volume.height, volume.width
    coarse = fine[:, 0::2, 0::2].copy()
    coarse[:, :, : w // 2] += fine[:, 0::2, 1::2]
    coarse[:, : h // 2, :] += fine[:, 1::2, 0::2]
    coarse[:, : h // 2, : w // 2] += fine[:, 1::2, 1::2]
    return CostVolume(coarse)
