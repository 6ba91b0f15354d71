"""NCC matching-cost volume construction and 2x2 coarsening.

The data term for matching left pixel (x, y) at disparity d is
min(lambda_d * (1 - NCC), tau_d), computed over (2r+1)^2 windows centered
at (x, y) in the left view and (x - d, y) in the right view. Pixels whose
window (or shifted window) leaves the image get the fully truncated cost
tau_d at that disparity, which is neutral for the optimization.
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
        if self.data_weight <= 0 or self.data_truncation <= 0:
            raise ValueError("data_weight and data_truncation must be > 0")


@dataclass
class CostVolume:
    """Per-pixel matching costs over every disparity in [0, levels):
    a finite, non-negative (height, width, levels) float32 or float64
    array, stored label-major. A float32 array stays float32; anything
    else is converted to float64. Messages take the volume's dtype."""

    costs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.costs)
        if c.dtype != np.float32:
            c = c.astype(np.float64, copy=False)
        if c.ndim != 3:
            raise ValueError("costs must be (height, width, levels)")
        # Stored label-major: costs.transpose(2, 0, 1) is a C-contiguous
        # (L, H, W) array, so BP reads whole (H, W) planes per label.
        self.costs = np.ascontiguousarray(c.transpose(2, 0, 1)).transpose(1, 2, 0)
        if not np.all(np.isfinite(self.costs)) or self.costs.min() < 0:
            raise ValueError("costs must be finite and non-negative")

    @property
    def height(self):
        return self.costs.shape[0]

    @property
    def width(self):
        return self.costs.shape[1]

    @property
    def levels(self):
        return self.costs.shape[2]


def _box_sums(arr, r):
    """Sum of arr over the (2r+1)^2 window at each fully interior pixel;
    returns an (H - 2r, W - 2r) array (exact integer-friendly cumsums)."""
    k = 2 * r + 1
    c = np.cumsum(np.cumsum(arr, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]


def build_cost_volume(left, right, levels, params):
    """Build the (H, W, L) truncated NCC cost volume with the left view as
    reference: disparity d matches left (x, y) to right (x - d, y). Each
    disparity fills one (H, W) plane of the label-major storage. NCC is
    computed in float64; the costs are stored in float32."""
    li = left.samples.astype(np.float64)
    ri = right.samples.astype(np.float64)
    if li.shape != ri.shape:
        raise ValueError(f"image shapes differ: {li.shape} vs {ri.shape}")
    if levels < 1:
        raise ValueError("levels must be >= 1")

    h, w = li.shape
    r = params.window_radius
    tau = params.data_truncation
    lam = params.data_weight
    costs = np.full((levels, h, w), tau, dtype=np.float32)

    k2 = (2 * r + 1) ** 2
    iw = w - 2 * r  # interior width/height where windows fit
    ih = h - 2 * r
    if iw > 0 and ih > 0:
        ls = _box_sums(li, r)
        ls2 = _box_sums(li * li, r)
        rs = _box_sums(ri, r)
        rs2 = _box_sums(ri * ri, r)
        lvar = ls2 - ls * ls / k2
        rvar = rs2 - rs * rs / k2
        for d in range(levels):
            if d >= iw:
                break
            # interior centers x in [r + d, w - r), shifted centers x - d
            cross = _box_sums(li[:, d:] * ri[:, : w - d], r)
            la, lb = ls[:, d:], rs[:, : iw - d]
            num = cross - la * lb / k2
            denom = lvar[:, d:] * rvar[:, : iw - d]
            with np.errstate(invalid="ignore", divide="ignore"):
                ncc = np.where(denom > 0, num / np.sqrt(np.maximum(denom, 0)), 0.0)
            ncc = np.clip(ncc, -1.0, 1.0)
            costs[d, r : r + ih, r + d : w - r] = np.minimum(lam * (1.0 - ncc), tau)

    return CostVolume(costs.transpose(1, 2, 0))


def downsample_volume(volume):
    """Coarsen by summing costs over 2x2 blocks (ceil-halved dimensions,
    same disparity range and dtype). Each block is summed as
    ((a00 + a01) + a10) + a11 on the label-major planes; a block cut short
    by an odd edge leaves out the pixels it lacks, as adding 0 would, and
    no padded copy of the volume is made."""
    h, w, _ = volume.costs.shape
    fine = volume.costs.transpose(2, 0, 1)
    coarse = fine[:, 0::2, 0::2].copy()
    coarse[:, :, : w // 2] += fine[:, 0::2, 1::2]
    coarse[:, : h // 2, :] += fine[:, 1::2, 0::2]
    coarse[:, : h // 2, : w // 2] += fine[:, 1::2, 1::2]
    return CostVolume(coarse.transpose(1, 2, 0))
