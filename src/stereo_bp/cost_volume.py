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

from .pixmap_io import GrayImage


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
    """Per-pixel matching costs over every disparity in [0, levels)."""

    costs: np.ndarray  # (height, width, levels) float64, in [0, cost_cap]
    cost_cap: float  # tau_d used to build/truncate this volume

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if self.costs.ndim != 3:
            raise ValueError("costs must be (height, width, levels)")
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


def ncc_score(left, right, x, y, d, r):
    """Normalized cross correlation of the (2r+1)^2 windows at left (x, y)
    and right (x - d, y). Returns 0 when either window has zero variance.

    Both windows must lie fully inside their images; raises IndexError
    otherwise (callers clamp or mark the border themselves).
    """
    lw = _window(left, x, y, r)
    rw = _window(right, x - d, y, r)
    a = lw - lw.mean()
    b = rw - rw.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float((a * b).sum() / denom)


def _window(image, x, y, r):
    img = image.samples if isinstance(image, GrayImage) else np.asarray(image)
    h, w = img.shape
    if x - r < 0 or x + r >= w or y - r < 0 or y + r >= h:
        raise IndexError(f"window at ({x}, {y}) radius {r} exits {w}x{h} image")
    return img[y - r : y + r + 1, x - r : x + r + 1].astype(np.float64)


def _box_sums(arr, r):
    """Sum of arr over the (2r+1)^2 window at each fully interior pixel;
    returns an (H - 2r, W - 2r) array (exact integer-friendly cumsums)."""
    k = 2 * r + 1
    c = np.cumsum(np.cumsum(arr, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]


def build_cost_volume(left, right, levels, params):
    """Build the (H, W, L) truncated NCC cost volume with the left view as
    reference: disparity d matches left (x, y) to right (x - d, y)."""
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
    costs = np.full((h, w, levels), tau, dtype=np.float64)

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
            costs[r : r + ih, r + d : w - r, d] = np.minimum(lam * (1.0 - ncc), tau)

    return CostVolume(costs, cost_cap=tau)


def downsample_volume(volume):
    """Coarsen by summing costs over 2x2 blocks (ceil-halved dimensions,
    same disparity range)."""
    h, w, levels = volume.costs.shape
    ch, cw = (h + 1) // 2, (w + 1) // 2
    padded = np.zeros((2 * ch, 2 * cw, levels), dtype=np.float64)
    padded[:h, :w] = volume.costs
    coarse = padded.reshape(ch, 2, cw, 2, levels).sum(axis=(1, 3))
    return CostVolume(coarse, cost_cap=volume.cost_cap)

