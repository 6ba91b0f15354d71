"""Coarse-to-fine pyramid coordination for the BP engine.

Cost volumes are coarsened by 2x2 summation (disparity range untouched),
BP runs at each scale coarsest-first, and each coarse pixel's messages are
copied down to its (up to) four children to initialize the finer scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bp_engine import BpConfig, MessageField, extract_disparity, run_bp
from .cost_volume import downsample_volume


@dataclass
class PyramidConfig:
    scale_count: int = 4
    sweeps_per_scale: list[int] = field(default_factory=lambda: [10, 10, 10, 20])
    bp: BpConfig = field(default_factory=BpConfig)

    def __post_init__(self):
        if self.scale_count < 1:
            raise ValueError("scale_count must be >= 1")
        if len(self.sweeps_per_scale) != self.scale_count:
            raise ValueError("sweeps_per_scale needs one entry per scale")
        if any(s < 1 for s in self.sweeps_per_scale):
            raise ValueError("every sweep budget must be >= 1")


def build_pyramid(volume, scale_count):
    """Level 0 is the input; each further level is the 2x2 cost-sum
    coarsening of the previous one. Finest first."""
    if scale_count < 1:
        raise ValueError("scale_count must be >= 1")
    levels = [volume]
    for _ in range(scale_count - 1):
        prev = levels[-1]
        if prev.width == 1 and prev.height == 1:
            raise ValueError(
                f"scale_count {scale_count} exceeds what a "
                f"{volume.width}x{volume.height} volume supports"
            )
        levels.append(downsample_volume(prev))
    return levels


def lift_messages(coarse, fine_height, fine_width):
    """Initialize a fine-scale field by giving each fine pixel a copy of
    its parent pixel (x // 2, y // 2)'s message vectors."""
    if coarse.height != (fine_height + 1) // 2 or coarse.width != (fine_width + 1) // 2:
        raise ValueError(
            f"coarse {coarse.width}x{coarse.height} is not the ceil-halving "
            f"of fine {fine_width}x{fine_height}"
        )
    fine = MessageField(fine_height, fine_width, coarse.levels)
    up = np.repeat(np.repeat(coarse.prev, 2, axis=1), 2, axis=2)
    fine.prev[...] = up[:, :fine_height, :fine_width]
    return fine


def run_hierarchical(volume, config):
    """Run BP coarsest-to-finest and extract the level-0 disparity map.

    Returns (DisparityMap, trace) where trace rows are
    (scale, sweep, active_pixels, max_delta, energy); scale 0 is finest.
    """
    pyramid = build_pyramid(volume, config.scale_count)
    trace = []
    fld = None
    for scale in range(config.scale_count - 1, -1, -1):
        vol = pyramid[scale]
        if fld is None:
            fld = MessageField(vol.height, vol.width, vol.levels)
        else:
            fld = lift_messages(fld, vol.height, vol.width)
        cfg = replace(
            config.bp, max_sweeps=config.sweeps_per_scale[config.scale_count - 1 - scale]
        )
        run_bp(vol, fld, cfg, trace=trace, scale=scale)
    return extract_disparity(pyramid[0], fld), trace
