"""Coarse-to-fine pyramid coordination for the BP engine.

Cost volumes are coarsened by 2x2 summation (disparity range untouched),
BP runs at each scale coarsest-first, and each coarse pixel's messages are
copied down to its (up to) four children to initialize the finer scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bp_engine import BpConfig, MessageField, extract_disparity, run_bp
from .cost_volume import downsample_volume


@dataclass
class PyramidConfig:
    # one sweep budget per scale, coarsest first; its length is the depth
    sweeps_per_scale: list[int] = field(default_factory=lambda: [10, 10, 10, 20])
    bp: BpConfig = field(default_factory=BpConfig)

    def __post_init__(self):
        if not self.sweeps_per_scale:
            raise ValueError("sweeps_per_scale needs at least one scale")
        if any(s < 1 for s in self.sweeps_per_scale):
            raise ValueError("every sweep budget must be >= 1")


def check_depth(height, width, depth):
    """Reject a depth the pyramid of a height x width volume cannot reach:
    level k is 1x1 once max(height, width) <= 2**k, and 1x1 is the coarsest."""
    if depth < 1:
        raise ValueError("pyramid depth must be >= 1")
    if depth > 1 and max(height, width) <= 2 ** (depth - 2):
        raise ValueError(
            f"{depth} scales exceed what a {width}x{height} volume supports"
        )


def build_pyramid(volume, depth):
    """`depth` levels: level 0 is the input; each further level is the 2x2
    cost-sum coarsening of the previous one. Finest first."""
    check_depth(volume.height, volume.width, depth)
    levels = [volume]
    for _ in range(depth - 1):
        levels.append(downsample_volume(levels[-1]))
    return levels


def lift_messages(coarse, fine_height, fine_width):
    """Initialize a fine-scale field, in the coarse field's dtype, by
    giving each fine pixel a copy of its parent pixel (x // 2, y // 2)'s
    message vectors."""
    if coarse.height != (fine_height + 1) // 2 or coarse.width != (fine_width + 1) // 2:
        raise ValueError(
            f"coarse {coarse.width}x{coarse.height} is not the ceil-halving "
            f"of fine {fine_width}x{fine_height}"
        )
    fine = MessageField(fine_height, fine_width, coarse.levels, coarse.planes.dtype)
    # the fine pixels at each (y % 2, x % 2) offset form a copy of the
    # coarse grid, cut short at an odd edge; both label-major (4, L, h, w)
    for oy in (0, 1):
        for ox in (0, 1):
            part = fine.planes[:, :, oy::2, ox::2]
            part[...] = coarse.planes[:, :, : part.shape[2], : part.shape[3]]
    return fine


def run_hierarchical(volume, config):
    """Run BP coarsest-to-finest and extract the level-0 disparity map.
    Messages take the dtype of the volume's costs.

    Returns (DisparityMap, trace) where trace rows are `run_bp`'s (scale,
    sweep, active_pixels, max_delta, energy); scale 0 is finest.
    """
    budgets = config.sweeps_per_scale
    pyramid = build_pyramid(volume, len(budgets))
    trace = []
    fld = None
    for sweeps in budgets:
        # popped, so that each coarse level is dropped once its scale has run
        scale, vol = len(pyramid) - 1, pyramid.pop()
        if fld is None:
            fld = MessageField(vol.height, vol.width, vol.levels, vol.costs.dtype)
        else:
            fld = lift_messages(fld, vol.height, vol.width)
        run_bp(vol, fld, config.bp, sweeps, trace=trace, scale=scale)
    return extract_disparity(vol, fld), trace
