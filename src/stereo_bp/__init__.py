"""Dense stereo matching via NCC cost volumes and hierarchical
fast-converging min-sum loopy belief propagation."""

from .bp_engine import BpConfig, SmoothnessParams, labeling_energy
from .cost_volume import CostVolume, NccParams, build_cost_volume
from .evaluation import EvalReport, bad_pixel_rate, make_stereogram
from .hierarchy import PyramidConfig, run_hierarchical
from .pixmap_io import (
    INVALID,
    DisparityMap,
    GrayImage,
    PgmError,
    read_disparity_pgm,
    read_pgm,
    write_pgm,
)

__version__ = "0.1.0"
