"""Dense stereo matching via NCC cost volumes and hierarchical
fast-converging min-sum loopy belief propagation."""

from .bp_engine import (
    BpConfig,
    ConvergenceMask,
    MessageField,
    Schedule,
    SmoothnessParams,
    extract_disparity,
    labeling_energy,
    run_bp,
    smoothness_cost,
    sweep,
    update_message,
)
from .cost_volume import (
    CostVolume,
    NccParams,
    build_cost_volume,
    downsample_volume,
    ncc_score,
)
from .evaluation import (
    EvalReport,
    bad_pixel_rate,
    exact_map_chain,
    exact_map_grid_small,
    make_stereogram,
)
from .hierarchy import PyramidConfig, build_pyramid, lift_messages, run_hierarchical
from .pixmap_io import (
    INVALID,
    DisparityMap,
    GrayImage,
    PgmError,
    read_disparity_pgm,
    read_pgm,
    to_grayscale,
    write_pgm,
)

__version__ = "0.1.0"
