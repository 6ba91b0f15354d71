"""Min-sum loopy belief propagation on the 4-connected pixel grid.

Messages are length-L vectors sent between neighboring pixels; the update
for the message from p toward q minimizes, over p's disparity, the data
cost at p plus the truncated-linear jump cost plus the previous incoming
messages at p from everyone but q. Updates are synchronous (Jacobi) over
a double buffer, so results are independent of evaluation order within a
sweep. The FAST schedule skips pixels whose outgoing messages have
stabilized, reactivating them if an incoming message changes again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cost_volume import CostVolume
from .pixmap_io import INVALID, DisparityMap

# Incoming-message slots: direction the message arrives FROM.
FROM_LEFT, FROM_RIGHT, FROM_UP, FROM_DOWN = 0, 1, 2, 3
_DIRECTIONS = (FROM_LEFT, FROM_RIGHT, FROM_UP, FROM_DOWN)


class Schedule(Enum):
    FULL = "full"
    FAST = "fast"


@dataclass
class SmoothnessParams:
    """Truncated-linear jump cost V(a, b) = min(slope * |a - b|, truncation)."""

    slope: float = 1.0
    truncation: float = 2.0

    def __post_init__(self):
        if self.slope < 0 or self.truncation <= 0:
            raise ValueError("slope must be >= 0 and truncation > 0")


@dataclass
class BpConfig:
    max_sweeps: int = 30
    epsilon: float = 1e-3  # convergence threshold on outgoing-message change
    schedule: Schedule = Schedule.FAST
    smoothness: SmoothnessParams = field(default_factory=SmoothnessParams)

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


class MessageField:
    """Double-buffered incoming messages: four direction slots per pixel,
    each a length-L vector (eight message surfaces in total).

    Slots on edges arriving from outside the image stay identically zero.
    """

    def __init__(self, height, width, levels):
        self.prev = np.zeros((4, height, width, levels), dtype=np.float64)
        self.cur = np.zeros((4, height, width, levels), dtype=np.float64)

    @property
    def height(self):
        return self.prev.shape[1]

    @property
    def width(self):
        return self.prev.shape[2]

    @property
    def levels(self):
        return self.prev.shape[3]

    def swap(self):
        self.prev, self.cur = self.cur, self.prev


class ConvergenceMask:
    """Per-pixel active flags plus the last outgoing-change magnitude."""

    def __init__(self, height, width, epsilon):
        self.active = np.ones((height, width), dtype=bool)
        self.last_delta = np.full((height, width), np.inf)
        self.epsilon = epsilon


def smoothness_cost(a, b, params):
    return min(params.slope * abs(a - b), params.truncation)


def _minconv_truncated_linear(h, slope, truncation):
    """min over d' of h[..., d'] + min(slope * |d - d'|, truncation), then
    min-normalized to 0, via the two-pass linear-time distance transform."""
    m = h.copy()
    levels = m.shape[-1]
    for d in range(1, levels):
        np.minimum(m[..., d], m[..., d - 1] + slope, out=m[..., d])
    for d in range(levels - 2, -1, -1):
        np.minimum(m[..., d], m[..., d + 1] + slope, out=m[..., d])
    floor = np.min(h, axis=-1, keepdims=True)
    np.minimum(m, floor + truncation, out=m)
    m -= floor
    return m


def update_message(x, y, direction, volume, fld, params):
    """Recompute the single message from pixel (x, y) toward its neighbor in
    `direction` (a FROM_* constant naming the slot it fills at the receiver),
    reading the field's previous buffer. Returns the min-normalized vector."""
    h_, w_ = fld.height, fld.width
    step = {FROM_LEFT: (1, 0), FROM_RIGHT: (-1, 0), FROM_UP: (0, 1), FROM_DOWN: (0, -1)}
    dx, dy = step[direction]
    qx, qy = x + dx, y + dy
    if not (0 <= qx < w_ and 0 <= qy < h_):
        raise ValueError(f"pixel ({x}, {y}) has no neighbor in direction {direction}")
    # incoming slot at p holding the message that came FROM q
    opposite = {FROM_LEFT: FROM_RIGHT, FROM_RIGHT: FROM_LEFT,
                FROM_UP: FROM_DOWN, FROM_DOWN: FROM_UP}[direction]
    h = volume.costs[y, x] + fld.prev[:, y, x].sum(axis=0) - fld.prev[opposite, y, x]
    return _minconv_truncated_linear(h, params.slope, params.truncation)


def sweep(volume, fld, mask, config):
    """One synchronous sweep: read the previous buffer, write the current
    buffer, swap. Under FAST only active pixels recompute their outgoing
    messages; skipped pixels carry their previous messages forward.
    Returns the number of pixels updated."""
    if (fld.height, fld.width, fld.levels) != (volume.height, volume.width, volume.levels):
        raise ValueError("message field and cost volume dimensions disagree")
    params = config.smoothness
    prev, cur = fld.prev, fld.cur
    full = config.schedule is Schedule.FULL
    updating = np.ones_like(mask.active) if full else mask.active
    updated = int(np.count_nonzero(updating))

    total_in = prev.sum(axis=0)
    # h toward q = data + all incoming except the one that came from q
    base = volume.costs + total_in

    def outgoing(exclude_slot):
        h = base - prev[exclude_slot]
        return _minconv_truncated_linear(h, params.slope, params.truncation)

    cur[...] = prev  # skipped pixels keep their previous outgoing messages
    # toward the right neighbor: fills the receiver's FROM_LEFT slot
    msg = outgoing(FROM_RIGHT)
    sel = updating[:, :-1]
    cur[FROM_LEFT, :, 1:][sel] = msg[:, :-1][sel]
    # toward the left neighbor
    msg = outgoing(FROM_LEFT)
    sel = updating[:, 1:]
    cur[FROM_RIGHT, :, :-1][sel] = msg[:, 1:][sel]
    # toward the neighbor below
    msg = outgoing(FROM_DOWN)
    sel = updating[:-1, :]
    cur[FROM_UP, 1:, :][sel] = msg[:-1, :][sel]
    # toward the neighbor above
    msg = outgoing(FROM_UP)
    sel = updating[1:, :]
    cur[FROM_DOWN, :-1, :][sel] = msg[1:, :][sel]

    # per-slot change, max over the label axis
    slot_delta = np.abs(cur - prev).max(axis=-1)

    # outgoing change of each sender = change at the slots it wrote
    out_delta = np.zeros_like(mask.last_delta)
    np.maximum(out_delta[:, :-1], slot_delta[FROM_LEFT, :, 1:], out=out_delta[:, :-1])
    np.maximum(out_delta[:, 1:], slot_delta[FROM_RIGHT, :, :-1], out=out_delta[:, 1:])
    np.maximum(out_delta[:-1, :], slot_delta[FROM_UP, 1:, :], out=out_delta[:-1, :])
    np.maximum(out_delta[1:, :], slot_delta[FROM_DOWN, :-1, :], out=out_delta[1:, :])

    incoming_delta = slot_delta.max(axis=0)

    mask.last_delta = np.where(updating, out_delta, mask.last_delta)
    eps = mask.epsilon
    active = updating & (out_delta >= eps)
    active |= incoming_delta >= eps
    mask.active = active

    fld.swap()
    return updated


def run_bp(volume, fld, config, trace=None, scale=None):
    """Run up to max_sweeps sweeps; under FAST, stop early once no pixel is
    active. Appends (scale, sweep, active, max_delta, energy) rows to
    `trace` when given. Returns the total number of pixel updates."""
    mask = ConvergenceMask(volume.height, volume.width,
                           0.0 if config.schedule is Schedule.FULL else config.epsilon)
    total = 0
    for it in range(1, config.max_sweeps + 1):
        updated = sweep(volume, fld, mask, config)
        total += updated
        if trace is not None:
            energy = labeling_energy(volume, extract_disparity(volume, fld),
                                     config.smoothness)
            max_delta = float(mask.last_delta[np.isfinite(mask.last_delta)].max(initial=0.0))
            trace.append((scale, it, int(mask.active.sum()), max_delta, energy))
        if config.schedule is Schedule.FAST and not mask.active.any():
            break
    return total


def extract_disparity(volume, fld):
    """MAP labeling: per-pixel argmin of data cost plus all incoming
    messages (previous buffer), ties toward smaller disparity."""
    belief = volume.costs + fld.prev.sum(axis=0)
    return DisparityMap(np.argmin(belief, axis=2).astype(np.int32))


def labeling_energy(volume, disparity, params):
    """Data energy of the labeling plus truncated-linear smoothness over
    all 4-connected neighbor pairs (each pair counted once)."""
    labels = disparity.labels
    if labels.shape != volume.costs.shape[:2]:
        raise ValueError("labeling and cost volume dimensions disagree")
    if (labels == INVALID).any():
        raise ValueError("labeling contains INVALID pixels")
    h, w = labels.shape
    yy, xx = np.mgrid[0:h, 0:w]
    data = volume.costs[yy, xx, labels].sum()
    s, t = params.slope, params.truncation
    dh = np.minimum(s * np.abs(labels[:, 1:] - labels[:, :-1]), t).sum()
    dv = np.minimum(s * np.abs(labels[1:, :] - labels[:-1, :]), t).sum()
    return float(data + dh + dv)
