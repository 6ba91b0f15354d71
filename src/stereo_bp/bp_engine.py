"""Min-sum loopy belief propagation on the 4-connected pixel grid.

Messages are length-L vectors sent between neighboring pixels; the update
for the message from p toward q minimizes, over p's disparity, the data
cost at p plus the truncated-linear jump cost plus the incoming messages
at p from everyone but q. Updates are synchronous (Jacobi): a sweep
computes every new message from the field as it stood before the sweep,
then writes them all into the one message buffer, so results are
independent of evaluation order. Only active pixels are recomputed: a
pixel whose outgoing messages moved by less than epsilon is deactivated,
and reactivated if an incoming message changes by epsilon or more. At
epsilon 0 every pixel stays active, which is the standard synchronous
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost_volume import CostVolume
from .pixmap_io import INVALID, DisparityMap

# Incoming-message slots: direction the message arrives FROM.
FROM_LEFT, FROM_RIGHT, FROM_UP, FROM_DOWN = 0, 1, 2, 3

# Per slot: the sender's slot holding what came from the receiver (left out
# of the message) and the receiver's offset (dy, dx) from the sender.
_SENDS = {
    FROM_LEFT: (FROM_RIGHT, 0, 1),
    FROM_RIGHT: (FROM_LEFT, 0, -1),
    FROM_UP: (FROM_DOWN, 1, 0),
    FROM_DOWN: (FROM_UP, -1, 0),
}


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
    # a pixel stays active while its messages move by at least this;
    # 0 keeps every pixel active (the standard schedule)
    epsilon: float = 1e-3
    smoothness: SmoothnessParams = field(default_factory=SmoothnessParams)

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


class MessageField:
    """Incoming messages in one (4, H, W, L) array `msgs`: four direction
    slots per pixel, each a length-L vector.

    Slots on edges arriving from outside the image stay identically zero.
    """

    def __init__(self, height, width, levels):
        self.msgs = np.zeros((4, height, width, levels), dtype=np.float64)

    @property
    def height(self):
        return self.msgs.shape[1]

    @property
    def width(self):
        return self.msgs.shape[2]

    @property
    def levels(self):
        return self.msgs.shape[3]


class ConvergenceMask:
    """Per-pixel active flags plus the last outgoing-change magnitude."""

    def __init__(self, height, width):
        self.active = np.ones((height, width), dtype=bool)
        self.last_delta = np.full((height, width), np.inf)


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


def sweep(volume, fld, mask, config):
    """One synchronous sweep over the active pixels. Their outgoing
    messages are all computed before any is written, so each reads the
    pre-sweep field. Returns the number of pixels updated."""
    if (fld.height, fld.width, fld.levels) != (volume.height, volume.width, volume.levels):
        raise ValueError("message field and cost volume dimensions disagree")
    params = config.smoothness
    msgs = fld.msgs
    h, w = fld.height, fld.width
    ys, xs = np.nonzero(mask.active)
    base = volume.costs[ys, xs] + msgs[:, ys, xs].sum(axis=0)

    sends = []
    for slot, (back, dy, dx) in _SENDS.items():
        qy, qx = ys + dy, xs + dx
        has = (qy >= 0) & (qy < h) & (qx >= 0) & (qx < w)
        # h toward q = data + all incoming except the one that came from q
        hq = base[has] - msgs[back, ys[has], xs[has]]
        msg = _minconv_truncated_linear(hq, params.slope, params.truncation)
        sends.append((slot, has, qy[has], qx[has], msg))

    # a sender's outgoing change is the most any slot it writes moves;
    # a receiver's incoming change, the most any of its slots moves
    out_delta = np.zeros(ys.size)
    incoming_delta = np.zeros((h, w))
    for slot, has, qy, qx, msg in sends:
        delta = np.abs(msg - msgs[slot, qy, qx]).max(axis=-1)
        msgs[slot, qy, qx] = msg
        out_delta[has] = np.maximum(out_delta[has], delta)
        incoming_delta[qy, qx] = np.maximum(incoming_delta[qy, qx], delta)

    mask.last_delta[ys, xs] = out_delta
    active = np.zeros_like(mask.active)
    active[ys, xs] = out_delta >= config.epsilon
    active |= incoming_delta >= config.epsilon
    mask.active = active
    return ys.size


def run_bp(volume, fld, config, sweeps, trace=None, scale=None):
    """Run up to `sweeps` sweeps, stopping once no pixel is active (never
    at epsilon 0). Appends (scale, sweep, active, max_delta, energy) rows
    to `trace` when given. Returns the total number of pixel updates."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    mask = ConvergenceMask(volume.height, volume.width)
    total = 0
    for it in range(1, sweeps + 1):
        updated = sweep(volume, fld, mask, config)
        total += updated
        if trace is not None:
            energy = labeling_energy(volume, extract_disparity(volume, fld),
                                     config.smoothness)
            max_delta = float(mask.last_delta[np.isfinite(mask.last_delta)].max(initial=0.0))
            trace.append((scale, it, int(mask.active.sum()), max_delta, energy))
        if not mask.active.any():
            break
    return total


def extract_disparity(volume, fld):
    """MAP labeling: per-pixel argmin of data cost plus all incoming
    messages, ties toward smaller disparity."""
    belief = volume.costs + fld.msgs.sum(axis=0)
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
