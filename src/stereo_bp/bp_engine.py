"""Min-sum loopy belief propagation on the 4-connected pixel grid.

Messages are length-L vectors sent between neighboring pixels; the update
for the message from p toward q minimizes, over p's disparity, the data
cost at p plus the truncated-linear jump cost plus the incoming messages
at p from everyone but q. Updates are synchronous (Jacobi): a sweep
computes every new message from the field as it stood before the sweep,
then writes them all into the one message buffer, so results are
independent of evaluation order. Only active pixels are recomputed: a
pixel stays active while a message out of it or into it moves, and by at
least epsilon. At epsilon 0 a pixel is skipped only when none of its
messages changed in the last sweep, so it would have rebuilt them bit for
bit: messages, deltas and labels are those of the standard schedule that
recomputes every pixel every sweep, and a run stops early only at an
exact fixed point.

Costs and messages keep their (H, W, L) and (4, H, W, L) shapes but are
stored label-major, so every step works on whole (H, W) planes, one per
label: the min-convolution runs along the label axis plane by plane, and a
sweep in which every pixel is active reads and writes shifted slices of
the planes. Any other sweep gathers its active pixels into (L, n) columns
and sends all four directions through one kernel call.

The per-sweep trace costs what a sweep changed: a sweep leaves on the
mask its largest message change and the pixels whose incoming messages
moved, whatever epsilon is; `run_bp` re-derives the label of only those
pixels, from their gathered belief columns, before scoring the labeling.
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

# Per offset along an axis: the slices of that axis holding the senders
# and the receivers.
_SHIFTS = {
    1: (slice(None, -1), slice(1, None)),
    -1: (slice(1, None), slice(None, -1)),
    0: (slice(None), slice(None)),
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
    # a pixel stays active while its messages move, and by at least this;
    # at 0 only an exact change counts, which skips work but gives the bits
    # of the standard schedule that recomputes every pixel every sweep
    epsilon: float = 1e-3
    smoothness: SmoothnessParams = field(default_factory=SmoothnessParams)

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


class MessageField:
    """Incoming messages as a (4, H, W, L) array `msgs`: four direction
    slots per pixel, each a length-L vector, stored label-major in the
    given dtype (float64 unless told otherwise; the pipeline passes the
    cost volume's dtype, float32 for a built volume). Any (4, H, W, L)
    array may be assigned to `msgs`; another memory layout gives the same
    results, only more slowly.

    Slots on edges arriving from outside the image stay identically zero.
    """

    def __init__(self, height, width, levels, dtype=np.float64):
        # Stored label-major: msgs.transpose(0, 3, 1, 2) is a C-contiguous
        # (4, L, H, W) array, so the sweep works on whole (H, W) planes.
        self.msgs = np.zeros((4, levels, height, width), dtype=dtype).transpose(0, 2, 3, 1)

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
    """Per-pixel active flags, the pixels some incoming message of which
    the last sweep moved at all (`changed`; none before the first), and
    the largest change it made to any message (`max_delta`; 0 if none).
    At epsilon > 0 `changed` may hold pixels that are not active again,
    since their change fell below epsilon."""

    def __init__(self, height, width):
        self.active = np.ones((height, width), dtype=bool)
        self.changed = np.zeros((height, width), dtype=bool)
        self.max_delta = 0.0


def _minconv_truncated_linear(h, slope, truncation):
    """min over d' of h[d', ...] + min(slope * |d - d'|, truncation), then
    min-normalized to 0, via the two-pass linear-time distance transform.
    Labels run along axis 0, so each step is one whole-plane operation.
    Works in place: h is overwritten with the result, which is returned."""
    floor = np.min(h, axis=0, keepdims=True)
    for d in range(1, h.shape[0]):
        np.minimum(h[d, ...], h[d - 1, ...] + slope, out=h[d, ...])
    for d in range(h.shape[0] - 2, -1, -1):
        np.minimum(h[d, ...], h[d + 1, ...] + slope, out=h[d, ...])
    np.minimum(h, floor + truncation, out=h)
    h -= floor
    return h


def _belief(costs, msgs):
    """costs + (((m0 + m1) + m2) + m3), summed in that order everywhere so
    that every layout gives the same bits."""
    total = msgs[0] + msgs[1]
    total += msgs[2]
    total += msgs[3]
    total += costs
    return total


def _gather(volume, fld, flat):
    """The (4, L, n) incoming message and (L, n) belief columns of the
    pixels at flat indices `flat`, label-major whatever the field's layout."""
    costs = volume.costs.transpose(2, 0, 1).reshape(fld.levels, -1)  # (L, H*W)
    msgs = fld.msgs.transpose(0, 3, 1, 2).reshape(4, fld.levels, -1)
    incoming = np.take(msgs, flat, axis=2)
    return incoming, _belief(np.take(costs, flat, axis=1), incoming)


def sweep(volume, fld, mask, config):
    """One synchronous sweep over the active pixels: each of their
    outgoing messages is computed from the field as it stood before the
    sweep. Returns the number of pixels updated.

    When every pixel is active, each slot's senders and receivers are two
    shifted slices of the label-major (L, H, W) planes; otherwise the
    active senders are gathered into (L, n) columns. Both give the same
    bits."""
    return _sweep(volume, fld, mask, config, dense=bool(mask.active.all()))


def _sweep(volume, fld, mask, config, dense):
    """`sweep` by shifted slices (`dense`, which needs every pixel active)
    or by gathered columns."""
    if (fld.height, fld.width, fld.levels) != (volume.height, volume.width, volume.levels):
        raise ValueError("message field and cost volume dimensions disagree")
    params = config.smoothness
    msgs = fld.msgs.transpose(0, 3, 1, 2)  # (4, L, H, W)
    h, w = fld.height, fld.width
    active = mask.active

    if dense:
        base = _belief(volume.costs.transpose(2, 0, 1), msgs)
    else:
        ys, xs = np.nonzero(active)
        incoming, base = _gather(volume, fld, ys * w + xs)
        planes = h * w * np.arange(fld.levels)[:, None]  # offset of each label plane

    def prepare(slot):
        """The senders and receivers of `slot` as (H, W) indices, and h
        toward each receiver: data + all incoming but the one it sent."""
        back, dy, dx = _SENDS[slot]
        if dense:
            (sy, ry), (sx, rx) = _SHIFTS[dy], _SHIFTS[dx]
            return (sy, sx), (ry, rx), base[:, sy, sx] - msgs[back][:, sy, sx]
        qy, qx = ys + dy, xs + dx
        has = (qy >= 0) & (qy < h) & (qx >= 0) & (qx < w)
        hq = np.compress(has, base, axis=1) - np.compress(has, incoming[back], axis=1)
        return (ys[has], xs[has]), (qy[has], qx[has]), hq

    # a sender's outgoing change is the most any slot it writes moves;
    # a receiver's incoming change, the most any of its slots moves
    out_delta = np.zeros((h, w))
    incoming_delta = np.zeros((h, w))

    def write(slot, src, dst, msg):
        ry, rx = dst
        if dense:
            change = msg - msgs[slot][:, ry, rx]
            msgs[slot][:, ry, rx] = msg
        else:
            at = planes + (ry * w + rx)
            change = msg - np.take(msgs[slot], at)
            np.put(msgs[slot], at, msg)
        delta = np.abs(change, out=change).max(axis=0)
        out_delta[src] = np.maximum(out_delta[src], delta)
        incoming_delta[dst] = np.maximum(incoming_delta[dst], delta)

    if dense:
        # opposite slots read each other (a message leaves out what came
        # from its receiver), so both of a pair are prepared before either
        # is sent; one pair at a time, each batch dropped once sent, so that
        # at most two whole-plane batches are held at once
        for pair in ((FROM_LEFT, FROM_RIGHT), (FROM_UP, FROM_DOWN)):
            batches = [(slot, *prepare(slot)) for slot in pair]
            while batches:
                slot, src, dst, hq = batches.pop()
                write(slot, src, dst, _minconv_truncated_linear(
                    hq, params.slope, params.truncation))
    else:
        # all four slots are prepared before any is written, and their
        # columns, concatenated, go through one kernel call: the kernel
        # works column by column, so the batching changes no bit
        batches = [(slot, *prepare(slot)) for slot in _SENDS]
        msg = _minconv_truncated_linear(
            np.concatenate([hq for *_, hq in batches], axis=1),
            params.slope, params.truncation)
        ends = np.cumsum([hq.shape[1] for *_, hq in batches])
        for (slot, src, dst, _), part in zip(batches, np.split(msg, ends[:-1], axis=1)):
            write(slot, src, dst, part)

    # every message moved is some sender's, so this is the sweep's largest
    mask.max_delta = float(out_delta.max())

    def moved(delta):
        return (delta > 0) & (delta >= config.epsilon)

    # a pixel stays active while a message out of it or into it moves, and
    # by at least epsilon. One that sent nothing has out_delta 0. At
    # epsilon 0 a pixel none of whose messages moved would rebuild them bit
    # for bit from unchanged inputs, so skipping it changes no message
    mask.active = moved(out_delta) | moved(incoming_delta)
    # a belief is data plus incoming messages, so only these moved
    np.greater(incoming_delta, 0, out=mask.changed)
    return int(np.count_nonzero(active))


def run_bp(volume, fld, config, sweeps, trace=None, scale=None):
    """Run up to `sweeps` sweeps, stopping once no pixel is active (at
    epsilon 0, once no message moved at all: an exact fixed point).
    Appends (scale, sweep, active, max_delta, energy) rows to `trace` when
    given: the sweep's largest message change, 0 once none moved, and the
    energy of the MAP labeling after it, kept across sweeps (taken whole
    after the first, then re-derived only where a belief moved, with the
    bits of `extract_disparity`). Returns the total number of updates."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    mask = ConvergenceMask(volume.height, volume.width)
    total = 0
    labels = None
    for it in range(1, sweeps + 1):
        updated = sweep(volume, fld, mask, config)
        total += updated
        if trace is not None:
            if labels is None:
                labels = extract_disparity(volume, fld)
            else:
                _relabel(volume, fld, labels.labels, mask.changed)
            energy = labeling_energy(volume, labels, config.smoothness)
            trace.append((scale, it, int(mask.active.sum()), mask.max_delta, energy))
        if not mask.active.any():
            break
    return total


def _argmin(belief):
    """np.argmin(belief, axis=0) from whole-plane reductions, as np.argmin
    scans the label-major array pixel by pixel: L less the largest L - d
    over the labels d at which the belief is least."""
    levels = belief.shape[0]
    rank = np.arange(levels, 0, -1, dtype=np.min_scalar_type(levels))
    rank = rank.reshape((-1,) + (1,) * (belief.ndim - 1))
    return levels - ((belief == belief.min(axis=0)) * rank).max(axis=0)


def _relabel(volume, fld, labels, changed):
    """Relabel the `changed` pixels in place, as `extract_disparity` would."""
    flat = np.flatnonzero(changed)
    np.put(labels, flat, _argmin(_gather(volume, fld, flat)[1]))


def extract_disparity(volume, fld):
    """MAP labeling: per-pixel argmin of data cost plus all incoming
    messages, ties toward smaller disparity."""
    belief = _belief(volume.costs.transpose(2, 0, 1), fld.msgs.transpose(0, 3, 1, 2))
    return DisparityMap(_argmin(belief))


def labeling_energy(volume, disparity, params):
    """Data energy of the labeling plus truncated-linear smoothness over
    all 4-connected neighbor pairs (each pair counted once)."""
    labels = disparity.labels
    if labels.shape != volume.costs.shape[:2]:
        raise ValueError("labeling and cost volume dimensions disagree")
    if (labels == INVALID).any():
        raise ValueError("labeling contains INVALID pixels")
    h, w, levels = volume.costs.shape
    if labels.min() < 0 or labels.max() >= levels:
        raise ValueError(f"labeling has labels outside [0, {levels})")
    # each pixel's cost read from its label's plane of the label-major
    # storage; accumulated in float64, as a float32 sum over a whole frame
    # loses digits
    at = labels.astype(np.intp).reshape(-1) * (h * w) + np.arange(h * w)
    data = np.take(volume.costs.transpose(2, 0, 1), at).reshape(h, w).sum(dtype=np.float64)
    s, t = params.slope, params.truncation
    dh = np.minimum(s * np.abs(labels[:, 1:] - labels[:, :-1]), t).sum()
    dv = np.minimum(s * np.abs(labels[1:, :] - labels[:-1, :]), t).sum()
    return float(data + dh + dv)
