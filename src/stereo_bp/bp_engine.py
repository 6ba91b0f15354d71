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
the planes. Any other sweep gathers its active pixels into (L, n) columns.

A dense sweep and the final argmin hold no temporary the size of a whole
(L, H, W) frame: they go one strip of rows at a time, one slot's batch of
a strip about _STRIP_BYTES. A strip reads only its own rows, and its
messages reach at most one row beyond it, into the first row of the next
strip; that row is held until the next strip is built, so every message
still comes from the field as it stood before the sweep. A gathered sweep
goes one chunk of senders at a time, in ascending flat order, a chunk's
(L, m) batch about _STRIP_BYTES: it takes the chunk's four incoming slots
once, as one label-major (L, 4, m) snapshot, builds each slot's message
over the column of what came from its receiver, and sends all four
through one kernel call, so it holds about six (L, m) sets of columns.
Only messages to the right or down can reach a sender of a later chunk;
each is held until that chunk has taken its snapshot.

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

# Dense sweeps and the final argmin work one strip of rows at a time: one
# slot's label-major batch of a strip holds about this many bytes. A dense
# sweep holds a strip's belief and its four batches at once; smaller strips
# cost more numpy calls than they save.
_STRIP_BYTES = 512 * 1024


@dataclass
class SmoothnessParams:
    """Truncated-linear jump cost V(a, b) = min(slope * |a - b|, truncation)."""

    slope: float = 1.0
    truncation: float = 2.0

    def __post_init__(self):
        if not (0 <= self.slope < np.inf and 0 < self.truncation < np.inf):  # NaN included
            raise ValueError("slope must be finite and >= 0, truncation finite and > 0")


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
    # one view per label plane, and one buffer for the stepped plane
    planes = [h[d:d + 1] for d in range(h.shape[0])]
    step = np.empty_like(planes[0])
    for prev, cur in (*zip(planes, planes[1:]), *zip(planes[::-1], planes[-2::-1])):
        np.add(prev, slope, out=step)
        np.minimum(cur, step, out=cur)
    np.minimum(h, floor + truncation, out=h)
    h -= floor
    return h


def _belief(costs, msgs):
    """costs + (((m0 + m1) + m2) + m3), summed in that order everywhere so
    that every layout gives the same bits. `msgs` may be any iterable of
    the four slots, so that gathered slots are taken one at a time."""
    msgs = iter(msgs)
    total = next(msgs) + next(msgs)
    for more in msgs:
        total += more
    total += costs
    return total


def _planes(volume, fld):
    """Costs as (L, H*W) and messages as (4, L, H*W) label-major planes:
    views of the pipeline's storage; copies for a field whose layout numpy
    cannot flatten in place."""
    return (volume.costs.transpose(2, 0, 1).reshape(volume.levels, -1),
            fld.msgs.transpose(0, 3, 1, 2).reshape(4, fld.levels, -1))


def _gather(costs, msgs, flat):
    """The (L, n) belief columns of the pixels at flat indices `flat` of
    `_planes`, taking one slot's columns at a time."""
    return _belief(np.take(costs, flat, axis=1), (np.take(m, flat, axis=1) for m in msgs))


def _strip_rows(volume):
    """Rows per strip: as many as keep one (L, rows, W) batch of the
    volume's dtype within _STRIP_BYTES, and at least one."""
    row = volume.levels * volume.width * volume.costs.itemsize
    return max(1, _STRIP_BYTES // row)


def _span(lo, hi, n, d):
    """The senders in [lo, hi) of an axis of length n whose receivers, d
    away along it, lie inside it; as a slice, and the receivers' slice."""
    a, b = max(lo, -d), min(hi, n - d)
    return slice(a, b), slice(a + d, b + d)


def _sections(levels, sizes, dtype):
    """One (L, sum(sizes)) kernel input, and its (L, size) sections. The
    kernel works column by column, so batching sections changes no bit."""
    ends = np.cumsum(sizes)
    batch = np.empty((levels, ends[-1]), dtype=dtype)
    return batch, np.split(batch, ends[:-1], axis=1)


def _moved(old, new):
    """How far each column moved from `old` to `new`, the largest change
    over its labels; `old` is overwritten on the way."""
    np.subtract(old, new, out=old)
    return np.abs(old, out=old).max(axis=0)


def sweep(volume, fld, mask, config):
    """One synchronous sweep over the active pixels: each of their
    outgoing messages is computed from the field as it stood before the
    sweep. Returns the number of pixels updated.

    When every pixel is active, the senders go top to bottom in strips of
    whole rows, each slot's senders and receivers two shifted slices of
    the strip's label-major (L, rows, W) planes. A strip's messages reach
    at most one row beyond it: those its last row sends down, into the
    first row of the next strip. So that row is held until the next strip
    is built, and every message still comes from the field as it stood
    before the sweep; the rest land in the strip or the rows above it,
    which no later strip reads. Otherwise the active senders go in
    chunks, in ascending flat order, each through one kernel call from
    one snapshot of its four incoming slots; a message to the right or
    down, the only kind that can reach a later chunk, is held until the
    chunk of its receiver has taken its snapshot. Both give the same
    bits."""
    return _sweep(volume, fld, mask, config, dense=bool(mask.active.all()))


def _sweep(volume, fld, mask, config, dense):
    """`sweep` by shifted slices of row strips (`dense`, which needs every
    pixel active) or by gathered columns."""
    if (fld.height, fld.width, fld.levels) != (volume.height, volume.width, volume.levels):
        raise ValueError("message field and cost volume dimensions disagree")
    params = config.smoothness
    msgs = fld.msgs.transpose(0, 3, 1, 2)  # (4, L, H, W)
    h, w = fld.height, fld.width
    active = mask.active
    grown = np.zeros((h, w), dtype=bool)  # the next active set
    mask.changed[...] = False
    mask.max_delta = 0.0
    # compared in float64, as float32(0.01) is below 0.01
    epsilon = np.float64(config.epsilon)
    # a dense sweep indexes the frames by (rows, columns) slices, a
    # gathered one their flat views by flat indices
    frames = (grown, mask.changed) if dense else (grown.reshape(-1), mask.changed.reshape(-1))

    def record(src, dst, delta):
        """Keep a pixel active while a message out of it or into it moves,
        and by at least epsilon: at epsilon 0 a pixel none of whose messages
        moved would rebuild them bit for bit from unchanged inputs, so
        skipping it changes no message. A belief is data plus incoming
        messages, so it changed where a message into it moved at all."""
        nxt, changed = frames
        moved = delta >= epsilon if epsilon else delta > 0
        nxt[src] |= moved
        nxt[dst] |= moved
        changed[dst] |= delta > 0
        mask.max_delta = max(mask.max_delta, float(delta.max(initial=0)))

    if dense:
        costs = volume.costs.transpose(2, 0, 1)

        def strip(top, bottom):
            """(slot, senders, receivers, messages) batches of the senders in
            rows [top, bottom), all through one kernel call: data + all
            incoming but what came from the receiver, min-convolved. The
            last batch, copied out, holds the messages sent down from the
            last row: the only ones that leave the strip."""
            base = _belief(costs[:, top:bottom], msgs[:, :, top:bottom])
            spans = [(slot, _span(top, bottom, h, dy), _span(0, w, w, dx))
                     for slot, (_, dy, dx) in _SENDS.items() if slot != FROM_UP]
            spans += [(FROM_UP, _span(a, b, h, 1), _span(0, w, w, 0))
                      for a, b in ((top, bottom - 1), (bottom - 1, bottom))]
            shapes = [(sy.stop - sy.start, sx.stop - sx.start) for _, (sy, _), (sx, _) in spans]
            batch, parts = _sections(fld.levels, [r * c for r, c in shapes], base.dtype)
            batches = []
            for (slot, (sy, ry), (sx, rx)), part, shape in zip(spans, parts, shapes):
                hq = part.reshape(fld.levels, *shape)
                np.subtract(base[:, sy.start - top:sy.stop - top, sx],
                            msgs[_SENDS[slot][0]][:, sy, sx], out=hq)
                batches.append((slot, (sy, sx), (ry, rx), hq))
            del base
            _minconv_truncated_linear(batch, params.slope, params.truncation)
            slot, src, dst, hq = batches.pop()
            return batches + [(slot, src, dst, hq.copy())]

        def write(batches):
            """Store each batch through its receivers' planes, dropping it."""
            while batches:
                slot, src, dst, msg = batches.pop()
                old = msgs[slot][:, dst[0], dst[1]]
                record(src, dst, _moved(old, msg))
                old[...] = msg

        # the row a strip sends into the next is written once the next is
        # built, from the field as it stood before the sweep; the rest of
        # its messages land inside the strip or behind it, at once
        rows, held = _strip_rows(volume), []
        for top in range(0, h, rows):
            ready = strip(top, min(top + rows, h))
            write(held)
            held = [ready.pop()]
            write(ready)
        write(held)
    else:
        costs, planes = _planes(volume, fld)
        senders = np.flatnonzero(active)
        size = max(1, _STRIP_BYTES // (fld.levels * costs.itemsize))

        def chunk(flat):
            """(slot, senders, receivers, messages) batches of the senders at
            flat indices `flat`, all through one kernel call: their four
            incoming columns are taken once, label-major, and each slot's
            message is built over the column of what came from its receiver."""
            snap = np.empty((fld.levels, 4, flat.size), dtype=np.result_type(costs, planes))
            for plane, column in zip(planes, snap.transpose(1, 0, 2)):
                column[...] = np.take(plane, flat, axis=1)
            base = _belief(np.take(costs, flat, axis=1), snap.transpose(1, 0, 2))
            for back, _, _ in _SENDS.values():
                np.subtract(base, snap[:, back], out=snap[:, back])
            del base
            _minconv_truncated_linear(snap.reshape(fld.levels, -1), params.slope, params.truncation)
            ys, xs = np.divmod(flat, w)
            edges = {FROM_LEFT: xs == w - 1, FROM_RIGHT: xs == 0,
                     FROM_UP: ys == h - 1, FROM_DOWN: ys == 0}
            batches = []
            for slot, (back, dy, dx) in _SENDS.items():
                src, msg, edge = flat, snap[:, back], edges[slot]
                if edge.any():  # senders with no receiver this way
                    src, msg = flat[~edge], np.compress(~edge, msg, axis=1)
                batches.append((slot, src, src + (dy * w + dx), msg))
            return batches

        def write(batches, limit):
            """Store the messages of each batch whose receivers lie before
            flat index `limit`; return the rest, copied out."""
            held = []
            for slot, src, dst, msg in batches:
                cut = np.searchsorted(dst, limit)
                if cut < dst.size:
                    held.append((slot, src[cut:], dst[cut:], msg[:, cut:].copy()))
                    src, dst, msg = src[:cut], dst[:cut], msg[:, :cut]
                if cut:
                    record(src, dst, _moved(np.take(planes[slot], dst, axis=1), msg))
                    for plane, new in zip(planes[slot], msg):
                        plane[dst] = new
            return held

        # chunks go in ascending flat order, so only messages to the right
        # or down can land on a sender of a later chunk: each is held until
        # the chunk of its receiver has taken its snapshot
        held = []
        for start in range(0, senders.size, size):
            stop = start + size
            limit = senders[stop] if stop < senders.size else h * w
            held = write(held + chunk(senders[start:stop]), limit)
        if not np.may_share_memory(planes, msgs):  # `_planes` copied them
            msgs[...] = planes.reshape(msgs.shape)

    mask.active = grown
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
    np.put(labels, flat, _argmin(_gather(*_planes(volume, fld), flat)))


def extract_disparity(volume, fld):
    """MAP labeling: per-pixel argmin of data cost plus all incoming
    messages, ties toward smaller disparity. Taken strip by strip, as a
    dense sweep goes, so no whole-frame belief is held."""
    costs, msgs = volume.costs.transpose(2, 0, 1), fld.msgs.transpose(0, 3, 1, 2)
    rows = _strip_rows(volume)
    return DisparityMap(np.concatenate([
        _argmin(_belief(costs[:, top:top + rows], msgs[:, :, top:top + rows]))
        for top in range(0, volume.height, rows)]))


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
