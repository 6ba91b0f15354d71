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

Costs and messages share one label-major layout, the (L, H, W) costs and
the (4, L, H, W) messages, so every step works on whole label planes: the
min-convolution runs along the label axis plane by plane.

A sweep goes through its active senders in ascending flat order, in
chunks of m >= W senders whose (L, m) batch holds about _CHUNK_BYTES. It
reads a chunk's four incoming slots once: through views of the planes
when the senders run without a gap, as every chunk of a sweep with every
pixel active does, else gathered into one label-major (L, 4, m) snapshot.
It builds each slot's message in that slot's column of the snapshot and
sends all four through one kernel call. Messages left and up go to this
chunk or an earlier one, which have read their slots, and are stored at
once; messages right and down land at most W past the chunk's last
sender, so within the next chunk, and are stored once it has read its
slots. So every message comes from the field as it stood before the
sweep. A sweep holds about eleven (L, m) sets of columns, the previous
chunk's snapshot among them, and no temporary the size of a whole
(L, H, W) frame. The final argmin goes through the same chunks.

The per-sweep trace costs what a sweep changed: a sweep leaves on the
mask its largest message change and the pixels whose incoming messages
moved, whatever epsilon is. When the mask carries a labeling, a sweep also
writes into it the argmin of each active sender's belief, which it builds
anyway: the label after the last sweep. So `run_bp` gathers beliefs only
of the moved pixels that are not active again, which at epsilon 0 are
none, and of the last sweep's moved pixels. It keeps the energy's data
and jump terms as arrays, recomputes them at those pixels and sums each
array whole, so every energy has the bits of `labeling_energy`.
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

# Sweeps and the final argmin work one chunk of pixels at a time: a
# chunk's label-major (L, m) batch holds about this many bytes, or a row's
# worth if more. A sweep holds about eleven batches at once, four of them
# the previous chunk's; smaller chunks cost more numpy calls than they save.
_CHUNK_BYTES = 512 * 1024


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
    """Incoming messages: four direction slots per pixel, each a length-L
    vector, in the given dtype (float64 unless told otherwise; the pipeline
    passes the cost volume's dtype, float32 for a built volume). They are
    stored label-major in `planes`, a C-contiguous (4, L, H, W) array, so a
    sweep works on whole (H, W) planes.

    No sweep writes a slot on an edge arriving from outside the image, so
    those stay zero.
    """

    def __init__(self, height, width, levels, dtype=np.float64):
        self.planes = np.zeros((4, levels, height, width), dtype=dtype)

    @property
    def height(self):
        return self.planes.shape[2]

    @property
    def width(self):
        return self.planes.shape[3]

    @property
    def levels(self):
        return self.planes.shape[1]


class ConvergenceMask:
    """Per-pixel active flags, the pixels some incoming message of which
    the last sweep moved at all (`changed`; none before the first), and
    the largest change it made to any message (`max_delta`; 0 if none).
    At epsilon > 0 `changed` may hold pixels that are not active again,
    since their change fell below epsilon.

    `labels` is None, or an (H, W) int32 labeling into which a sweep
    writes the label each active pixel had before it, the argmin of the
    belief it reads anyway."""

    def __init__(self, height, width):
        self.active = np.ones((height, width), dtype=bool)
        self.changed = np.zeros((height, width), dtype=bool)
        self.max_delta = 0.0
        self.labels = None


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
    """Costs as (L, H*W) and messages as (4, L, H*W) label-major planes,
    views of their storage."""
    return (volume.costs.reshape(volume.levels, -1),
            fld.planes.reshape(4, fld.levels, -1))


def _chunks(volume, flat):
    """Ascending flat indices `flat` in chunks of m: as many as keep one
    (L, m) batch of the volume's dtype within _CHUNK_BYTES, and at least
    one row's worth, the volume's width."""
    m = max(volume.width, _CHUNK_BYTES // (volume.levels * volume.costs.itemsize))
    return [flat[i:i + m] for i in range(0, flat.size, m)]


def _run(flat):
    """Ascending flat indices as a slice when they run without a gap, so
    that their columns are read and written through views; else as they
    are."""
    if flat.size and flat[-1] - flat[0] == flat.size - 1:
        return slice(flat[0], flat[-1] + 1)
    return flat


def _cols(planes, at, out=None):
    """The columns `at` of label-major planes, `at` as `_run` gives it: a
    view for a slice, for indices a copy gathered into `out` if given."""
    return planes[..., at] if isinstance(at, slice) else np.take(planes, at, axis=-1, out=out)


def _gather(costs, msgs, at):
    """The (L, n) belief columns of the pixels `at` of `_planes`, `at` as
    `_run` gives it, taking one slot's columns at a time."""
    return _belief(_cols(costs, at), (_cols(m, at) for m in msgs))


def _moved(old, new):
    """How far each column moved from `old` to `new`, the largest change
    over its labels; `old` is overwritten on the way."""
    np.subtract(old, new, out=old)
    return np.abs(old, out=old).max(axis=0)


def sweep(volume, fld, mask, config):
    """One synchronous sweep over the active pixels: each of their
    outgoing messages is computed from the field as it stood before the
    sweep. Returns the number of pixels updated.

    The active senders go in chunks, in ascending flat order, each
    through one kernel call from one reading of its four incoming slots,
    through views of the planes for a chunk without gaps. A chunk's
    messages left and up are stored at once; its messages right and
    down, which reach no further than the next chunk of at least a row of
    senders, once that chunk has read its slots. The flat neighbour of a
    sender on the left or right edge is the far end of the previous or
    next row, whose slot from that side arrives from outside the image:
    the sender resends that slot its own value, so no such slot changes
    and no sender need be cut from the middle of a chunk. When
    `mask.labels` is not None, each sender's label before the sweep, the
    argmin of the belief its messages are built from, is written there.
    The message field must hold the costs' dtype: float64 costs are not
    rounded into a float32 field."""
    if (fld.height, fld.width, fld.levels) != (volume.height, volume.width, volume.levels):
        raise ValueError("message field and cost volume dimensions disagree")
    costs, planes = _planes(volume, fld)
    if np.result_type(costs, planes) != planes.dtype:
        raise ValueError(f"{planes.dtype} message field cannot hold {costs.dtype} costs")
    params = config.smoothness
    h, w = fld.height, fld.width
    active = mask.active
    grown = np.zeros(h * w, dtype=bool)  # the next active set
    changed = mask.changed.reshape(-1)
    changed[...] = False
    mask.max_delta = 0.0
    # compared in float64, as float32(0.01) is below 0.01
    epsilon = np.float64(config.epsilon)
    labels = None if mask.labels is None else mask.labels.reshape(-1)

    def record(src, dst, delta):
        """Keep a pixel active while a message out of it or into it moves,
        and by at least epsilon: at epsilon 0 a pixel none of whose messages
        moved would rebuild them bit for bit from unchanged inputs, so
        skipping it changes no message. A belief is data plus incoming
        messages, so it changed where a message into it moved at all."""
        moved = delta >= epsilon if epsilon else delta > 0
        grown[src] |= moved
        grown[dst] |= moved
        changed[dst] |= delta > 0
        mask.max_delta = max(mask.max_delta, float(delta.max(initial=0)))

    def chunk(flat):
        """(slot, senders, receivers, messages) batches of the senders at
        flat indices `flat`, for the messages right, left, down and up, all
        through one kernel call: their four incoming columns are read once,
        label-major, into one snapshot unless they are views, and each
        slot's message is built over its column of the snapshot. Senders
        whose flat receiver lies outside the frame, a prefix or a suffix of
        the chunk, are cut off."""
        at = _run(flat)
        snap = np.empty((fld.levels, 4, flat.size), dtype=planes.dtype)
        incoming = [_cols(plane, at, out=snap[:, k]) for k, plane in enumerate(planes)]
        base = _belief(_cols(costs, at), incoming)
        if labels is not None:
            labels[at] = _argmin(base)
        for back, _, _ in _SENDS.values():
            np.subtract(base, incoming[back], out=snap[:, back])
        del base, incoming
        _minconv_truncated_linear(snap.reshape(fld.levels, -1), params.slope, params.truncation)
        column = flat % w
        batches = []
        for slot, (back, dy, dx) in _SENDS.items():
            step = dy * w + dx
            lo, hi = np.searchsorted(flat, (-step, h * w - step))
            src, msg = flat[lo:hi], snap[:, back, lo:hi]
            if dx:  # senders on the edge dx points past resend the slot its value
                wraps = np.flatnonzero(column[lo:hi] == (w - 1 if dx > 0 else 0))
                msg[:, wraps] = np.take(planes[slot], src[wraps] + step, axis=1)
            batches.append((slot, src, src + step, msg))
        return batches

    def write(batches):
        """Store the messages of each batch, recording how far they moved."""
        for slot, src, dst, msg in batches:
            if not dst.size:
                continue
            at = _run(dst)
            old = _cols(planes[slot], at)
            record(_run(src), at, _moved(old, msg))
            if isinstance(at, slice):
                old[...] = msg
            else:
                for plane, new in zip(planes[slot], msg):
                    plane[dst] = new

    pending = []  # the previous chunk's messages right and down
    for flat in _chunks(volume, np.flatnonzero(active)):
        right, left, down, up = chunk(flat)
        write([*pending, left, up])
        pending = [right, down]
    write(pending)
    mask.active = grown.reshape(h, w)
    return int(np.count_nonzero(active))


def run_bp(volume, fld, config, sweeps, trace=None, scale=None):
    """Run up to `sweeps` sweeps, stopping once no pixel is active (at
    epsilon 0, once no message moved at all: an exact fixed point).
    Appends (scale, sweep, active, max_delta, energy) rows to `trace` when
    given: the sweep's largest message change, 0 once none moved, and the
    energy of the MAP labeling after it, with the bits of
    `labeling_energy` of `extract_disparity`. The labeling is taken whole
    after the first sweep; after that each sweep writes the labels its
    senders had after the last one, so a row is appended one sweep late,
    once the labels and energy terms of the pixels whose beliefs moved
    are brought up to date. Returns the total number of updates."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    mask = ConvergenceMask(volume.height, volume.width)
    total = 0
    terms = None
    for it in range(1, sweeps + 1):
        if terms is not None:
            # pixels whose belief moved but that send nothing this sweep,
            # relabeled before the sweep moves their beliefs again
            _relabel(volume, fld, mask.labels, stale & ~mask.active)
        updated = sweep(volume, fld, mask, config)
        total += updated
        if trace is not None:
            if terms is None:
                mask.labels = extract_disparity(volume, fld).labels
                terms = _EnergyTerms(volume, mask.labels, config.smoothness)
                stale = np.zeros_like(mask.changed)
            else:
                terms.update(np.flatnonzero(stale))
                trace.append((*row, terms.total()))
                stale = mask.changed.copy()
            row = (scale, it, int(mask.active.sum()), mask.max_delta)
        if not mask.active.any():
            break
    if trace is not None:
        _relabel(volume, fld, mask.labels, stale)
        terms.update(np.flatnonzero(stale))
        trace.append((*row, terms.total()))
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
    costs, msgs = _planes(volume, fld)
    for flat in _chunks(volume, np.flatnonzero(changed)):
        np.put(labels, flat, _argmin(_gather(costs, msgs, _run(flat))))


def extract_disparity(volume, fld):
    """MAP labeling: per-pixel argmin of data cost plus all incoming
    messages, ties toward smaller disparity. Taken chunk by chunk, as a
    sweep goes, so no whole-frame belief is held."""
    labels = np.empty((volume.height, volume.width), dtype=np.int32)
    _relabel(volume, fld, labels, np.ones(labels.shape, dtype=bool))
    return DisparityMap(labels)


class _EnergyTerms:
    """The terms of `labeling_energy` of `labels`, kept as arrays: the
    (H, W) data costs at the labels and the (H, W-1) and (H-1, W) jump
    costs. `update` recomputes the terms at relabeled pixels; `total` sums
    each array whole, so it gives the bits of a whole-frame recompute."""

    def __init__(self, volume, labels, params):
        self.costs, self.labels, self.params = volume.costs, labels, params
        _, h, w = volume.costs.shape
        # each pixel's cost read from its label's plane
        at = labels.astype(np.intp).reshape(-1) * (h * w) + np.arange(h * w)
        self.data = np.take(volume.costs, at).reshape(h, w)
        self.dh = self._jump(labels[:, :-1], labels[:, 1:])
        self.dv = self._jump(labels[:-1, :], labels[1:, :])

    def _jump(self, a, b):
        return np.minimum(self.params.slope * np.abs(b - a), self.params.truncation)

    def update(self, flat):
        """Recompute the terms at the flat pixels `flat`, whose labels
        changed, and at every edge that touches one of them."""
        h, w = self.labels.shape
        labels = self.labels.reshape(-1)
        self.data.reshape(-1)[flat] = np.take(
            self.costs, labels[flat].astype(np.intp) * (h * w) + flat)
        column = flat % w
        # an edge is stored at its left or upper pixel, a horizontal one
        # at flat index p - p // w of its (H, W-1) array
        left = np.concatenate([flat[column > 0] - 1, flat[column < w - 1]])
        self.dh.reshape(-1)[left - left // w] = self._jump(labels[left], labels[left + 1])
        up = np.concatenate([flat[flat >= w] - w, flat[flat < (h - 1) * w]])
        self.dv.reshape(-1)[up] = self._jump(labels[up], labels[up + w])

    def total(self):
        # the data term summed in float64, as a float32 sum over a whole
        # frame loses digits
        return float(self.data.sum(dtype=np.float64) + self.dh.sum() + self.dv.sum())


def labeling_energy(volume, disparity, params):
    """Data energy of the labeling plus truncated-linear smoothness over
    all 4-connected neighbor pairs (each pair counted once)."""
    labels = disparity.labels
    if labels.shape != volume.costs.shape[1:]:
        raise ValueError("labeling and cost volume dimensions disagree")
    if (labels == INVALID).any():
        raise ValueError("labeling contains INVALID pixels")
    levels = volume.costs.shape[0]
    if labels.min() < 0 or labels.max() >= levels:
        raise ValueError(f"labeling has labels outside [0, {levels})")
    return _EnergyTerms(volume, labels, params).total()
