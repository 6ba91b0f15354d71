"""Scalar references and exact oracles that the vectorised code in
`stereo_bp` is checked against.

- `smoothness_cost`, `ncc_score`: the pairwise jump cost and the windowed
  NCC, one pair or one window at a time.
- `update_message` and `jacobi_bp`: synchronous min-sum BP, one message at
  a time. Neighbours come from this module's own `STEPS` and `BACK`
  tables, not from the sweep's, so a wrong slot in either shows up as a
  disagreement.
- `scheduled_sweep` and `scheduled_bp`: the same, but with the epsilon
  schedule: only active senders are recomputed, and the active set is
  rebuilt after each sweep.
- `exact_map_chain`, `exact_map_grid_small`: exact MAP on a chain
  (Viterbi) and on a tiny grid (exhaustive search).
- `msgs`, `pixel_costs`: a message field as a pixel-major (4, H, W, L)
  view and a cost volume as a pixel-major (H, W, L) view, the layouts the
  references index in; `pixel_volume` builds a volume from (H, W, L) costs.

Only the data types, the slot numbers, `labeling_energy` and the
min-convolution kernel come from `stereo_bp`.
"""

import itertools

import numpy as np

from stereo_bp import CostVolume, DisparityMap, GrayImage, labeling_energy
from stereo_bp.bp_engine import (
    FROM_DOWN,
    FROM_LEFT,
    FROM_RIGHT,
    FROM_UP,
    MessageField,
    _minconv_truncated_linear,
)

# receiver offset (dx, dy) of the message that fills each incoming slot
STEPS = {FROM_LEFT: (1, 0), FROM_RIGHT: (-1, 0), FROM_UP: (0, 1), FROM_DOWN: (0, -1)}

# the sender's slot holding what came from the receiver, which the message
# toward the receiver leaves out
BACK = {
    FROM_LEFT: FROM_RIGHT,
    FROM_RIGHT: FROM_LEFT,
    FROM_UP: FROM_DOWN,
    FROM_DOWN: FROM_UP,
}


def msgs(fld):
    """The messages of `fld` as a (4, H, W, L) array, indexed [slot, y, x]
    to a length-L vector: a view of its label-major planes, which writes
    through to them."""
    return fld.planes.transpose(0, 2, 3, 1)


def pixel_costs(volume):
    """The costs of `volume` as an (H, W, L) array, indexed [y, x] to a
    length-L vector: a view of its label-major planes."""
    return volume.costs.transpose(1, 2, 0)


def pixel_volume(costs):
    """A CostVolume from pixel-major (H, W, L) costs."""
    return CostVolume(np.moveaxis(np.asarray(costs), -1, 0))


def smoothness_cost(a, b, params):
    return min(params.slope * abs(a - b), params.truncation)


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


def update_message(x, y, direction, volume, fld, params):
    """Recompute the single message from pixel (x, y) toward its neighbor in
    `direction` (a FROM_* constant naming the slot it fills at the receiver)
    from the field's current messages. Returns the min-normalized vector."""
    dx, dy = STEPS[direction]
    if not (0 <= x + dx < fld.width and 0 <= y + dy < fld.height):
        raise ValueError(f"pixel ({x}, {y}) has no neighbor in direction {direction}")
    incoming = msgs(fld)[:, y, x]
    h = pixel_costs(volume)[y, x] + incoming.sum(axis=0) - incoming[BACK[direction]]
    return _minconv_truncated_linear(h, params.slope, params.truncation)


def jacobi_bp(volume, sweeps, params):
    """`sweeps` sweeps from zero messages; each recomputes every message
    with `update_message` from a copy of the field as it stood before
    the sweep. Returns the MessageField."""
    h, w = volume.height, volume.width
    fld = MessageField(h, w, volume.levels)
    for _ in range(sweeps):
        before = MessageField(h, w, volume.levels)
        msgs(before)[...] = msgs(fld)
        for direction, (dx, dy) in STEPS.items():
            for y in range(h):
                for x in range(w):
                    if 0 <= x + dx < w and 0 <= y + dy < h:
                        msgs(fld)[direction, y + dy, x + dx] = update_message(
                            x, y, direction, volume, before, params
                        )
    return fld


def scheduled_sweep(volume, fld, active, params, epsilon):
    """One sweep of `scheduled_bp`, in place on `fld`: recompute, with
    `update_message` and from a copy of the field as it stood before the
    sweep, every message sent by an `active` pixel. A change "moves" when
    it is > 0 and >= epsilon, compared in float64. A sender stays active
    iff the largest change among the messages it wrote moves; a pixel
    becomes active iff any incoming message written to it moves.

    Returns (the next active mask, the pixels some incoming message of
    which changed at all, the largest change, pixel updates)."""
    def moved(change):
        return (change > 0) & (change >= epsilon)

    h, w = volume.height, volume.width
    before = MessageField(h, w, volume.levels, fld.planes.dtype)
    msgs(before)[...] = msgs(fld)
    sent = np.zeros((h, w))  # largest change among a sender's messages
    received = np.zeros((h, w))  # largest change among a receiver's
    for y in range(h):
        for x in range(w):
            if not active[y, x]:
                continue
            for direction, (dx, dy) in STEPS.items():
                qx, qy = x + dx, y + dy
                if not (0 <= qx < w and 0 <= qy < h):
                    continue
                msg = update_message(x, y, direction, volume, before, params)
                change = np.abs(msg - msgs(before)[direction, qy, qx]).max()
                msgs(fld)[direction, qy, qx] = msg
                sent[y, x] = max(sent[y, x], change)
                received[qy, qx] = max(received[qy, qx], change)
    return moved(sent) | moved(received), received > 0, float(sent.max()), int(active.sum())


def scheduled_bp(volume, sweeps, params, epsilon):
    """Up to `sweeps` `scheduled_sweep`s from zero messages. Every pixel
    starts active, and the run stops once none is; at epsilon 0 that is an
    exact fixed point.

    Returns (MessageField, active masks after each sweep, pixel updates)."""
    fld = MessageField(volume.height, volume.width, volume.levels)
    active = np.ones((volume.height, volume.width), dtype=bool)
    masks, updates = [], 0
    for _ in range(sweeps):
        active, _, _, updated = scheduled_sweep(volume, fld, active, params, epsilon)
        updates += updated
        masks.append(active)
        if not active.any():
            break
    return fld, masks, updates


def exact_map_chain(costs, params):
    """Exact MAP on a chain by Viterbi dynamic programming.

    costs: (N, L) per-node cost vectors. Minimizes sum of node costs plus
    truncated-linear jump costs between consecutive nodes; ties break
    toward smaller labels at each backtrack step. Returns (labels, energy).
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] < 1:
        raise ValueError("need a non-empty (N, L) cost array")
    n, levels = costs.shape
    d = np.arange(levels)
    jump = np.minimum(params.slope * np.abs(d[:, None] - d[None, :]),
                      params.truncation)  # (prev, next)
    best = costs[0].copy()
    back = np.zeros((n, levels), dtype=np.int64)
    for i in range(1, n):
        trans = best[:, None] + jump  # (prev, next)
        back[i] = np.argmin(trans, axis=0)  # smallest prev label on ties
        best = trans[back[i], d] + costs[i]
    labels = np.empty(n, dtype=np.int32)
    labels[-1] = int(np.argmin(best))
    energy = float(best[labels[-1]])
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    return labels, energy


def exact_map_grid_small(volume, params):
    """Exhaustive MAP over all labelings of a tiny grid; ties resolve to
    the lexicographically smallest labeling (row-major pixel order).
    Guarded to L^(W*H) <= 1e7 instances."""
    h, w, levels = pixel_costs(volume).shape
    if levels ** (h * w) > 10**7:
        raise ValueError(f"{w}x{h} grid with {levels} labels is too large to enumerate")
    best_labels = None
    best_energy = np.inf
    for assignment in itertools.product(range(levels), repeat=h * w):
        labels = np.array(assignment, dtype=np.int32).reshape(h, w)
        e = labeling_energy(volume, DisparityMap(labels), params)
        if e < best_energy:
            best_energy = e
            best_labels = labels
    return best_labels, float(best_energy)
