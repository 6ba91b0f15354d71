"""Scalar synchronous min-sum BP built from `update_message`, the
reference that the vectorised sweep is compared against bit for bit."""

from stereo_bp.bp_engine import (
    FROM_DOWN,
    FROM_LEFT,
    FROM_RIGHT,
    FROM_UP,
    MessageField,
    update_message,
)

# receiver offset (dx, dy) of the message that fills each incoming slot
STEPS = {FROM_LEFT: (1, 0), FROM_RIGHT: (-1, 0), FROM_UP: (0, 1), FROM_DOWN: (0, -1)}


def jacobi_bp(volume, sweeps, params):
    """`sweeps` sweeps from zero messages; each recomputes every message
    with `update_message` from a copy of the field as it stood before
    the sweep. Returns the MessageField."""
    h, w = volume.height, volume.width
    fld = MessageField(h, w, volume.levels)
    for _ in range(sweeps):
        before = MessageField(h, w, volume.levels)
        before.msgs = fld.msgs.copy()
        for direction, (dx, dy) in STEPS.items():
            for y in range(h):
                for x in range(w):
                    if 0 <= x + dx < w and 0 <= y + dy < h:
                        fld.msgs[direction, y + dy, x + dx] = update_message(
                            x, y, direction, volume, before, params
                        )
    return fld
