"""Correctness gate: decode a match's output PGM independently of the
program and score it against the fixture's ground truth."""

from __future__ import annotations

import re

import numpy as np

_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


class GateError(ValueError):
    """A match output that the gate rejects."""


def decode_pgm(data):
    """(height, width) uint8 raster of binary PGM bytes."""
    m = _P5_HEADER.match(data)
    if m is None:
        raise GateError("output is not a binary PGM")
    width, height, maxval = (int(g) for g in m.groups())
    body = data[m.end():]
    if maxval > 255 or len(body) != width * height:
        raise GateError(
            f"PGM {width}x{height} maxval {maxval} has {len(body)} raster bytes"
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)


def decode_disparity(data, shape, levels, disp_scale):
    """Integer disparity labels of an output PGM, which must have the
    fixture's shape and encode labels in [0, levels) as label * disp_scale."""
    gray = decode_pgm(data)
    if gray.shape != shape:
        raise GateError(f"output shape {gray.shape} differs from fixture {shape}")
    labels, rest = np.divmod(gray.astype(np.int64), disp_scale)
    if rest.any() or labels.max() >= levels:
        raise GateError(f"output gray levels are not labels < {levels} times {disp_scale}")
    return labels


def bad_pixel_rate(labels, truth, border, threshold=1.0):
    """Share of scored pixels whose error exceeds `threshold`; the `border`
    leftmost columns are not scored (Scharstein & Szeliski 2002)."""
    err = np.abs(labels[:, border:] - truth[:, border:])
    return float(np.count_nonzero(err > threshold)) / err.size
