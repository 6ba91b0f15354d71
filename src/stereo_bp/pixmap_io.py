"""PGM image and disparity-map I/O.

Images and disparity maps travel as PGM files (maxval <= 255; P2 ASCII or
P5 binary is read, P5 is written) so every experiment is reproducible
bit-exactly from files on disk. Headers follow the Netpbm rules:
whitespace-delimited tokens, '#' comments to the end of the line anywhere
in a P2 file and before a P5 raster, and in P5 exactly one whitespace byte
between maxval and the raster.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

INVALID = -1

# One PGM token: skip whitespace and '#' comments, each comment running to the
# end of its line, then take the run of bytes that are neither. Match it
# anchored at a position; a search would start a token inside a comment.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]*)")


class PgmError(ValueError):
    """Malformed or unreadable PGM data; carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class GrayImage:
    """Row-major 8-bit luminance raster. Samples given in another dtype must
    be integral values in [0, 255]; they are never wrapped or truncated."""

    samples: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.dtype != np.uint8:
            if not np.all((s >= 0) & (s <= 255) & (s == np.floor(s))):  # NaN fails all three
                raise ValueError("GrayImage samples must be integers in [0, 255]")
            s = s.astype(np.uint8)
        self.samples = s
        if self.samples.ndim != 2 or self.samples.size == 0:
            raise ValueError("GrayImage needs a non-empty 2-D sample array")

    @property
    def width(self):
        return self.samples.shape[1]

    @property
    def height(self):
        return self.samples.shape[0]


def _scale_factor(value):
    """`value` as an int, if it is an integer (numpy's included) >= 1."""
    if isinstance(value, (int, np.integer)) and value >= 1:
        return int(value)
    raise ValueError(f"scale_factor must be an integer >= 1, got {value!r}")


@dataclass
class DisparityMap:
    """Integer disparity labels per pixel; INVALID (-1) marks unknown pixels.
    Labels must be integral values in [INVALID, 2**31); they are never
    wrapped or truncated.

    scale_factor is the output encoding multiplier: gray = label * scale_factor,
    an integer >= 1.
    """

    labels: np.ndarray  # (height, width) int32, values in [0, L) or INVALID
    scale_factor: int = 1

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.size == 0:
            raise ValueError("DisparityMap needs a non-empty 2-D label array")
        if labels.dtype == np.int32:
            ok = labels.min() >= INVALID
        else:  # NaN fails all three
            ok = np.all((labels >= INVALID) & (labels < 2**31) & (labels == np.floor(labels)))
        if not ok:
            raise ValueError(f"DisparityMap labels must be integers in [{INVALID}, 2**31)")
        self.labels = labels.astype(np.int32, copy=False)
        self.scale_factor = _scale_factor(self.scale_factor)

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def height(self):
        return self.labels.shape[0]


def _tokens(data, pos, count, short):
    """`count` matches of _TOKEN from byte `pos` on, group 1 of each a token;
    PgmError(`short`) at the end of `data` if it runs out of tokens first."""
    matches = []
    for _ in range(count):
        m = _TOKEN.match(data, pos)
        if not m[1]:  # nothing but whitespace and comments left
            raise PgmError(short, offset=len(data))
        matches.append(m)
        pos = m.end()
    return matches


def _ints(matches, what):
    """The tokens of `matches` as ints; PgmError at the first that is not
    all ASCII decimal digits (no sign, no '_')."""
    for m in matches:
        if not m[1].isdigit():
            raise PgmError(f"non-numeric {what} {m[1]!r}", offset=m.start(1))
    return [int(m[1]) for m in matches]


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM file into a GrayImage.

    P2 and P5 encodings of the same pixels decode identically. Raises
    PgmError (with byte offset) on malformed input, FileNotFoundError if
    the file is missing.
    """
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}") from None

    header = _tokens(data, 0, 4, "unexpected end of header")
    magic = header[0][1]
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a PGM file (magic {magic!r})", offset=header[0].start(1))
    width, height, maxval = _ints(header[1:], "header field")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", offset=header[1].start(1))
    if not 0 < maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval}", offset=header[3].start(1))

    npix = width * height
    body_start = header[3].end()
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if not data[body_start : body_start + 1].isspace():
            raise PgmError("expected one whitespace byte after maxval", offset=body_start)
        body = data[body_start + 1 :]
        if len(body) < npix:
            raise PgmError(
                f"truncated raster: expected {npix} bytes, got {len(body)}",
                offset=len(data),
            )
        samples = np.frombuffer(body[:npix], dtype=np.uint8)
    else:
        raster = _tokens(data, body_start, npix, "truncated raster")
        samples = np.array(_ints(raster, "sample"), dtype=np.int64)
    if samples.max() > maxval:
        raise PgmError("sample outside [0, maxval]", offset=body_start)
    return GrayImage(samples.astype(np.uint8).reshape(height, width))


def write_pgm(image, path):
    """Write a GrayImage or DisparityMap as binary (P5) PGM.

    Disparity labels are encoded as gray = label * scale_factor; INVALID
    encodes as gray 0. Raises ValueError if any encoded value exceeds 255,
    or if scale_factor, which may have been assigned after construction,
    is not an integer >= 1.
    """
    if isinstance(image, DisparityMap):
        scale = _scale_factor(image.scale_factor)
        gray = image.labels.astype(np.int64) * scale
        gray[image.labels == INVALID] = 0
        if gray.max() > 255:
            raise ValueError(
                f"disparity {int(gray.max()) // scale} * "
                f"scale {scale} = {int(gray.max())} exceeds 255"
            )
        raster = gray.astype(np.uint8)
    else:
        raster = image.samples
    h, w = raster.shape
    with open(path, "wb") as fp:
        fp.write(f"P5\n{w} {h}\n255\n".encode("ascii") + raster.tobytes())


def read_disparity_pgm(path, scale_factor=1):
    """Read a scaled disparity encoding back into integer labels."""
    scale_factor = _scale_factor(scale_factor)
    img = read_pgm(path)
    labels = np.rint(img.samples.astype(np.float64) / scale_factor).astype(np.int32)
    return DisparityMap(labels, scale_factor=scale_factor)
