"""PGM image and disparity-map I/O.

Images and disparity maps travel as PGM files (P2 ASCII or P5 binary,
maxval <= 255) so every experiment is reproducible bit-exactly from files
on disk. Headers follow the Netpbm rules: whitespace-delimited tokens,
'#' comments allowed anywhere before the raster.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

INVALID = -1


class PgmError(ValueError):
    """Malformed or unreadable PGM data; carries the byte offset of the fault."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class GrayImage:
    """Row-major 8-bit luminance raster."""

    samples: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.uint8)
        if self.samples.ndim != 2 or self.samples.size == 0:
            raise ValueError("GrayImage needs a non-empty 2-D sample array")

    @property
    def width(self):
        return self.samples.shape[1]

    @property
    def height(self):
        return self.samples.shape[0]


@dataclass
class DisparityMap:
    """Integer disparity labels per pixel; INVALID (-1) marks unknown pixels.

    scale_factor is the output encoding multiplier: gray = label * scale_factor.
    """

    labels: np.ndarray  # (height, width) int32, values in [0, L) or INVALID
    scale_factor: int = 1

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.labels.ndim != 2 or self.labels.size == 0:
            raise ValueError("DisparityMap needs a non-empty 2-D label array")
        if self.scale_factor < 1:
            raise ValueError("scale_factor must be >= 1")

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def height(self):
        return self.labels.shape[0]


def _tokenize_header(data, count):
    """Yield `count` whitespace-delimited tokens from the start of `data`,
    skipping '#' comments. Returns (tokens, offset_past_last_token)."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        if i >= n:
            raise PgmError("unexpected end of header", offset=i)
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        tokens.append((data[start:i], start))
    return tokens, i


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM file into a GrayImage.

    P2 and P5 encodings of the same pixels decode identically. Raises
    PgmError (with byte offset) on malformed input, FileNotFoundError if
    the file is missing.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "rb") as fp:
        data = fp.read()

    tokens, body_start = _tokenize_header(data, 4)
    (magic, magic_off), (w_tok, w_off), (h_tok, h_off), (mv_tok, mv_off) = tokens
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a PGM file (magic {magic!r})", offset=magic_off)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(mv_tok)
    except ValueError:
        raise PgmError("non-numeric header field", offset=w_off) from None
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", offset=w_off)
    if not 0 < maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval}", offset=mv_off)

    npix = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        body = data[body_start + 1 :]
        if len(body) < npix:
            raise PgmError(
                f"truncated raster: expected {npix} bytes, got {len(body)}",
                offset=len(data),
            )
        samples = np.frombuffer(body[:npix], dtype=np.uint8)
    else:
        try:
            tokens, _ = _tokenize_header(data[body_start:], npix)
        except PgmError as err:
            raise PgmError(
                "truncated raster", offset=body_start + (err.offset or 0)
            ) from None
        vals = []
        for tok, off in tokens:
            try:
                vals.append(int(tok))
            except ValueError:
                raise PgmError(
                    f"non-numeric sample {tok!r}", offset=body_start + off
                ) from None
        samples = np.array(vals, dtype=np.int64)
    if samples.min() < 0 or samples.max() > maxval:
        raise PgmError("sample outside [0, maxval]", offset=body_start)
    return GrayImage(samples.astype(np.uint8).reshape(height, width))


def write_pgm(image, path, binary=True):
    """Write a GrayImage or DisparityMap as PGM (P5 when binary, else P2).

    Disparity labels are encoded as gray = label * scale_factor; INVALID
    encodes as gray 0. Raises ValueError if any encoded value exceeds 255.
    """
    if isinstance(image, DisparityMap):
        gray = image.labels.astype(np.int64) * image.scale_factor
        gray[image.labels == INVALID] = 0
        if gray.max() > 255:
            raise ValueError(
                f"disparity {int(gray.max()) // image.scale_factor} * "
                f"scale {image.scale_factor} = {int(gray.max())} exceeds 255"
            )
        raster = gray.astype(np.uint8)
    else:
        raster = image.samples
    h, w = raster.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fp:
        fp.write(header)
        if binary:
            fp.write(raster.tobytes())
        else:
            for row in raster:
                fp.write(" ".join(str(int(v)) for v in row).encode("ascii"))
                fp.write(b"\n")


def read_disparity_pgm(path, scale_factor=1):
    """Read a scaled disparity encoding back into integer labels."""
    if scale_factor < 1:
        raise ValueError(f"scale_factor must be >= 1, got {scale_factor}")
    img = read_pgm(path)
    labels = np.rint(img.samples.astype(np.float64) / scale_factor).astype(np.int32)
    return DisparityMap(labels, scale_factor=scale_factor)


def to_grayscale(r, g, b):
    """Combine equal-shaped R, G, B channel arrays into a GrayImage.

    luminance = round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255].
    """
    r = np.asarray(r, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (r.shape == g.shape == b.shape):
        raise ValueError(f"channel shapes differ: {r.shape}, {g.shape}, {b.shape}")
    lum = np.rint(0.299 * r + 0.587 * g + 0.114 * b)
    return GrayImage(np.clip(lum, 0, 255).astype(np.uint8))
