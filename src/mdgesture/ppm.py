"""Binary PPM (P6) and PGM (P5) images, maxval 255.

Pixels live in memory as floats in [0, 1]; files store one byte per
sample. Quantization is round(v * 255), so byte -> float -> byte is the
identity and round trips are bit-exact. Images hold their samples plane
by plane, the layout warping gathers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .fileio import write_atomic


@dataclass(frozen=True)
class RasterImage:
    """(H, W, channels) float intensities in [0, 1]; channels 1 or 3.

    Stored plane by plane: each channel's (H, W) samples are contiguous.
    """

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim == 2:
            d = d[:, :, None]
        if d.ndim != 3 or d.shape[2] not in (1, 3):
            raise InvalidArgumentError("image data must be (H, W, 1|3)")
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise InvalidArgumentError("image must be nonempty")
        if not np.all(np.isfinite(d)) or d.min() < 0.0 or d.max() > 1.0:
            raise InvalidArgumentError("image values must lie in [0, 1]")
        d = np.moveaxis(np.ascontiguousarray(np.moveaxis(d, -1, 0)), 0, -1)
        object.__setattr__(self, "data", d)

    @classmethod
    def computed(cls, data: np.ndarray) -> RasterImage:
        """Wrap float64 (H, W, 1|3) samples computed in [0, 1], without
        checking them again."""
        img = object.__new__(cls)
        object.__setattr__(img, "data", data)
        return img

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def from_bytes_array(raw: np.ndarray) -> RasterImage:
    """Build an image from uint8 samples shaped (H, W[, ch])."""
    return RasterImage(np.asarray(raw, dtype=np.float64) / 255.0)


def to_bytes_array(img: RasterImage) -> np.ndarray:
    """Quantize to (H, W, ch) uint8 samples, round-half-even on exact
    ties; samples lie in [0, 1], so every rounded value fits a byte.
    The channels are scaled one at a time in one (H, W) float plane."""
    h, w, ch = img.data.shape
    raw = np.empty((h, w, ch), np.uint8)
    scaled = np.empty((h, w))
    for c in range(ch):
        np.multiply(img.data[:, :, c], 255.0, out=scaled)
        np.rint(scaled, out=raw[:, :, c], casting="unsafe")
    return raw


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("image header ended early")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def parse_pnm(data: bytes) -> RasterImage:
    """Parse P6 (color) or P5 (gray) bytes into a RasterImage."""
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise FormatError("not a P5/P6 image (bad magic)")
    channels = 3 if data[:2] == b"P6" else 1
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"bad header field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)")
    pos += 1  # single whitespace byte separates header from raster
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected or len(data) - pos != expected:
        raise FormatError(
            f"raster has {len(data) - pos} bytes, expected {expected}"
        )
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return from_bytes_array(arr)


def write_pnm(img: RasterImage) -> bytes:
    """Serialize to canonical P6 (3 channels) or P5 (1 channel) bytes."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + to_bytes_array(img).tobytes()


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """Serialize a boolean mask as a P5 image (255 where true)."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise InvalidArgumentError("mask must be a 2-D boolean array")
    return write_pnm(RasterImage(mask.astype(np.float64)))


def read_pnm_file(path) -> RasterImage:
    return parse_pnm(Path(path).read_bytes())


def write_pnm_file(path, img: RasterImage) -> None:
    write_atomic(path, write_pnm(img))
