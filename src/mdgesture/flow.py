"""Dense backward optical flow from local TPS transforms, plus warping.

K locally-valid transforms are blended into one flow field with softmax
weights driven by the distance to each transform's anchor points: pixels
near a transform's anchors follow that transform, and transitions decay
smoothly with a `softness` length scale. The flow stores, per output
pixel, the normalized coordinate to sample from in the source image;
warping is backward bilinear interpolation, and pixels whose sample point
falls outside [-1, 1]^2 are occluded (filled with black).

A frame's TPS work is one pass (see `tps`): `deform_grids` evaluates its
k transforms as one block, with each one's squared distance to its
nearest anchor, and `combine_flow` blends from those distances.

Each layer allocates its own buffers and computes in them in place; its
result belongs to the caller, and a layer's scratch is freed when it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .ppm import RasterImage
from .tps import eval_tps_grid, lattice_axes

FLOW_RESOLUTION = 64  # native resolution of composed flow fields
# Smallest blend length scale. Far below one pixel even of a 4096-pixel
# image (2/4095), and large enough that -d / softness cannot overflow.
MIN_SOFTNESS = 1e-6


@dataclass(frozen=True)
class FlowField:
    """Backward coordinate map (H, W, 2) in normalized space.

    valid_mask is derived from the map (inside [-1, 1]^2), never stored
    independently, so the two can't drift apart.
    """

    map: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.float64)
        if m.ndim != 3 or m.shape[2] != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise InvalidArgumentError("flow map must be (H, W, 2)")
        if not np.all(np.isfinite(m)):
            raise InvalidArgumentError("flow map must be finite")
        object.__setattr__(self, "map", m)

    @classmethod
    def computed(cls, m: np.ndarray) -> FlowField:
        """Wrap a finite float64 (H, W, 2) map computed from a checked
        field, without checking it again."""
        field = object.__new__(cls)
        object.__setattr__(field, "map", m)
        return field

    @property
    def height(self) -> int:
        return self.map.shape[0]

    @property
    def width(self) -> int:
        return self.map.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return ~_occluded(self.map, np.empty((2,) + self.map.shape[:2]))


def deform_grids(transforms, height: int, width: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Evaluate every transform on the pixel lattice; returns the K grids,
    (H, W, 2) views of one (K, 2, H, W) block, and the (K, H, W) squared
    distances to each transform's nearest anchor, for `combine_flow`.

    Each run of consecutive transforms with one anchor count is one
    `eval_tps_grid` pass, so a rendered frame (all n anchors) is one.
    """
    transforms = list(transforms)
    if not transforms:
        raise InvalidArgumentError("need at least one transform")
    k = len(transforms)
    block = np.empty((k, 2, height, width))
    nearest = np.empty((k, height, width))
    cuts = [j for j in range(1, k)
            if transforms[j].n_controls != transforms[j - 1].n_controls]
    for a, b in zip([0] + cuts, cuts + [k]):
        eval_tps_grid(transforms[a:b], height, width, block[a:b], nearest[a:b])
    return list(block.transpose(0, 2, 3, 1)), nearest


def combine_flow(grids, nearest_sq, softness: float = 0.1,
                 background: bool = False) -> FlowField:
    """Blend per-transform grids into one flow field.

    grids: K arrays (H, W, 2); nearest_sq: (K, H, W), the squared
    distance to the nearest origin-space anchor of grid k's transform, as
    `deform_grids` returns them. Pixel weights are softmax(-d_k /
    softness), d_k = sqrt(nearest_sq[k]). With `background`, an identity
    grid joins the blend with distance max_k d_k, so pixels far from
    every anchor stay put.
    """
    grids = [np.asarray(g, dtype=np.float64) for g in grids]
    shape = grids[0].shape if grids else ()
    if len(shape) != 3 or shape[2] != 2 or any(g.shape != shape for g in grids):
        raise InvalidArgumentError("grids must be K >= 1 arrays of one (H, W, 2) shape")
    if np.shape(nearest_sq) != (len(grids),) + shape[:2]:
        raise InvalidArgumentError("nearest_sq must be (K, H, W) for K grids of (H, W, 2)")
    if not (np.isfinite(softness) and softness >= MIN_SOFTNESS):
        raise InvalidArgumentError(
            f"softness must be finite and >= {MIN_SOFTNESS:g}, got {softness}"
        )

    height, width = shape[:2]
    k = len(grids)
    # one plane per blended grid: distances, then logits, then weights
    weights = np.empty((k + background, height, width))
    np.sqrt(nearest_sq, out=weights[:k])
    if background:
        np.max(weights[:k], axis=0, out=weights[k])

    peak = np.empty((height, width))
    weights /= -softness  # -d / softness, to the bit
    weights -= np.max(weights, axis=0, out=peak)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=0, out=peak)

    # Blended plane by plane: grids hold x and y planes, so each product
    # runs over contiguous memory. The identity grid's planes are the
    # lattice axes, broadcast.
    out = np.zeros((2, height, width))
    term = np.empty((2, height, width))
    for w_k, g in zip(weights, grids):
        out += np.multiply(w_k, g.transpose(2, 0, 1), out=term)
    if background:
        x, y = lattice_axes(height, width)
        np.multiply(weights[k], x[None, :], out=term[0])
        np.multiply(weights[k], y[:, None], out=term[1])
        out += term
    return FlowField(out.transpose(1, 2, 0))


def _taps(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left neighbour index and fraction of fractional positions `p` on an
    axis of n >= 2 samples, clipped to the axis; the last sample is reached
    as index n - 2 with fraction 1. Writes the fraction over `p`."""
    np.clip(p, 0.0, n - 1.0, out=p)
    index = np.empty(p.shape, np.intp)
    np.floor(p, out=index, casting="unsafe")
    np.minimum(index, n - 2, out=index)
    np.subtract(p, index, out=p)
    return index, p


def _lerp(a, b, index, g, f, out, tap, axis=None):
    """out = g * a[index] + f * b[index], taken along `axis` (flat when
    None) with `tap` as scratch; `index` is in range of both."""
    np.take(a, index, axis=axis, out=out, mode="clip")
    out *= g
    out += np.multiply(np.take(b, index, axis=axis, out=tap, mode="clip"), f, out=tap)
    return out


def _bilinear(field: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) `field` at fractional pixel positions.

    Exact on integer positions: a zero fraction contributes the source
    texel unchanged, so integer lookups are bit-identical to indexing.
    Each channel is gathered from its own contiguous plane by flat index;
    the taps right of and below the top-left one are gathered at the same
    index from views of the plane that start 1, W and W + 1 samples in.
    px and py are overwritten. Returns an (..., C) view of a (C, ...)
    array.
    """
    h, w, ch = field.shape
    shape = px.shape
    x0, fx = _taps(px, w)
    i, fy = _taps(py, h)
    i *= w
    i += x0  # flat index of the top-left tap
    gx = np.subtract(1.0, fx)
    gy = np.subtract(1.0, fy)
    out = np.empty((ch,) + shape)
    bot = np.empty(shape)
    tap = np.empty(shape)
    for c, top in enumerate(out):
        plane = np.ascontiguousarray(field[:, :, c]).ravel()
        _lerp(plane, plane[1:], i, gx, fx, top, tap)
        top *= gy
        top += np.multiply(_lerp(plane[w:], plane[w + 1:], i, gx, fx, bot, tap), fy,
                           out=bot)
    return np.moveaxis(out, 0, -1)


def _occluded(m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """True where the (H, W, 2) map `m` points outside [-1, 1]^2;
    `scratch` is a (2, H, W) float buffer."""
    np.abs(m.transpose(2, 0, 1), out=scratch)
    return np.maximum(scratch[0], scratch[1], out=scratch[0]) > 1.0


def warp_image(src: RasterImage, flow: FlowField) -> RasterImage:
    """Backward-warp `src` through `flow`; occluded pixels become black."""
    if src.height < 2 or src.width < 2:
        raise InvalidArgumentError("source image must be at least 2x2")
    shape = (flow.height, flow.width)
    m = flow.map
    positions = np.empty((2,) + shape)
    occluded = _occluded(m, positions)
    px, py = positions
    np.add(m[..., 0], 1.0, out=px)
    px *= 0.5
    px *= src.width - 1
    np.add(m[..., 1], 1.0, out=py)
    py *= 0.5
    py *= src.height - 1
    out = _bilinear(src.data, px, py)
    # clip absorbs the <= 1 ulp overshoot of convex float sums; values on
    # the exact path (zero fractions) pass through unchanged
    np.clip(out, 0.0, 1.0, out=out)
    out[occluded] = 0.0
    return RasterImage.computed(out)


def upsample_flow(flow: FlowField, height: int, width: int) -> FlowField:
    """Bilinearly resample a flow field onto a new lattice.

    The target lattice is separable, so this interpolates along x once per
    source row, then along y: every output element gets the products and
    sums `_bilinear` would give it at that lattice point.
    """
    x, y = lattice_axes(height, width)
    x0, fx = _taps((x + 1.0) * 0.5 * (flow.width - 1), flow.width)
    y0, fy = _taps((y + 1.0) * 0.5 * (flow.height - 1), flow.height)
    gx = 1.0 - fx
    gy = (1.0 - fy)[:, None]
    fy = fy[:, None]
    out = np.empty((2, height, width))
    rows = np.empty((flow.height, width))
    right = np.empty((flow.height, width))
    below = np.empty((height, width))
    for plane, out_d in zip(flow.map.transpose(2, 0, 1), out):  # like _bilinear
        _lerp(plane, plane[:, 1:], x0, gx, fx, rows, right, axis=1)
        _lerp(rows, rows[1:], y0, gy, fy, out_d, below, axis=0)
    return FlowField.computed(out.transpose(1, 2, 0))
