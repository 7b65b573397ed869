"""Dense backward optical flow from local TPS transforms, plus warping.

K locally-valid transforms are blended into one flow field with softmax
weights driven by the distance to each transform's anchor points: pixels
near a transform's anchors follow that transform, and transitions decay
smoothly with a `softness` length scale. The flow stores, per output
pixel, the normalized coordinate to sample from in the source image;
warping is backward bilinear interpolation, and pixels whose sample point
falls outside [-1, 1]^2 are occluded (filled with black).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .ppm import RasterImage
from .tps import eval_tps_grid, lattice_axes, normalized_lattice

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

    @property
    def height(self) -> int:
        return self.map.shape[0]

    @property
    def width(self) -> int:
        return self.map.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        m = self.map
        return (
            (m[..., 0] >= -1.0)
            & (m[..., 0] <= 1.0)
            & (m[..., 1] >= -1.0)
            & (m[..., 1] <= 1.0)
        )


def identity_flow(height: int, width: int) -> FlowField:
    return FlowField(normalized_lattice(height, width))


def deform_grids(transforms, height: int, width: int) -> list[np.ndarray]:
    """Evaluate every transform on the pixel lattice."""
    transforms = list(transforms)
    if not transforms:
        raise InvalidArgumentError("need at least one transform")
    return [eval_tps_grid(t, height, width) for t in transforms]


def combine_flow(grids, transforms, softness: float = 0.1,
                 background: bool = False) -> FlowField:
    """Blend per-transform grids into one flow field.

    grids: K arrays (H, W, 2), grid k evaluated from transforms[k]. Pixel
    weights are softmax(-d_k / softness) where d_k is the distance to the
    nearest origin-space anchor (`controls_d`) of transform k. With
    `background`, an identity grid joins the blend with distance
    max_k d_k, so pixels far from every anchor stay put.
    """
    grids = [np.asarray(g, dtype=np.float64) for g in grids]
    control_sets = [t.controls_d for t in transforms]
    if not grids or len(grids) != len(control_sets):
        raise InvalidArgumentError("grids and transforms must pair up")
    shape = grids[0].shape
    if any(g.shape != shape for g in grids):
        raise InvalidArgumentError("all grids must share one shape")
    if len(shape) != 3 or shape[2] != 2:
        raise InvalidArgumentError("grids must be (H, W, 2)")
    if not (np.isfinite(softness) and softness >= MIN_SOFTNESS):
        raise InvalidArgumentError(
            f"softness must be finite and >= {MIN_SOFTNESS:g}, got {softness}"
        )

    # The lattice is separable, so squared distances are sums of a column
    # term and a row term. Ragged sets are padded by repeating their last
    # anchor, which leaves every minimum unchanged.
    height, width = shape[:2]
    x, y = lattice_axes(height, width)
    n_max = max(c.shape[0] for c in control_sets)
    anchors = np.stack([
        np.concatenate([c, np.repeat(c[-1:], n_max - c.shape[0], axis=0)])
        for c in control_sets
    ])  # (K, N, 2)
    dx = x[None, None, :] - anchors[:, :, 0, None]  # (K, N, W)
    dy = y[None, None, :] - anchors[:, :, 1, None]  # (K, N, H)
    sq_x = dx * dx
    sq_y = dy * dy
    nearest = sq_x[:, 0, None, :] + sq_y[:, 0, :, None]  # (K, H, W)
    for i in range(1, n_max):
        np.minimum(nearest, sq_x[:, i, None, :] + sq_y[:, i, :, None],
                   out=nearest)
    dists = np.sqrt(nearest)
    stack = list(grids)
    if background:
        dists = np.concatenate([dists, dists.max(axis=0, keepdims=True)])
        stack.append(normalized_lattice(height, width))

    logits = -dists / softness
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=0, keepdims=True)

    # Blended plane by plane: eval_tps_grid stores its grids as x and y
    # planes, so each product runs over contiguous memory.
    out = np.zeros((2, height, width))
    for k, g in enumerate(stack):
        out += weights[k] * g.transpose(2, 0, 1)
    return FlowField(out.transpose(1, 2, 0))


def _taps(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left neighbour index and fraction of fractional positions `p` on an
    axis of n >= 2 samples, clipped to the axis; the last sample is reached
    as index n - 2 with fraction 1."""
    p = np.clip(p, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(p), n - 2).astype(np.int64)
    return i0, p - i0


def _bilinear(field: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) `field` at fractional pixel positions.

    Exact on integer positions: a zero fraction contributes the source
    texel unchanged, so integer lookups are bit-identical to indexing.
    Each channel is gathered from its own contiguous plane by flat index.
    """
    h, w, ch = field.shape
    x0, fx = _taps(px, w)
    y0, fy = _taps(py, h)
    gx = 1.0 - fx
    gy = 1.0 - fy
    i = y0 * w + x0  # flat index of the top-left tap
    out = np.empty((ch,) + i.shape)
    for c in range(ch):
        plane = np.ascontiguousarray(field[:, :, c]).ravel()
        top = gx * plane.take(i) + fx * plane.take(i + 1)
        bot = gx * plane.take(i + w) + fx * plane.take(i + w + 1)
        out[c] = gy * top + fy * bot
    return np.moveaxis(out, 0, -1)


def warp_image(src: RasterImage, flow: FlowField) -> RasterImage:
    """Backward-warp `src` through `flow`; occluded pixels become black."""
    if src.height < 2 or src.width < 2:
        raise InvalidArgumentError("source image must be at least 2x2")
    px = (flow.map[..., 0] + 1.0) * 0.5 * (src.width - 1)
    py = (flow.map[..., 1] + 1.0) * 0.5 * (src.height - 1)
    # clip absorbs the <= 1 ulp overshoot of convex float sums; values on
    # the exact path (zero fractions) pass through unchanged
    out = np.clip(_bilinear(src.data, px, py), 0.0, 1.0)
    out[~flow.valid_mask] = 0.0
    return RasterImage(out)


def upsample_flow(flow: FlowField, height: int, width: int) -> FlowField:
    """Bilinearly resample a flow field onto a new lattice.

    The target lattice is separable, so this interpolates along x once per
    source row, then along y: every output element gets the products and
    sums `_bilinear` would give it at that lattice point.
    """
    x, y = lattice_axes(height, width)
    x0, fx = _taps((x + 1.0) * 0.5 * (flow.width - 1), flow.width)
    y0, fy = _taps((y + 1.0) * 0.5 * (flow.height - 1), flow.height)
    m = flow.map
    fy = fy[:, None]
    out = np.empty((2, height, width))
    for d in range(2):  # plane by plane, like _bilinear
        rows = (1.0 - fx) * m[:, x0, d] + fx * m[:, x0 + 1, d]  # (H_src, width)
        out[d] = (1.0 - fy) * rows[y0] + fy * rows[y0 + 1]
    return FlowField(out.transpose(1, 2, 0))
