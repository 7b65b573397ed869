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
from .tps import TpsTransform, eval_tps_grid, normalized_lattice

FLOW_RESOLUTION = 64  # native resolution of composed flow fields


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


def combine_flow(grids, control_sets, softness: float = 0.1,
                 background: bool = False) -> FlowField:
    """Blend per-transform grids into one flow field.

    grids: K arrays (H, W, 2); control_sets: K point sets, set k holding
    transform k's anchors in origin space. Pixel weights are
    softmax(-d_k / softness) where d_k is the distance to the nearest
    anchor of transform k. With `background`, an identity grid joins the
    blend with distance max_k d_k, so pixels far from every anchor stay
    put.
    """
    grids = [np.asarray(g, dtype=np.float64) for g in grids]
    control_sets = [np.asarray(c, dtype=np.float64) for c in control_sets]
    if not grids or len(grids) != len(control_sets):
        raise InvalidArgumentError("grids and control_sets must pair up")
    shape = grids[0].shape
    if any(g.shape != shape for g in grids):
        raise InvalidArgumentError("all grids must share one shape")
    if len(shape) != 3 or shape[2] != 2:
        raise InvalidArgumentError("grids must be (H, W, 2)")
    if not (np.isfinite(softness) and softness > 0):
        raise InvalidArgumentError("softness must be positive")

    height, width = shape[:2]
    q = normalized_lattice(height, width)
    dists = []
    for c in control_sets:
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
            raise InvalidArgumentError("each control set must be (N, 2)")
        diff = q[:, :, None, :] - c[None, None, :, :]
        dists.append(np.sqrt(np.min(np.sum(diff * diff, axis=3), axis=2)))
    stack = list(grids)
    if background:
        dists.append(np.max(np.stack(dists), axis=0))
        stack.append(q)

    logits = np.stack([-d / softness for d in dists])
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=0, keepdims=True)

    out = np.zeros((height, width, 2))
    for k, g in enumerate(stack):
        out += weights[k][:, :, None] * g
    return FlowField(out)


def _bilinear(field: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) `field` at fractional pixel positions.

    Exact on integer positions: a zero fraction contributes the source
    texel unchanged, so integer lookups are bit-identical to indexing.
    """
    h, w = field.shape[:2]
    px = np.clip(px, 0.0, w - 1.0)
    py = np.clip(py, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(px), w - 2).astype(np.int64)
    y0 = np.minimum(np.floor(py), h - 2).astype(np.int64)
    fx = (px - x0)[..., None]
    fy = (py - y0)[..., None]
    top = (1.0 - fx) * field[y0, x0] + fx * field[y0, x0 + 1]
    bot = (1.0 - fx) * field[y0 + 1, x0] + fx * field[y0 + 1, x0 + 1]
    return (1.0 - fy) * top + fy * bot


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
    """Bilinearly resample a flow field onto a new lattice."""
    if height < 2 or width < 2:
        raise InvalidArgumentError("target size must be at least 2x2")
    target = normalized_lattice(height, width)
    px = (target[..., 0] + 1.0) * 0.5 * (flow.width - 1)
    py = (target[..., 1] + 1.0) * 0.5 * (flow.height - 1)
    return FlowField(_bilinear(flow.map, px, py))
