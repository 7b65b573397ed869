"""Thin-plate spline solving, evaluation, and bending energy.

A thin-plate spline is the minimum-bending-energy interpolant between two
sets of paired 2D control points. It decomposes into an affine part plus
radial terms around the origin-space anchors:

    T(p) = A [p; 1] + sum_i w_i U(|c_i - p|),  U(r) = r^2 log(r^2)

Solving for (A, w) is a dense linear system: the kernel matrix K holds
U(|c_i - c_j|), P stacks (1, x_i, y_i), and

    L = [[K, P], [P^T, 0]],   L [w; a] = [targets; 0]

The zero block's rows force the side conditions sum(w) = 0 and
sum(w x) = sum(w y) = 0, which make the radial part vanish at infinity
faster than the affine part grows.

Coordinates are normalized: pixel (0, 0) maps to (-1, -1) and
(W-1, H-1) to (1, 1), so transforms are resolution-independent.

One core evaluates k transforms that share an anchor count in one pass:
each anchor's squared radii for all k form one (k, H, W) block, whose
minimum over the anchors (the blend in `flow` weighs by it) is kept
before the radial term overwrites it. A point is a 1x1 lattice, so a
point, a grid and a frame's k grids get the same operations in order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularSystemError

# A solve whose residual exceeds this is reported as singular rather than
# returned; keeps "singular" testable without prescribing a factorization.
RESIDUAL_LIMIT = 1e-6


def _u_of_rsq(rsq, out=None):
    """U as a function of squared radius, with the continuous extension
    U(0) = 0. Works elementwise on any shape, into `out` when given.
    Callers hold np.errstate(divide="ignore", invalid="ignore"): log(0)
    is -inf and -inf * 0 is nan until the zeros are set."""
    rsq = np.asarray(rsq, dtype=np.float64)
    u = np.log(rsq, out=np.empty_like(rsq) if out is None else out)
    u *= rsq
    u[rsq == 0.0] = 0.0
    return u


@functools.lru_cache(maxsize=8)
def lattice_axes(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The column coordinates x (W,) and row coordinates y (H,) of the
    normalized lattice: x_c = -1 + 2c/(W-1), so corners map to the
    corners of [-1, 1]^2 exactly.

    Built once per size (a frame evaluates k grids on one lattice) and
    returned read-only, since every caller shares the same arrays."""
    height = int(height)
    width = int(width)
    if height < 2 or width < 2:
        raise InvalidArgumentError("lattice needs height and width >= 2")
    x = -1.0 + 2.0 * np.arange(width, dtype=np.float64) / (width - 1)
    y = -1.0 + 2.0 * np.arange(height, dtype=np.float64) / (height - 1)
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def normalized_lattice(height: int, width: int) -> np.ndarray:
    """(H, W, 2) grid of normalized pixel-center coordinates.

    Element (r, c) is (x_c, y_r) of `lattice_axes`.
    """
    x, y = lattice_axes(height, width)
    out = np.empty((y.size, x.size, 2), dtype=np.float64)
    out[..., 0] = x[None, :]
    out[..., 1] = y[:, None]
    return out


def _as_points(a, name: str, batch: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 + batch or a.shape[-1] != 2:
        shape = "a (B, N, 2)" if batch else "an (N, 2)"
        raise InvalidArgumentError(f"{name} must be {shape} array")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class TpsTransform:
    """One solved thin-plate spline mapping.

    affine: 2x3 matrix; row d holds the coefficients of (x, y, 1).
    weights: N x 2 radial weights.
    controls_d: N x 2 origin-space anchor points, N >= 1.
    """

    affine: np.ndarray
    weights: np.ndarray
    controls_d: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.affine, dtype=np.float64)
        w = _as_points(self.weights, "weights")
        c = _as_points(self.controls_d, "controls_d")
        if a.shape != (2, 3) or not np.all(np.isfinite(a)):
            raise InvalidArgumentError("affine must be a finite 2x3 matrix")
        if w.shape[0] != c.shape[0]:
            raise InvalidArgumentError("weights and controls_d disagree on N")
        if c.shape[0] < 1:
            raise InvalidArgumentError("transform must have at least one control point")
        object.__setattr__(self, "affine", a)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "controls_d", c)

    @classmethod
    def computed(cls, affine, weights, controls_d) -> TpsTransform:
        """Wrap a solved system's float64 arrays without checking them again."""
        t = object.__new__(cls)
        t.__dict__.update(affine=affine, weights=weights, controls_d=controls_d)
        return t

    @property
    def n_controls(self) -> int:
        return self.controls_d.shape[0]


def solve_tps(src, dst, regularization: float = 0.0) -> TpsTransform:
    """Solve the TPS that maps each dst (origin space D) to its src
    (deformation space S).

    src, dst: (N, 2) arrays, N >= 3, dst not all collinear.
    regularization: epsilon added to the kernel diagonal; 0 solves the
    exact interpolation problem, > 0 trades exactness for smoothness and
    tolerates near-duplicate anchors.

    Raises SingularSystemError when the system cannot be solved to a
    residual below RESIDUAL_LIMIT (duplicate or collinear anchors, or
    anchors so far apart that the kernel overflows). This is the
    batch-of-one case of `solve_tps_batch`.
    """
    src = _as_points(src, "src")
    dst = _as_points(dst, "dst")
    return _solve(src[None], dst[None], regularization)[0]


def solve_tps_batch(src, dst, regularization: float = 0.0) -> list[TpsTransform]:
    """Solve B independent systems at once: transform b maps dst[b] to
    src[b], as `solve_tps(src[b], dst[b])` would, to the bit.

    src, dst: (B, N, 2) arrays. A SingularSystemError carries the
    position b of the first system that failed as its `index`.
    """
    src = _as_points(src, "src", batch=True)
    dst = _as_points(dst, "dst", batch=True)
    return _solve(src, dst, regularization)


def _solve(src, dst, regularization: float) -> list[TpsTransform]:
    # One stacked np.linalg.solve factors each system on its own, so every
    # result equals the one-system solve of the same matrix.
    if src.shape != dst.shape:
        raise InvalidArgumentError("src and dst must have matching shapes")
    b, n = dst.shape[:2]
    if n < 3:
        raise InvalidArgumentError("TPS needs at least 3 control pairs")
    if not (np.isfinite(regularization) and regularization >= 0):
        raise InvalidArgumentError("regularization must be finite and >= 0")

    lmat = np.zeros((b, n + 3, n + 3))
    lmat[:, :n, n] = 1.0  # P's columns (1, x, y), and P^T below K
    lmat[:, :n, n + 1:] = dst
    lmat[:, n, :n] = 1.0
    lmat[:, n + 1:, :n] = dst.transpose(0, 2, 1)
    rhs = np.zeros((b, n + 3, 2))
    rhs[:, :n] = src
    # Overflow becomes inf or nan, which the checks below turn into errors.
    with np.errstate(all="ignore"):
        dx = dst[:, :, None, 0] - dst[:, None, :, 0]
        dy = dst[:, :, None, 1] - dst[:, None, :, 1]
        kmat = _u_of_rsq(dx * dx + dy * dy, out=lmat[:, :n, :n])
        diag = np.arange(n)
        kmat[:, diag, diag] += regularization
        bad = np.flatnonzero(~np.isfinite(kmat).all(axis=(1, 2)))
        if bad.size:
            raise SingularSystemError(
                "TPS kernel overflows: anchors too far apart", index=int(bad[0])
            )
        try:
            theta = np.linalg.solve(lmat, rhs)
        except np.linalg.LinAlgError:
            # The stacked solve fails as a whole; the first system that
            # fails alone is the one to name.
            for i in range(b):
                try:
                    np.linalg.solve(lmat[i], rhs[i])
                except np.linalg.LinAlgError as exc:
                    raise SingularSystemError(
                        f"TPS system is singular: {exc}", index=i
                    ) from exc
            raise
        residual = np.abs(lmat @ theta - rhs).max(axis=(1, 2))
    bad = np.flatnonzero(~(residual <= RESIDUAL_LIMIT))
    if bad.size:
        i = int(bad[0])
        msg = (f"TPS solve residual {residual[i]:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
               if np.isfinite(residual[i]) else "TPS solution is not finite")
        raise SingularSystemError(msg, index=i)

    # theta's rows n.. hold the affine coefficients of (1, x, y); dst was
    # checked on entry, and the residual check refuses a non-finite theta
    affine = theta[:, [n + 1, n + 2, n]].transpose(0, 2, 1)
    return [TpsTransform.computed(a, w, c)
            for a, w, c in zip(affine, theta[:, :n], dst.copy())]


def identity_transform() -> TpsTransform:
    """The exact identity map with no radial part."""
    return TpsTransform(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.zeros((3, 2)),
        np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]),
    )


def _eval_block(transforms, x: np.ndarray, y: np.ndarray, planes: np.ndarray,
                nearest: np.ndarray) -> None:
    # The core: on the lattice of axes x (W,) and y (H,), writes transform
    # j's x and y planes into planes[j] (2, H, W) and each point's squared
    # distance to its nearest anchor into nearest[j]. x and y terms are
    # formed on the axes before they meet; anchors are walked one at a
    # time over the (k, H, W) block, so every element adds its radial
    # terms in anchor order whatever k, H and W are (matmul would not).
    a = np.stack([t.affine for t in transforms])[..., None, None]  # (k, 2, 3, 1, 1)
    w = np.stack([t.weights for t in transforms])[..., None, None]  # (k, N, 2, 1, 1)
    c = np.stack([t.controls_d for t in transforms])[..., None, None]
    y = y[:, None]
    np.copyto(planes, a[:, :, 2] + a[:, :, 0] * x)
    planes += a[:, :, 1] * y
    u = np.empty(nearest.shape)
    term = np.empty(planes.shape)
    # an anchor's squared radii are spent before its terms are formed, so
    # they share the terms' buffer; the first anchor's go to `nearest`
    rsq = term.reshape((2,) + nearest.shape)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(c.shape[1]):
            dx = x - c[:, i, 0]  # (k, 1, W)
            dy = y - c[:, i, 1]  # (k, H, 1)
            r = rsq if i else nearest
            np.copyto(r, dx * dx)
            r += dy * dy
            if i:
                np.minimum(nearest, rsq, out=nearest)
            _u_of_rsq(r, out=u)
            planes += np.multiply(w[:, i], u[:, None], out=term)


def eval_tps(t: TpsTransform, p) -> np.ndarray:
    """Evaluate the transform at one point; returns a (2,) array."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise InvalidArgumentError("p must be a finite 2-vector")
    planes = np.empty((1, 2, 1, 1))
    _eval_block([t], p[:1], p[1:], planes, np.empty((1, 1, 1)))
    return planes[0, :, 0, 0]


def eval_tps_grid(transforms, height: int, width: int, out=None,
                  nearest=None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate k transforms with one anchor count on the normalized
    pixel lattice in one pass; returns (grids, nearest_sq).

    grids (k, H, W, 2): grid j is bit-identical to eval_tps of
    transforms[j] at every lattice point. nearest_sq (k, H, W): squared
    distance to the nearest anchor (`controls_d`) of transforms[j]. They
    are written into `out` (k, 2, H, W) and `nearest` (k, H, W) when
    given, so a caller can fill slices of one block, and are allocated
    otherwise.
    """
    transforms = list(transforms)
    if len({t.n_controls for t in transforms}) != 1:
        raise InvalidArgumentError("need transforms, all with one anchor count")
    x, y = lattice_axes(height, width)
    shape = (len(transforms), y.size, x.size)
    out = np.empty(shape[:1] + (2,) + shape[1:]) if out is None else out
    nearest = np.empty(shape) if nearest is None else nearest
    _eval_block(transforms, x, y, out, nearest)
    return out.transpose(0, 2, 3, 1), nearest


def bending_energy(t: TpsTransform) -> float:
    """The discrete bending energy w^T K w, summed over both output
    dimensions and clamped at zero (it can only dip below by rounding)."""
    c = t.controls_d
    diff = c[:, None, :] - c[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = _u_of_rsq(np.sum(diff * diff, axis=2))
    e = float(np.sum(t.weights * (kmat @ t.weights)))
    return max(e, 0.0)
