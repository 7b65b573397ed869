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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularSystemError

# A solve whose residual exceeds this is reported as singular rather than
# returned; keeps "singular" testable without prescribing a factorization.
RESIDUAL_LIMIT = 1e-6


def _u_of_rsq(rsq):
    """U as a function of squared radius, with the continuous extension
    U(0) = 0. Works elementwise on any shape."""
    rsq = np.asarray(rsq, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.log(rsq, out=np.empty_like(rsq))  # an array even when 0-d
        u *= rsq
    u[rsq == 0.0] = 0.0
    return u


def rbf_u(r):
    """Radial basis U(r) = r^2 log(r^2), elementwise; U(0) = 0."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)) or np.any(r < 0.0):
        raise InvalidArgumentError("rbf_u requires finite r >= 0")
    out = _u_of_rsq(r * r)
    return float(out) if out.ndim == 0 else out


def lattice_axes(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The column coordinates x (W,) and row coordinates y (H,) of the
    normalized lattice: x_c = -1 + 2c/(W-1), so corners map to the
    corners of [-1, 1]^2 exactly."""
    height = int(height)
    width = int(width)
    if height < 2 or width < 2:
        raise InvalidArgumentError("lattice needs height and width >= 2")
    x = -1.0 + 2.0 * np.arange(width, dtype=np.float64) / (width - 1)
    y = -1.0 + 2.0 * np.arange(height, dtype=np.float64) / (height - 1)
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


def _as_points(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvalidArgumentError(f"{name} must be an (N, 2) array")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class TpsTransform:
    """One solved thin-plate spline mapping.

    affine: 2x3 matrix; row d holds the coefficients of (x, y, 1).
    weights: N x 2 radial weights.
    controls_d: N x 2 origin-space anchor points.
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
        object.__setattr__(self, "affine", a)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "controls_d", c)

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
    residual below RESIDUAL_LIMIT (duplicate or collinear anchors).
    """
    src = _as_points(src, "src")
    dst = _as_points(dst, "dst")
    if src.shape != dst.shape:
        raise InvalidArgumentError("src and dst must have matching shapes")
    n = dst.shape[0]
    if n < 3:
        raise InvalidArgumentError("TPS needs at least 3 control pairs")
    if not (np.isfinite(regularization) and regularization >= 0):
        raise InvalidArgumentError("regularization must be finite and >= 0")

    diff = dst[:, None, :] - dst[None, :, :]
    kmat = _u_of_rsq(np.sum(diff * diff, axis=2))
    kmat = kmat + regularization * np.eye(n)
    pmat = np.hstack([np.ones((n, 1)), dst])  # columns (1, x, y)

    lmat = np.zeros((n + 3, n + 3))
    lmat[:n, :n] = kmat
    lmat[:n, n:] = pmat
    lmat[n:, :n] = pmat.T
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = src

    try:
        theta = np.linalg.solve(lmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"TPS system is singular: {exc}") from exc
    residual = float(np.max(np.abs(lmat @ theta - rhs)))
    if not np.isfinite(residual) or residual > RESIDUAL_LIMIT:
        raise SingularSystemError(
            f"TPS solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
        )

    weights = theta[:n]
    coef = theta[n:]  # rows: constant, x, y; one column per output dim
    affine = np.stack([
        np.array([coef[1, 0], coef[2, 0], coef[0, 0]]),
        np.array([coef[1, 1], coef[2, 1], coef[0, 1]]),
    ])
    return TpsTransform(affine, weights, dst.copy())


def identity_transform() -> TpsTransform:
    """The exact identity map with no radial part."""
    return TpsTransform(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.zeros((3, 2)),
        np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]),
    )


def _eval_points(t: TpsTransform, pts: np.ndarray) -> np.ndarray:
    # Shared evaluation core. The radial sum is an explicit loop over
    # control points so the accumulation order is identical for single
    # points and whole grids (matmul would reorder it by shape).
    x = pts[..., 0]
    y = pts[..., 1]
    a = t.affine
    out_x = a[0, 2] + a[0, 0] * x + a[0, 1] * y
    out_y = a[1, 2] + a[1, 0] * x + a[1, 1] * y
    w = t.weights
    c = t.controls_d
    for i in range(c.shape[0]):
        dx = x - c[i, 0]
        dy = y - c[i, 1]
        u = _u_of_rsq(dx * dx + dy * dy)
        out_x = out_x + w[i, 0] * u
        out_y = out_y + w[i, 1] * u
    return np.stack([out_x, out_y], axis=-1)


def eval_tps(t: TpsTransform, p) -> np.ndarray:
    """Evaluate the transform at one point; returns a (2,) array."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise InvalidArgumentError("p must be a finite 2-vector")
    return _eval_points(t, p)


def eval_tps_grid(t: TpsTransform, height: int, width: int) -> np.ndarray:
    """Evaluate on the normalized pixel lattice; returns (H, W, 2).

    Bit-identical to calling eval_tps at every lattice point.
    """
    return _eval_points(t, normalized_lattice(height, width))


def bending_energy(t: TpsTransform) -> float:
    """The discrete bending energy w^T K w, summed over both output
    dimensions and clamped at zero (it can only dip below by rounding)."""
    c = t.controls_d
    diff = c[:, None, :] - c[None, :, :]
    kmat = _u_of_rsq(np.sum(diff * diff, axis=2))
    e = float(np.sum(t.weights * (kmat @ t.weights)))
    return max(e, 0.0)
