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

    # theta's rows n.. hold the affine coefficients of (1, x, y)
    affine = theta[:, [n + 1, n + 2, n]].transpose(0, 2, 1)
    return [TpsTransform(a, w, c)
            for a, w, c in zip(affine, theta[:, :n], dst.copy())]


def identity_transform() -> TpsTransform:
    """The exact identity map with no radial part."""
    return TpsTransform(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.zeros((3, 2)),
        np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]),
    )


def _eval_points(t: TpsTransform, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Shared evaluation core. x and y broadcast against each other: one
    # element each for a point, a row x[None, :] and a column y[:, None]
    # for the lattice, so the x and y terms are formed on the axes before
    # they meet. The radial sum is an explicit loop over control points so
    # the accumulation order is identical for single points and whole
    # grids (matmul would reorder it by shape).
    a = t.affine
    out_x = a[0, 2] + a[0, 0] * x + a[0, 1] * y
    out_y = a[1, 2] + a[1, 0] * x + a[1, 1] * y
    rsq = np.empty_like(out_x)
    u = np.empty_like(out_x)
    wu = np.empty_like(out_x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for (cx, cy), (wx, wy) in zip(t.controls_d, t.weights):
            dx = x - cx
            dy = y - cy
            np.add(dx * dx, dy * dy, out=rsq)
            _u_of_rsq(rsq, out=u)
            out_x += np.multiply(wx, u, out=wu)
            out_y += np.multiply(wy, u, out=wu)
    return np.moveaxis(np.stack([out_x, out_y]), 0, -1)  # stored as two planes


def eval_tps(t: TpsTransform, p) -> np.ndarray:
    """Evaluate the transform at one point; returns a (2,) array."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise InvalidArgumentError("p must be a finite 2-vector")
    return _eval_points(t, p[:1], p[1:])[0]


def eval_tps_grid(t: TpsTransform, height: int, width: int) -> np.ndarray:
    """Evaluate on the normalized pixel lattice; returns (H, W, 2).

    Bit-identical to calling eval_tps at every lattice point.
    """
    x, y = lattice_axes(height, width)
    return _eval_points(t, x[None, :], y[:, None])


def bending_energy(t: TpsTransform) -> float:
    """The discrete bending energy w^T K w, summed over both output
    dimensions and clamped at zero (it can only dip below by rounding)."""
    c = t.controls_d
    diff = c[:, None, :] - c[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = _u_of_rsq(np.sum(diff * diff, axis=2))
    e = float(np.sum(t.weights * (kmat @ t.weights)))
    return max(e, 0.0)
