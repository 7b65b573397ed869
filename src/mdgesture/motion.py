"""Latent motion sequences: flattened keypoints and junction splines.

A motion sequence is an M x C matrix, one row per frame, where C packs
K transform groups of N keypoints each as (k major, n minor, x before y),
so C = K * N * 2. spline_fill restores smooth junctions between
independently generated segments with a natural cubic spline fitted per
channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_FPS = Fraction(25)


@dataclass(frozen=True)
class MotionSequence:
    frames: np.ndarray
    fps: Fraction = field(default=DEFAULT_FPS)

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise InvalidArgumentError("frames must be a nonempty (M, C) matrix")
        if not np.all(np.isfinite(f)):
            raise InvalidArgumentError("frames must be finite")
        fps = Fraction(self.fps)
        if fps <= 0:
            raise InvalidArgumentError("fps must be positive")
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "fps", fps)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_channels(self) -> int:
        return self.frames.shape[1]


def _frames_of(seq) -> np.ndarray:
    if isinstance(seq, MotionSequence):
        return seq.frames
    f = np.asarray(seq, dtype=np.float64)
    if f.ndim != 2:
        raise InvalidArgumentError("expected an (M, C) frame matrix")
    return f


def flatten(keypoints, fps=DEFAULT_FPS) -> MotionSequence:
    """Pack (M, K, N, 2) keypoint frames into an (M, K*N*2) sequence."""
    kp = np.asarray(keypoints, dtype=np.float64)
    if kp.ndim != 4 or kp.shape[3] != 2:
        raise InvalidArgumentError("keypoints must be (M, K, N, 2)")
    m = kp.shape[0]
    return MotionSequence(kp.reshape(m, -1), fps)


def unflatten(seq, k: int, n: int) -> np.ndarray:
    """Exact inverse of flatten; returns (M, K, N, 2)."""
    frames = _frames_of(seq)
    k, n = int(k), int(n)
    if k < 1 or n < 1 or frames.shape[1] != k * n * 2:
        raise InvalidArgumentError(
            f"C={frames.shape[1]} does not decode as K={k}, N={n} keypoints"
        )
    return frames.reshape(frames.shape[0], k, n, 2)


def as_points(frames) -> np.ndarray:
    """View (M, C) rows as (M, C/2, 2) point lists."""
    f = _frames_of(frames)
    if f.shape[1] % 2:
        raise InvalidArgumentError("channel count must be even to decode points")
    return f.reshape(f.shape[0], -1, 2)


def gaussian_smooth(values, sigma: float) -> np.ndarray:
    """Gaussian filter over a 1-d signal, kernel truncated at 3*sigma.

    The kernel is renormalized to sum to one and the signal is edge-padded,
    so constants pass through unchanged. sigma <= 0 is the identity.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise InvalidArgumentError("cannot smooth an empty signal")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("signal must be finite")
    sigma = float(sigma)
    if sigma <= 0.0:
        return v.copy()
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    padded = np.pad(v, radius, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def _natural_spline_coeffs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (t, y).

    y is (n, C); returns (n, C). Natural boundary: zero curvature at both
    ends. The interior system is tridiagonal and solved by the Thomas
    algorithm, one sweep shared across channels.
    """
    n = t.shape[0]
    h = np.diff(t)
    m = np.zeros_like(y)
    if n == 2:
        return m
    diag = 2.0 * (h[:-1] + h[1:]).copy()
    sup = h[1:].copy()
    sub = h[:-1].copy()
    rhs = 6.0 * (
        (y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None]
    )
    for i in range(1, n - 2):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    sol = np.empty_like(rhs)
    sol[-1] = rhs[-1] / diag[-1]
    for i in range(n - 4, -1, -1):
        sol[i] = (rhs[i] - sup[i] * sol[i + 1]) / diag[i]
    m[1:-1] = sol
    return m


def _spline_eval(t, y, m, q):
    """Evaluate the cubic with knot second-derivatives m at times q."""
    j = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.shape[0] - 2)
    h = (t[j + 1] - t[j])[:, None]
    lo = (q - t[j])[:, None]
    hi = (t[j + 1] - q)[:, None]
    return (
        m[j] * hi**3 / (6.0 * h)
        + m[j + 1] * lo**3 / (6.0 * h)
        + (y[j] / h - m[j] * h / 6.0) * hi
        + (y[j + 1] / h - m[j + 1] * h / 6.0) * lo
    )


def spline_fill(left, right, gap: int) -> np.ndarray:
    """Fill `gap` frames between two segments with a natural cubic spline.

    left: trailing (L, C) knot frames of the earlier segment, right:
    leading (R, C) knot frames of the later one, both on a unit time
    grid with the gap in between. Returns the (gap, C) fill evaluated at
    the missing integer times. Each of the C channels is splined
    independently, which makes the junction curvature-continuous.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    gap = int(gap)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
        raise InvalidArgumentError("left/right must be (L, C) and (R, C)")
    if left.shape[0] < 2 or right.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 knot frames per side")
    if gap < 1:
        raise InvalidArgumentError("gap must be >= 1")
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise InvalidArgumentError("knot frames must be finite")
    nl = left.shape[0]
    t = np.concatenate([
        np.arange(nl, dtype=np.float64),
        np.arange(nl + gap, nl + gap + right.shape[0], dtype=np.float64),
    ])
    y = np.vstack([left, right])
    m = _natural_spline_coeffs(t, y)
    q = np.arange(nl, nl + gap, dtype=np.float64)
    return _spline_eval(t, y, m, q)
