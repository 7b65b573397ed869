"""Motion evaluation: beat alignment, diversity, and Fréchet distance.

Gesture beats are local minima of Gaussian-smoothed keypoint speed. The
Fréchet core is the squared Wasserstein-2 distance between Gaussian
summaries; features feeding it come from deterministic statistical
pooling of a sequence, not a learned extractor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .motion import MotionSequence, as_points, gaussian_smooth

DEFAULT_SIGMA_BEAT = 0.1
DEFAULT_SIGMA_SMOOTH = 2.0


def _speeds(frames) -> np.ndarray:
    """Per-difference-row speed: mean over keypoints of the 2-norm."""
    steps = np.diff(as_points(frames), axis=0)
    return np.linalg.norm(steps, axis=2).mean(axis=1)


def _speed_minima(seq, sigma_smooth: float):
    """(raw speed, smoothed speed, indices of the smoothed speed's strict
    local minima); sample i is the step from frame i to i+1."""
    if not isinstance(seq, MotionSequence):
        raise InvalidArgumentError("speed minima need a MotionSequence")
    if seq.n_frames < 3:
        raise InvalidArgumentError("need at least 3 frames to find speed minima")
    raw = _speeds(seq.frames)
    smooth = gaussian_smooth(raw, sigma_smooth)
    inner = slice(1, -1)
    minima = (smooth[inner] < smooth[:-2]) & (smooth[inner] < smooth[2:])
    return raw, smooth, np.nonzero(minima)[0] + 1


def gesture_beats(seq, sigma_smooth: float = DEFAULT_SIGMA_SMOOTH) -> np.ndarray:
    """Beat times (seconds): strict local minima of smoothed speed, speed
    sample i timestamped i/fps. sigma_smooth <= 0 skips smoothing."""
    _, _, idx = _speed_minima(seq, sigma_smooth)
    return idx / float(seq.fps)


def velocity_curve(seq, sigma_smooth: float = DEFAULT_SIGMA_SMOOTH):
    """Per-speed-sample dump: (frame, raw speed, smoothed speed, is_beat)."""
    raw, smooth, idx = _speed_minima(seq, sigma_smooth)
    is_beat = np.zeros(raw.size, dtype=bool)
    is_beat[idx] = True
    return np.arange(raw.size), raw, smooth, is_beat


def _beat_arrays(audio_beats, gesture_times):
    a = np.asarray(audio_beats, dtype=np.float64).reshape(-1)
    g = np.asarray(gesture_times, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise InvalidArgumentError("need at least one audio beat")
    if not np.all(np.isfinite(a)) or (g.size and not np.all(np.isfinite(g))):
        raise InvalidArgumentError("beat times must be finite")
    return a, g


def beat_align_score(audio_beats, gesture_times, sigma_b: float = DEFAULT_SIGMA_BEAT):
    """Mean over audio beats of exp(-nearest-gesture-gap^2 / (2 sigma_b^2)).

    1.0 when every audio beat has a coincident gesture beat; 0.0 when
    there are no gesture beats at all.
    """
    a, g = _beat_arrays(audio_beats, gesture_times)
    if float(sigma_b) <= 0:
        raise InvalidArgumentError("sigma_b must be positive")
    if g.size == 0:
        return 0.0
    gaps = np.min(np.abs(a[:, None] - g[None, :]), axis=1)
    return float(np.mean(np.exp(-(gaps**2) / (2.0 * float(sigma_b) ** 2))))


def diversity(features) -> float:
    """Mean Euclidean distance over all unordered feature pairs."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise InvalidArgumentError("diversity needs at least 2 feature vectors")
    if not np.all(np.isfinite(f)):
        raise InvalidArgumentError("features must be finite")
    n = f.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(np.linalg.norm(f[i + 1 :] - f[i], axis=1)))
    return total / (n * (n - 1) / 2)


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector plus symmetric PSD covariance of a feature set."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mu.size == 0 or cov.shape != (mu.size, mu.size):
            raise InvalidArgumentError("covariance must be d x d for a d-vector mean")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise InvalidArgumentError("summary must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise InvalidArgumentError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-8:
            raise InvalidArgumentError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def summarize(features) -> GaussianSummary:
    """Sample mean and unbiased covariance (symmetrized) of row vectors."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise InvalidArgumentError("summarize needs at least 2 feature vectors")
    if not np.all(np.isfinite(f)):
        raise InvalidArgumentError("features must be finite")
    mu = f.mean(axis=0)
    centered = f - mu
    cov = centered.T @ centered / (f.shape[0] - 1)
    return GaussianSummary(mu, (cov + cov.T) / 2.0)


def _sqrt_psd(mat: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    if vals.min() < floor:
        raise InvalidArgumentError("matrix is not positive semidefinite")
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(g1: GaussianSummary, g2: GaussianSummary) -> float:
    """Squared Wasserstein-2 distance between two Gaussian summaries.

    ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1 S2)^(1/2)), with the matrix root
    taken through symmetric eigendecompositions; tiny negative eigenvalues
    are clamped and the result is clamped at 0.
    """
    if g1.dim != g2.dim:
        raise InvalidArgumentError("summary dimensions must match")
    root1 = _sqrt_psd(g1.covariance, -1e-6)
    inner = root1 @ g2.covariance @ root1
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    if vals.min() < -1e-6:
        raise InvalidArgumentError("covariance product is not positive semidefinite")
    trace_sqrt = float(np.sum(np.sqrt(np.maximum(vals, 0.0))))
    delta = g1.mean - g2.mean
    dist = (
        float(delta @ delta)
        + float(np.trace(g1.covariance))
        + float(np.trace(g2.covariance))
        - 2.0 * trace_sqrt
    )
    return max(dist, 0.0)


def motion_features(seq) -> np.ndarray:
    """Pooled statistics of a sequence: d = 2C + 2 entries.

    Per-channel mean, per-channel standard deviation (population), mean
    speed, and mean acceleration magnitude, concatenated in that order.
    """
    if not isinstance(seq, MotionSequence):
        raise InvalidArgumentError("motion_features needs a MotionSequence")
    frames = seq.frames
    if frames.shape[0] < 3:
        raise InvalidArgumentError("need at least 3 frames for pooled statistics")
    speed = _speeds(frames)
    accel = _speeds(np.diff(frames, axis=0))
    return np.concatenate(
        [
            frames.mean(axis=0),
            frames.std(axis=0),
            [speed.mean()],
            [accel.mean()],
        ]
    )
