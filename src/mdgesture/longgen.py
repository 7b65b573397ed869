"""Arbitrary-length motion via segment-wise sampling and selection.

Each segment after the first is drawn several times with derived seeds;
candidates are scored against the previous segment's closing window by
mean-position distance plus mean-velocity-direction angle, and the best
one is kept. Junction frames are then re-filled with a natural cubic
spline so stitches stay smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import Condition, sample
from .errors import InvalidArgumentError
from .motion import MotionSequence, _frames_of, as_points, spline_fill

WINDOW = 5
FILL_KNOTS = 5


@dataclass(frozen=True)
class CandidateScore:
    """Junction mismatch: position term plus angle term, lower is better."""

    position: float
    angle: float

    def __post_init__(self):
        for name in ("position", "angle"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise InvalidArgumentError(f"{name} score must be finite and >= 0")
            object.__setattr__(self, name, v)

    @property
    def total(self) -> float:
        return self.position + self.angle


def _windows(prev_tail, cand_head, window: int):
    a = np.asarray(prev_tail, dtype=np.float64)
    b = np.asarray(cand_head, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise InvalidArgumentError("windows must be matrices of identical shape")
    if a.shape[0] != int(window):
        raise InvalidArgumentError(f"windows must hold exactly {window} frames")
    return a, b


def position_score(prev_tail, cand_head, window: int = WINDOW) -> float:
    """L1 distance between the two windows' per-channel mean positions."""
    a, b = _windows(prev_tail, cand_head, window)
    return float(np.sum(np.abs(a.mean(axis=0) - b.mean(axis=0))))


def velocity_angle_score(prev_tail, cand_head, window: int = WINDOW) -> float:
    """Mean angle between the windows' per-keypoint mean velocities.

    Velocities are frame differences averaged over each window; keypoints
    whose mean velocity is shorter than 1e-6 in either window contribute 0.
    """
    a, b = _windows(prev_tail, cand_head, window)
    if a.shape[0] < 2:
        raise InvalidArgumentError("angle score needs at least 2 frames per window")
    va = np.diff(as_points(a), axis=0).mean(axis=0)
    vb = np.diff(as_points(b), axis=0).mean(axis=0)
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    moving = (na >= 1e-6) & (nb >= 1e-6)
    angles = np.zeros(va.shape[0])
    if np.any(moving):
        dots = np.sum(va[moving] * vb[moving], axis=1)
        cosines = np.clip(dots / (na[moving] * nb[moving]), -1.0, 1.0)
        angles[moving] = np.arccos(cosines)
    return float(angles.mean())


def select_best(prev_segment, candidates, window: int = WINDOW):
    """Score every candidate against prev_segment's closing window.

    Returns (index of the lowest total score, all scores); ties go to the
    lowest index.
    """
    prev = _frames_of(prev_segment)
    if len(candidates) < 1:
        raise InvalidArgumentError("need at least one candidate")
    window = int(window)
    if prev.shape[0] < window:
        raise InvalidArgumentError("previous segment shorter than the score window")
    tail = prev[-window:]
    scores = []
    for cand in candidates:
        frames = _frames_of(cand)
        if frames.shape[0] < window:
            raise InvalidArgumentError("candidate shorter than the score window")
        if frames.shape[1] != prev.shape[1]:
            raise InvalidArgumentError("candidate channel count mismatch")
        head = frames[:window]
        scores.append(
            CandidateScore(
                position_score(tail, head, window),
                velocity_angle_score(tail, head, window),
            )
        )
    best = min(range(len(scores)), key=lambda i: scores[i].total)
    return best, scores


def generate_long(
    denoiser,
    cond_full,
    seed_motion,
    m_total: int,
    schedule,
    *,
    segment_len: int = 80,
    candidates: int = 5,
    gap: int = 2,
    seed=0,
    gamma: float = 1.0,
):
    """Sample m_total frames as stitched segments of segment_len frames.

    One loop draws ceil(m_total / segment_len) segments. Segment 0 is one
    draw on the root seed, conditioned on seed_motion, so a single-segment
    call reproduces a plain sample() run bit for bit; a shorter request
    trims it. Each later segment is conditioned on the previous one's last
    frame, drawn `candidates` times with seeds (seed, segment, candidate),
    and select_best keeps the best continuation. With gap > 0 every
    junction's `gap` frames are replaced by a spline fit through 5 knot
    frames on each side; gap = 0 concatenates as-is.

    Returns (motion, report) where report rows are
    (segment, candidate, CandidateScore, selected).
    """
    seed_vec = np.asarray(seed_motion, dtype=np.float64).reshape(-1)
    if seed_vec.size == 0 or not np.all(np.isfinite(seed_vec)):
        raise InvalidArgumentError("seed motion must be a finite nonempty vector")
    c = seed_vec.size
    m = int(segment_len)
    m_total = int(m_total)
    n_cand = int(candidates)
    gap = int(gap)
    if m < 1:
        raise InvalidArgumentError("segment length must be >= 1")
    if m_total < 1:
        raise InvalidArgumentError("total length must be >= 1 frame")
    if n_cand < 1:
        raise InvalidArgumentError("need at least one candidate per segment")
    if gap < 0:
        raise InvalidArgumentError("gap must be >= 0")
    feats = cond_full.features
    if feats.shape[0] < m:
        raise InvalidArgumentError("audio condition is shorter than one segment")
    n_seg = -(-m_total // m)
    if n_seg > 1:
        if m < WINDOW:
            raise InvalidArgumentError("segments too short to score junctions")
        if gap > 0 and m < gap + 2 * FILL_KNOTS:
            raise InvalidArgumentError("segments too short to re-fill junctions")
    needed = n_seg * m
    if feats.shape[0] < needed:
        pad = np.repeat(feats[-1:], needed - feats.shape[0], axis=0)
        feats = np.vstack([feats, pad])

    fps = cond_full.fps
    segments, report = [], []
    start, seeds = seed_vec, [seed]
    for i in range(n_seg):
        cond_i = Condition(feats[i * m : (i + 1) * m], start)
        draws = [sample(denoiser, cond_i, schedule, m, c, seed=draw_seed,
                        gamma=gamma, fps=fps) for draw_seed in seeds]
        best, scores = select_best(segments[-1], draws) if segments else (0, [])
        report.extend((i, p, s, p == best) for p, s in enumerate(scores))
        segments.append(draws[best])
        start = draws[best].frames[-1]
        seeds = [(seed, i + 1, p) for p in range(n_cand)]

    full = np.vstack([s.frames for s in segments])
    if gap > 0:
        tail_half = (gap + 1) // 2  # frames taken from the end of the left segment
        for i in range(1, n_seg):
            lo = i * m - tail_half
            left = full[lo - FILL_KNOTS : lo]
            right = full[lo + gap : lo + gap + FILL_KNOTS]
            full[lo : lo + gap] = spline_fill(left, right, gap)
    return MotionSequence(full[:m_total].copy(), fps), report
