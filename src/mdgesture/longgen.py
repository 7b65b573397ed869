"""Arbitrary-length motion via segment-wise sampling and selection.

Each segment after the first is drawn several times with derived seeds;
candidates are scored on their first WINDOW = 5 frames against the
previous segment's closing window, by mean-position distance plus
mean-velocity-direction angle, and the best one is kept. With a
frame-local denoiser only those head frames of each candidate are
sampled, in one stacked reverse chain, and only the chosen candidate is
drawn in full. Junction frames are then re-filled with a natural cubic
spline so stitches stay smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .diffusion import Condition, make_schedule, sample, sample_heads
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


def _windows(prev_tail, cand_head):
    a = np.asarray(prev_tail, dtype=np.float64)
    b = np.asarray(cand_head, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise InvalidArgumentError("windows must be matrices of identical shape")
    if a.shape[0] != WINDOW:
        raise InvalidArgumentError(f"windows must hold exactly {WINDOW} frames")
    return a, b


def position_score(prev_tail, cand_head) -> float:
    """L1 distance between the two windows' per-channel mean positions."""
    a, b = _windows(prev_tail, cand_head)
    return float(np.sum(np.abs(a.mean(axis=0) - b.mean(axis=0))))


def velocity_angle_score(prev_tail, cand_head) -> float:
    """Mean angle between the windows' per-keypoint mean velocities.

    Velocities are frame differences averaged over each window; keypoints
    whose mean velocity is shorter than 1e-6 in either window contribute 0.
    """
    a, b = _windows(prev_tail, cand_head)
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


def select_best(prev_segment, candidates):
    """Score every candidate against prev_segment's closing WINDOW frames.

    Returns (index of the lowest total score, all scores); ties go to the
    lowest index. A segment shorter than WINDOW, or a candidate of
    another channel count, fails the scores' window check.
    """
    if len(candidates) < 1:
        raise InvalidArgumentError("need at least one candidate")
    tail = _frames_of(prev_segment)[-WINDOW:]
    scores = []
    for cand in candidates:
        head = _frames_of(cand)[:WINDOW]
        scores.append(
            CandidateScore(position_score(tail, head), velocity_angle_score(tail, head))
        )
    best = min(range(len(scores)), key=lambda i: scores[i].total)
    return best, scores


def candidate_seed(seed, segment: int, candidate: int) -> tuple:
    """The seed of candidate `candidate` of segment `segment` >= 1 on the
    root seed; segment 0 is one draw on the root seed itself."""
    return (seed, segment, candidate)


def generate_long(denoiser, cond_full, seed_motion, m_total: int,
                  cfg: PipelineConfig):
    """Sample m_total frames as stitched segments of cfg.m frames.

    One loop draws ceil(m_total / cfg.m) segments on the schedule
    make_schedule(cfg.t_steps, cfg.schedule) with guidance cfg.gamma.
    Segment 0 is one draw on the root seed cfg.seed, conditioned on
    seed_motion, so a single-segment call reproduces a plain sample() run
    bit for bit; a shorter request trims it. Each later segment is
    conditioned on the previous one's last frame and has cfg.p candidates
    on seeds candidate_seed(cfg.seed, segment, candidate); select_best
    scores their first WINDOW frames and keeps the best continuation.
    When the denoiser is frame_local and cfg.p > 1, sample_heads draws
    only those head frames and the winner alone is sampled in full. The
    heads are the full draws' first frames (see sample_heads for the
    BLAS this rests on), so motion and scores are those of drawing every
    candidate in full. With cfg.gap > 0 every junction's gap frames are
    replaced by a spline fit through 5 knot frames on each side; gap = 0
    concatenates as-is.

    Returns (motion, report) where report rows are
    (segment, candidate, CandidateScore, selected).
    """
    seed_vec = np.asarray(seed_motion, dtype=np.float64).reshape(-1)
    if seed_vec.size == 0 or not np.all(np.isfinite(seed_vec)):
        raise InvalidArgumentError("seed motion must be a finite nonempty vector")
    m, gap = cfg.m, cfg.gap
    m_total = int(m_total)
    if m_total < 1:
        raise InvalidArgumentError("total length must be >= 1 frame")
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

    sched = make_schedule(cfg.t_steps, cfg.schedule)
    fps = cond_full.fps
    segments, report = [], []
    start, seeds = seed_vec, [cfg.seed]
    for i in range(n_seg):
        cond_i = Condition(feats[i * m : (i + 1) * m], start)
        head_pass = bool(segments) and len(seeds) > 1 and denoiser.frame_local
        if head_pass:
            draws = sample_heads(denoiser, cond_i, sched, seeds, WINDOW, cfg.gamma)
        else:
            draws = [sample(denoiser, cond_i, sched, seed=draw_seed,
                            gamma=cfg.gamma, fps=fps) for draw_seed in seeds]
        best, scores = select_best(segments[-1], draws) if segments else (0, [])
        report.extend((i, p, s, p == best) for p, s in enumerate(scores))
        segments.append(sample(denoiser, cond_i, sched, seed=seeds[best],
                               gamma=cfg.gamma, fps=fps) if head_pass else draws[best])
        start = segments[-1].frames[-1]
        seeds = [candidate_seed(cfg.seed, i + 1, p) for p in range(cfg.p)]

    full = np.vstack([s.frames for s in segments])
    if gap > 0:
        tail_half = (gap + 1) // 2  # frames taken from the end of the left segment
        for i in range(1, n_seg):
            lo = i * m - tail_half
            left = full[lo - FILL_KNOTS : lo]
            right = full[lo + gap : lo + gap + FILL_KNOTS]
            full[lo : lo + gap] = spline_fill(left, right, gap)
    return MotionSequence(full[:m_total].copy(), fps), report
