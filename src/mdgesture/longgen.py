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

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .diffusion import Condition, make_schedule, sample, sample_heads
from .errors import InvalidArgumentError, NumericsError
from .fileio import F32_MAX
from .motion import MotionSequence, spline_fill

WINDOW = 5
FILL_KNOTS = 5


@dataclass(frozen=True)
class CandidateScore:
    """Junction mismatch: position term plus angle term, lower is better."""

    position: float
    angle: float

    @property
    def total(self) -> float:
        return self.position + self.angle


def select_best(prev_segment, heads):
    """Score a (P, >= WINDOW, C) block of candidates on their first WINDOW
    frames against prev_segment's closing WINDOW frames.

    position is the L1 distance between the two windows' per-channel mean
    positions. angle is the mean, over keypoints, of the angle between
    the windows' mean velocities (frame differences averaged over each
    window); a keypoint whose mean velocity is shorter than 1e-6 in
    either window contributes 0. Returns (index of the lowest total, all
    P scores); ties go to the lowest index.
    """
    prev = np.asarray(prev_segment, dtype=np.float64)
    heads = np.asarray(heads, dtype=np.float64)
    if (heads.ndim != 3 or prev.ndim != 2 or heads.shape[0] < 1
            or min(heads.shape[1], prev.shape[0]) < WINDOW
            or heads.shape[2] != prev.shape[1] or heads.shape[2] % 2):
        raise InvalidArgumentError(
            f"candidates must be a (P >= 1, >= {WINDOW}, C) block after >= {WINDOW} "
            f"frames of C channels, C even; got {heads.shape} after {prev.shape}")
    tail, heads = prev[-WINDOW:], heads[:, :WINDOW]
    position = np.abs(heads.mean(axis=1) - tail.mean(axis=0)).sum(axis=1)
    va = np.diff(tail.reshape(WINDOW, -1, 2), axis=0).mean(axis=0)
    vb = np.diff(heads.reshape(len(heads), WINDOW, -1, 2), axis=1).mean(axis=1)
    na = np.linalg.norm(va, axis=-1)
    nb = np.linalg.norm(vb, axis=-1)
    moving = (na >= 1e-6) & (nb >= 1e-6)
    cosines = np.sum(va * vb, axis=-1) / np.where(moving, na * nb, 1.0)
    angle = np.where(moving, np.arccos(np.clip(cosines, -1.0, 1.0)), 0.0).mean(axis=1)
    best = int(np.argmin(position + angle))
    return best, [CandidateScore(float(p), float(a)) for p, a in zip(position, angle)]


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
    scores the p candidates as one block on their first WINDOW frames and
    keeps the best continuation. When the denoiser is frame_local and
    cfg.p > 1, sample_heads draws only those head frames and the winner
    alone is sampled in full; otherwise every candidate is drawn in full.
    The heads equal the full draws' first frames to rounding (see
    sample_heads), and a kept segment is always exactly the full draw on
    the winner's seed. With cfg.gap > 0 every junction's gap frames are
    replaced by a spline fit through 5 knot frames on each side; gap = 0
    concatenates as-is. A returned frame beyond float32 raises NumericsError
    naming its segment, or its junction if the spline filled it.

    Each chain draws only its x_T, in-process; its reverse steps add no
    noise, so the bytes do not depend on how many cores the process has.

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
    heads = n_seg > 1 and cfg.p > 1 and denoiser.frame_local

    def draw(cond, seed):
        return sample(denoiser, cond, sched, seed=seed, gamma=cfg.gamma).frames

    segments, report = [], []
    start, seeds = seed_vec, [cfg.seed]
    for i in range(n_seg):
        cond_i = Condition(feats[i * m : (i + 1) * m], start)
        if segments and heads:
            drawn = sample_heads(denoiser, cond_i, sched, seeds, WINDOW, cfg.gamma)
            best, scores = select_best(segments[-1], drawn)
            kept = draw(cond_i, seeds[best])
        else:
            draws = np.stack([draw(cond_i, seed) for seed in seeds])
            best, scores = select_best(segments[-1], draws) if segments else (0, [])
            kept = draws[best]
        report.extend((i, p, s, p == best) for p, s in enumerate(scores))
        segments.append(kept)
        start = kept[-1]
        seeds = [candidate_seed(cfg.seed, i + 1, p) for p in range(cfg.p)]

    full = np.vstack(segments)
    if gap > 0:
        tail_half = (gap + 1) // 2  # frames taken from the end of the left segment
        for i in range(1, n_seg):
            lo = i * m - tail_half
            left = full[lo - FILL_KNOTS : lo]
            right = full[lo + gap : lo + gap + FILL_KNOTS]
            full[lo : lo + gap] = spline_fill(left, right, gap)
    fits = np.all(np.abs(full[:m_total]) <= F32_MAX, axis=1)
    if not fits.all():
        row = int(np.argmin(fits))
        seg, offset = divmod(row + (gap + 1) // 2, m)
        if 0 < seg < n_seg and offset < gap:
            raise NumericsError(
                f"junction of segments {seg - 1} and {seg} left float32 range")
        raise NumericsError(f"segment {row // m} left float32 range")
    return MotionSequence(full[:m_total].copy(), cond_full.fps), report
