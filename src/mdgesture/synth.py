"""Seeded synthetic beat-driven keypoint motion for training and eval.

Every keypoint orbits its own random center; all keypoints share a beat
envelope that slows the orbital progress around beat frames, so gesture
beats (speed minima) land on the audio beats by construction. Paired
conditioning features come from the synthetic condition generator.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .audio import AudioCondition, synth_condition
from .errors import InvalidArgumentError
from .motion import MotionSequence
from .rng import MOTION_TAG, generator

BEAT_START = 5
DIP_DEPTH = 0.8
DIP_WIDTH = 1.5


def beat_frames(m: int, beat_period: int) -> np.ndarray:
    """Frame indices carrying a beat: every beat_period frames from 5."""
    m, beat_period = int(m), int(beat_period)
    if m < 1 or beat_period < 1:
        raise InvalidArgumentError("m and beat_period must be >= 1")
    return np.arange(BEAT_START, m, beat_period)


def beat_envelope(m: int, beat_period: int) -> np.ndarray:
    """Per-frame speed scale in (0, 1]: dips to 1 - DIP_DEPTH at beats."""
    frames = beat_frames(m, beat_period)
    t = np.arange(int(m), dtype=np.float64)
    if frames.size == 0:
        return np.ones(int(m))
    bumps = np.exp(-((t[:, None] - frames[None, :]) ** 2) / (2.0 * DIP_WIDTH**2))
    return 1.0 - DIP_DEPTH * bumps.sum(axis=1).clip(max=1.0)


def synth_sequence(cfg, index: int) -> tuple[MotionSequence, AudioCondition]:
    """Sequence `index` of the dataset for this config, with its condition.

    Deterministic per (cfg.seed, index). Keypoint positions stay inside
    the [-1, 1] normalized square for cfg.amp <= 1.
    """
    index = int(index)
    if index < 0:
        raise InvalidArgumentError("sequence index must be >= 0")
    g = generator(cfg.seed, index, MOTION_TAG)
    m = cfg.m
    points = cfg.k * cfg.n
    fps = Fraction(cfg.fps)

    env = beat_envelope(m, cfg.beat_period)
    # orbital progress advances by env(t)/fps per frame, so instantaneous
    # speed is proportional to env and dips exactly at beat frames
    progress = np.concatenate([[0.0], np.cumsum(env[:-1])]) / float(fps)

    centers = g.uniform(-0.5, 0.5, size=(points, 2))
    radii = g.uniform(0.1, 0.3, size=points)
    freqs = g.uniform(0.5, 1.5, size=points)
    phases = g.uniform(0.0, 2.0 * np.pi, size=points)

    angle = phases[None, :] + 2.0 * np.pi * freqs[None, :] * progress[:, None]
    offsets = np.stack([np.cos(angle), np.sin(angle)], axis=2)
    positions = centers[None, :, :] + cfg.amp * radii[None, :, None] * offsets
    frames = positions.reshape(m, -1)

    beat_times = beat_frames(m, cfg.beat_period) / float(fps)
    cond = synth_condition(
        beat_times, m, fps, cfg.c_audio, seed=(cfg.seed, index, 1)
    )
    return MotionSequence(frames, fps), cond


def make_dataset(cfg) -> list[tuple[MotionSequence, AudioCondition]]:
    """All cfg.sequences sequences, in index order."""
    return [synth_sequence(cfg, i) for i in range(cfg.sequences)]
