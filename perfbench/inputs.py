"""Seeded benchmark inputs: a source image, a WAV click track and configs.

Everything the program reads during a run is generated here from the
workload seed, so a claim made on one seed can be re-checked on another.
Only numpy and the standard library are used; nothing here imports
mdgesture, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
BEAT_PERIOD_S = 0.4   # matches beat_period = 10 frames at 25 fps
FIRST_BEAT_S = 0.2    # matches the synthetic data's first beat frame (5)
BEAT_JITTER_S = 0.02  # seeded per-beat offset, uniform in +-this

# The rig of the render and sample workloads: the default motion space
# (k=20 transforms x n=5 keypoints, so c=200 channels). Training is kept
# short because it only supplies a model of the right shape. m is the
# segment length: 80 by default, shorter for render so that one segment
# is a shorter repetition.
RIG_CONFIG = """\
k = {k}
n = {n}
m = {m}
T = 50
gamma = 2
p = 5
gap = 2
sequences = {sequences}
steps = {steps}
batch = 16
seed = {seed}
"""

# The acceptance criteria's toy rig (k=2, n=2, so c=8), trained in full.
TOY_CONFIG = """\
k = 2
n = 2
m = 80
stride = 10
fps = 25
T = 50
schedule = cosine
gamma = 2
p = 5
gap = 2
steps = {steps}
batch = 16
lr = 0.05
hidden = 64
embed = 8
sequences = {sequences}
c_audio = 4
beat_period = 10
seed = {seed}
"""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def write_image(path: Path, seed: int, size: int) -> None:
    """A size x size P6 image: a smooth gradient under seeded discs and grain."""
    g = _rng(seed, 1)
    y, x = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    tilt = g.uniform(0.2, 0.8, size=(3, 3))
    img = tilt[:, 0] * x[..., None] + tilt[:, 1] * y[..., None] + 0.2 * tilt[:, 2]
    for _ in range(12):
        cx, cy = g.uniform(0.1, 0.9, size=2)
        radius = g.uniform(0.04, 0.15)
        colour = g.uniform(0.0, 1.0, size=3)
        inside = (x - cx) ** 2 + (y - cy) ** 2 < radius**2
        img[inside] = colour
    img += g.normal(0.0, 0.02, size=img.shape)
    raster = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = b"P6\n%d %d\n255\n" % (size, size)
    path.write_bytes(header + raster.tobytes())


def write_click_track(path: Path, seed: int, seconds: float) -> None:
    """A mono 16-bit WAV of decaying clicks over faint noise, one click per
    beat of a 0.4 s grid with seeded jitter."""
    grid = np.arange(FIRST_BEAT_S, seconds - 0.1, BEAT_PERIOD_S)
    beats = grid + _rng(seed, 2).uniform(-BEAT_JITTER_S, BEAT_JITTER_S, size=grid.size)
    g = _rng(seed, 3)
    n = int(round(seconds * SAMPLE_RATE))
    samples = g.normal(0.0, 0.005, size=n)
    click_len = int(0.03 * SAMPLE_RATE)
    t = np.arange(click_len) / SAMPLE_RATE
    for when in beats:
        start = int(round(when * SAMPLE_RATE))
        stop = min(start + click_len, n)
        pitch = g.uniform(600.0, 1400.0)
        click = 0.6 * np.exp(-t / 0.006) * np.sin(2.0 * np.pi * pitch * t)
        samples[start:stop] += click[: stop - start]
    ints = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(ints.tobytes())
