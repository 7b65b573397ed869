"""Pipeline configuration: one dataclass, one plain-text file format.

Config files are `key = value` lines with `#` comments. Unknown keys are
errors rather than warnings so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .fileio import read_text
from .flow import MIN_SOFTNESS


@dataclass(frozen=True)
class PipelineConfig:
    # motion space
    k: int = 20              # transforms
    n: int = 5               # keypoints per transform
    m: int = 80              # frames per segment
    stride: int = 10         # training window stride
    fps: int = 25
    # diffusion
    t_steps: int = 50        # file key: T
    schedule: str = "cosine"
    gamma: float = 2.0
    lambda_vel: float = 1.0
    lambda_acc: float = 1.0
    mask_prob: float = 0.25
    # long generation
    p: int = 5               # candidates per segment
    gap: int = 2             # junction frames refilled by the spline
    # flow composition
    softness: float = 0.1
    # metrics
    sigma_b: float = 0.1     # beat alignment width, seconds
    sigma_smooth: float = 2.0  # gesture-beat smoothing, frames
    # training
    steps: int = 300
    batch: int = 16
    lr: float = 0.05
    hidden: int = 64
    embed: int = 8
    # synthetic data
    sequences: int = 200
    c_audio: int = 4
    amp: float = 1.0
    beat_period: int = 10    # frames between synthetic beats
    # reproducibility
    seed: int = 0

    @property
    def c(self) -> int:
        """Motion channels per frame."""
        return self.k * self.n * 2

    def __post_init__(self):
        def need(ok, msg):
            if not ok:
                raise ConfigError(msg)

        for name, value in vars(self).items():
            need(not isinstance(value, float) or math.isfinite(value),
                 f"{name} must be finite")
        need(self.k >= 1 and self.n >= 1, "k and n must be >= 1")
        need(self.m >= 1, "m must be >= 1")
        need(self.stride >= 1, "stride must be >= 1")
        need(self.fps >= 1, "fps must be >= 1")
        need(self.t_steps >= 1, "T must be >= 1")
        need(self.schedule in ("linear", "cosine"),
             f"schedule must be linear or cosine, got {self.schedule!r}")
        need(self.lambda_vel >= 0 and self.lambda_acc >= 0,
             "loss weights must be >= 0")
        need(self.m >= 2 or not self.lambda_vel,
             "m must be >= 2 when lambda_vel > 0: the velocity loss needs 2 frames")
        need(self.m >= 3 or not self.lambda_acc,
             "m must be >= 3 when lambda_acc > 0: the acceleration loss needs 3 frames")
        need(0.0 <= self.mask_prob <= 1.0, "mask_prob must be in [0, 1]")
        need(self.p >= 1, "p must be >= 1")
        need(self.gap >= 0, "gap must be >= 0")
        need(self.softness >= MIN_SOFTNESS,
             f"softness must be >= {MIN_SOFTNESS:g}")
        need(self.sigma_b > 0, "sigma_b must be > 0")
        need(self.sigma_smooth >= 0, "sigma_smooth must be >= 0")
        need(self.steps >= 1 and self.batch >= 1, "steps and batch must be >= 1")
        need(self.lr > 0, "lr must be > 0")
        need(self.hidden >= 1, "hidden must be >= 1")
        need(self.embed >= 2 and self.embed % 2 == 0, "embed must be even, >= 2")
        need(self.sequences >= 1, "sequences must be >= 1")
        need(self.c_audio >= 1, "c_audio must be >= 1")
        need(self.amp >= 0, "amp must be >= 0")
        need(self.beat_period >= 1, "beat_period must be >= 1")
        need(self.seed >= 0, "seed must be >= 0")


# file key -> dataclass field; everything else is spelled identically
_KEY_ALIASES = {"T": "t_steps"}
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def parse_config(text: str) -> PipelineConfig:
    """Parse `key = value` lines into a PipelineConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        name = _KEY_ALIASES.get(key, key)
        if name not in _FIELD_TYPES or name in values:
            kind = "duplicate" if name in values else "unknown"
            raise ConfigError(f"line {lineno}: {kind} key {key!r}")
        if not val:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        kind = _FIELD_TYPES[name]
        try:
            if kind == "int":
                values[name] = int(val)
            elif kind == "float":
                values[name] = float(val)
            else:
                values[name] = val
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for {key!r}"
            ) from None
    return PipelineConfig(**values)


def read_config_file(path) -> PipelineConfig:
    return parse_config(read_text(path))
