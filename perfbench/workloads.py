"""The benchmark's workloads: set-up, one timed repetition, and its checks.

Every program step goes through `mdgesture.cli.main` in this process, the
way a user would run it. `run` is the timed part of a repetition: it
returns the wall time, the time of each stage and the CLI calls made with
their outcome. `check` then adds the output checks, a digest of the
outputs, which the runner compares with the first repetition's, and, for
roundtrip, the quality scores of the metrics summary.

Workloads:
- render: the default rig (c=200), with 40-frame segments, runs
  `generate --render-src` for one segment on a 160x160 image. It
  exercises tps, flow and ppm; sampling is a few percent.
- sample: the default rig runs `generate` for 400 frames with no render.
  It exercises diffusion and longgen and never calls tps or flow.
- roundtrip: the toy rig (c=8) runs the paper's whole loop, from a WAV
  click track to the metrics summary. It exercises training and sampling
  at tiny shapes; one loop of it on a fixed seed scores quality for every
  workload.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from mdgesture import cli, formats
from mdgesture.errors import FormatError

import inputs

FPS = 25


@dataclass(frozen=True)
class Size:
    """Input sizes. FULL is what the benchmark measures; TINY is for its self-test."""

    image: int
    render_frames: int  # also render's segment length: one segment
    sample_frames: int
    rig_k: int
    rig_n: int
    rig_sequences: int
    rig_steps: int
    toy_sequences: int
    toy_steps: int
    clips: int
    clip_frames: int


FULL = Size(
    image=160, render_frames=40, sample_frames=400, rig_k=20, rig_n=5,
    rig_sequences=16, rig_steps=20, toy_sequences=200, toy_steps=300,
    clips=8, clip_frames=400,
)
TINY = Size(
    image=96, render_frames=100, sample_frames=160, rig_k=3, rig_n=3,
    rig_sequences=4, rig_steps=2, toy_sequences=8, toy_steps=10,
    clips=2, clip_frames=160,
)


@dataclass
class Rep:
    """One set-up or timed repetition of a workload, and what its checks found."""

    wall_s: float
    stage_s: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # (operation, ok)
    digest: str = ""
    values: dict = field(default_factory=dict)
    scale: float = 1.0  # reference.NOMINAL_S / reference time around this run


def run_cli(argv: list, ops: list) -> None:
    """Run one CLI command in-process; record it as an operation.

    The program's own output is captured so that the benchmark's result
    stays the last line of standard output; on failure it goes to stderr.
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        buf.write(traceback.format_exc())
    ok = code == 0
    ops.append((f"cli {argv[0]}", ok))
    if not ok:
        print(f"perfbench: {argv[0]} exited {code}:\n{buf.getvalue()}", file=sys.stderr)


def check(ops: list, name: str, ok: bool) -> None:
    ops.append((f"check {name}", bool(ok)))
    if not ok:
        print(f"perfbench: check failed: {name}", file=sys.stderr)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_motion(path: Path):
    """The (frames, channels) array of a motion file, or None if unreadable."""
    try:
        return formats.read_sequence(path).frames
    except (FormatError, OSError):
        return None


def motion_ok(frames, m: int, c: int) -> bool:
    return frames is not None and frames.shape == (m, c) and bool(np.all(np.isfinite(frames)))


_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+255\s")


def ppm_ok(path: Path, size: int) -> bool:
    """A parseable size x size P6 image with maxval 255 and a full raster."""
    data = path.read_bytes()
    head = _PPM_HEADER.match(data)
    if head is None or int(head.group(1)) != size or int(head.group(2)) != size:
        return False
    return len(data) - head.end() == size * size * 3


def csv_rows(path: Path) -> list:
    """Data rows of a CSV the program wrote: no `#` lines and no header."""
    if not path.exists():
        return []
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class Rig:
    """render and sample: the set-up writes inputs and trains a model of the
    default rig's shape. A repetition is one `generate` call, its timed
    loop, followed by one `train` on the set-up's data, timed apart so that
    the training rate is sampled across the whole run."""

    def __init__(self, seed: int, size: Size, frames: int, segment: int, render: bool):
        self.seed = seed
        self.size = size
        self.frames = frames
        self.segment = segment
        self.render = render
        self.c = size.rig_k * size.rig_n * 2

    def setup(self, d: Path) -> Rep:
        s = self.size
        ops: list = []
        (d / "rig.cfg").write_text(
            inputs.RIG_CONFIG.format(k=s.rig_k, n=s.rig_n, m=self.segment,
                                     sequences=s.rig_sequences, steps=s.rig_steps,
                                     seed=self.seed)
        )
        if self.render:
            inputs.write_image(d / "src.ppm", self.seed, s.image)
        inputs.write_click_track(d / "clicks.wav", self.seed, self.frames / FPS)
        run_cli(["beats", "--wav", str(d / "clicks.wav"), "--out", str(d / "beats.csv"),
                 "--features", str(d / "feats.mdaf"), "--fps", str(FPS)], ops)
        run_cli(["synth-data", "--config", str(d / "rig.cfg"), "--out-dir", str(d / "data")], ops)
        run_cli(["train", "--config", str(d / "rig.cfg"), "--data", str(d / "data"),
                 "--out", str(d / "model.mdnn")], ops)
        outputs = [d / "feats.mdaf", d / "model.mdnn"]
        return Rep(wall_s=0.0, ops=ops, digest=digest_files([p for p in outputs if p.exists()]))

    def run(self, setup_dir: Path, d: Path) -> Rep:
        ops: list = []
        argv = ["generate", "--config", str(setup_dir / "rig.cfg"),
                "--params", str(setup_dir / "model.mdnn"),
                "--features", str(setup_dir / "feats.mdaf"),
                "--seed-motion", str(setup_dir / "data" / "seq_0000.mdsq"),
                "--out", str(d / "motion.mdsq"), "--frames", str(self.frames)]
        if self.render:
            argv += ["--render-src", str(setup_dir / "src.ppm"),
                     "--render-dir", str(d / "frames")]
        t0 = time.perf_counter()
        run_cli(argv, ops)
        t1 = time.perf_counter()
        run_cli(["train", "--config", str(setup_dir / "rig.cfg"), "--data",
                 str(setup_dir / "data"), "--out", str(d / "model.mdnn")], ops)
        t2 = time.perf_counter()
        return Rep(wall_s=t1 - t0, stage_s={"generate": t1 - t0, "train": t2 - t1}, ops=ops,
                   values={"frames": self.frames, "train_steps": self.size.rig_steps})

    def check(self, setup_dir: Path, d: Path, rep: Rep) -> None:
        ops = rep.ops
        motion_path = d / "motion.mdsq"
        check(ops, "motion shape and finiteness",
              motion_ok(read_motion(motion_path), self.frames, self.c))
        model = d / "model.mdnn"
        check(ops, "retrained model matches the set-up's",
              model.exists() and model.read_bytes() == (setup_dir / "model.mdnn").read_bytes())
        outputs = [motion_path]
        if self.render:
            frames = sorted((d / "frames").glob("frame_*.ppm"))
            check(ops, "frame count", len(frames) == self.frames)
            check(ops, "frames parse", all(ppm_ok(p, self.size.image) for p in frames))
            rows = csv_rows(d / "frames" / "frames.csv")
            check(ops, "frames.csv rows", len(rows) == self.frames)
            outputs += frames + [d / "frames" / "frames.csv"]
        rep.digest = digest_files([p for p in outputs if p.exists()])


class Roundtrip:
    """The paper's whole loop on the toy rig: audio -> data -> model -> motion -> metrics."""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.seconds = size.clip_frames / FPS

    def setup(self, d: Path) -> Rep:
        s = self.size
        (d / "toy.cfg").write_text(
            inputs.TOY_CONFIG.format(sequences=s.toy_sequences, steps=s.toy_steps,
                                     seed=self.seed)
        )
        inputs.write_click_track(d / "clicks.wav", self.seed, self.seconds)
        return Rep(wall_s=0.0, digest=digest_files([d / "toy.cfg", d / "clicks.wav"]))

    def run(self, setup_dir: Path, d: Path) -> Rep:
        s = self.size
        ops: list = []
        cfg = str(setup_dir / "toy.cfg")
        feats, data, model = d / "feats.mdaf", d / "data", d / "model.mdnn"
        gen_dir = d / "gen"
        gen_dir.mkdir()

        t0 = time.perf_counter()
        run_cli(["beats", "--wav", str(setup_dir / "clicks.wav"), "--out", str(d / "beats.csv"),
                 "--features", str(feats), "--fps", str(FPS)], ops)
        run_cli(["synth-data", "--config", cfg, "--out-dir", str(data)], ops)
        t1 = time.perf_counter()
        run_cli(["train", "--config", cfg, "--data", str(data), "--out", str(model),
                 "--loss-csv", str(d / "loss.csv")], ops)
        t2 = time.perf_counter()
        for i in range(s.clips):
            run_cli(["generate", "--config", cfg, "--seed", str(self.seed * s.clips + i),
                     "--params", str(model), "--features", str(feats),
                     "--seed-motion", str(data / f"seq_{i:04d}.mdsq"),
                     "--out", str(gen_dir / f"clip_{i:02d}.mdsq"),
                     "--frames", str(s.clip_frames)], ops)
        t3 = time.perf_counter()
        run_cli(["metrics", "--config", cfg, "--generated", str(gen_dir),
                 "--reference", str(data), "--features", str(feats),
                 "--out-dir", str(d / "scores")], ops)
        t4 = time.perf_counter()
        return Rep(
            wall_s=t4 - t0,
            stage_s={"prepare": t1 - t0, "train": t2 - t1, "generate": t3 - t2,
                     "metrics": t4 - t3},
            ops=ops,
            values={"train_steps": s.toy_steps, "frames": s.clips * s.clip_frames},
        )

    def check(self, setup_dir: Path, d: Path, rep: Rep) -> None:
        s = self.size
        ops = rep.ops
        losses = [float(r[1]) for r in csv_rows(d / "loss.csv")]
        check(ops, "probe loss halves", len(losses) >= 2 and losses[-1] < 0.5 * losses[0])
        clips = sorted((d / "gen").glob("clip_*.mdsq"))
        check(ops, "clip count", len(clips) == s.clips)
        check(ops, "clip shape and finiteness",
              all(motion_ok(read_motion(p), s.clip_frames, 8) for p in clips))
        summary = parse_summary(d / "scores" / "summary.txt")
        check(ops, "metrics summary", summary is not None
              and summary["generated"] == s.clips
              and summary["reference"] == s.toy_sequences)
        summary = summary or {}
        outputs = [d / "model.mdnn", d / "loss.csv", *clips, d / "scores" / "summary.txt"]
        rep.digest = digest_files([p for p in outputs if p.exists()])
        rep.values.update(bas=summary.get("bas", math.nan),
                          frechet=summary.get("frechet", math.nan))


_SUMMARY_KEYS = ("generated", "reference", "bas", "diversity_generated",
                 "diversity_reference", "frechet")


def parse_summary(path: Path):
    """The metrics summary as a dict, or None unless every value is finite."""
    if not path.exists():
        return None
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in _SUMMARY_KEYS:
            try:
                out[key] = float(value)
            except ValueError:
                return None
    if set(out) != set(_SUMMARY_KEYS) or not all(math.isfinite(v) for v in out.values()):
        return None
    return out


def make(name: str, seed: int, size: Size):
    if name == "render":
        return Rig(seed, size, size.render_frames, size.render_frames, render=True)
    if name == "sample":
        return Rig(seed, size, size.sample_frames, 80, render=False)
    if name == "roundtrip":
        return Roundtrip(seed, size)
    raise ValueError(f"unknown workload {name!r}")


def clear(d: Path) -> None:
    shutil.rmtree(d, ignore_errors=True)
