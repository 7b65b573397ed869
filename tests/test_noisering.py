"""Sampling draws no step noise ahead: a reverse chain draws only its
x_T, in the calling thread, and its steps add no noise. So the motion and
scores do not depend on the cores the process may run on or on os.fork,
no chain starts a thread or a process, and a failing chain leaves none
behind when the render pool forks.
"""

import os
import threading

import numpy as np
import pytest

from mdgesture import cli, diffusion, formats
from mdgesture.audio import synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import Condition, MlpDenoiser, make_schedule, sample
from mdgesture.errors import NumericsError
from mdgesture.longgen import generate_long
from mdgesture.motion import MotionSequence
from mdgesture.ppm import from_bytes_array, write_pnm
from mdgesture.rng import generator

# the sample workload's rig, shortened to 3 segments
RIG = PipelineConfig(k=20, n=5, m=80, t_steps=50, gamma=2.0, p=5, gap=2, seed=5)
FRAMES = 3 * RIG.m
RIG_TEXT = "k = 20\nn = 5\nm = 80\nT = 50\ngamma = 2\np = 5\ngap = 2\nseed = 5\n"


def report_rows(report):
    return [(seg, cand, s.position, s.angle, sel) for seg, cand, s, sel in report]


@pytest.fixture(scope="module")
def rig():
    model = MlpDenoiser(RIG.c, 4, 64, 8, seed=2)
    cond = synth_condition([0.2, 0.7, 1.1, 3.0], FRAMES, 25, 4, seed=9)
    return model, cond, generator(9, 77).normal(size=RIG.c)


@pytest.fixture
def no_threads(monkeypatch):
    """Fails the test if anything it runs starts a thread."""
    def refused(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refused)


def write_rig(root, model, cond, seed_motion):
    """The files `generate` reads for the rig, and its argument list."""
    (root / "rig.cfg").write_text(RIG_TEXT)
    formats.write_denoiser(root / "model.mdnn", model)
    formats.write_audio_features(root / "feats.mdaf", cond)
    formats.write_sequence(root / "seed.mdsq", MotionSequence(seed_motion[None, :]))
    return ["generate", "--config", str(root / "rig.cfg"),
            "--params", str(root / "model.mdnn"), "--features", str(root / "feats.mdaf"),
            "--seed-motion", str(root / "seed.mdsq"), "--out", str(root / "gen.mdsq")]


# one 240-frame segment
SINGLE = PipelineConfig(k=20, n=5, m=FRAMES, t_steps=50, gamma=2.0, p=5, seed=5)


@pytest.mark.parametrize("cfg", [RIG, SINGLE], ids=["three_segments", "one_segment"])
@pytest.mark.parametrize("refusal", ["one_core", "no_fork"])
def test_helper_draws_the_in_process_bytes(rig, no_threads, monkeypatch, refusal, cfg):
    """The motion and scores on two cores equal those on one core, or
    where os.fork is missing."""
    model, cond, seed_motion = rig
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out, report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    if refusal == "one_core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "fork")
    ref, ref_report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    assert np.array_equal(out.frames, ref.frames)
    assert report_rows(report) == report_rows(ref_report)


def test_single_segment_with_helper_equals_sample(rig, no_threads):
    model, cond, seed_motion = rig
    out, report = generate_long(model, cond, seed_motion, FRAMES, SINGLE)
    assert report == []
    direct = sample(model, Condition(cond.features, seed_motion), make_schedule(50),
                    seed=SINGLE.seed, gamma=SINGLE.gamma)
    assert np.array_equal(out.frames, direct.frames)


def test_denoiser_failing_at_a_later_segment_leaves_no_helper(rig, monkeypatch):
    model, cond, seed_motion = rig
    calls = []
    guided_x0 = diffusion.guided_x0

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 25:  # in segment 1's kept chain, after its head pass
            raise NumericsError("injected failure")
        return guided_x0(*args)

    monkeypatch.setattr(diffusion, "guided_x0", fails_later)
    threads = threading.active_count()
    with pytest.raises(NumericsError, match="injected") as failure:
        generate_long(model, cond, seed_motion, FRAMES, RIG)
    assert failure.tb is not None and threading.active_count() == threads


def test_render_forks_with_no_noise_thread_alive(rig, no_threads, monkeypatch, tmp_path):
    """generate --render-src forks its render workers after sampling,
    with only the main thread alive."""
    model, cond, seed_motion = rig
    forked = []
    fork_call = cli.fork_call

    def checked(*args):
        forked.append(threading.active_count())
        return fork_call(*args)

    monkeypatch.setattr(cli, "fork_call", checked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    img = generator(5).integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
    (tmp_path / "src.ppm").write_bytes(write_pnm(from_bytes_array(img)))
    argv = write_rig(tmp_path, model, cond, seed_motion)
    assert cli.main(argv + ["--frames", "8", "--render-src", str(tmp_path / "src.ppm"),
                            "--render-dir", str(tmp_path / "frames")]) == 0
    assert forked == [1]  # 8 frames on 2 cores: the parent and one forked worker
    assert len(list((tmp_path / "frames").glob("frame_*.ppm"))) == 8


@pytest.mark.parametrize("k, n, m, frames", [(2, 2, 80, 400), (20, 5, 40, 40)],
                         ids=["roundtrip_0.2M", "render_0.4M"])
def test_calls_below_the_threshold_never_fork(monkeypatch, no_threads, k, n, m, frames):
    """Neither forks nor starts a thread on the roundtrip and render
    workloads' shapes, with two usable cores."""
    def refused(*args):
        raise AssertionError("a chain forked")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = PipelineConfig(k=k, n=n, m=m, t_steps=50, gamma=2.0, p=5, gap=2, seed=1)
    model = MlpDenoiser(cfg.c, 4, 64, 8, seed=1)
    cond = synth_condition([0.2, 1.0], frames, 25, 4, seed=3)
    out, _ = generate_long(model, cond, generator(3, 77).normal(size=cfg.c), frames, cfg)
    assert out.frames.shape == (frames, cfg.c)
