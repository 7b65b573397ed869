"""The sampler's noise helper: a call that draws enough step noise on a
process with a second usable core forks one helper that draws every
reverse chain's step blocks ahead of the denoiser. Its bytes equal an
in-process draw's, and no helper outlives the call, on success or on
failure.
"""

import os
import pickle
import signal

import numpy as np
import pytest

from mdgesture import cli, diffusion, formats, noisering, workers
from mdgesture.audio import synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import Condition, MlpDenoiser, make_schedule, sample, sample_heads
from mdgesture.errors import NumericsError
from mdgesture.longgen import WINDOW, generate_long
from mdgesture.motion import MotionSequence
from mdgesture.rng import generator

# the sample workload's rig, shortened: 3 segments of 40 frames draw
# 50 steps * 200 channels * (40 + 2 * (5 * 5 + 40)) = 1.7 M normals
RIG = PipelineConfig(k=20, n=5, m=40, t_steps=50, gamma=2.0, p=5, gap=2, seed=5)
FRAMES = 3 * RIG.m


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_rows(report):
    return [(seg, cand, s.position, s.angle, sel) for seg, cand, s, sel in report]


@pytest.fixture(scope="module")
def rig():
    model = MlpDenoiser(RIG.c, 4, 64, 8, seed=2)
    cond = synth_condition([0.2, 0.7, 1.1, 3.0], FRAMES, 25, 4, seed=9)
    return model, cond, generator(9, 77).normal(size=RIG.c)


@pytest.fixture
def forks(monkeypatch):
    """pids of the helpers forked while the test runs, on two usable cores
    whatever the host has (a helper also runs, more slowly, on one)."""
    pids = []
    fork_call = noisering.fork_call

    def recorded(*args):
        pid, report = fork_call(*args)
        pids.append(pid)
        return pid, report

    monkeypatch.setattr(noisering, "fork_call", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


def test_threshold_and_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert noisering.HELPER_NORMALS == 10**6
    assert noisering.use_helper(10**6)
    assert not noisering.use_helper(10**6 - 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not noisering.use_helper(5 * 10**6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not noisering.use_helper(5 * 10**6)


# one 120-frame segment draws 50 * 200 * 120 = 1.2 M normals
SINGLE = PipelineConfig(k=20, n=5, m=FRAMES, t_steps=50, gamma=2.0, p=5, seed=5)


@pytest.mark.parametrize("cfg", [RIG, SINGLE], ids=["three_segments", "one_segment"])
@pytest.mark.parametrize("refusal", ["one_core", "no_fork"])
def test_helper_draws_the_in_process_bytes(rig, forks, monkeypatch, refusal, cfg):
    model, cond, seed_motion = rig
    out, report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    assert len(forks) == 1
    assert_no_child_left()
    if refusal == "one_core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "fork")
    ref, ref_report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    assert len(forks) == 1
    assert np.array_equal(out.frames, ref.frames)
    assert report_rows(report) == report_rows(ref_report)


def test_single_segment_with_helper_equals_sample(rig, forks):
    model, cond, seed_motion = rig
    out, report = generate_long(model, cond, seed_motion, FRAMES, SINGLE)
    assert len(forks) == 1 and report == []
    direct = sample(model, Condition(cond.features, seed_motion), make_schedule(50),
                    seed=SINGLE.seed, gamma=SINGLE.gamma)
    assert np.array_equal(out.frames, direct.frames)
    assert_no_child_left()


def test_sample_and_heads_fed_by_the_ring_equal_in_process_draws():
    m, c, sched = 12, 6, make_schedule(7, "cosine")
    model = MlpDenoiser(c, 3, hidden=16, embed=4, seed=3)
    g = generator(4)
    cond = Condition(g.normal(size=(m, 3)), g.normal(size=c))
    seeds = [(4, 1, p) for p in range(3)]
    with noisering.NoiseRing(sched.n_steps, c, max(m, 3 * WINDOW)) as ring:
        for _ in range(2):  # the ring's slots are reused across chains
            fed = sample(model, cond, sched, seed=(4, 1), gamma=2.0, feed=ring)
            heads = sample_heads(model, cond, sched, seeds, WINDOW, 2.0, feed=ring)
            assert np.array_equal(fed.frames,
                                  sample(model, cond, sched, seed=(4, 1), gamma=2.0).frames)
            assert np.array_equal(heads, sample_heads(model, cond, sched, seeds, WINDOW, 2.0))
    assert_no_child_left()


def test_denoiser_failing_at_a_later_segment_leaves_no_helper(rig, forks, monkeypatch):
    model, cond, seed_motion = rig
    calls = []
    guided_x0 = diffusion.guided_x0

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 120:  # in segment 1's kept chain, after its head pass
            raise NumericsError("injected failure")
        return guided_x0(*args)

    monkeypatch.setattr(diffusion, "guided_x0", fails_later)
    with pytest.raises(NumericsError, match="injected"):
        generate_long(model, cond, seed_motion, FRAMES, RIG)
    assert len(forks) == 1
    assert_no_child_left()


def test_killed_helper_is_a_clean_cli_error(rig, forks, monkeypatch, tmp_path, capsys):
    model, cond, seed_motion = rig
    (tmp_path / "rig.cfg").write_text(
        "k = 20\nn = 5\nm = 40\nT = 50\ngamma = 2\np = 5\ngap = 2\nseed = 5\n")
    formats.write_denoiser(tmp_path / "model.mdnn", model)
    formats.write_audio_features(tmp_path / "feats.mdaf", cond)
    formats.write_sequence(tmp_path / "seed.mdsq", MotionSequence(seed_motion[None, :]))
    calls = []
    guided_x0 = diffusion.guided_x0

    def kills_helper(*args):
        calls.append(1)
        if len(calls) == 70:
            os.kill(forks[0], signal.SIGKILL)
        return guided_x0(*args)

    monkeypatch.setattr(diffusion, "guided_x0", kills_helper)
    code = cli.main(["generate", "--config", str(tmp_path / "rig.cfg"),
                     "--params", str(tmp_path / "model.mdnn"),
                     "--features", str(tmp_path / "feats.mdaf"),
                     "--seed-motion", str(tmp_path / "seed.mdsq"),
                     "--out", str(tmp_path / "gen.mdsq"), "--frames", str(FRAMES)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: noise helper {forks[0]} ended with exit code -9\n"
    assert not (tmp_path / "gen.mdsq").exists()
    assert_no_child_left()


@pytest.mark.parametrize("k, n, m, frames", [(2, 2, 80, 400), (20, 5, 40, 40)],
                         ids=["roundtrip_0.2M", "render_0.4M"])
def test_calls_below_the_threshold_never_fork(monkeypatch, k, n, m, frames):
    """The roundtrip workload's call draws 50 steps * 8 channels * (80 +
    4 * (25 + 80)) = 0.2 M normals; the render workload's 50 * 200 * 40 =
    0.4 M."""
    def no_fork():
        raise AssertionError("a call below the threshold forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = PipelineConfig(k=k, n=n, m=m, t_steps=50, gamma=2.0, p=5, gap=2, seed=1)
    model = MlpDenoiser(cfg.c, 4, 64, 8, seed=1)
    cond = synth_condition([0.2, 1.0], frames, 25, 4, seed=3)
    out, _ = generate_long(model, cond, generator(3, 77).normal(size=cfg.c), frames, cfg)
    assert out.frames.shape == (frames, cfg.c)


def test_join_reports_a_cut_short_report_naming_the_worker():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(write_fd, pickle.dumps(OSError("lost"))[:7])
        os._exit(1)
    os.close(write_fd)
    error = workers.join(pid, read_fd, "render worker")
    assert isinstance(error, OSError)
    assert str(error) == (f"render worker {pid} ended with exit code 1 "
                          f"and an unreadable error report")
    assert_no_child_left()
