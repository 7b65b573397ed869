"""The sampler's step noise drawn ahead: a reverse chain of at least
diffusion.AHEAD_NORMALS normals, on a process with a second usable core,
draws its step blocks in a helper thread a few steps ahead of the
denoiser. Its bytes equal an in-process draw's, a block the thread has
not started is drawn by the caller, and no thread outlives its chain, on
success or on failure, so none is alive when the render pool forks.
"""

import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing

import numpy as np
import pytest

from mdgesture import cli, diffusion, formats
from mdgesture.audio import synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import Condition, MlpDenoiser, make_schedule, sample, sample_heads
from mdgesture.errors import NumericsError
from mdgesture.longgen import WINDOW, generate_long
from mdgesture.motion import MotionSequence
from mdgesture.ppm import from_bytes_array, write_pnm
from mdgesture.rng import generator

# the sample workload's rig, shortened to 3 segments: each full 80-frame
# chain draws 50 steps * 200 channels * 80 rows = 0.8 M normals and draws
# ahead; each head pass (5 candidates * 5 rows) draws 0.25 M in-process
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
def pools(monkeypatch):
    """The thread pools that chains start while the test runs, on two
    usable cores whatever the host has (a thread also runs, more slowly,
    on one). The test fails if a thread is left when it ends."""
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(diffusion, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    yield made
    assert threading.active_count() == threads


def write_rig(root, model, cond, seed_motion):
    """The files `generate` reads for the rig, and its argument list."""
    (root / "rig.cfg").write_text(RIG_TEXT)
    formats.write_denoiser(root / "model.mdnn", model)
    formats.write_audio_features(root / "feats.mdaf", cond)
    formats.write_sequence(root / "seed.mdsq", MotionSequence(seed_motion[None, :]))
    return ["generate", "--config", str(root / "rig.cfg"),
            "--params", str(root / "model.mdnn"), "--features", str(root / "feats.mdaf"),
            "--seed-motion", str(root / "seed.mdsq"), "--out", str(root / "gen.mdsq")]


def draws_ahead(n_steps, shape):
    """Whether a chain of n_steps blocks of `shape` runs a thread while it
    draws; its thread is gone once the chain's blocks are closed."""
    threads = threading.active_count()
    with closing(diffusion._step_blocks([1], shape, n_steps)) as blocks:
        next(blocks)
        during = threading.active_count()
    assert threading.active_count() == threads
    return during > threads


def test_threshold_and_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert diffusion.AHEAD_NORMALS == 500_000
    assert draws_ahead(5, (2, 50_000))
    assert not draws_ahead(1, (1, 499_999))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not draws_ahead(50, (80, 200))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not draws_ahead(50, (80, 200))


# one 240-frame segment draws 50 * 200 * 240 = 2.4 M normals
SINGLE = PipelineConfig(k=20, n=5, m=FRAMES, t_steps=50, gamma=2.0, p=5, seed=5)


@pytest.mark.parametrize("cfg", [RIG, SINGLE], ids=["three_segments", "one_segment"])
@pytest.mark.parametrize("refusal", ["one_core", "no_fork"])
def test_helper_draws_the_in_process_bytes(rig, pools, monkeypatch, refusal, cfg):
    model, cond, seed_motion = rig
    out, report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    threaded = 3 if cfg is RIG else 1  # one per full chain, none per head pass
    assert len(pools) == threaded
    if refusal == "one_core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "fork")
    ref, ref_report = generate_long(model, cond, seed_motion, FRAMES, cfg)
    assert len(pools) == threaded
    assert np.array_equal(out.frames, ref.frames)
    assert report_rows(report) == report_rows(ref_report)


def test_single_segment_with_helper_equals_sample(rig, pools):
    model, cond, seed_motion = rig
    out, report = generate_long(model, cond, seed_motion, FRAMES, SINGLE)
    assert len(pools) == 1 and report == []
    direct = sample(model, Condition(cond.features, seed_motion), make_schedule(50),
                    seed=SINGLE.seed, gamma=SINGLE.gamma)
    assert len(pools) == 2
    assert np.array_equal(out.frames, direct.frames)


def small_chains(monkeypatch, t_steps):
    """sample and sample_heads on a small model, every chain drawing
    ahead when ahead is set and in-process otherwise."""
    m, c, sched = 12, 6, make_schedule(t_steps, "cosine")
    model = MlpDenoiser(c, 3, hidden=16, embed=4, seed=3)
    g = generator(4)
    cond = Condition(g.normal(size=(m, 3)), g.normal(size=c))
    seeds = [(4, 1, p) for p in range(3)]

    def draw(ahead):
        monkeypatch.setattr(diffusion, "AHEAD_NORMALS", 1 if ahead else 10**12)
        return (sample(model, cond, sched, seed=(4, 1), gamma=2.0).frames,
                sample_heads(model, cond, sched, seeds, WINDOW, 2.0))

    return draw


def test_sample_and_heads_drawn_ahead_equal_in_process_draws(pools, monkeypatch):
    for t_steps in (2, 7):  # fewer and more steps than AHEAD_BLOCKS
        draw = small_chains(monkeypatch, t_steps)
        full, heads = draw(ahead=False)
        for _ in range(2):
            ahead_full, ahead_heads = draw(ahead=True)
            assert np.array_equal(ahead_full, full)
            assert np.array_equal(ahead_heads, heads)
    assert len(pools) == 8  # two chains per draw, four draws ahead


def test_drawn_ahead_bytes_hold_under_fast_thread_switching(pools, monkeypatch):
    """The thread and the caller race for each block: cancelling a block
    the thread is about to start, or the last one queued, must leave each
    block drawn once, in its place."""
    draw = small_chains(monkeypatch, 50)
    full, heads = draw(ahead=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ahead_full, ahead_heads = draw(ahead=True)
            assert np.array_equal(ahead_full, full)
            assert np.array_equal(ahead_heads, heads)
    finally:
        sys.setswitchinterval(interval)
    assert len(pools) == 10


def test_blocks_the_thread_has_not_started_are_drawn_by_the_caller(monkeypatch):
    """A pool whose thread is still drawing every other block when it
    falls due and never starts the rest: the caller draws a due block
    the thread has not started, and the last queued block while the
    thread draws the due one. The chain keeps its bytes."""
    draw = small_chains(monkeypatch, 7)
    full, heads = draw(ahead=False)
    step_block = diffusion.step_block
    drawn = []

    def by_caller(noise, step, out):
        drawn.append(("caller", step))
        return step_block(noise, step, out)

    class Drawing(Future):
        """A block the thread is drawing: it is done when read."""

        def __init__(self, args):
            super().__init__()
            self.set_running_or_notify_cancel()
            self.args = args

        def result(self, timeout=None):
            if not self.done():
                drawn.append(("thread", self.args[1]))
                self.set_result(step_block(*self.args))
            return super().result()

    class Lagging:
        def __init__(self, workers):
            self.submitted = 0

        def submit(self, fn, *args):
            self.submitted += 1
            return Drawing(args) if self.submitted % 2 else Future()

        def shutdown(self, cancel_futures):
            assert cancel_futures

    monkeypatch.setattr(diffusion, "step_block", by_caller)
    monkeypatch.setattr(diffusion, "ThreadPoolExecutor", Lagging)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ahead_full, ahead_heads = draw(ahead=True)
    assert np.array_equal(ahead_full, full)
    assert np.array_equal(ahead_heads, heads)
    # the thread starts steps 7, 5, 3 and 1; the caller draws 4 while the
    # thread draws 7, 6 when it is due, and 2 while the thread draws 5
    chain = [("caller", 4), ("thread", 7), ("caller", 6), ("caller", 2),
             ("thread", 5), ("thread", 3), ("thread", 1)]
    assert drawn == 2 * chain  # sample's chain, then sample_heads'


def test_denoiser_failing_at_a_later_segment_leaves_no_helper(rig, pools, monkeypatch):
    model, cond, seed_motion = rig
    calls = []
    guided_x0 = diffusion.guided_x0

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 120:  # in segment 1's kept chain, after its head pass
            raise NumericsError("injected failure")
        return guided_x0(*args)

    monkeypatch.setattr(diffusion, "guided_x0", fails_later)
    threads = threading.active_count()
    with pytest.raises(NumericsError, match="injected") as failure:
        generate_long(model, cond, seed_motion, FRAMES, RIG)
    assert len(pools) == 2
    # the traceback holds the failed chain's frame, and with it the chain's
    # block iterator: the thread is joined all the same
    assert failure.tb is not None and threading.active_count() == threads


def test_draw_failure_in_the_thread_reaches_the_caller(rig, pools, monkeypatch, tmp_path,
                                                       capsys):
    model, cond, seed_motion = rig
    raised = []
    step_block = diffusion.step_block

    def fails_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raised.append(NumericsError("injected draw failure"))
            raise raised[-1]
        return step_block(*args)

    monkeypatch.setattr(diffusion, "step_block", fails_off_the_main_thread)
    with pytest.raises(NumericsError) as failure:
        generate_long(model, cond, seed_motion, FRAMES, RIG)
    assert failure.value is raised[0]
    assert len(pools) == 1
    argv = write_rig(tmp_path, model, cond, seed_motion)
    assert cli.main(argv + ["--frames", str(FRAMES)]) == 4
    assert capsys.readouterr().err == "error: injected draw failure\n"
    assert not (tmp_path / "gen.mdsq").exists()
    assert len(pools) == 2


def test_render_forks_with_no_noise_thread_alive(rig, pools, monkeypatch, tmp_path):
    """generate --render-src forks its render workers after the rig's
    0.8 M-normal chain has drawn ahead, and its thread is gone by then."""
    model, cond, seed_motion = rig
    forked = []
    fork_call = cli.fork_call

    def checked(*args):
        forked.append(threading.active_count())
        return fork_call(*args)

    monkeypatch.setattr(cli, "fork_call", checked)
    img = generator(5).integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
    (tmp_path / "src.ppm").write_bytes(write_pnm(from_bytes_array(img)))
    argv = write_rig(tmp_path, model, cond, seed_motion)
    assert cli.main(argv + ["--frames", "8", "--render-src", str(tmp_path / "src.ppm"),
                            "--render-dir", str(tmp_path / "frames")]) == 0
    assert len(pools) == 1
    assert forked == [1]  # 8 frames on 2 cores: the parent and one forked worker
    assert len(list((tmp_path / "frames").glob("frame_*.ppm"))) == 8


@pytest.mark.parametrize("k, n, m, frames", [(2, 2, 80, 400), (20, 5, 40, 40)],
                         ids=["roundtrip_0.2M", "render_0.4M"])
def test_calls_below_the_threshold_never_fork(monkeypatch, k, n, m, frames):
    """Neither forks nor starts a thread: the roundtrip workload's chains
    draw at most 50 steps * 8 channels * 80 rows = 32 k normals each, the
    render workload's one chain 50 * 200 * 40 = 0.4 M."""
    def refused(*args):
        raise AssertionError("a chain below the threshold forked or started a thread")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(diffusion, "ThreadPoolExecutor", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = PipelineConfig(k=k, n=n, m=m, t_steps=50, gamma=2.0, p=5, gap=2, seed=1)
    model = MlpDenoiser(cfg.c, 4, 64, 8, seed=1)
    cond = synth_condition([0.2, 1.0], frames, 25, 4, seed=3)
    out, _ = generate_long(model, cond, generator(3, 77).normal(size=cfg.c), frames, cfg)
    assert out.frames.shape == (frames, cfg.c)
