"""The render loop: one code path with `warp`, no state carried between
frames, no image-sized allocation per frame once its workspace exists,
and the same bytes from forked workers as from one process.
"""

import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from mdgesture import cli, formats
from mdgesture.audio import synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import MlpDenoiser
from mdgesture.flow import FLOW_RESOLUTION
from mdgesture.motion import MotionSequence
from mdgesture.ppm import from_bytes_array, read_pnm_file, write_pnm
from mdgesture.rng import generator
from mdgesture.tps import solve_tps_batch
from mdgesture.workers import join
from mdgesture.workspace import Workspace


def frame_transforms(rng, frames, k, n):
    """Per frame, k transforms solved from one seed layout to a jittered
    copy of it, the way `generate --render-src` solves them."""
    seed_pts = rng.uniform(-0.8, 0.8, size=(k, n, 2))
    return [solve_tps_batch(seed_pts, seed_pts + rng.normal(0.0, 0.05, size=(k, n, 2)))
            for _ in range(frames)]


def source_image(rng, height, width):
    return from_bytes_array(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def test_frames_equal_warp_of_the_same_transforms(rng, tmp_path, monkeypatch):
    """Every frame the render loop writes is, byte for byte, what `warp`
    writes for the same transforms, and a frame rendered alone equals the
    same frame rendered after others. The transforms reach `warp` in
    memory: transform files hold float32."""
    height, width = 96, 80
    assert max(height, width) > FLOW_RESOLUTION  # the flow is upsampled
    cfg = PipelineConfig(softness=0.15)
    ft = frame_transforms(rng, 5, 3, 4)
    src = tmp_path / "src.ppm"
    src.write_bytes(write_pnm(source_image(rng, height, width)))
    img = read_pnm_file(src)
    (tmp_path / "all").mkdir()
    cli._render_frames(ft, cfg, img, tmp_path / "all")

    held = {}
    monkeypatch.setattr(formats, "read_transform", lambda path: held[str(path)])
    for i, transforms in enumerate(ft):
        held.clear()
        argv = ["warp", "--image", str(src), "--out", str(tmp_path / "warped.ppm"),
                "--softness", repr(cfg.softness), "--background"]
        for j, t in enumerate(transforms):
            held[f"t{j}"] = t
            argv += ["--transform", f"t{j}"]
        assert cli.main(argv) == 0
        frame = (tmp_path / "all" / cli._frame_name(i)).read_bytes()
        assert (tmp_path / "warped.ppm").read_bytes() == frame

        alone = tmp_path / f"alone{i}"
        alone.mkdir()
        cli._render_frames([transforms], cfg, img, alone)
        assert (alone / cli._frame_name(0)).read_bytes() == frame


def test_frames_after_the_first_allocate_no_image_sized_arrays(rng, tmp_path, monkeypatch):
    """Traced from the end of the first frame, rendering five more
    160x160 frames of k = 20 transforms peaks under 1 MiB: one 160x160
    float plane is 200 KiB, and a frame once made 4-5 MiB of them."""
    ft = frame_transforms(rng, 6, 20, 5)
    img = source_image(rng, 160, 160)
    after_first = []
    write = cli.write_pnm_file

    def mark_first_frame(*args):
        write(*args)
        if not after_first:
            after_first.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    monkeypatch.setattr(cli, "write_pnm_file", mark_first_frame)
    tracemalloc.start()
    try:
        cli._render_frames(ft, PipelineConfig(), img, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_first[0] < 2**20


@pytest.mark.parametrize("size", [(40, 30), (96, 80)], ids=["flow_at_image", "upsampled"])
def test_workspace_reused_across_sizes_of_transform_sets(rng, tmp_path, size):
    """One workspace serves frames whose transforms differ in anchor count:
    each frame equals the same frame rendered through a fresh workspace."""
    img = source_image(rng, *size)
    frames = frame_transforms(rng, 2, 2, 3) + frame_transforms(rng, 2, 3, 5)
    ws = Workspace()
    for transforms in frames:
        shared = write_pnm(cli._render_frame(transforms, img, 0.1, True, ws)[0])
        fresh = write_pnm(cli._render_frame(transforms, img, 0.1, True, Workspace())[0])
        assert shared == fresh


def test_pooled_frames_equal_serial_frames(rng, tmp_path, monkeypatch):
    """Two workers write the bytes one writes: every frame and frames.csv,
    for an odd frame count split over the processes, with the flow
    upsampled."""
    cfg = PipelineConfig(softness=0.15)
    ft = frame_transforms(rng, 5, 3, 4)
    img = source_image(rng, 96, 80)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    written = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        cli._render_frames(ft, cfg, img, out, workers=workers)
        assert len(forks) == workers - 1
        written[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written[1]) == [cli._frame_name(i) for i in range(5)] + ["frames.csv"]
    assert written[2] == written[1]


def test_render_forks_with_only_the_main_thread_alive(tmp_path, monkeypatch):
    """generate --render-src on the default rig forks its render workers
    after sampling, with only the main thread alive."""
    def refused(self):
        raise AssertionError(f"a thread was started: {self!r}")

    forked = []
    fork_call = cli.fork_call

    def checked(*args):
        forked.append(threading.active_count())
        return fork_call(*args)

    monkeypatch.setattr(threading.Thread, "start", refused)
    monkeypatch.setattr(cli, "fork_call", checked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    (tmp_path / "rig.cfg").write_text("k = 20\nn = 5\nm = 80\nT = 50\ngamma = 2\np = 5\n"
                                      "gap = 2\nseed = 5\n")
    formats.write_denoiser(tmp_path / "model.mdnn", MlpDenoiser(200, 4, 64, 8, seed=2))
    formats.write_audio_features(tmp_path / "feats.mdaf",
                                 synth_condition([0.2, 0.7], 80, 25, 4, seed=9))
    formats.write_sequence(tmp_path / "seed.mdsq",
                           MotionSequence(generator(9, 77).normal(size=(1, 200))))
    img = generator(5).integers(0, 256, size=(24, 24, 3), dtype=np.uint8)
    (tmp_path / "src.ppm").write_bytes(write_pnm(from_bytes_array(img)))
    assert cli.main(["generate", "--config", str(tmp_path / "rig.cfg"),
                     "--params", str(tmp_path / "model.mdnn"),
                     "--features", str(tmp_path / "feats.mdaf"),
                     "--seed-motion", str(tmp_path / "seed.mdsq"),
                     "--out", str(tmp_path / "gen.mdsq"), "--frames", "8",
                     "--render-src", str(tmp_path / "src.ppm"),
                     "--render-dir", str(tmp_path / "frames")]) == 0
    assert forked == [1]  # 8 frames on 2 cores: the parent and one forked worker
    assert len(list((tmp_path / "frames").glob("frame_*.ppm"))) == 8


def test_one_frame_forks_nothing(rng, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-frame render forked")

    monkeypatch.setattr(os, "fork", no_fork)
    ft = frame_transforms(rng, 1, 2, 3)
    cli._render_frames(ft, PipelineConfig(), source_image(rng, 20, 16), tmp_path, workers=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == [cli._frame_name(0), "frames.csv"]


@pytest.mark.parametrize("cores, frames, workers", [
    (2, 40, 2), (2, 7, 1), (2, 1, 1), (16, 40, 10), (1, 400, 1),
])
def test_worker_count(monkeypatch, cores, frames, workers):
    """One worker per usable core, each with at least FRAMES_PER_WORKER frames."""
    assert cli.FRAMES_PER_WORKER == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert cli._worker_count(frames) == workers


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_one_worker_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.delattr(os, missing, raising=False)
    assert cli._worker_count(400) == 1


def test_join_reports_a_cut_short_report_naming_the_worker():
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(write_fd, pickle.dumps(OSError("lost"))[:7])
        os._exit(1)
    os.close(write_fd)
    error = join(pid, read_fd, "render worker")
    assert isinstance(error, OSError)
    assert str(error) == (f"render worker {pid} ended with exit code 1 "
                          f"and an unreadable error report")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
