"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` line on the live terminal, and
fails loudly with the list of violated checks. Every expected value is
computed here from scratch; nothing is imported from the other test
modules.
"""

import math
import struct
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mdgesture import cli, formats
from mdgesture.audio import AudioClip, read_wav, synth_condition, write_wav
from mdgesture.config import PipelineConfig, parse_config
from mdgesture.diffusion import (
    Condition,
    Denoiser,
    MlpDenoiser,
    guided_x0,
    make_schedule,
    q_sample,
    sample,
    total_loss,
)
from mdgesture.errors import FormatError
from mdgesture.flow import (
    FlowField,
    combine_flow,
    deform_grids,
    identity_flow,
    warp_image,
)
from mdgesture.longgen import generate_long
from mdgesture.metrics import (
    GaussianSummary,
    beat_align_score,
    diversity,
    frechet_distance,
    gesture_beats,
)
from mdgesture.motion import MotionSequence, as_points
from mdgesture.ppm import from_bytes_array, parse_pnm, write_pnm
from mdgesture.rng import generator
from mdgesture.synth import make_dataset
from mdgesture.tps import bending_energy, eval_tps, normalized_lattice, solve_tps


class Criterion:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        self.fails = []

    def check(self, ok, label: str) -> bool:
        if not ok:
            self.fails.append(label)
        return bool(ok)

    def finish(self, capsys, elapsed: float) -> None:
        status = "PASS" if not self.fails else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {self.number} {self.name}: "
                  f"{status} ({elapsed:.1f} s)")
        assert not self.fails, (
            f"criterion {self.number} ({self.name}): " + "; ".join(self.fails)
        )


# -- 1: TPS exactness -----------------------------------------------------

def test_1_tps_exactness(capsys):
    c = Criterion(1, "tps-exactness")
    start = time.perf_counter()
    sizes = (3, 5, 8)
    worst_residual = worst_side = 0.0
    for i in range(1000):
        g = generator(1001, i)
        n = sizes[i % 3]
        dst = g.uniform(-0.9, 0.9, size=(n, 2))
        src = dst + 0.25 * g.normal(size=(n, 2))
        t = solve_tps(src, dst)
        mapped = np.array([eval_tps(t, p) for p in dst])
        worst_residual = max(
            worst_residual, np.linalg.norm(mapped - src, axis=1).max()
        )
        side = max(
            np.abs(t.weights.sum(axis=0)).max(),
            np.abs(t.weights.T @ dst).max(),
        )
        worst_side = max(worst_side, side)
    c.check(worst_residual < 1e-8, f"residual {worst_residual:.2e}")
    c.check(worst_side < 1e-8, f"side conditions {worst_side:.2e}")

    worst_w = worst_energy = 0.0
    for i in range(150):
        g = generator(1002, i)
        n = sizes[i % 3]
        dst = g.uniform(-0.9, 0.9, size=(n, 2))
        a = g.normal(size=(2, 2)) + np.eye(2)
        b = g.normal(size=2)
        t = solve_tps(dst @ a.T + b, dst)
        worst_w = max(worst_w, np.abs(t.weights).max())
        worst_energy = max(worst_energy, bending_energy(t))
    c.check(worst_w < 1e-8, f"affine weights {worst_w:.2e}")
    c.check(worst_energy < 1e-10, f"affine energy {worst_energy:.2e}")

    elapsed = time.perf_counter() - start
    c.check(elapsed < 10.0, f"runtime {elapsed:.1f} s >= 10 s")
    c.finish(capsys, elapsed)


# -- 2: flow and warp -----------------------------------------------------

def test_2_flow_warp(capsys):
    c = Criterion(2, "flow-warp")
    start = time.perf_counter()

    for i, (h, w) in enumerate([(17, 33), (31, 47), (64, 64)]):
        g = generator(2001, i)
        img = from_bytes_array(g.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        out = warp_image(img, identity_flow(h, w))
        c.check(
            write_pnm(out) == write_pnm(img), f"identity not byte-exact {h}x{w}"
        )

    g = generator(2002)
    h, w = 33, 17
    img = from_bytes_array(g.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
    shifted = normalized_lattice(h, w).copy()
    shifted[..., 0] += 2.0 / (w - 1)
    out = warp_image(img, FlowField(shifted))
    c.check(
        np.array_equal(out.data[:, : w - 1], img.data[:, 1:]),
        "one-pixel shift interior mismatch",
    )
    c.check(np.all(out.data[:, w - 1] == 0.0), "shifted edge not occluded")

    worst_overshoot = 0.0
    for i in range(100):
        g = generator(2003, i)
        k = 2 + i % 3
        transforms = []
        for _ in range(k):
            dst = g.uniform(-0.8, 0.8, size=(4, 2))
            transforms.append(solve_tps(dst + 0.2 * g.normal(size=(4, 2)), dst))
        background = i % 2 == 0
        grids, nearest_sq = deform_grids(transforms, 12, 12)
        field = combine_flow(
            grids,
            nearest_sq,
            softness=0.05 + 0.2 * g.random(),
            background=background,
        )
        stack = np.stack(grids + ([normalized_lattice(12, 12)] if background else []))
        overshoot = max(
            (stack.min(axis=0) - field.map).max(),
            (field.map - stack.max(axis=0)).max(),
        )
        worst_overshoot = max(worst_overshoot, overshoot)
    c.check(worst_overshoot < 1e-9, f"convexity violated by {worst_overshoot:.2e}")

    elapsed = time.perf_counter() - start
    c.check(elapsed < 30.0, f"runtime {elapsed:.1f} s >= 30 s")
    c.finish(capsys, elapsed)


# -- 3: diffusion algebra -------------------------------------------------

class _OracleDenoiser(Denoiser):
    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=np.float64)

    def predict(self, x_t, t, cond):
        return self.x0.copy()


def test_3_diffusion_algebra(capsys):
    c = Criterion(3, "diffusion-algebra")
    start = time.perf_counter()

    for kind in ("linear", "cosine"):
        for t_steps in (1, 10, 50):
            sched = make_schedule(t_steps, kind)
            betas, abar = sched.beta, sched.alpha_bar
            tag = f"{kind} T={t_steps}"
            c.check(betas.shape == (t_steps,), f"{tag}: beta length")
            c.check(
                bool(np.all(betas > 0) and np.all(betas <= 0.999)),
                f"{tag}: beta range",
            )
            c.check(
                np.array_equal(abar, np.cumprod(1.0 - betas)),
                f"{tag}: alpha_bar is not the cumulative product",
            )
            c.check(
                bool(np.all(np.diff(abar) < 0)) if t_steps > 1 else True,
                f"{tag}: alpha_bar not decreasing",
            )
            c.check(
                bool(np.all(abar > 0) and np.all(abar < 1)),
                f"{tag}: alpha_bar range",
            )

    # stepwise noising chain vs the closed form, both moments within 3 sigma
    sched = make_schedule(50, "cosine")
    t, trials, x0_val = 10, 100_000, 0.7
    g = generator(3001)
    x = np.full(trials, x0_val)
    for s in range(1, t + 1):
        beta = sched.beta[s - 1]
        x = math.sqrt(1.0 - beta) * x + math.sqrt(beta) * g.standard_normal(trials)
    abar_t = sched.alpha_bar[t - 1]
    mean_true = math.sqrt(abar_t) * x0_val
    var_true = 1.0 - abar_t
    mean_tol = 3.0 * math.sqrt(var_true / trials)
    var_tol = 3.0 * var_true * math.sqrt(2.0 / (trials - 1))
    c.check(
        abs(x.mean() - mean_true) < mean_tol,
        f"chain mean {x.mean():.5f} vs {mean_true:.5f}",
    )
    c.check(
        abs(x.var() - var_true) < var_tol,
        f"chain variance {x.var():.5f} vs {var_true:.5f}",
    )
    closed = q_sample(np.full((1, 1), x0_val), t, np.zeros((1, 1)), sched)
    c.check(
        abs(closed[0, 0] - mean_true) < 1e-12, "closed-form mean mismatch"
    )

    for kind in ("linear", "cosine"):
        sched = make_schedule(50, kind)
        g = generator(3002)
        x0 = g.normal(size=(6, 4))
        got = sample(
            _OracleDenoiser(x0),
            Condition(np.zeros((6, 1)), np.zeros(4)),
            sched,
            seed=(3003,),
        )
        err = np.abs(got.frames - x0).max()
        c.check(err < 1e-2, f"{kind}: oracle chain error {err:.2e}")

    model = MlpDenoiser(4, 2, hidden=8, embed=4, seed=7)
    g = generator(3004)
    x_t = g.normal(size=(5, 4))
    cond = Condition(g.normal(size=(5, 2)), g.normal(size=4))
    c.check(
        np.array_equal(
            guided_x0(model, x_t, 5, cond, 1.0), model.predict(x_t, 5, cond)
        ),
        "gamma=1 guidance is not the exact conditional branch",
    )

    elapsed = time.perf_counter() - start
    c.check(elapsed < 120.0, f"runtime {elapsed:.1f} s >= 120 s")
    c.finish(capsys, elapsed)


# -- 4: gradient check ----------------------------------------------------

def test_4_gradient_check(capsys):
    c = Criterion(4, "gradient-check")
    start = time.perf_counter()

    model = MlpDenoiser(5, 3, hidden=7, embed=4, seed=77)
    g = generator(4001)
    x0 = g.normal(size=(9, 5))
    cond = Condition(g.normal(size=(9, 3)), g.normal(size=5))
    sched = make_schedule(8, "cosine")
    t = 4
    x_t = q_sample(x0, t, g.standard_normal((9, 5)), sched)

    grads = model.loss_gradients(x0, x_t, t, cond, 1.0, 1.0)
    flat_grad = np.concatenate([grads[n].ravel() for n in model.PARAM_NAMES])
    theta = model.get_flat()

    def loss_at(vec):
        model.set_flat(vec)
        return total_loss(x0, model.predict(x_t, t, cond), 1.0, 1.0)

    h = 1e-6
    worst = 0.0
    for _ in range(20):
        i = int(g.integers(0, theta.size))
        probe = theta.copy()
        probe[i] = theta[i] + h
        up = loss_at(probe)
        probe[i] = theta[i] - h
        down = loss_at(probe)
        fd = (up - down) / (2.0 * h)
        rel = abs(flat_grad[i] - fd) / max(abs(flat_grad[i]), abs(fd), 1e-8)
        worst = max(worst, rel)
    model.set_flat(theta)
    c.check(worst < 1e-4, f"max relative error {worst:.2e}")

    elapsed = time.perf_counter() - start
    c.check(elapsed < 60.0, f"runtime {elapsed:.1f} s >= 60 s")
    c.finish(capsys, elapsed)


# -- 5 and 6 share one toy pipeline run -----------------------------------

TOY_CFG = """\
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
steps = 300
batch = 16
lr = 0.05
hidden = 64
embed = 8
sequences = 200
c_audio = 4
beat_period = 10
seed = 0
"""


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TOY_CFG)
    data = root / "data"
    model = root / "model.mdnn"
    loss = root / "loss.csv"

    t0 = time.perf_counter()
    synth_code = cli.main(
        ["synth-data", "--config", str(cfg_path), "--out-dir", str(data)]
    )
    t1 = time.perf_counter()
    train_code = cli.main(
        ["train", "--config", str(cfg_path), "--data", str(data),
         "--out", str(model), "--loss-csv", str(loss)]
    )
    t2 = time.perf_counter()

    # 16 s at 25 fps = 400 frames = 5 segments of 80
    features = root / "long.mdaf"
    cond = synth_condition(np.arange(0.2, 16.0, 0.4), 400, 25, 4, seed=424)
    formats.write_audio_features(features, cond)

    gen_codes = []
    outs = []
    for run in ("a", "b"):
        out = root / f"gen_{run}.mdsq"
        scores = root / f"scores_{run}.csv"
        gen_codes.append(cli.main(
            ["generate", "--config", str(cfg_path), "--params", str(model),
             "--features", str(features),
             "--seed-motion", str(data / "seq_0000.mdsq"),
             "--out", str(out), "--scores", str(scores), "--frames", "400"]
        ))
        outs.append(out)
    t3 = time.perf_counter()

    return SimpleNamespace(
        root=root,
        cfg_path=cfg_path,
        data=data,
        model=model,
        loss=loss,
        outs=outs,
        scores=root / "scores_a.csv",
        codes=(synth_code, train_code, *gen_codes),
        times=(t1 - t0, t2 - t1, t3 - t2),
        total=t3 - t0,
    )


def test_5_toy_end_to_end(toy_run, capsys):
    c = Criterion(5, "toy-end-to-end")
    start = time.perf_counter()

    c.check(toy_run.codes == (0, 0, 0, 0), f"exit codes {toy_run.codes}")
    c.check(
        len(sorted(toy_run.data.glob("*.mdsq"))) == 200, "dataset size"
    )

    rows = [
        ln for ln in toy_run.loss.read_text().splitlines()
        if ln and not ln.startswith(("#", "step"))
    ]
    first = float(rows[0].split(",")[1])
    last = float(rows[-1].split(",")[1])
    c.check(
        last < 0.5 * first,
        f"probe loss {first:.4g} -> {last:.4g} is not a 50% cut",
    )

    motion = formats.read_sequence(toy_run.outs[0])
    c.check(motion.n_frames == 400, f"{motion.n_frames} frames, wanted 400")
    c.check(motion.n_channels == 8, "channel count")

    score_rows = [
        ln for ln in toy_run.scores.read_text().splitlines()
        if ln and not ln.startswith(("#", "segment"))
    ]
    c.check(
        len(score_rows) == 20, f"{len(score_rows)} score rows, wanted 4x5"
    )
    picked = [r for r in score_rows if r.endswith(",1")]
    c.check(len(picked) == 4, "one winner per stitched segment")

    c.check(
        toy_run.outs[0].read_bytes() == toy_run.outs[1].read_bytes(),
        "repeat run differs: pipeline is not deterministic",
    )
    c.check(
        toy_run.total < 600.0, f"pipeline took {toy_run.total:.0f} s >= 600 s"
    )

    elapsed = time.perf_counter() - start + toy_run.total
    c.finish(capsys, elapsed)


def _junction_stats(frames: np.ndarray, m: int):
    """Mean position jump and velocity-angle discontinuity at junctions."""
    pts = as_points(frames)
    pos, ang = [], []
    for b in range(m, frames.shape[0], m):
        pos.append(np.linalg.norm(frames[b] - frames[b - 1]))
        va = pts[b] - pts[b - 1]
        vb = pts[b + 1] - pts[b]
        na = np.linalg.norm(va, axis=1)
        nb = np.linalg.norm(vb, axis=1)
        angles = np.zeros(pts.shape[1])
        moving = (na >= 1e-9) & (nb >= 1e-9)
        dots = (va[moving] * vb[moving]).sum(axis=1) / (na[moving] * nb[moving])
        angles[moving] = np.arccos(np.clip(dots, -1.0, 1.0))
        ang.append(angles.mean())
    return float(np.mean(pos)), float(np.mean(ang))


def test_6_selection_beats_concatenation(toy_run, capsys):
    c = Criterion(6, "selection-vs-concat")
    start = time.perf_counter()

    model = formats.read_denoiser(toy_run.model)
    cfg = parse_config(TOY_CFG)  # m = 80, T = 50, cosine, gamma = 2, p = 5, gap = 2
    cond = synth_condition(np.arange(0.2, 9.6, 0.4), 240, 25, 4, seed=123)
    seed_vec = formats.read_sequence(toy_run.data / "seq_0000.mdsq").frames[0]

    sel = {"pos": [], "ang": []}
    naive = {"pos": [], "ang": []}
    for s in range(20):
        picked, _ = generate_long(model, cond, seed_vec, 240, replace(cfg, seed=s))
        concat, _ = generate_long(
            model, cond, seed_vec, 240, replace(cfg, p=1, gap=0, seed=s)
        )
        p1, a1 = _junction_stats(picked.frames, 80)
        p0, a0 = _junction_stats(concat.frames, 80)
        sel["pos"].append(p1)
        sel["ang"].append(a1)
        naive["pos"].append(p0)
        naive["ang"].append(a0)

    for key, label in (("pos", "position jump"), ("ang", "velocity angle")):
        mean_sel = np.mean(sel[key])
        mean_naive = np.mean(naive[key])
        wins = np.mean(np.array(sel[key]) < np.array(naive[key]))
        c.check(
            mean_sel < mean_naive,
            f"mean {label}: selected {mean_sel:.4f} vs naive {mean_naive:.4f}",
        )
        c.check(wins >= 0.8, f"{label} win rate {wins:.0%} < 80%")

    c.finish(capsys, time.perf_counter() - start)


# -- 7: metrics suite ------------------------------------------------------

def test_7_metrics(capsys):
    c = Criterion(7, "metrics")
    start = time.perf_counter()

    times = [0.5, 1.0, 2.25]
    c.check(
        abs(beat_align_score(times, times) - 1.0) < 1e-9, "aligned BAS != 1"
    )
    got = beat_align_score([1.0], [1.1], sigma_b=0.1)
    c.check(
        abs(got - math.exp(-0.5)) < 1e-9,
        f"offset BAS {got:.12f} vs exp(-1/2)",
    )

    mu1, v1, mu2, v2 = 0.3, 0.8, -1.1, 1.7
    want = (mu1 - mu2) ** 2 + v1 + v2 - 2.0 * math.sqrt(v1 * v2)
    got = frechet_distance(
        GaussianSummary(np.array([mu1]), np.array([[v1]])),
        GaussianSummary(np.array([mu2]), np.array([[v2]])),
    )
    c.check(abs(got - want) < 1e-9, f"1-D Frechet {got} vs {want}")

    g = generator(7001)
    m1, m2 = g.normal(size=4), g.normal(size=4)
    d1, d2 = g.uniform(0.2, 2.0, size=4), g.uniform(0.2, 2.0, size=4)
    want = float(
        ((m1 - m2) ** 2).sum()
        + (d1 + d2 - 2.0 * np.sqrt(d1 * d2)).sum()
    )
    got = frechet_distance(
        GaussianSummary(m1, np.diag(d1)), GaussianSummary(m2, np.diag(d2))
    )
    c.check(abs(got - want) < 1e-9, f"diagonal Frechet {got} vs {want}")

    feats = generator(7002).normal(size=(9, 4))
    brute = 0.0
    pairs = 0
    for i in range(9):
        for j in range(i + 1, 9):
            brute += np.linalg.norm(feats[i] - feats[j])
            pairs += 1
    c.check(
        abs(diversity(feats) - brute / pairs) < 1e-12, "diversity brute force"
    )

    cfg = PipelineConfig(k=2, n=2, sequences=10)
    locked, shuffled = [], []
    for i, (seq, cond) in enumerate(make_dataset(cfg)):
        locked.append(beat_align_score(cond.beats, gesture_beats(seq)))
        perm = generator(7003, i).permutation(seq.n_frames)
        scrambled = MotionSequence(seq.frames[perm], seq.fps)
        shuffled.append(beat_align_score(cond.beats, gesture_beats(scrambled)))
    locked_mean, shuffled_mean = np.mean(locked), np.mean(shuffled)
    c.check(locked_mean > 0.8, f"beat-locked BAS {locked_mean:.3f} <= 0.8")
    c.check(
        shuffled_mean < locked_mean,
        f"shuffled BAS {shuffled_mean:.3f} not below locked {locked_mean:.3f}",
    )

    c.finish(capsys, time.perf_counter() - start)


# -- 8: artifact formats ---------------------------------------------------

def _u32_patch(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<I", value) + data[offset + 4 :]


def _binary_mutants(data: bytes, float_offset: int, wide: bool = False):
    nan = struct.pack("<d" if wide else "<f", float("nan"))
    size = 8 if wide else 4
    current = struct.unpack_from("<I", data, 4)[0]
    return [
        bytes([data[0] ^ 0xFF]) + data[1:],
        data[:4],
        data[: len(data) // 2],
        data[:-1],
        data + b"\x00",
        _u32_patch(data, 4, current + 1),
        _u32_patch(data, 4, 0),
        _u32_patch(data, 4, 0xF0000000),
        data[:float_offset] + nan + data[float_offset + size :],
        data[:4] + data[4:][::-1],
    ]


def _pnm_mutants(data: bytes):
    magic = data[:2]
    rest = data[2:]
    other = b"P5" if magic == b"P6" else b"P6"
    header_end = data.index(b"255\n") + 4
    header, raster = data[:header_end], data[header_end:]
    return [
        b"P7" + rest,
        b"P3" + rest,
        other + rest,                      # channel count no longer matches
        data[:-1],
        data + b"\x00",
        header.replace(b"255", b"999") + raster,
        magic + b"\n0 2\n255\n" + raster,
        magic + b"\n-3 2\n255\n" + raster,
        magic + b"\nwide 2\n255\n" + raster,
        magic + b"\n2",
    ]


def _wav_mutants(data: bytes):
    riff_size = struct.unpack_from("<I", data, 4)[0]
    data_size = struct.unpack_from("<I", data, 40)[0]
    return [
        b"XIFF" + data[4:],
        _u32_patch(data, 4, riff_size + 1),
        data[:8] + b"WAVX" + data[12:],
        data[:20] + struct.pack("<H", 2) + data[22:],   # not PCM
        data[:22] + struct.pack("<H", 3) + data[24:],   # 3 channels
        data[:34] + struct.pack("<H", 8) + data[36:],   # 8-bit
        data[:-1],
        data + b"\x00",
        data[:36] + b"datx" + data[40:],                # data chunk vanishes
        _u32_patch(data, 40, data_size + 2),
    ]


def test_8_formats(toy_run, tmp_path, capsys):
    c = Criterion(8, "artifact-formats")
    start = time.perf_counter()

    g = generator(8001)
    dst = g.uniform(-0.8, 0.8, size=(5, 2))
    transform_blob = formats.transform_to_bytes(
        solve_tps(dst + 0.1 * g.normal(size=(5, 2)), dst)
    )
    fmap = identity_flow(6, 8).map.copy()
    fmap[2, 3] = (1.5, 0.0)
    flow_blob = formats.flow_to_bytes(FlowField(fmap))
    sequence_blob = (toy_run.data / "seq_0000.mdsq").read_bytes()
    features_blob = (toy_run.data / "seq_0000.mdaf").read_bytes()
    denoiser_blob = toy_run.model.read_bytes()
    ppm_blob = write_pnm(
        from_bytes_array(g.integers(0, 256, size=(5, 4, 3), dtype=np.uint8))
    )
    pgm_blob = write_pnm(
        from_bytes_array(g.integers(0, 256, size=(4, 6), dtype=np.uint8))
    )
    wav_samples = np.zeros(4000)
    wav_samples[::500] = 0.5
    wav_blob = write_wav(AudioClip(wav_samples, 8000))

    roundtrips = {
        "MDTP": (transform_blob, formats.transform_from_bytes,
                 formats.transform_to_bytes),
        "MDFL": (flow_blob, formats.flow_from_bytes, formats.flow_to_bytes),
        "MDSQ": (sequence_blob, formats.sequence_from_bytes,
                 formats.sequence_to_bytes),
        "MDAF": (features_blob, formats.audio_features_from_bytes,
                 formats.audio_features_to_bytes),
        "MDNN": (denoiser_blob, formats.denoiser_from_bytes,
                 formats.denoiser_to_bytes),
        "PPM": (ppm_blob, parse_pnm, write_pnm),
        "PGM": (pgm_blob, parse_pnm, write_pnm),
        "WAV": (wav_blob, read_wav, write_wav),
    }

    for name, (blob, reader, writer) in roundtrips.items():
        c.check(
            writer(reader(blob)) == blob, f"{name} round trip not bit-exact"
        )

    suite_files = {
        "t.mdtp": transform_blob,
        "f.mdfl": flow_blob,
        "i.ppm": ppm_blob,
        "m.pgm": pgm_blob,
        "a.wav": wav_blob,
    }
    paths = [str(toy_run.model), str(toy_run.outs[0]),
             str(toy_run.data / "seq_0000.mdsq"),
             str(toy_run.data / "seq_0000.mdaf")]
    for name, blob in suite_files.items():
        path = tmp_path / name
        path.write_bytes(blob)
        paths.append(str(path))
    c.check(cli.main(["verify", *paths]) == 0, "verify rejected suite outputs")
    capsys.readouterr()

    mutant_sets = {
        "MDTP": _binary_mutants(transform_blob, 8),
        "MDFL": _binary_mutants(flow_blob, 12),
        "MDSQ": _binary_mutants(sequence_blob, 20),
        "MDAF": _binary_mutants(features_blob, 24, wide=True),
        "MDNN": _binary_mutants(denoiser_blob, 16),
        "PPM": _pnm_mutants(ppm_blob),
        "PGM": _pnm_mutants(pgm_blob),
        "WAV": _wav_mutants(wav_blob),
    }
    for name, mutants in mutant_sets.items():
        c.check(len(mutants) == 10, f"{name}: expected 10 mutants")
        for i, blob in enumerate(mutants):
            path = tmp_path / f"mut_{name}_{i}"
            path.write_bytes(blob)
            try:
                formats.verify_file(path)
            except FormatError:
                accepted = False
            else:
                accepted = True
            c.check(not accepted, f"{name} mutant {i} was accepted")

    c.finish(capsys, time.perf_counter() - start)
