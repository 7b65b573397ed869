import errno
import os
import pickle
import shutil
import struct
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mdgesture import cli, formats
from mdgesture.audio import AudioClip, AudioCondition, write_wav
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import MlpDenoiser
from mdgesture.errors import SingularSystemError
from mdgesture.motion import MotionSequence
from mdgesture.ppm import from_bytes_array, parse_pnm, write_pnm
from mdgesture.tps import TpsTransform, identity_transform, solve_tps

from conftest import random_pairs

TOY_CFG = """\
k = 2
n = 2
m = 12
stride = 6
fps = 25
T = 5
schedule = cosine
gamma = 1
p = 2
gap = 2
steps = 30
batch = 4
lr = 0.05
hidden = 16
embed = 4
sequences = 4
c_audio = 2
beat_period = 5
seed = 0
"""

RENDER_CFG = """\
k = 1
n = 4
m = 6
stride = 6
fps = 25
T = 3
schedule = linear
gamma = 1
p = 1
gap = 0
steps = 10
batch = 2
lr = 0.05
hidden = 12
embed = 4
sequences = 2
c_audio = 2
beat_period = 5
seed = 1
"""


def stdout_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.partition(" = ")[2])
    raise AssertionError(f"no '{key}' line in output:\n{out}")


def data_lines(path) -> list[str]:
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(TOY_CFG)
    data = root / "data"
    assert cli.main(
        ["synth-data", "--config", str(cfg), "--out-dir", str(data)]
    ) == 0
    model = root / "model.mdnn"
    loss = root / "loss.csv"
    assert cli.main(
        ["train", "--config", str(cfg), "--data", str(data),
         "--out", str(model), "--loss-csv", str(loss)]
    ) == 0
    return SimpleNamespace(root=root, cfg=cfg, data=data, model=model, loss=loss)


class TestTpsSolve:
    def run(self, tmp_path, capsys, src, dst, extra=()):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(formats.pairs_to_text(src, dst))
        out = tmp_path / "t.mdtp"
        code = cli.main(
            ["tps-solve", "--pairs", str(pairs), "--out", str(out), *extra]
        )
        return code, capsys.readouterr().out, out

    def test_identity_pairs(self, tmp_path, capsys):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
        code, out, path = self.run(tmp_path, capsys, pts, pts)
        assert code == 0
        assert stdout_value(out, "energy") <= 1e-10
        assert stdout_value(out, "max_residual") <= 1e-10
        assert formats.read_transform(path).n_controls == 4

    def test_translation_zero_energy(self, tmp_path, capsys):
        dst = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
        code, out, _ = self.run(tmp_path, capsys, dst + [0.1, -0.2], dst)
        assert code == 0
        assert stdout_value(out, "energy") <= 1e-10

    def test_random_pairs_residual(self, tmp_path, capsys, rng):
        src = rng.uniform(-0.8, 0.8, size=(6, 2))
        dst = src + 0.1 * rng.normal(size=src.shape)
        code, out, _ = self.run(tmp_path, capsys, src, dst)
        assert code == 0
        assert stdout_value(out, "max_residual") < 1e-8

    def test_collinear_is_solver_error(self, tmp_path, capsys):
        dst = np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.6, 0.0]])
        code, _, _ = self.run(tmp_path, capsys, dst, dst)
        assert code == 4

    def test_bad_csv_is_parse_error(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("not,a,header\n")
        code = cli.main(
            ["tps-solve", "--pairs", str(pairs), "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        code = cli.main(
            ["tps-solve", "--pairs", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


def test_parser_reused_after_a_failed_parse(pipeline, tmp_path, capsys):
    # the parser is built once per process; a failed parse must not leave
    # state that changes the next commands
    assert cli.main(["generate", "--frames", "3"]) == 2
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(formats.pairs_to_text(pts + [0.1, -0.2], pts))
    assert cli.main(["tps-solve", "--pairs", str(pairs), "--out", str(tmp_path / "t.mdtp")]) == 0
    assert stdout_value(capsys.readouterr().out, "energy") <= 1e-10
    assert formats.read_transform(tmp_path / "t.mdtp").n_controls == 4
    data = tmp_path / "data"
    assert cli.main(["synth-data", "--config", str(pipeline.cfg), "--out-dir", str(data)]) == 0
    for name in ("seq_0000.mdsq", "seq_0003.mdaf", "index.csv"):
        assert (data / name).read_bytes() == (pipeline.data / name).read_bytes()


def shift_transform(dx):
    return TpsTransform(
        np.array([[1.0, 0.0, dx], [0.0, 1.0, 0.0]]),
        np.zeros((3, 2)),
        np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]),
    )


class TestWarp:
    def write_image(self, tmp_path, rng, h, w):
        img = from_bytes_array(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        path = tmp_path / "src.ppm"
        path.write_bytes(write_pnm(img))
        return img, path

    def test_identity_byte_exact(self, tmp_path, rng):
        img, src = self.write_image(tmp_path, rng, 9, 9)
        tpath = tmp_path / "id.mdtp"
        formats.write_transform(tpath, identity_transform())
        out = tmp_path / "out.ppm"
        code = cli.main(
            ["warp", "--image", str(src), "--transform", str(tpath),
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == src.read_bytes()

    def test_one_pixel_shift(self, tmp_path, rng):
        # -0.25 in normalized units is one pixel at width 9
        img, src = self.write_image(tmp_path, rng, 9, 9)
        tpath = tmp_path / "shift.mdtp"
        formats.write_transform(tpath, shift_transform(-0.25))
        out = tmp_path / "out.ppm"
        mask = tmp_path / "occ.pgm"
        code = cli.main(
            ["warp", "--image", str(src), "--transform", str(tpath),
             "--out", str(out), "--mask", str(mask)]
        )
        assert code == 0
        warped = parse_pnm(out.read_bytes())
        assert np.array_equal(warped.data[:, 1:], img.data[:, :-1])
        assert np.all(warped.data[:, 0] == 0.0)
        occ = parse_pnm(mask.read_bytes())
        assert np.all(occ.data[:, 0] == 1.0)
        assert np.all(occ.data[:, 1:] == 0.0)

    def test_out_of_range_black_full_mask(self, tmp_path, rng):
        _, src = self.write_image(tmp_path, rng, 8, 8)
        tpath = tmp_path / "far.mdtp"
        formats.write_transform(tpath, shift_transform(4.0))
        out = tmp_path / "out.ppm"
        mask = tmp_path / "occ.pgm"
        code = cli.main(
            ["warp", "--image", str(src), "--transform", str(tpath),
             "--out", str(out), "--mask", str(mask)]
        )
        assert code == 0
        assert np.all(parse_pnm(out.read_bytes()).data == 0.0)
        assert np.all(parse_pnm(mask.read_bytes()).data == 1.0)

    def test_large_image_upsample_path(self, tmp_path):
        # constant image: any resampling of an identity flow returns it
        img = from_bytes_array(np.full((65, 70, 3), 137, dtype=np.uint8))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(img))
        tpath = tmp_path / "id.mdtp"
        formats.write_transform(tpath, identity_transform())
        out = tmp_path / "out.ppm"
        flow_out = tmp_path / "field.mdfl"
        code = cli.main(
            ["warp", "--image", str(src), "--transform", str(tpath),
             "--out", str(out), "--flow-out", str(flow_out)]
        )
        assert code == 0
        assert out.read_bytes() == src.read_bytes()
        field = formats.read_flow(flow_out)
        assert (field.height, field.width) == (65, 70)

    def test_multiple_transforms_accepted(self, tmp_path, rng):
        _, src = self.write_image(tmp_path, rng, 9, 9)
        t1 = tmp_path / "a.mdtp"
        t2 = tmp_path / "b.mdtp"
        formats.write_transform(t1, shift_transform(-0.25))
        formats.write_transform(t2, identity_transform())
        out = tmp_path / "out.ppm"
        code = cli.main(
            ["warp", "--image", str(src), "--transform", str(t1),
             "--transform", str(t2), "--out", str(out), "--background"]
        )
        assert code == 0
        assert parse_pnm(out.read_bytes()).height == 9

    @pytest.mark.parametrize("softness", ["1e-310", "1e-7", "inf", "nan"])
    def test_bad_softness_writes_nothing(self, tmp_path, rng, capsys, softness):
        _, src = self.write_image(tmp_path, rng, 9, 9)
        tpath = tmp_path / "a.mdtp"
        formats.write_transform(tpath, shift_transform(-0.25))
        out, mask, flow = (tmp_path / n for n in ("out.ppm", "m.pgm", "f.mdfl"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["warp", "--image", str(src), "--transform", str(tpath),
                 "--out", str(out), "--mask", str(mask), "--flow-out", str(flow),
                 "--softness", softness, "--background"]
            )
        assert code == 2
        assert not caught
        assert "softness must be finite and >=" in capsys.readouterr().err
        assert not out.exists() and not mask.exists() and not flow.exists()


class TestSynthData:
    def test_outputs(self, pipeline):
        names = sorted(p.name for p in pipeline.data.iterdir())
        assert "index.csv" in names
        assert sum(n.endswith(".mdsq") for n in names) == 4
        assert sum(n.endswith(".mdaf") for n in names) == 4
        lines = (pipeline.data / "index.csv").read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "sequence,motion,features,frames,channels,beats"
        assert len(lines) == 6
        assert lines[2].split(",")[3:] == ["12", "8", "2"]

    def test_deterministic(self, pipeline, tmp_path):
        assert cli.main(
            ["synth-data", "--config", str(pipeline.cfg),
             "--out-dir", str(tmp_path)]
        ) == 0
        for name in ("seq_0000.mdsq", "seq_0003.mdaf", "index.csv"):
            assert (tmp_path / name).read_bytes() == (
                pipeline.data / name
            ).read_bytes()

    def test_seed_override_changes_data(self, pipeline, tmp_path):
        assert cli.main(
            ["synth-data", "--config", str(pipeline.cfg),
             "--out-dir", str(tmp_path), "--seed", "5"]
        ) == 0
        index = (tmp_path / "index.csv").read_text().splitlines()
        assert index[0] == "# seed=5"
        assert (tmp_path / "seq_0000.mdsq").read_bytes() != (
            pipeline.data / "seq_0000.mdsq"
        ).read_bytes()

    def test_segment_shorter_than_the_losses_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(with_key(TOY_CFG, "m", "2"))
        out = tmp_path / "data"
        assert cli.main(["synth-data", "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert "lambda_acc" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli.main(
            ["synth-data", "--config", str(cfg), "--out-dir", str(tmp_path)]
        ) == 3

    def test_negative_seed(self, pipeline, tmp_path):
        assert cli.main(
            ["synth-data", "--config", str(pipeline.cfg),
             "--out-dir", str(tmp_path), "--seed", "-1"]
        ) == 2


class TestTrain:
    def test_artifacts(self, pipeline):
        kind, info = formats.verify_file(pipeline.model)
        assert kind == "denoiser"
        assert "hidden=16" in info
        lines = pipeline.loss.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "step,probe_loss"
        assert lines[2].startswith("0,")
        assert len(lines) >= 4
        for row in lines[2:]:
            step, loss = row.split(",")
            assert float(loss) > 0

    def test_empty_dir(self, tmp_path):
        assert cli.main(
            ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m")]
        ) == 2

    def test_missing_features_sibling(self, pipeline, tmp_path):
        (tmp_path / "a.mdsq").write_bytes(
            (pipeline.data / "seq_0000.mdsq").read_bytes()
        )
        assert cli.main(
            ["train", "--config", str(pipeline.cfg), "--data", str(tmp_path),
             "--out", str(tmp_path / "m")]
        ) == 2

    def test_features_at_another_fps(self, pipeline, tmp_path):
        seq = formats.read_sequence(pipeline.data / "seq_0000.mdsq")
        feats = formats.read_audio_features(pipeline.data / "seq_0000.mdaf")
        formats.write_sequence(tmp_path / "a.mdsq", seq)
        formats.write_audio_features(
            tmp_path / "a.mdaf", AudioCondition(feats.features, 2 * seq.fps)
        )
        out = tmp_path / "m.mdnn"
        assert cli.main(
            ["train", "--config", str(pipeline.cfg), "--data", str(tmp_path),
             "--out", str(out)]
        ) == 2
        assert not out.exists()

    def test_sequences_shorter_than_window(self, pipeline, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(TOY_CFG.replace("m = 12", "m = 200"))
        assert cli.main(
            ["train", "--config", str(cfg), "--data", str(pipeline.data),
             "--out", str(tmp_path / "m")]
        ) == 2

    def test_divergence_is_numerics_error(self, tmp_path, capsys):
        # lr = 1e6 would overflow float64 at step 20; the weights stop
        # fitting the float32 model file at step 5, where training stops
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nn = 2\nm = 20\nT = 10\nsequences = 4\n"
                       "batch = 4\nsteps = 20\nlr = 1e6\n")
        data = tmp_path / "data"
        assert cli.main(
            ["synth-data", "--config", str(cfg), "--out-dir", str(data)]
        ) == 0
        out, loss = tmp_path / "m.mdnn", tmp_path / "loss.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--loss-csv", str(loss)]
            )
        assert code == 4
        assert not caught
        err = capsys.readouterr().err
        assert "diverged at step 5" in err and "lower lr" in err
        assert not out.exists() and not loss.exists()

    @pytest.mark.parametrize("lr, step, cause", [
        ("1e6", 5, "a parameter left float32 range"),  # finite in float64
        ("1e308", 1, "overflow encountered in multiply"),
    ])
    def test_toy_rig_divergence_names_step(self, tmp_path, capsys, lr, step, cause):
        # the benchmark's toy rig (c=8) with a learning rate far too large
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "k = 2\nn = 2\nm = 80\nstride = 10\nT = 50\ngamma = 2\n"
            f"p = 5\nsteps = 12\nbatch = 16\nlr = {lr}\nsequences = 20\n"
        )
        data = tmp_path / "data"
        assert cli.main(
            ["synth-data", "--config", str(cfg), "--out-dir", str(data)]
        ) == 0
        capsys.readouterr()
        out, loss = tmp_path / "m.mdnn", tmp_path / "loss.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--loss-csv", str(loss)]
            )
        assert code == 4
        assert not caught
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"diverged at step {step} ({cause})" in err[0]
        assert f"lower lr than {float(lr):g}" in err[0]
        assert not out.exists() and not loss.exists()


class TestGenerate:
    def generate(self, pipeline, out_dir, extra=()):
        out = out_dir / "gen.mdsq"
        scores = out_dir / "scores.csv"
        code = cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(out), "--scores", str(scores), *extra]
        )
        return code, out, scores

    def test_single_segment(self, pipeline, tmp_path):
        code, out, scores = self.generate(pipeline, tmp_path, ["--frames", "12"])
        assert code == 0
        assert formats.read_sequence(out).n_frames == 12
        lines = scores.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "segment,candidate,position,angle,total,selected"
        assert len(lines) == 2

    def test_default_length_is_feature_rows(self, pipeline, tmp_path):
        code, out, _ = self.generate(pipeline, tmp_path)
        assert code == 0
        assert formats.read_sequence(out).n_frames == 12

    def test_seconds_flag(self, pipeline, tmp_path):
        code, out, _ = self.generate(pipeline, tmp_path, ["--seconds", "1.2"])
        assert code == 0
        assert formats.read_sequence(out).n_frames == 30

    def test_seconds_use_feature_fps(self, pipeline, tmp_path):
        # the config says fps = 25; the features run at 50
        feats = tmp_path / "f50.mdaf"
        formats.write_audio_features(feats, AudioCondition(np.zeros((100, 2)), 50))
        out = tmp_path / "gen.mdsq"
        assert cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model), "--features", str(feats),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(out), "--seconds", "0.6"]
        ) == 0
        motion = formats.read_sequence(out)
        assert (motion.n_frames, motion.fps) == (30, 50)
        assert motion.n_frames / motion.fps == pytest.approx(0.6)

    def test_frames_and_seconds_refused_together(self, pipeline, tmp_path, capsys):
        code, out, scores = self.generate(
            pipeline, tmp_path, ["--frames", "12", "--seconds", "1.2"])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists() and not scores.exists()

    def test_multi_segment_scores(self, pipeline, tmp_path):
        code, out, scores = self.generate(pipeline, tmp_path, ["--frames", "30"])
        assert code == 0
        assert formats.read_sequence(out).n_frames == 30
        rows = [ln.split(",") for ln in data_lines(scores)[1:]]
        assert len(rows) == 4  # segments 1..2, two candidates each
        for seg in ("1", "2"):
            seg_rows = [r for r in rows if r[0] == seg]
            assert sorted(r[1] for r in seg_rows) == ["0", "1"]
            assert sum(r[5] == "1" for r in seg_rows) == 1
            picked = [r for r in seg_rows if r[5] == "1"][0]
            assert float(picked[4]) == min(float(r[4]) for r in seg_rows)
            for r in seg_rows:
                assert float(r[4]) == pytest.approx(
                    float(r[2]) + float(r[3]), abs=1e-12
                )

    def test_deterministic(self, pipeline, tmp_path):
        _, out1, _ = self.generate(pipeline, tmp_path, ["--frames", "30"])
        sub = tmp_path / "again"
        sub.mkdir()
        _, out2, _ = self.generate(pipeline, sub, ["--frames", "30"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, pipeline, tmp_path):
        _, out1, _ = self.generate(pipeline, tmp_path, ["--frames", "12"])
        sub = tmp_path / "again"
        sub.mkdir()
        _, out2, _ = self.generate(
            pipeline, sub, ["--frames", "12", "--seed", "3"]
        )
        assert out1.read_bytes() != out2.read_bytes()

    def test_too_few_frames(self, pipeline, tmp_path):
        code, _, _ = self.generate(pipeline, tmp_path, ["--frames", "0"])
        assert code == 2

    def test_frames_below_segment_trim_one_segment(self, pipeline, tmp_path):
        code, out, scores = self.generate(pipeline, tmp_path, ["--frames", "5"])
        assert code == 0
        assert formats.read_sequence(out).n_frames == 5
        assert data_lines(scores) == ["segment,candidate,position,angle,total,selected"]

    def test_seed_motion_channel_mismatch(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.mdsq"
        formats.write_sequence(bad, MotionSequence(np.zeros((3, 4))))
        code = cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--seed-motion", str(bad), "--out", str(tmp_path / "o"),
             "--scores", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "seed motion has 4 channels, model expects 8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "s.csv").exists()

    def test_feature_channel_mismatch(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.mdaf"
        formats.write_audio_features(bad, AudioCondition(np.zeros((12, 3)), 25))
        code = cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model), "--features", str(bad),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(tmp_path / "o"), "--scores", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "audio has 3 channels, model expects 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "s.csv").exists()

    def test_corrupt_features(self, pipeline, tmp_path):
        bad = tmp_path / "bad.mdaf"
        bad.write_bytes(
            (pipeline.data / "seq_0000.mdaf").read_bytes()[:-3]
        )
        code = cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model), "--features", str(bad),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    @pytest.mark.parametrize("render", [False, True], ids=["motion", "rendered"])
    def test_draw_beyond_float32_is_numerics_error(self, pipeline, tmp_path, capsys,
                                                   render):
        # a valid model file whose every x0 prediction is 4 * tanh(1) * 3e38
        # in each channel, past float32: segment 0 is a numeric failure,
        # found once every segment is drawn and filled, before a frame is
        # solved or anything is written
        model = MlpDenoiser(8, 2, hidden=4, embed=4)
        model.set_flat(np.zeros_like(model.get_flat()))
        model.b1[...] = 1.0
        model.w2[...] = 3e38
        formats.write_denoiser(tmp_path / "big.mdnn", model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TOY_CFG.replace("k = 2\nn = 2", "k = 1\nn = 4"))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(from_bytes_array(np.zeros((4, 4, 3), np.uint8))))
        out, scores, frames = (tmp_path / n for n in ("gen.mdsq", "s.csv", "frames"))
        render_args = ["--render-src", str(src), "--render-dir", str(frames)]
        assert cli.main(
            ["generate", "--config", str(cfg), "--params", str(tmp_path / "big.mdnn"),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(out), "--scores", str(scores), "--frames", "24",
             *(render_args if render else [])]
        ) == 4
        assert capsys.readouterr().err.startswith("error: segment 0 left float32 range")
        assert not out.exists() and not scores.exists() and not frames.exists()

    def test_chain_beyond_float64_is_numerics_error(self, pipeline, tmp_path, capsys):
        # w1 = 0.5 and gamma = 1e308: the guided blend of the two branches'
        # activations overflows float64, so the chain's draw is not finite;
        # that is a numeric failure (4) with no RuntimeWarning, not a usage
        # error (2) raised when the draw becomes a MotionSequence
        model = MlpDenoiser(8, 2, hidden=4, embed=4)
        model.set_flat(np.zeros_like(model.get_flat()))
        model.b1[...] = 1.0
        model.w1[...] = 0.5
        model.w2[...] = 3e38
        formats.write_denoiser(tmp_path / "big.mdnn", model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TOY_CFG.replace("gamma = 1", "gamma = 1e308"))
        out = tmp_path / "gen.mdsq"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["generate", "--config", str(cfg), "--params", str(tmp_path / "big.mdnn"),
                 "--features", str(pipeline.data / "seq_0000.mdaf"),
                 "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
                 "--out", str(out), "--frames", "24"])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: the reverse chain left float64")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_render_flags_must_pair(self, pipeline, tmp_path):
        code, _, _ = self.generate(
            pipeline, tmp_path,
            ["--frames", "12", "--render-dir", str(tmp_path / "frames")],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "rig,shape,raster,code",
        [
            ("k = 2\nn = 2", (4, 4), True, 2),  # n < 3: TPS needs 3 pairs
            ("k = 2\nn = 3", (4, 4), True, 2),  # k*n*2 != model channels
            ("k = 1\nn = 4", (1, 4), True, 2),  # source smaller than 2x2
            ("k = 1\nn = 4", (4, 4), False, 3),  # source does not parse
        ],
        ids=["n_below_3", "channel_mismatch", "tiny_source", "bad_source"],
    )
    def test_render_checked_before_sampling(self, pipeline, tmp_path,
                                            rig, shape, raster, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TOY_CFG.replace("k = 2\nn = 2", rig))
        src = tmp_path / "src.ppm"
        img = write_pnm(from_bytes_array(np.zeros(shape + (3,), np.uint8)))
        src.write_bytes(img if raster else img[:-1])
        out, frames = tmp_path / "gen.mdsq", tmp_path / "frames"
        assert cli.main(
            ["generate", "--config", str(cfg), "--params", str(pipeline.model),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--seed-motion", str(pipeline.data / "seq_0000.mdsq"),
             "--out", str(out), "--frames", "12",
             "--render-src", str(src), "--render-dir", str(frames)]
        ) == code
        assert not out.exists() and not frames.exists()

    def test_singular_frame_writes_nothing(self, tmp_path):
        # zero weights: every step predicts b2, so every frame equals b2,
        # whose first two keypoints coincide and make the TPS singular
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RENDER_CFG)
        model = MlpDenoiser(8, 2, hidden=4, embed=4)
        model.set_flat(np.zeros_like(model.get_flat()))
        model.b2[...] = [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5]
        formats.write_denoiser(tmp_path / "model.mdnn", model)
        formats.write_audio_features(
            tmp_path / "f.mdaf", AudioCondition(np.zeros((6, 2)), 25)
        )
        seed = [[-0.5, -0.5, 0.5, -0.5, 0.5, 0.5, -0.5, 0.5]]
        formats.write_sequence(tmp_path / "s.mdsq", MotionSequence(np.array(seed)))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(from_bytes_array(np.zeros((4, 4, 3), np.uint8))))
        out, scores, frames = (tmp_path / n for n in ("gen.mdsq", "s.csv", "frames"))
        assert cli.main(
            ["generate", "--config", str(cfg),
             "--params", str(tmp_path / "model.mdnn"),
             "--features", str(tmp_path / "f.mdaf"),
             "--seed-motion", str(tmp_path / "s.mdsq"),
             "--out", str(out), "--scores", str(scores),
             "--render-src", str(src), "--render-dir", str(frames)]
        ) == 4
        assert not out.exists() and not scores.exists() and not frames.exists()

    def test_singular_frame_names_frame_and_transform(self, tmp_path, capsys):
        # k = 2, n = 3 and zero weights: every frame equals b2, whose
        # second group repeats an anchor, so transform 1 is singular
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RENDER_CFG.replace("k = 1\nn = 4", "k = 2\nn = 3"))
        model = MlpDenoiser(12, 2, hidden=4, embed=4)
        model.set_flat(np.zeros_like(model.get_flat()))
        model.b2[...] = [-0.5, -0.5, 0.5, -0.5, 0.0, 0.5,
                         -0.5, -0.5, -0.5, -0.5, 0.0, 0.5]
        formats.write_denoiser(tmp_path / "model.mdnn", model)
        formats.write_audio_features(
            tmp_path / "f.mdaf", AudioCondition(np.zeros((6, 2)), 25)
        )
        seed = [[-0.5, -0.5, 0.5, -0.5, 0.0, 0.5, 0.5, 0.5, -0.5, 0.5, 0.0, -0.5]]
        formats.write_sequence(tmp_path / "s.mdsq", MotionSequence(np.array(seed)))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(from_bytes_array(np.zeros((4, 4, 3), np.uint8))))
        out, frames = tmp_path / "gen.mdsq", tmp_path / "frames"
        assert cli.main(
            ["generate", "--config", str(cfg),
             "--params", str(tmp_path / "model.mdnn"),
             "--features", str(tmp_path / "f.mdaf"),
             "--seed-motion", str(tmp_path / "s.mdsq"),
             "--out", str(out),
             "--render-src", str(src), "--render-dir", str(frames)]
        ) == 4
        assert capsys.readouterr().err.startswith("error: frame 0, transform 1: ")
        assert not out.exists() and not frames.exists()

    def test_singular_later_frame_named_and_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        # the whole motion is solved as one batch of frames * k systems:
        # a duplicate anchor in frame 3's transform 1 is system 3 * 2 + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RENDER_CFG.replace("k = 1\nn = 4", "k = 2\nn = 3"))
        model = MlpDenoiser(12, 2, hidden=4, embed=4)
        formats.write_denoiser(tmp_path / "model.mdnn", model)
        formats.write_audio_features(
            tmp_path / "f.mdaf", AudioCondition(np.zeros((6, 2)), 25)
        )
        seed = np.array([[-0.5, -0.5, 0.5, -0.5, 0.0, 0.5, 0.5, 0.5, -0.5, 0.5, 0.0, -0.5]])
        formats.write_sequence(tmp_path / "s.mdsq", MotionSequence(seed))
        motion = np.repeat(seed, 6, axis=0)
        motion[:, :6] += 0.01 * np.arange(6)[:, None]
        motion[3, 8:10] = motion[3, 6:8]
        monkeypatch.setattr(cli, "generate_long",
                            lambda *args: (MotionSequence(motion.copy()), []))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(from_bytes_array(np.zeros((4, 4, 3), np.uint8))))
        out, scores, frames = (tmp_path / n for n in ("gen.mdsq", "s.csv", "frames"))
        assert cli.main(
            ["generate", "--config", str(cfg),
             "--params", str(tmp_path / "model.mdnn"),
             "--features", str(tmp_path / "f.mdaf"),
             "--seed-motion", str(tmp_path / "s.mdsq"),
             "--out", str(out), "--scores", str(scores),
             "--render-src", str(src), "--render-dir", str(frames)]
        ) == 4
        assert capsys.readouterr().err.startswith("error: frame 3, transform 1: ")
        assert not out.exists() and not scores.exists() and not frames.exists()


def frame_motion(rng, frames, k, n):
    """A seed frame and `frames` frames of k groups of n keypoints near it."""
    seed = np.concatenate([random_pairs(rng, n)[1].ravel() for _ in range(k)])
    return seed, seed + 0.05 * rng.normal(size=(frames, seed.size))


def test_frame_transforms_match_one_at_a_time(rng):
    seed, motion = frame_motion(rng, 4, 3, 5)
    solved = cli._frame_transforms(motion, seed, PipelineConfig(k=3, n=5))
    seed_pts = seed.reshape(3, 5, 2)
    assert len(solved) == 4
    for pts, transforms in zip(motion.reshape(4, 3, 5, 2), solved):
        assert len(transforms) == 3
        for k, t in enumerate(transforms):
            one = solve_tps(seed_pts[k], pts[k])
            assert np.array_equal(t.weights, one.weights)
            assert np.array_equal(t.affine, one.affine)
            assert np.array_equal(t.controls_d, one.controls_d)


def test_singular_frame_is_named(rng):
    seed, motion = frame_motion(rng, 4, 3, 4)
    groups = motion.reshape(4, 3, 4, 2)
    groups[2, 1, 3] = groups[2, 1, 0]  # frame 2, transform 1: duplicate anchor
    with pytest.raises(SingularSystemError, match=r"^frame 2, transform 1: "):
        cli._frame_transforms(motion, seed, PipelineConfig(k=3, n=4))


def with_key(cfg_text: str, key: str, value: str) -> str:
    lines = [ln for ln in cfg_text.splitlines() if ln.split(" = ")[0] != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


NOT_UTF8 = b"\xff\xfe"  # a UTF-16 byte-order mark is not valid UTF-8
# finite destinations whose squared distances overflow the TPS kernel
HUGE_PAIRS = formats.pairs_to_text(
    np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]]),
    np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [-1e200, -1e200]]),
).encode()


@pytest.mark.parametrize(
    "cfg,extra,pairs,code",
    [
        (with_key(RENDER_CFG, "softness", "inf"), [], None, 3),
        (with_key(RENDER_CFG, "softness", "1e-310"), [], None, 3),
        (with_key(RENDER_CFG, "gamma", "nan"), [], None, 3),
        (with_key(RENDER_CFG, "lr", "inf"), [], None, 3),
        (with_key(RENDER_CFG, "lambda_vel", "inf"), [], None, 3),
        (with_key(RENDER_CFG, "sigma_b", "inf"), [], None, 3),
        (with_key(RENDER_CFG, "amp", "inf"), [], None, 3),
        (NOT_UTF8 + RENDER_CFG.encode(), [], None, 3),
        (RENDER_CFG, ["--seconds", "nan"], None, 2),
        (RENDER_CFG, ["--seconds", "inf"], None, 2),
        (RENDER_CFG, ["--seconds", "1e300"], None, 2),
        (RENDER_CFG, ["--frames", str(2**32)], None, 2),
        (None, [], NOT_UTF8 + formats.PAIRS_HEADER.encode(), 3),
        (None, [], HUGE_PAIRS, 4),
    ],
    ids=["softness_inf", "softness_1e-310", "gamma_nan", "lr_inf", "lambda_vel_inf", "sigma_b_inf",
         "amp_inf", "config_not_utf8", "seconds_nan", "seconds_inf",
         "seconds_1e300", "frames_over_u32", "pairs_not_utf8", "pairs_near_1e200"],
)
def test_bad_input_is_clean_error(tmp_path, capsys, cfg, extra, pairs, code):
    """Each input once ended in a traceback or left artifacts behind."""
    out, scores, frames = (tmp_path / n for n in ("gen.mdsq", "s.csv", "frames"))
    if pairs is not None:
        (tmp_path / "pairs.csv").write_bytes(pairs)
        argv = ["tps-solve", "--pairs", str(tmp_path / "pairs.csv"), "--out", str(out)]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(cfg if isinstance(cfg, bytes) else cfg.encode())
        model = MlpDenoiser(8, 2, hidden=12, embed=4)
        formats.write_denoiser(tmp_path / "model.mdnn", model)
        formats.write_audio_features(
            tmp_path / "f.mdaf", AudioCondition(np.ones((6, 2)), 25)
        )
        seed = [[-0.5, -0.5, 0.5, -0.5, 0.5, 0.5, -0.5, 0.5]]
        formats.write_sequence(tmp_path / "s.mdsq", MotionSequence(np.array(seed)))
        src = tmp_path / "src.ppm"
        src.write_bytes(write_pnm(from_bytes_array(np.zeros((4, 4, 3), np.uint8))))
        argv = ["generate", "--config", str(cfg_path),
                "--params", str(tmp_path / "model.mdnn"),
                "--features", str(tmp_path / "f.mdaf"),
                "--seed-motion", str(tmp_path / "s.mdsq"),
                "--out", str(out), "--scores", str(scores),
                "--render-src", str(src), "--render-dir", str(frames), *extra]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
    assert not caught
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not scores.exists() and not frames.exists()


# Each count fits a u32 header field, and each first allocation is far
# beyond a 47-bit address space (128 TiB), so numpy refuses it at once
# whatever the kernel's overcommit setting: hidden = 2**30 with embed =
# 2**20 asks for about 8 PiB of TOY_CFG weights.
def test_out_of_memory_is_clean_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(with_key(TOY_CFG, "hidden", str(2**30)), "embed", str(2**20)))
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(pipeline.data), "--config", str(cfg),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate ")
    assert "Traceback" not in err and not out.exists()


# Counts above MAX_U32 = 2**32 - 1, the largest a header field holds; each
# once ended in numpy's "Maximum allowed size exceeded" traceback, or
# (hidden = 10**12, T = 10**14) in an out-of-memory exit.
@pytest.mark.parametrize("command, values", [
    ("train", {"T": 10**20}),
    ("train", {"batch": 10**20}),
    ("train", {"hidden": 10**20}),
    ("train", {"hidden": 10**12}),
    ("generate", {"T": 10**14}),
    ("synth-data", {"k": 10**11, "n": 10**11}),
    ("synth-data", {"k": 2**30, "n": 2}),  # k*n*2 = 2**32
    ("synth-data", {"m": 10**20}),
    ("synth-data", {"c_audio": 10**20}),
    ("metrics", {"sigma_smooth": 1e300}),
    ("metrics", {"sigma_smooth": (2**32 - 1) / 3 + 1}),  # radius ceil(3 sigma) > 2**32 - 1
], ids=["train-T", "train-batch", "train-hidden", "train-hidden-1e12", "generate-T-1e14",
        "synth-k-n", "synth-k-n-product", "synth-m", "synth-c_audio", "metrics-sigma_smooth",
        "metrics-sigma_smooth-radius"])
def test_count_beyond_u32_is_config_error(pipeline, tmp_path, capsys, command, values):
    cfg_text = TOY_CFG
    for key, value in values.items():
        cfg_text = with_key(cfg_text, key, repr(value))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    data = pipeline.data
    argv = {
        "train": ["--data", str(data), "--out", str(out)],
        "generate": ["--params", str(pipeline.model), "--features", str(data / "seq_0000.mdaf"),
                     "--seed-motion", str(data / "seq_0000.mdsq"), "--out", str(out)],
        "synth-data": ["--out-dir", str(out)],
        "metrics": ["--generated", str(data), "--reference", str(data),
                    "--features", str(data / "seq_0000.mdaf"), "--out-dir", str(out)],
    }[command]
    assert cli.main([command, "--config", str(cfg)] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " must be <= " in err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def writer_inputs(pipeline, wav_path, tmp_path_factory):
    """Inputs for every command that writes files, in one directory."""
    rng = np.random.default_rng(7)
    ins = tmp_path_factory.mktemp("writer_inputs")
    (ins / "pairs.csv").write_text(formats.pairs_to_text(*random_pairs(rng, 5)))
    (ins / "src.ppm").write_bytes(write_pnm(from_bytes_array(
        rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8))))
    formats.write_transform(ins / "t.mdtp", shift_transform(-0.25))
    return SimpleNamespace(ins=ins, pipeline=pipeline, wav=wav_path[0])


# each writing command's input arguments, and its output flags with names
WRITERS = {
    "tps-solve": (lambda w: ["--pairs", str(w.ins / "pairs.csv")],
                  {"--out": "t.mdtp"}),
    "warp": (lambda w: ["--image", str(w.ins / "src.ppm"),
                        "--transform", str(w.ins / "t.mdtp")],
             {"--out": "w.ppm", "--mask": "m.pgm", "--flow-out": "f.mdfl"}),
    "beats": (lambda w: ["--wav", str(w.wav)],
              {"--out": "b.csv", "--features": "f.mdaf"}),
    "train": (lambda w: ["--config", str(w.pipeline.cfg), "--data", str(w.pipeline.data)],
              {"--out": "model.mdnn", "--loss-csv": "loss.csv"}),
    "generate": (lambda w: ["--config", str(w.pipeline.cfg),
                            "--params", str(w.pipeline.model),
                            "--features", str(w.pipeline.data / "seq_0000.mdaf"),
                            "--seed-motion", str(w.pipeline.data / "seq_0000.mdsq")],
                 {"--out": "gen.mdsq", "--scores": "s.csv"}),
}


@pytest.mark.parametrize("command,flag", [
    ("tps-solve", "--out"), ("warp", "--flow-out"), ("warp", "--mask"),
    ("beats", "--features"), ("train", "--loss-csv"), ("generate", "--scores"),
])
def test_missing_output_directory_writes_nothing(writer_inputs, tmp_path, capsys,
                                                  command, flag):
    """A missing output directory once failed only after the other outputs
    were written, with an error naming a hidden temp file."""
    missing = tmp_path / "nodir"
    args, outputs = WRITERS[command]
    argv = [command, *args(writer_inputs)]
    for f, name in outputs.items():
        argv += [f, str((missing if f == flag else tmp_path) / name)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(missing) in err[0] and ".tmp" not in err[0]
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    root = tmp_path_factory.mktemp("render")
    cfg = root / "run.cfg"
    cfg.write_text(RENDER_CFG)
    data = root / "data"
    assert cli.main(
        ["synth-data", "--config", str(cfg), "--out-dir", str(data)]
    ) == 0
    model = root / "model.mdnn"
    assert cli.main(
        ["train", "--config", str(cfg), "--data", str(data),
         "--out", str(model)]
    ) == 0
    ramp = np.linspace(0, 255, 12 * 10 * 3).reshape(12, 10, 3)
    src = root / "src.ppm"
    src.write_bytes(write_pnm(from_bytes_array(np.round(ramp))))
    frames = root / "frames"
    code = cli.main(
        ["generate", "--config", str(cfg), "--params", str(model),
         "--features", str(data / "seq_0000.mdaf"),
         "--seed-motion", str(data / "seq_0000.mdsq"),
         "--out", str(root / "gen.mdsq"), "--frames", "6",
         "--render-src", str(src), "--render-dir", str(frames)]
    )
    return code, frames


class TestRender:
    def test_frames_written(self, rendered):
        code, frames = rendered
        assert code == 0
        names = sorted(p.name for p in frames.iterdir())
        assert names == [
            "frame_00000.ppm", "frame_00001.ppm", "frame_00002.ppm",
            "frame_00003.ppm", "frame_00004.ppm", "frame_00005.ppm",
            "frames.csv",
        ]
        img = parse_pnm((frames / "frame_00003.ppm").read_bytes())
        assert (img.height, img.width, img.channels) == (12, 10, 3)

    def test_index_lists_frames(self, rendered):
        _, frames = rendered
        lines = (frames / "frames.csv").read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "frame,file"
        assert lines[2] == "0,frame_00000.ppm"
        assert len(lines) == 8

    @pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
    def test_unusable_render_dir_writes_nothing(self, rendered, tmp_path, capsys, under):
        """The render directory is made before the motion and scores are
        written, so a render directory that cannot be made leaves neither."""
        _, frames = rendered
        root = frames.parent
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out, scores = tmp_path / "gen.mdsq", tmp_path / "s.csv"
        code = cli.main(
            ["generate", "--config", str(root / "run.cfg"),
             "--params", str(root / "model.mdnn"),
             "--features", str(root / "data" / "seq_0000.mdaf"),
             "--seed-motion", str(root / "data" / "seq_0000.mdsq"),
             "--out", str(out), "--scores", str(scores), "--frames", "6",
             "--render-src", str(root / "src.ppm"),
             "--render-dir", str(blocker / "frames" if under else blocker)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not scores.exists()

    @staticmethod
    def render_into(root, frames, count):
        return cli.main(
            ["generate", "--config", str(root / "run.cfg"),
             "--params", str(root / "model.mdnn"),
             "--features", str(root / "data" / "seq_0000.mdaf"),
             "--seed-motion", str(root / "data" / "seq_0000.mdsq"),
             "--out", str(frames.parent / "gen.mdsq"), "--frames", str(count),
             "--render-src", str(root / "src.ppm"), "--render-dir", str(frames)]
        )

    def test_shorter_rerender_removes_later_frames(self, rendered, tmp_path):
        """A 3-frame render into a directory that holds a 6-frame render
        leaves 3 frames and a 3-row index, and touches no other file."""
        _, frames = rendered
        again = tmp_path / "frames"
        shutil.copytree(frames, again)
        kept = ["frame_0003.ppm", "frame_00003.ppm.bak", "frame_x.ppm", "notes.txt"]
        for name in kept:
            (again / name).write_text("not a frame")
        (again / "frame_00009.ppm").mkdir()
        assert self.render_into(frames.parent, again, 3) == 0
        names = sorted(p.name for p in again.iterdir())
        assert names == sorted(
            ["frame_00000.ppm", "frame_00001.ppm", "frame_00002.ppm",
             "frame_00009.ppm", "frames.csv", *kept])
        lines = (again / "frames.csv").read_text().splitlines()
        assert lines[2:] == ["0,frame_00000.ppm", "1,frame_00001.ppm", "2,frame_00002.ppm"]
        for i in range(3):
            name = f"frame_{i:05d}.ppm"
            assert (again / name).read_bytes() == (frames / name).read_bytes()

    def test_failed_rerender_leaves_no_index(self, rendered, tmp_path, capsys):
        """A render that fails part-way leaves no frames.csv over a mix of
        new and old frames."""
        _, frames = rendered
        again = tmp_path / "frames"
        shutil.copytree(frames, again)
        (again / "frame_00002.ppm").unlink()
        (again / "frame_00002.ppm").mkdir()
        assert self.render_into(frames.parent, again, 6) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (again / "frames.csv").exists()

    def test_failed_worker_exits_like_a_serial_render(self, rendered, tmp_path, capsys,
                                                      monkeypatch):
        """A frame write that fails in a forked worker's chunk ends the run
        the way it ends a one-process run: exit 2 with the same message and
        no frames.csv, with no child process left behind."""
        _, frames = rendered
        write = cli.write_pnm_file

        def failing_write(path, frame):
            if Path(path).name == cli._frame_name(6):
                raise OSError(errno.EIO, "injected write failure", str(path))
            return write(path, frame)

        monkeypatch.setattr(cli, "write_pnm_file", failing_write)
        outcomes = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            assert cli._worker_count(8) == len(cores)  # frame 6 is in the child's chunk
            again = tmp_path / f"frames{len(cores)}"
            code = self.render_into(frames.parent, again, 8)
            err = capsys.readouterr().err.replace(str(again), "DIR")
            assert not (again / "frames.csv").exists()
            outcomes.append((code, err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (2, "error: [Errno 5] injected write failure: "
                                  f"'{Path('DIR') / cli._frame_name(6)}'\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unreadable_worker_report_is_a_clean_error(self, rendered, tmp_path, capsys,
                                                       monkeypatch):
        """Two forked workers fail and send only the first 7 bytes of their
        pickled OSError: the run ends with exit 2 and an error naming the
        first, once every worker has been waited for."""
        _, frames = rendered
        write = cli.write_pnm_file

        def failing_write(path, frame):
            if int(Path(path).name[len("frame_"):-len(".ppm")]) >= 4:  # the children's
                dumps = pickle.dumps
                pickle.dumps = lambda obj: dumps(obj)[:7]  # in the child only
                raise OSError(errno.EIO, "injected write failure", str(path))
            return write(path, frame)

        monkeypatch.setattr(cli, "write_pnm_file", failing_write)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert cli._worker_count(12) == 3
        code = self.render_into(frames.parent, tmp_path / "frames", 12)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: render worker ")
        assert err.endswith(" ended with exit code 1 and an unreadable error report\n")
        assert not (tmp_path / "frames" / "frames.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def reports(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("metrics")
    ref = root / "ref"
    assert cli.main(
        ["synth-data", "--config", str(pipeline.cfg),
         "--out-dir", str(ref), "--seed", "7"]
    ) == 0
    out = root / "report"
    code = cli.main(
        ["metrics", "--config", str(pipeline.cfg),
         "--generated", str(pipeline.data), "--reference", str(ref),
         "--features", str(pipeline.data), "--out-dir", str(out)]
    )
    return code, out


class TestMetrics:
    def test_summary(self, reports):
        code, out = reports
        assert code == 0
        text = (out / "summary.txt").read_text()
        bas = stdout_value(text, "bas")
        assert 0.0 <= bas <= 1.0
        assert stdout_value(text, "diversity_generated") > 0
        assert stdout_value(text, "diversity_reference") > 0
        assert stdout_value(text, "frechet") >= 0
        assert stdout_value(text, "generated") == 4

    def test_per_sequence_rows(self, reports):
        _, out = reports
        rows = data_lines(out / "per_sequence.csv")
        assert rows[0] == "sequence,file,bas,gesture_beats,audio_beats"
        assert len(rows) == 5
        assert rows[1].split(",")[1] == "seq_0000.mdsq"

    def test_velocity_curves(self, reports):
        _, out = reports
        rows = data_lines(out / "velocity_curves.csv")
        assert rows[0] == "sequence,frame,speed,smoothed,is_beat"
        assert len(rows) == 1 + 4 * 11  # M=12 gives 11 speed samples

    def test_reference_vs_itself_zero_frechet(self, pipeline, tmp_path, capsys):
        code = cli.main(
            ["metrics", "--generated", str(pipeline.data),
             "--reference", str(pipeline.data),
             "--features", str(pipeline.data), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert stdout_value(out, "frechet") < 1e-6

    def test_single_feature_file_broadcasts(self, pipeline, tmp_path):
        code = cli.main(
            ["metrics", "--generated", str(pipeline.data),
             "--reference", str(pipeline.data),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 0

    def test_single_feature_file_is_read_once(self, pipeline, tmp_path, monkeypatch):
        reads = []
        read = formats.read_audio_features
        monkeypatch.setattr(formats, "read_audio_features",
                            lambda path: reads.append(path) or read(path))
        features = pipeline.data / "seq_0000.mdaf"
        code = cli.main(
            ["metrics", "--generated", str(pipeline.data),
             "--reference", str(pipeline.data),
             "--features", str(features), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert reads == [features]
        assert len(data_lines(tmp_path / "per_sequence.csv")) == 5

    def test_feature_count_mismatch(self, pipeline, tmp_path):
        gen = tmp_path / "gen"
        gen.mkdir()
        for name in ("seq_0000", "seq_0001"):
            (gen / f"{name}.mdsq").write_bytes(
                (pipeline.data / f"{name}.mdsq").read_bytes()
            )
        code = cli.main(
            ["metrics", "--generated", str(gen),
             "--reference", str(pipeline.data),
             "--features", str(pipeline.data), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_empty_generated_dir(self, pipeline, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli.main(
            ["metrics", "--generated", str(empty),
             "--reference", str(pipeline.data),
             "--features", str(pipeline.data), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("generated,reference", [
        ("WN", "WW"), ("WW", "WN"), ("WW", "NN"),
    ], ids=["generated", "reference", "across"])
    def test_mixed_channel_counts_refused(self, pipeline, tmp_path, capsys,
                                          generated, reference):
        # W: a k = 2, n = 2 sequence (8 channels); N: a k = 1, n = 2 one (4)
        wide = formats.read_sequence(pipeline.data / "seq_0000.mdsq")
        seqs = {"W": wide, "N": MotionSequence(wide.frames[:, :4], wide.fps)}
        dirs = {"generated": generated, "reference": reference}
        for name, layout in dirs.items():
            dirs[name] = tmp_path / name
            dirs[name].mkdir()
            for i, kind in enumerate(layout):
                formats.write_sequence(dirs[name] / f"{i}.mdsq", seqs[kind])
        report = tmp_path / "report"
        code = cli.main(
            ["metrics", "--generated", str(dirs["generated"]),
             "--reference", str(dirs["reference"]),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--out-dir", str(report)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4, 8" in err
        assert not report.exists()

    @pytest.mark.parametrize("refused", ["generated", "reference", "features"])
    def test_refused_run_leaves_no_report_dir(self, pipeline, tmp_path, refused):
        empty = tmp_path / "empty"
        empty.mkdir()
        inputs = {name: pipeline.data for name in ("generated", "reference", "features")}
        inputs[refused] = empty
        report = tmp_path / "report"
        code = cli.main(
            ["metrics", "--out-dir", str(report)]
            + [arg for name, path in inputs.items() for arg in (f"--{name}", str(path))]
        )
        assert code == 2
        assert not report.exists()


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    rate = 8000
    samples = np.zeros(3 * rate)
    clicks = np.arange(0.25, 3.0, 0.5)
    samples[(clicks * rate).astype(int)] = 0.9
    path = tmp_path_factory.mktemp("beats") / "clicks.wav"
    path.write_bytes(write_wav(AudioClip(samples, rate)))
    return path, clicks


class TestBeats:
    def test_detects_click_times(self, wav_path, tmp_path, capsys):
        path, clicks = wav_path
        out = tmp_path / "beats.csv"
        code = cli.main(["beats", "--wav", str(path), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "beat,time_s"
        times = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert times.size == clicks.size
        assert np.max(np.abs(times - clicks)) < 0.05
        assert "6 beats" in capsys.readouterr().out

    def test_features_output(self, wav_path, tmp_path):
        path, _ = wav_path
        feat = tmp_path / "clicks.mdaf"
        code = cli.main(
            ["beats", "--wav", str(path), "--out", str(tmp_path / "b.csv"),
             "--features", str(feat), "--fps", "25", "--channels", "4"]
        )
        assert code == 0
        cond = formats.read_audio_features(feat)
        assert cond.n_frames == 75
        assert cond.n_channels == 4
        assert cond.beats.size == 6
        assert 0.5 < cond.features.max() <= 1.0

    def test_more_channels_than_frames(self, wav_path, tmp_path):
        path, _ = wav_path
        feat = tmp_path / "clicks.mdaf"
        code = cli.main(
            ["beats", "--wav", str(path), "--out", str(tmp_path / "b.csv"),
             "--features", str(feat), "--fps", "25", "--channels", "100"]
        )
        assert code == 0
        f = formats.read_audio_features(feat).features
        assert f.shape == (75, 100)
        assert not f[:, 75:].any()  # lags past the clip's 75 frames
        assert np.array_equal(f[74:, 74], f[:1, 0])

    @pytest.mark.parametrize("flag,value", [("--channels", "-1"), ("--channels", "0"),
                                            ("--fps", "0"), ("--fps", "-3"),
                                            ("--ratio", "nan"), ("--ratio", "inf"),
                                            ("--ratio", "0"), ("--ratio", "-1")])
    def test_bad_fps_or_channels_writes_nothing(self, wav_path, tmp_path, capsys,
                                                flag, value):
        path, _ = wav_path
        out, feat = tmp_path / "b.csv", tmp_path / "clicks.mdaf"
        assert cli.main(
            ["beats", "--wav", str(path), "--out", str(out), "--features", str(feat),
             flag, value]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not feat.exists()

    def test_hop_leaving_one_envelope_frame_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "one_second.wav"
        path.write_bytes(write_wav(AudioClip(np.zeros(8000), 8000)))
        out, feat = tmp_path / "b.csv", tmp_path / "f.mdaf"
        assert cli.main(
            ["beats", "--wav", str(path), "--out", str(out), "--features", str(feat),
             "--hop", "9000"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--hop 9000" in err
        assert not out.exists() and not feat.exists()

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"definitely not RIFF data")
        assert cli.main(
            ["beats", "--wav", str(path), "--out", str(tmp_path / "b.csv")]
        ) == 3

    def test_too_short_for_window(self, tmp_path):
        path = tmp_path / "tiny.wav"
        path.write_bytes(write_wav(AudioClip(np.zeros(512), 8000)))
        assert cli.main(
            ["beats", "--wav", str(path), "--out", str(tmp_path / "b.csv")]
        ) == 2


class TestVerify:
    def test_accepts_suite_outputs(self, pipeline, tmp_path, capsys):
        ppm = tmp_path / "img.ppm"
        ppm.write_bytes(
            write_pnm(from_bytes_array(np.zeros((2, 2, 3), dtype=np.uint8)))
        )
        paths = [
            str(pipeline.model),
            str(pipeline.data / "seq_0000.mdsq"),
            str(pipeline.data / "seq_0000.mdaf"),
            str(ppm),
        ]
        assert cli.main(["verify", *paths]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok:") == 4
        assert "denoiser" in out and "motion" in out and "features" in out

    def test_flags_corrupt_file(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.mdsq"
        bad.write_bytes((pipeline.data / "seq_0000.mdsq").read_bytes()[:-2])
        code = cli.main(["verify", str(pipeline.model), str(bad)])
        assert code == 3
        out = capsys.readouterr().out
        assert out.count(": ok:") == 1
        assert out.count("FAILED") == 1

    def test_huge_meta_is_parse_error(self, pipeline, tmp_path, capsys):
        # meta row [C, C_a, hidden, embed] starts at byte 16; a hidden width
        # of 2**50 must be refused by the layer shapes, not allocated
        data = pipeline.model.read_bytes()
        bad = tmp_path / "bad.mdnn"
        bad.write_bytes(data[:24] + struct.pack("<f", 2.0**50) + data[28:])
        assert cli.main(["verify", str(bad)]) == 3
        assert "FAILED" in capsys.readouterr().out

    def test_missing_path(self, tmp_path, capsys):
        assert cli.main(["verify", str(tmp_path / "ghost.mdsq")]) == 3
        assert "FAILED" in capsys.readouterr().out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["warp", "--out", "x.ppm"]) == 2
        capsys.readouterr()
