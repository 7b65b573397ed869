import struct
from types import SimpleNamespace

import numpy as np
import pytest

from mdgesture import cli, formats
from mdgesture.audio import AudioClip, AudioCondition, write_wav
from mdgesture.diffusion import MlpDenoiser
from mdgesture.motion import MotionSequence
from mdgesture.ppm import from_bytes_array, parse_pnm, write_pnm
from mdgesture.tps import TpsTransform, identity_transform

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

    def test_sequences_shorter_than_window(self, pipeline, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(TOY_CFG.replace("m = 12", "m = 200"))
        assert cli.main(
            ["train", "--config", str(cfg), "--data", str(pipeline.data),
             "--out", str(tmp_path / "m")]
        ) == 2


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

    def test_seed_motion_channel_mismatch(self, pipeline, tmp_path):
        bad = tmp_path / "bad.mdsq"
        formats.write_sequence(bad, MotionSequence(np.zeros((3, 4))))
        code = cli.main(
            ["generate", "--config", str(pipeline.cfg),
             "--params", str(pipeline.model),
             "--features", str(pipeline.data / "seq_0000.mdaf"),
             "--seed-motion", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == 2

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
