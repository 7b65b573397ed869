import os
import stat
import struct
import threading
import warnings

import numpy as np
import pytest

from mdgesture import cli, diffusion, fileio
from mdgesture.audio import AudioCondition, synth_condition
from mdgesture.diffusion import MlpDenoiser
from mdgesture.errors import FormatError, InvalidArgumentError
from mdgesture.flow import FlowField
from mdgesture.formats import (
    audio_features_from_bytes,
    audio_features_to_bytes,
    denoiser_from_bytes,
    denoiser_to_bytes,
    flow_from_bytes,
    flow_to_bytes,
    pairs_from_text,
    pairs_to_text,
    read_denoiser,
    read_sequence,
    sequence_from_bytes,
    sequence_to_bytes,
    transform_from_bytes,
    transform_to_bytes,
    verify_file,
    write_denoiser,
    write_sequence,
)
from mdgesture.motion import MotionSequence
from mdgesture.ppm import RasterImage, write_pnm_file
from mdgesture.tps import normalized_lattice, solve_tps


def f32_clean(rng, shape, scale=1.0):
    return (scale * rng.normal(size=shape)).astype(np.float32).astype(np.float64)


@pytest.fixture
def transform_bytes(rng):
    src = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
    dst = src + 0.1 * rng.normal(size=src.shape)
    return transform_to_bytes(solve_tps(src, dst))


@pytest.fixture
def flow_bytes():
    return flow_to_bytes(FlowField(normalized_lattice(9, 9)))


@pytest.fixture
def sequence_bytes(rng):
    return sequence_to_bytes(MotionSequence(f32_clean(rng, (12, 4))))


@pytest.fixture
def features_bytes():
    return audio_features_to_bytes(synth_condition([0.2, 0.6], 30, 25, 3, seed=1))


@pytest.fixture
def denoiser_bytes():
    return denoiser_to_bytes(MlpDenoiser(4, 3, hidden=8, embed=4, seed=2))


class TestRoundTrips:
    def test_transform_file_level(self, transform_bytes):
        t = transform_from_bytes(transform_bytes)
        assert transform_to_bytes(t) == transform_bytes

    def test_transform_object_level(self, rng):
        from mdgesture.tps import TpsTransform

        t = TpsTransform(
            f32_clean(rng, (2, 3)), f32_clean(rng, (3, 2)), f32_clean(rng, (3, 2))
        )
        back = transform_from_bytes(transform_to_bytes(t))
        assert np.array_equal(back.affine, t.affine)
        assert np.array_equal(back.weights, t.weights)
        assert np.array_equal(back.controls_d, t.controls_d)

    def test_flow_file_level(self, flow_bytes):
        assert flow_to_bytes(flow_from_bytes(flow_bytes)) == flow_bytes

    def test_flow_with_invalid_pixels(self):
        fmap = FlowField(normalized_lattice(5, 7)).map.copy()
        fmap[0, 0] = (2.0, 2.0)
        data = flow_to_bytes(FlowField(fmap))
        back = flow_from_bytes(data)
        assert not back.valid_mask[0, 0]
        assert flow_to_bytes(back) == data

    def test_sequence_file_level(self, sequence_bytes):
        assert sequence_to_bytes(sequence_from_bytes(sequence_bytes)) == (
            sequence_bytes
        )

    def test_sequence_object_level(self, rng, tmp_path):
        from fractions import Fraction

        seq = MotionSequence(f32_clean(rng, (9, 6)), Fraction(30000, 1001))
        path = tmp_path / "seq.mdsq"
        write_sequence(path, seq)
        back = read_sequence(path)
        assert np.array_equal(back.frames, seq.frames)
        assert back.fps == seq.fps

    def test_features_file_level(self, features_bytes):
        assert audio_features_to_bytes(
            audio_features_from_bytes(features_bytes)
        ) == features_bytes

    def test_features_beats_exact(self):
        beats = [0.123456789012345, 0.9999999999]
        cond = synth_condition(beats, 30, 25, 2, seed=0)
        back = audio_features_from_bytes(audio_features_to_bytes(cond))
        assert np.array_equal(back.beats, cond.beats)

    def test_denoiser_file_level(self, denoiser_bytes):
        assert denoiser_to_bytes(denoiser_from_bytes(denoiser_bytes)) == (
            denoiser_bytes
        )

    def test_denoiser_weights_survive(self, denoiser_bytes):
        model = denoiser_from_bytes(denoiser_bytes)
        again = denoiser_from_bytes(denoiser_to_bytes(model))
        for name in model.PARAM_NAMES:
            assert np.array_equal(
                model.parameters()[name], again.parameters()[name]
            )

    def test_denoiser_loading_draws_no_weights(self, rng, tmp_path, monkeypatch):
        model = MlpDenoiser(4, 3, hidden=8, embed=4, seed=2)
        model.set_flat(f32_clean(rng, model.get_flat().shape))
        write_denoiser(tmp_path / "m.mdnn", model)

        def refuse(*seed):
            raise AssertionError(f"generator{seed} drawn while loading")

        monkeypatch.setattr(diffusion, "generator", refuse)
        loaded = read_denoiser(tmp_path / "m.mdnn")
        assert np.array_equal(loaded.get_flat(), model.get_flat())
        assert denoiser_to_bytes(loaded) == (tmp_path / "m.mdnn").read_bytes()

    def test_float32_overflow_rejected(self):
        seq = MotionSequence(np.full((2, 2), 1e39))
        with pytest.raises(InvalidArgumentError):
            sequence_to_bytes(seq)


def u32_set(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<I", value) + data[offset + 4 :]


def u32_get(data: bytes, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


def binary_mutants(data: bytes, float_offset: int) -> list[bytes]:
    """Ten deterministic corruptions of a binary artifact."""
    nan32 = struct.pack("<f", float("nan"))
    return [
        bytes([data[0] ^ 0xFF]) + data[1:],              # broken magic
        data[:4],                                        # header cut off
        data[: len(data) // 2],                          # body halved
        data[:-1],                                       # final byte missing
        data + b"\x00",                                  # trailing byte
        u32_set(data, 4, u32_get(data, 4) + 1),          # dimension lie (+1)
        u32_set(data, 4, 0),                             # zero dimension
        u32_set(data, 4, 0xF0000000),                    # absurd dimension
        data[:float_offset] + nan32 + data[float_offset + 4 :],  # NaN payload
        data[:4] + data[4:][::-1],                       # body reversed
    ]


FLOAT_OFFSETS = {
    "transform": 8,    # first affine entry
    "flow": 12,        # first map entry
    "sequence": 20,    # first frame entry
    "denoiser": 16,    # first meta entry
}


class TestMutants:
    def check_all_rejected(self, data, reader, float_offset):
        muts = binary_mutants(data, float_offset)
        assert len(muts) == 10
        for i, mut in enumerate(muts):
            with pytest.raises(FormatError):
                reader(mut)

    def test_transform_mutants(self, transform_bytes):
        self.check_all_rejected(
            transform_bytes, transform_from_bytes, FLOAT_OFFSETS["transform"]
        )

    def test_flow_mutants(self, flow_bytes):
        self.check_all_rejected(flow_bytes, flow_from_bytes, FLOAT_OFFSETS["flow"])

    def test_flow_mask_byte_corruption(self, flow_bytes):
        data = flow_bytes[:-1] + b"\x07"
        with pytest.raises(FormatError, match="mask"):
            flow_from_bytes(data)
        flipped = flow_bytes[:-1] + bytes([flow_bytes[-1] ^ 1])
        with pytest.raises(FormatError, match="mask"):
            flow_from_bytes(flipped)

    def test_sequence_mutants(self, sequence_bytes):
        self.check_all_rejected(
            sequence_bytes, sequence_from_bytes, FLOAT_OFFSETS["sequence"]
        )

    def test_sequence_zero_fps(self, sequence_bytes):
        with pytest.raises(FormatError, match="fps"):
            sequence_from_bytes(u32_set(sequence_bytes, 16, 0))

    def test_signalling_nan_is_clean_error(self, sequence_bytes):
        data = u32_set(sequence_bytes, FLOAT_OFFSETS["sequence"], 0x7F800001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite"):
                sequence_from_bytes(data)

    def test_features_mutants(self, features_bytes):
        # beats are f64, so the NaN lands in the first beat instead
        nan64 = struct.pack("<d", float("nan"))
        muts = binary_mutants(features_bytes, 24)[:8]
        muts.append(features_bytes[:24] + nan64 + features_bytes[32:])
        muts.append(features_bytes[:4] + features_bytes[4:][::-1])
        assert len(muts) == 10
        for mut in muts:
            with pytest.raises(FormatError):
                audio_features_from_bytes(mut)

    def test_features_unsorted_beats(self):
        cond = synth_condition([0.2, 0.6], 30, 25, 2, seed=1)
        data = audio_features_to_bytes(cond)
        b0 = data[24:32]
        b1 = data[32:40]
        with pytest.raises(FormatError):
            audio_features_from_bytes(data[:24] + b1 + b0 + data[40:])

    def test_denoiser_mutants(self, denoiser_bytes):
        self.check_all_rejected(
            denoiser_bytes, denoiser_from_bytes, FLOAT_OFFSETS["denoiser"]
        )

    def test_denoiser_shape_lie(self, denoiser_bytes):
        # swap w1's row/col header fields: sizes match, shapes do not
        rows_off = 4 + 4 + 8 + 16  # magic, count, meta dims, meta data
        rows = u32_get(denoiser_bytes, rows_off)
        cols = u32_get(denoiser_bytes, rows_off + 4)
        data = u32_set(denoiser_bytes, rows_off, cols)
        data = u32_set(data, rows_off + 4, rows)
        with pytest.raises(FormatError, match="w1"):
            denoiser_from_bytes(data)

    def test_denoiser_fractional_meta(self, denoiser_bytes):
        data = denoiser_bytes[:16] + struct.pack("<f", 4.5) + denoiser_bytes[20:]
        with pytest.raises(FormatError, match="meta"):
            denoiser_from_bytes(data)


class TestPairsCsv:
    def test_roundtrip(self, rng):
        src = rng.normal(size=(5, 2))
        dst = rng.normal(size=(5, 2))
        text = pairs_to_text(src, dst, seed=7)
        assert text.startswith("# seed=7\n")
        back_src, back_dst = pairs_from_text(text)
        assert np.array_equal(back_src, src)
        assert np.array_equal(back_dst, dst)

    def test_header_required(self):
        with pytest.raises(FormatError, match="header"):
            pairs_from_text("0.1,0.2,0.3,0.4\n")

    def test_bad_float_names_line(self):
        text = "src_x,src_y,dst_x,dst_y\n0.1,oops,0.3,0.4\n"
        with pytest.raises(FormatError, match="line 2"):
            pairs_from_text(text)

    def test_wrong_arity(self):
        with pytest.raises(FormatError, match="4 comma"):
            pairs_from_text("src_x,src_y,dst_x,dst_y\n0.1,0.2,0.3\n")

    def test_empty_rows(self):
        with pytest.raises(FormatError, match="no pair rows"):
            pairs_from_text("src_x,src_y,dst_x,dst_y\n")


class TestVerifyFile:
    def test_reports_all_kinds(self, tmp_path, transform_bytes, flow_bytes,
                               sequence_bytes, features_bytes, denoiser_bytes):
        from mdgesture.audio import AudioClip, write_wav
        from mdgesture.ppm import RasterImage, write_pnm

        cases = {
            "t.mdtp": (transform_bytes, "transform"),
            "f.mdfl": (flow_bytes, "flow"),
            "s.mdsq": (sequence_bytes, "motion"),
            "a.mdaf": (features_bytes, "features"),
            "d.mdnn": (denoiser_bytes, "denoiser"),
            "i.ppm": (write_pnm(RasterImage(np.zeros((2, 2, 3)))), "ppm"),
            "g.pgm": (write_pnm(RasterImage(np.zeros((2, 2, 1)))), "pgm"),
            "w.wav": (write_wav(AudioClip(np.zeros(100), 8000)), "wav"),
        }
        for name, (data, kind) in cases.items():
            path = tmp_path / name
            path.write_bytes(data)
            got_kind, info = verify_file(path)
            assert got_kind == kind
            assert info

    def test_rejects_unknown(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE not an artifact")
        with pytest.raises(FormatError, match="unrecognized"):
            verify_file(path)

    def test_rejects_corrupt(self, tmp_path, sequence_bytes):
        path = tmp_path / "bad.mdsq"
        path.write_bytes(sequence_bytes[:-2])
        with pytest.raises(FormatError):
            verify_file(path)


class TestAtomicWrite:
    WRITERS = {
        "sequence": lambda path, v: write_sequence(
            path, MotionSequence(np.full((2, 2), v))),
        "pnm": lambda path, v: write_pnm_file(
            path, RasterImage(np.full((2, 2), v))),
        "text": lambda path, v: cli._write_text(path, [str(v)]),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, kind):
        write = self.WRITERS[kind]
        path = tmp_path / "artifact"
        write(path, 0.0)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(fileio.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write(path, 1.0)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "artifact"
        fileio.write_atomic(path, b"old contents")
        fileio.write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_fifo_written_in_place(self, tmp_path):
        # replacing a FIFO (or /dev/null) with a regular file would change it
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        fileio.write_atomic(fifo, b"frames")
        reader.join(timeout=10)
        assert got == [b"frames"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
