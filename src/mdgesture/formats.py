"""Binary artifact codecs and the artifact verifier.

All five container formats are little-endian with a 4-byte magic:

  MDTP  TPS transform: u32 N, f32 affine(2x3), weights(Nx2), controls(Nx2)
  MDFL  flow field: u32 h, u32 w, f32 map(h*w*2) row-major, mask bytes 0/1
  MDSQ  motion: u32 M, u32 C, u32 fps_num, u32 fps_den, f32 frames(M*C)
  MDAF  features: u32 M, u32 C_a, u32 fps_num, u32 fps_den, u32 beat_count,
        f64 beats, f32 features(M*C_a)
  MDNN  denoiser: u32 layer_count=5, then per layer u32 rows, u32 cols,
        f32 data; layer 0 is a 1x4 meta row [C, C_a, hidden, embed]

Readers validate exact length, finite values, and type invariants, and
raise FormatError on any deviation; writers refuse values that do not
fit float32. Keypoint pair lists travel as CSV with the header
src_x,src_y,dst_x,dst_y.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from .audio import AudioCondition, read_wav
from .diffusion import MlpDenoiser
from .errors import FormatError, InvalidArgumentError
from .fileio import F32_MAX, MAX_U32, write_atomic
from .flow import FlowField
from .motion import MotionSequence
from .ppm import parse_pnm
from .tps import TpsTransform

MAGIC_TRANSFORM = b"MDTP"
MAGIC_FLOW = b"MDFL"
MAGIC_SEQUENCE = b"MDSQ"
MAGIC_FEATURES = b"MDAF"
MAGIC_DENOISER = b"MDNN"

PAIRS_HEADER = "src_x,src_y,dst_x,dst_y"


class _Cursor:
    """Sequential reader over bytes that fails loudly on truncation."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated {self.what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, count: int, what: str, dtype: str = "<f4") -> np.ndarray:
        # checked before the cast: casting a signalling NaN warns
        arr = np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype=dtype)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite values in {what}")
        return arr.astype(np.float64)

    def expect_magic(self, magic: bytes):
        if self.take(4) != magic:
            raise FormatError(f"bad magic, expected {magic.decode('latin-1')}")

    def done(self):
        if self.pos != len(self.data):
            raise FormatError(f"trailing bytes after {self.what}")


def _f32_bytes(values, what: str) -> bytes:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.abs(arr) <= F32_MAX):  # NaN fails the test too
        raise InvalidArgumentError(f"{what} does not fit float32")
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


def _as_format_error(what: str, make, *args):
    """make(*args), where a value the type rejects in an otherwise
    well-formed container is a FormatError."""
    try:
        return make(*args)
    except ValueError as e:  # InvalidArgumentError included
        raise FormatError(f"invalid {what}: {e}") from e


def _frames_header(magic: bytes, frames, fps) -> bytes:
    """MDSQ/MDAF lead: magic, u32 M, u32 C, u32 fps_num, u32 fps_den."""
    fps = Fraction(fps)
    return magic + struct.pack("<4I", *frames.shape, fps.numerator, fps.denominator)


def _read_frames_header(cur: _Cursor, magic: bytes, what: str):
    """Read and check a _frames_header: returns (M, C, fps)."""
    cur.expect_magic(magic)
    m, c, num, den = struct.unpack("<4I", cur.take(16))
    if m < 1 or c < 1:
        raise FormatError(f"{what} dimensions must be positive")
    if num < 1 or den < 1:
        raise FormatError("fps fields must be positive")
    return m, c, Fraction(num, den)


# -- MDTP ---------------------------------------------------------------

def transform_to_bytes(t: TpsTransform) -> bytes:
    n = t.controls_d.shape[0]
    return (
        MAGIC_TRANSFORM
        + _u32(n)
        + _f32_bytes(t.affine, "affine")
        + _f32_bytes(t.weights, "weights")
        + _f32_bytes(t.controls_d, "controls")
    )


def transform_from_bytes(data: bytes) -> TpsTransform:
    cur = _Cursor(data, "transform file")
    cur.expect_magic(MAGIC_TRANSFORM)
    n = cur.u32()
    affine = cur.floats(6, "affine").reshape(2, 3)
    weights = cur.floats(2 * n, "weights").reshape(n, 2)
    controls = cur.floats(2 * n, "controls").reshape(n, 2)
    cur.done()
    return _as_format_error("transform", TpsTransform, affine, weights, controls)


# -- MDFL ---------------------------------------------------------------

def flow_to_bytes(field: FlowField) -> bytes:
    h, w = field.map.shape[:2]
    mask = field.valid_mask.astype(np.uint8)
    return (
        MAGIC_FLOW
        + _u32(h)
        + _u32(w)
        + _f32_bytes(field.map, "flow map")
        + mask.tobytes()
    )


def flow_from_bytes(data: bytes) -> FlowField:
    cur = _Cursor(data, "flow file")
    cur.expect_magic(MAGIC_FLOW)
    h, w = cur.u32(), cur.u32()
    if h < 1 or w < 1:
        raise FormatError("flow dimensions must be positive")
    fmap = cur.floats(h * w * 2, "flow map").reshape(h, w, 2)
    mask_bytes = np.frombuffer(cur.take(h * w), dtype=np.uint8)
    cur.done()
    if not np.all((mask_bytes == 0) | (mask_bytes == 1)):
        raise FormatError("mask bytes must be 0 or 1")
    field = _as_format_error("flow", FlowField, fmap)
    if not np.array_equal(
        field.valid_mask, mask_bytes.reshape(h, w).astype(bool)
    ):
        raise FormatError("stored mask does not match the flow map")
    return field


# -- MDSQ ---------------------------------------------------------------

def sequence_to_bytes(seq: MotionSequence) -> bytes:
    return (_frames_header(MAGIC_SEQUENCE, seq.frames, seq.fps)
            + _f32_bytes(seq.frames, "frames"))


def sequence_from_bytes(data: bytes) -> MotionSequence:
    cur = _Cursor(data, "motion file")
    m, c, fps = _read_frames_header(cur, MAGIC_SEQUENCE, "motion")
    frames = cur.floats(m * c, "frames").reshape(m, c)
    cur.done()
    return _as_format_error("motion", MotionSequence, frames, fps)


# -- MDAF ---------------------------------------------------------------

def audio_features_to_bytes(cond: AudioCondition) -> bytes:
    beats = np.ascontiguousarray(cond.beats, dtype="<f8")
    return (
        _frames_header(MAGIC_FEATURES, cond.features, cond.fps)
        + _u32(beats.size)
        + beats.tobytes()
        + _f32_bytes(cond.features, "features")
    )


def audio_features_from_bytes(data: bytes) -> AudioCondition:
    cur = _Cursor(data, "feature file")
    m, c_a, fps = _read_frames_header(cur, MAGIC_FEATURES, "feature")
    beats = cur.floats(cur.u32(), "beats", "<f8")
    features = cur.floats(m * c_a, "features").reshape(m, c_a)
    cur.done()
    return _as_format_error("features", AudioCondition, features, fps, beats)


# -- MDNN ---------------------------------------------------------------

def denoiser_to_bytes(model: MlpDenoiser) -> bytes:
    meta = np.array(
        [[model.n_channels, model.n_audio, model.hidden, model.embed]],
        dtype=np.float64,
    )
    # biases travel as 1-row layers
    layers = [meta, *map(np.atleast_2d, model.parameters().values())]
    out = [MAGIC_DENOISER, _u32(len(layers))]
    for layer in layers:
        out.append(_u32(layer.shape[0]))
        out.append(_u32(layer.shape[1]))
        out.append(_f32_bytes(layer, "layer data"))
    return b"".join(out)


def denoiser_from_bytes(data: bytes) -> MlpDenoiser:
    cur = _Cursor(data, "denoiser file")
    cur.expect_magic(MAGIC_DENOISER)
    n_layers = cur.u32()
    if n_layers != 5:
        raise FormatError("denoiser file must hold exactly 5 layers")
    layers = []
    for i in range(n_layers):
        rows, cols = cur.u32(), cur.u32()
        if rows < 1 or cols < 1:
            raise FormatError("layer dimensions must be positive")
        layers.append(cur.floats(rows * cols, f"layer {i}").reshape(rows, cols))
    cur.done()
    meta = layers[0]
    if meta.shape != (1, 4):
        raise FormatError("meta layer must be 1x4")
    if np.any(meta != np.rint(meta)) or np.any(meta < 1):
        raise FormatError("meta layer must hold positive integers")
    c, c_a, hidden, embed = (int(v) for v in meta[0])
    # shapes are checked before the model is built, so the file's own
    # length bounds every allocation the meta row asks for
    shapes = MlpDenoiser.param_shapes(c, c_a, hidden, embed)
    for (name, shape), layer in zip(shapes.items(), layers[1:]):
        expected = shape if len(shape) == 2 else (1, *shape)
        if layer.shape != expected:
            raise FormatError(f"layer {name} is {layer.shape}, expected {expected}")
    # seed None: no initial weights are drawn, the layers set every parameter
    model = _as_format_error("denoiser meta", MlpDenoiser, c, c_a, hidden, embed, None)
    model.set_flat(np.concatenate([layer.ravel() for layer in layers[1:]]))
    return model


# -- keypoint pair CSV --------------------------------------------------

def pairs_to_text(src, dst, seed=None) -> str:
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise InvalidArgumentError("src and dst must both be (N, 2)")
    lines = []
    if seed is not None:
        lines.append(f"# seed={int(seed)}")
    lines.append(PAIRS_HEADER)
    for (sx, sy), (dx, dy) in zip(src, dst):
        lines.append(",".join(repr(float(v)) for v in (sx, sy, dx, dy)))
    return "\n".join(lines) + "\n"


def pairs_from_text(text: str):
    src, dst = [], []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != PAIRS_HEADER:
                raise FormatError(
                    f"line {lineno}: expected header '{PAIRS_HEADER}'"
                )
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"line {lineno}: expected 4 comma-separated values")
        try:
            values = [float(p) for p in parts]
        except ValueError as e:
            raise FormatError(f"line {lineno}: {e}") from e
        src.append(values[:2])
        dst.append(values[2:])
    if not saw_header:
        raise FormatError("missing pair header")
    if not src:
        raise FormatError("no pair rows")
    return np.array(src), np.array(dst)


# -- file helpers -------------------------------------------------------

def _image_info(img) -> str:
    return f"{img.width}x{img.height}"


# leading bytes -> (kind, parser, one-line summary of the parsed object)
_READERS = {
    MAGIC_TRANSFORM: ("transform", transform_from_bytes,
                      lambda t: f"N={t.n_controls}"),
    MAGIC_FLOW: ("flow", flow_from_bytes, lambda f: (
        f"{f.width}x{f.height}, {int(f.valid_mask.sum())} valid")),
    MAGIC_SEQUENCE: ("motion", sequence_from_bytes, lambda s: (
        f"M={s.n_frames} C={s.n_channels} fps={s.fps}")),
    MAGIC_FEATURES: ("features", audio_features_from_bytes, lambda a: (
        f"M={a.n_frames} C_a={a.n_channels} beats={a.beats.size}")),
    MAGIC_DENOISER: ("denoiser", denoiser_from_bytes, lambda d: (
        f"C={d.n_channels} C_a={d.n_audio} hidden={d.hidden} embed={d.embed}")),
    b"P6": ("ppm", parse_pnm, _image_info),
    b"P5": ("pgm", parse_pnm, _image_info),
    b"RIFF": ("wav", read_wav, lambda c: (
        f"{c.samples.size} samples at {c.sample_rate} Hz")),
}


def read_transform(path) -> TpsTransform:
    return transform_from_bytes(Path(path).read_bytes())


def write_transform(path, t: TpsTransform):
    write_atomic(path, transform_to_bytes(t))


def read_flow(path) -> FlowField:
    return flow_from_bytes(Path(path).read_bytes())


def write_flow(path, field: FlowField):
    write_atomic(path, flow_to_bytes(field))


def read_sequence(path) -> MotionSequence:
    return sequence_from_bytes(Path(path).read_bytes())


def write_sequence(path, seq: MotionSequence):
    write_atomic(path, sequence_to_bytes(seq))


def read_audio_features(path) -> AudioCondition:
    return audio_features_from_bytes(Path(path).read_bytes())


def write_audio_features(path, cond: AudioCondition):
    write_atomic(path, audio_features_to_bytes(cond))


def read_denoiser(path) -> MlpDenoiser:
    return denoiser_from_bytes(Path(path).read_bytes())


def write_denoiser(path, model: MlpDenoiser):
    write_atomic(path, denoiser_to_bytes(model))


def verify_file(path) -> tuple[str, str]:
    """Parse any artifact at `path` and report (kind, summary).

    Raises FormatError when the file is truncated, corrupt, or of an
    unrecognized kind.
    """
    data = Path(path).read_bytes()
    for magic, (kind, parse, info) in _READERS.items():
        if data.startswith(magic):
            return kind, info(parse(data))
    raise FormatError("unrecognized artifact")
