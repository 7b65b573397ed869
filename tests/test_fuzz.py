"""Property-based fuzzing of every artifact reader.

Each case starts from a valid encoding and truncates it, extends it, or
overwrites bytes or aligned 32-bit words. Whatever comes out, the reader
must either return an object or raise FormatError: any other exception
(or an allocation the file's length does not justify) is a reader bug.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgesture.audio import AudioClip, read_wav, synth_condition, write_wav
from mdgesture.diffusion import MlpDenoiser
from mdgesture.errors import FormatError
from mdgesture.flow import FlowField
from mdgesture.formats import (
    audio_features_from_bytes,
    audio_features_to_bytes,
    denoiser_from_bytes,
    denoiser_to_bytes,
    flow_from_bytes,
    flow_to_bytes,
    sequence_from_bytes,
    sequence_to_bytes,
    transform_from_bytes,
    transform_to_bytes,
)
from mdgesture.motion import MotionSequence
from mdgesture.ppm import RasterImage, parse_pnm, write_pnm
from mdgesture.tps import normalized_lattice, solve_tps

_PTS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])

# name -> (valid encoding, reader); small artifacts so that most mutations
# land in headers and size fields
CODECS = {
    "transform": (transform_to_bytes(solve_tps(_PTS + 0.1, _PTS)),
                  transform_from_bytes),
    "flow": (flow_to_bytes(FlowField(normalized_lattice(3, 2))), flow_from_bytes),
    "sequence": (sequence_to_bytes(MotionSequence(np.arange(6.0).reshape(3, 2))),
                 sequence_from_bytes),
    "features": (audio_features_to_bytes(synth_condition([0.1], 5, 25, 2, seed=1)),
                 audio_features_from_bytes),
    "denoiser": (denoiser_to_bytes(MlpDenoiser(2, 1, hidden=3, embed=2)),
                 denoiser_from_bytes),
    "ppm": (write_pnm(RasterImage(np.full((2, 3, 3), 0.5))), parse_pnm),
    "pgm": (write_pnm(RasterImage(np.full((3, 2, 1), 0.5))), parse_pnm),
    "wav": (write_wav(AudioClip(np.linspace(-0.5, 0.5, 6), 8000)), read_wav),
}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def mutants(draw, data: bytes) -> bytes:
    op = draw(st.sampled_from(["truncate", "extend", "bytes", "u32", "f32"]))
    if op == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if op == "extend":
        return data + draw(st.binary(min_size=1, max_size=16))
    buf = bytearray(data)
    if op == "bytes":
        for _ in range(draw(st.integers(1, 4))):
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
        return bytes(buf)
    # whole little-endian words, where size fields and float payloads live;
    # the MDNN meta row stores its sizes as floats, hence the powers of two
    pos = 4 * draw(st.integers(0, len(buf) // 4 - 1))
    if op == "u32":
        value = draw(st.sampled_from([0, 1, 2**31, 2**32 - 1])
                     | st.integers(0, 2**32 - 1))
        word = struct.pack("<I", value)
    else:
        value = draw(st.floats(width=32)
                     | st.integers(0, 100).map(lambda e: 2.0**e))
        word = struct.pack("<f", value)
    buf[pos : pos + 4] = word
    return bytes(buf)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_valid_encoding_parses(name):
    data, reader = CODECS[name]
    reader(data)


@pytest.mark.parametrize("name", sorted(CODECS))
@FUZZ
@given(data=st.data())
def test_mutant_parses_or_raises_format_error(name, data):
    valid, reader = CODECS[name]
    mutant = data.draw(mutants(valid))
    try:
        reader(mutant)
    except FormatError:
        pass
