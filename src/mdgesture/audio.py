"""Audio ingestion and per-frame conditioning features.

WAV decoding, spectral-flux onset envelopes, peak-picked beat times,
beat features (the onset envelope and its lags on the motion frames),
and a seeded synthetic condition generator for tests and toy datasets.
Heavy feature extractors (MFCC, chromagram, learned embeddings) are out
of scope; precomputed features are ingested from the binary feature
file instead.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, InvalidArgumentError
from .motion import gaussian_smooth
from .rng import AUDIO_TAG, generator

DEFAULT_WIN = 1024
DEFAULT_HOP = 256
MIN_BEAT_SPACING = 0.1
BLOCK_SAMPLES = 1 << 16  # analysis samples per block of `onset_envelope`


@dataclass(frozen=True)
class AudioClip:
    """Mono audio: samples in [-1, 1] plus the sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if s.size == 0:
            raise InvalidArgumentError("audio clip must hold at least one sample")
        lo, hi = s.min(), s.max()  # NaN and inf show in the extremes
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidArgumentError("audio samples must be finite")
        if hi > 1.0 or lo < -1.0:
            raise InvalidArgumentError("audio samples must lie in [-1, 1]")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise InvalidArgumentError("sample rate must be positive")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", rate)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class AudioCondition:
    """Per-frame conditioning features plus the beat times they imply.

    features is (M, C_a) at fps frames per second; beats are seconds,
    strictly increasing, inside the clip.
    """

    features: np.ndarray
    fps: Fraction
    beats: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise InvalidArgumentError("features must be a nonempty (M, C_a) matrix")
        if not np.all(np.isfinite(f)):
            raise InvalidArgumentError("features must be finite")
        fps = Fraction(self.fps)
        if fps <= 0:
            raise InvalidArgumentError("fps must be positive")
        b = np.asarray(self.beats, dtype=np.float64).reshape(-1)
        if b.size:
            if not np.all(np.isfinite(b)):
                raise InvalidArgumentError("beat times must be finite")
            if b[0] < 0.0 or np.any(np.diff(b) <= 0.0):
                raise InvalidArgumentError(
                    "beat times must be nonnegative and strictly increasing"
                )
            if b[-1] > f.shape[0] / float(fps):
                raise InvalidArgumentError("beat times must fall within the clip")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "fps", fps)
        object.__setattr__(self, "beats", b)

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def n_channels(self) -> int:
        return self.features.shape[1]


def read_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE container holding 16-bit PCM, mono or stereo.

    Stereo is averaged to mono; samples are scaled by 1/32768. Unknown
    chunks are skipped. Raises FormatError naming the offending chunk.
    The data chunk is read in place, so the one full-length array made
    is the float64 samples.
    """
    if len(data) < 12 or data[:4] != b"RIFF":
        raise FormatError("missing RIFF header")
    (riff_size,) = struct.unpack_from("<I", data, 4)
    if riff_size + 8 != len(data):
        raise FormatError("RIFF size field does not match the file length")
    if data[8:12] != b"WAVE":
        raise FormatError("missing WAVE form type")
    view = memoryview(data)
    pos = 12
    fmt = None
    raw = None
    while pos < len(data):
        if pos + 8 > len(data):
            raise FormatError("truncated chunk header")
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        name = cid.decode("latin-1")
        if len(body) < size:
            raise FormatError(f"truncated '{name}' chunk")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError("short 'fmt ' chunk")
            code, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if code != 1:
                raise FormatError("'fmt ' chunk: only PCM audio is supported")
            if channels not in (1, 2):
                raise FormatError("'fmt ' chunk: only mono or stereo is supported")
            if bits != 16:
                raise FormatError("'fmt ' chunk: only 16-bit samples are supported")
            if rate < 1:
                raise FormatError("'fmt ' chunk: sample rate must be positive")
            fmt = (channels, rate)
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word aligned
    if fmt is None:
        raise FormatError("missing 'fmt ' chunk")
    if raw is None:
        raise FormatError("missing 'data' chunk")
    channels, rate = fmt
    if len(raw) % (2 * channels) != 0:
        raise FormatError("'data' chunk length does not match the sample format")
    ints = np.frombuffer(raw, dtype="<i2")
    if ints.size == 0:
        raise FormatError("'data' chunk holds no samples")
    if channels == 2:  # summed in float64 from the ints: exact, no stereo copy
        samples = ints.reshape(-1, 2).mean(axis=1, dtype=np.float64)
    else:
        samples = ints.astype(np.float64)
    samples /= 32768.0  # exact: a power of two
    return AudioClip(samples, rate)


def write_wav(clip: AudioClip) -> bytes:
    """Encode a clip as a canonical minimal mono 16-bit PCM WAV."""
    ints = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    raw = ints.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16)
    body = (
        b"WAVE"
        + b"fmt "
        + struct.pack("<I", len(fmt))
        + fmt
        + b"data"
        + struct.pack("<I", len(raw))
        + raw
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def onset_envelope(clip: AudioClip, win: int = DEFAULT_WIN, hop: int = DEFAULT_HOP):
    """Half-wave-rectified spectral flux, one value per hop.

    Frame i's analysis window is centered on sample i*hop (the clip is
    zero-padded by win/2 on both sides), so an energy rise at time t peaks
    within one hop of t. Each frame is Hann-windowed before the magnitude
    spectrum; the first frame's flux is 0 by convention.

    Frames are analysed in blocks spanning at most BLOCK_SAMPLES samples
    (at least one frame), so memory beyond the clip and the envelope does
    not grow with the clip. Every step acts row by row, so the blocks
    give the same bits as analysing all frames at once.
    """
    win, hop = int(win), int(hop)
    if win < 2 or (win & (win - 1)) != 0:
        raise InvalidArgumentError("win must be a power of two >= 2")
    if hop < 1:
        raise InvalidArgumentError("hop must be >= 1")
    x = clip.samples
    if x.size < win:
        raise InvalidArgumentError("clip is shorter than one analysis window")
    n_frames = 1 + (x.size - 1) // hop
    per_block = max(1, BLOCK_SAMPLES // max(win, hop))
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    flux = np.empty(n_frames)
    prev = None  # the magnitudes of the frame before the block
    for first in range(0, n_frames, per_block):
        stop = min(first + per_block, n_frames)
        start = first * hop - win // 2  # clip index of the span's sample 0
        span = np.zeros((stop - 1 - first) * hop + win)
        part = x[max(start, 0) : start + span.size]
        span[max(-start, 0) : max(-start, 0) + part.size] = part
        frames = sliding_window_view(span, win)[::hop] * window
        mags = np.abs(np.fft.rfft(frames, axis=1))
        if prev is None:
            prev = mags[:1]  # frame 0 against itself: flux 0
        before = np.concatenate([prev, mags[:-1]])
        flux[first:stop] = np.sum(np.maximum(mags - before, 0.0), axis=1)
        prev = mags[-1:]
    return flux


def detect_beats(envelope, hop: int, rate: int, threshold_ratio: float = 1.5):
    """Peak-pick an onset envelope into beat times (seconds).

    A beat is a local maximum exceeding threshold_ratio (finite, > 0)
    times the moving mean over +-10 frames. Peaks closer than 0.1 s keep
    only the larger.
    """
    env = np.asarray(envelope, dtype=np.float64).reshape(-1)
    if env.size and not np.all(np.isfinite(env)):
        raise InvalidArgumentError("envelope must be finite")
    hop, rate = int(hop), int(rate)
    if hop < 1 or rate < 1:
        raise InvalidArgumentError("hop and rate must be positive")
    if not (math.isfinite(threshold_ratio) and threshold_ratio > 0):
        raise InvalidArgumentError(
            f"threshold ratio must be finite and > 0, got {threshold_ratio}")
    kept: list[tuple[float, float]] = []
    for i in range(1, env.size - 1):
        if not (env[i] > env[i - 1] and env[i] > env[i + 1]):
            continue
        local = env[max(0, i - 10) : i + 11]
        if env[i] <= threshold_ratio * float(np.mean(local)):
            continue
        t = i * hop / rate
        if kept and t - kept[-1][0] < MIN_BEAT_SPACING:
            if env[i] > kept[-1][1]:
                kept[-1] = (t, float(env[i]))
        else:
            kept.append((t, float(env[i])))
    return np.array([t for t, _ in kept])


def beat_features(clip: AudioClip, envelope, hop: int, beats, fps: int,
                  channels: int) -> AudioCondition:
    """The `beats --features` condition on ceil(duration * fps) >= 2
    frames: channel j is the onset envelope, scaled to a peak of 1, read
    linearly at the frame times and delayed j frames (zero before that)."""
    env = np.asarray(envelope, dtype=np.float64).reshape(-1)
    if hop < 1 or fps < 1 or channels < 1:
        raise InvalidArgumentError("hop, fps and channels must be >= 1")
    if env.size < 2:
        raise InvalidArgumentError(
            f"--hop {hop} leaves {env.size} onset envelope frame(s) in "
            f"{clip.samples.size} samples; beat features need at least two")
    m = max(2, math.ceil(clip.samples.size * fps / clip.sample_rate))
    peak = env.max()
    if peak > 0:
        env = env / peak
    src_t = np.arange(env.size) / (clip.sample_rate / hop)
    frame_env = np.interp(np.arange(m) / fps, src_t, env)
    lags = np.zeros((m, channels))
    for j in range(min(channels, m)):
        lags[j:, j] = frame_env[: m - j]
    return AudioCondition(lags, Fraction(fps), beats)


def synth_condition(beat_times, m: int, fps, c_a: int, seed=0) -> AudioCondition:
    """Seeded synthetic condition: beat impulses plus slow noise channels.

    Channel 0 carries the beat structure as smoothed unit impulses; the
    remaining channels are low-frequency noise interpolated from a coarse
    seeded grid. seed may be an int or a tuple of ints.
    """
    m, c_a = int(m), int(c_a)
    if m < 1 or c_a < 1:
        raise InvalidArgumentError("need m >= 1 frames and c_a >= 1 channels")
    fps = Fraction(fps)
    if fps <= 0:
        raise InvalidArgumentError("fps must be positive")
    beats = np.asarray(beat_times, dtype=np.float64).reshape(-1)
    g = generator(seed, AUDIO_TAG)
    impulses = np.zeros(m)
    for t in beats:
        j = int(round(t * float(fps)))
        if 0 <= j < m:
            impulses[j] = 1.0
    features = np.zeros((m, c_a))
    features[:, 0] = gaussian_smooth(impulses, 1.5)
    if c_a > 1:
        n_coarse = max(2, m // 8 + 2)
        knot_t = np.linspace(0.0, m - 1.0, n_coarse)
        vals = 0.3 * g.standard_normal((n_coarse, c_a - 1))
        t = np.arange(m, dtype=np.float64)
        for c in range(1, c_a):
            features[:, c] = np.interp(t, knot_t, vals[:, c - 1])
    return AudioCondition(features, fps, beats)

