import math
import struct
import tracemalloc

import numpy as np
import pytest

from mdgesture.audio import (
    BLOCK_SAMPLES,
    AudioClip,
    AudioCondition,
    beat_features,
    detect_beats,
    onset_envelope,
    read_wav,
    synth_condition,
    write_wav,
)
from mdgesture.errors import FormatError, InvalidArgumentError


def wav_bytes(values, rate, channels=1):
    """Independent WAV builder: interleaved int16 values, minimal layout."""
    raw = np.asarray(values, dtype="<i2").tobytes()
    fmt = struct.pack(
        "<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16
    )
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


class TestReadWav:
    def test_silence(self):
        clip = read_wav(wav_bytes([0] * 16000, 16000))
        assert clip.sample_rate == 16000
        assert clip.samples.shape == (16000,)
        assert np.all(clip.samples == 0.0)

    def test_full_scale_square(self):
        vals = [32767, -32768] * 8
        clip = read_wav(wav_bytes(vals, 8000))
        assert np.array_equal(
            clip.samples, np.array(vals, dtype=np.float64) / 32768.0
        )

    def test_stereo_averaged(self):
        clip = read_wav(wav_bytes([1000, 2000, -400, 400], 8000, channels=2))
        assert clip.samples.shape == (2,)
        assert clip.samples[0] == 1500.0 / 32768.0
        assert clip.samples[1] == 0.0

    def test_unknown_chunk_skipped(self):
        base = wav_bytes([10, 20, 30], 8000)
        extra = b"LIST" + struct.pack("<I", 4) + b"info"
        data = base[:12] + extra + base[12:]
        data = b"RIFF" + struct.pack("<I", len(data) - 8) + data[8:]
        clip = read_wav(data)
        assert clip.samples.shape == (3,)

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="RIFF"):
            read_wav(b"JUNK" + wav_bytes([1], 8000)[4:])

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_wav(wav_bytes([1, 2, 3], 8000)[:10])

    def test_riff_size_mismatch(self):
        data = wav_bytes([1, 2, 3], 8000) + b"xx"
        with pytest.raises(FormatError, match="size"):
            read_wav(data)

    def test_non_pcm_rejected(self):
        data = bytearray(wav_bytes([1, 2], 8000))
        data[20] = 3  # format code
        with pytest.raises(FormatError, match="fmt"):
            read_wav(bytes(data))

    def test_wrong_bit_depth(self):
        data = bytearray(wav_bytes([1, 2], 8000))
        data[34] = 8
        with pytest.raises(FormatError, match="16-bit"):
            read_wav(bytes(data))

    def test_truncated_data_chunk(self):
        data = bytearray(wav_bytes([1, 2, 3, 4], 8000))
        data[40] = 200  # data size field larger than the payload
        with pytest.raises(FormatError, match="size|data"):
            read_wav(bytes(data))

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        data = b"RIFF" + struct.pack("<I", len(body)) + body
        with pytest.raises(FormatError, match="data"):
            read_wav(data)


class TestWriteWav:
    def test_roundtrip_samples_exact(self, rng):
        ints = rng.integers(-32768, 32768, size=500)
        clip = AudioClip(ints / 32768.0, 22050)
        back = read_wav(write_wav(clip))
        assert back.sample_rate == 22050
        assert np.array_equal(back.samples, clip.samples)

    def test_canonical_bytes_roundtrip(self):
        data = wav_bytes([0, 5000, -5000, 123], 16000)
        assert write_wav(read_wav(data)) == data


class TestClipValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AudioClip(np.zeros(0), 8000)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AudioClip(np.array([1.5]), 8000)

    def test_bad_rate(self):
        with pytest.raises(InvalidArgumentError):
            AudioClip(np.zeros(4), 0)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
        (-1.5, r"lie in \[-1, 1\]"), (1.0 + 2.0 ** -52, r"lie in \[-1, 1\]"),
    ])
    def test_non_finite_or_out_of_range_named(self, bad, message):
        samples = np.array([0.0, -1.0, 1.0, bad, 0.5])
        with pytest.raises(InvalidArgumentError, match=message):
            AudioClip(samples, 8000)


def one_shot_envelope(clip, win, hop):
    """Reference: every analysis frame gathered from one padded copy and
    transformed in one call."""
    x = clip.samples
    n_frames = 1 + (x.size - 1) // hop
    padded = np.pad(x, win // 2)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    mags = np.abs(np.fft.rfft(padded[idx] * window[None, :], axis=1))
    flux = np.sum(np.maximum(mags[1:] - mags[:-1], 0.0), axis=1)
    return np.concatenate([[0.0], flux])


def block_cases():
    """(win, hop, frames) around the block boundaries: one frame, a block
    minus one, a block, a block plus one and three blocks plus five."""
    for win, hop in [(1024, 256), (1024, 1024), (1024, 3000), (2, 1), (2, 3),
                     (4096, 1024), (4096, 4096)]:
        per = max(1, BLOCK_SAMPLES // max(win, hop))
        for frames in sorted({1, per - 1, per, per + 1, 3 * per + 5}):
            if frames >= 2 or hop >= win:  # one frame needs hop >= win
                yield win, hop, frames


class TestOnsetEnvelope:
    def test_silence_all_zero(self):
        clip = AudioClip(np.zeros(4096), 16000)
        env = onset_envelope(clip, win=1024, hop=256)
        assert env.shape == (1 + (4096 - 1) // 256,)
        assert np.all(env == 0.0)

    def test_first_frame_zero(self, rng):
        clip = AudioClip(rng.uniform(-0.5, 0.5, size=4096), 16000)
        assert onset_envelope(clip)[0] == 0.0

    def test_steady_sine_low_flux(self):
        rate, win, hop = 16000, 1024, 256
        t = np.arange(rate)
        sine = 0.5 * np.sin(2 * np.pi * (8 * rate / win) * t / rate)
        silence = np.zeros(rate // 2)
        samples = np.concatenate([silence, sine])
        env = onset_envelope(AudioClip(samples, rate), win=win, hop=hop)
        onset_frame = int(np.argmax(env))
        # steady region: frames whose windows sit fully inside the sine
        last_full = (samples.size - win // 2) // hop
        steady = env[onset_frame + 4 : last_full]
        assert steady.size > 20
        assert np.max(steady) < 0.01 * env[onset_frame]

    def test_click_train_peaks_near_clicks(self):
        rate, hop = 16000, 256
        samples = np.zeros(3 * rate)
        clicks = np.arange(rate // 2, 3 * rate, rate // 2)  # 2 Hz
        for s in clicks:
            samples[s : s + 8] = 0.9
        env = onset_envelope(AudioClip(samples, rate), win=1024, hop=hop)
        for s in clicks:
            center = s // hop
            hood = env[center - 6 : center + 7]
            peak = center - 6 + int(np.argmax(hood))
            assert abs(peak - center) <= 1

    def test_short_clip_rejected(self):
        with pytest.raises(InvalidArgumentError):
            onset_envelope(AudioClip(np.zeros(512), 16000), win=1024)

    def test_non_power_of_two_win(self):
        with pytest.raises(InvalidArgumentError):
            onset_envelope(AudioClip(np.zeros(4096), 16000), win=1000)

    @pytest.mark.parametrize("win, hop, frames", list(block_cases()))
    def test_blocks_equal_one_shot(self, win, hop, frames, rng):
        n = max(win, (frames - 1) * hop + 1 + (hop - 1) // 2)
        clip = AudioClip(rng.uniform(-1.0, 1.0, size=n), 16000)
        env = onset_envelope(clip, win, hop)
        assert env.shape == (frames,)
        assert env.tobytes() == one_shot_envelope(clip, win, hop).tobytes()

    def test_stereo_wav_equals_one_shot(self, rng):
        ints = rng.integers(-32768, 32768, size=(3 * BLOCK_SAMPLES // 4 + 77, 2))
        clip = read_wav(wav_bytes(ints.ravel(), 16000, channels=2))
        assert np.array_equal(clip.samples, ints.sum(axis=1) / 65536.0)
        env = onset_envelope(clip, 1024, 256)
        assert env.size > 3 * (BLOCK_SAMPLES // 1024)
        assert env.tobytes() == one_shot_envelope(clip, 1024, 256).tobytes()


def traced_peak(fn, *args):
    """fn's result and the peak of memory traced while it ran (numpy
    reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A 120 s, 16 kHz clip: 1.92 M samples, 15.4 MB as float64."""

    N = 120 * 16000

    @pytest.mark.parametrize("win, hop", [(1024, 256), (2, 1)])
    def test_envelope_temporaries_do_not_grow_with_clip(self, win, hop, rng):
        clip = AudioClip(rng.uniform(-1.0, 1.0, size=self.N), 16000)
        env, peak = traced_peak(onset_envelope, clip, win, hop)
        # the returned envelope plus a few block-sized arrays, whatever
        # the clip's length
        assert peak <= env.nbytes + 8 * (8 * BLOCK_SAMPLES)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_read_wav_makes_one_float_copy(self, channels, rng):
        ints = rng.integers(-32768, 32768, size=self.N * channels)
        data = wav_bytes(ints, 16000, channels)
        clip, peak = traced_peak(read_wav, data)
        assert clip.samples.shape == (self.N,)
        assert peak <= clip.samples.nbytes + (128 << 10)


class TestDetectBeats:
    def test_zero_envelope(self):
        assert detect_beats(np.zeros(100), 256, 16000).size == 0

    def test_single_impulse(self):
        env = np.zeros(100)
        env[40] = 1.0
        beats = detect_beats(env, 256, 16000)
        assert beats.shape == (1,)
        assert beats[0] == pytest.approx(40 * 256 / 16000, abs=256 / 16000)

    def test_close_impulses_merge(self):
        # 3 frames apart = 0.048 s < the 0.1 s spacing floor
        env = np.zeros(100)
        env[40] = 1.0
        env[43] = 2.0
        beats = detect_beats(env, 256, 16000)
        assert beats.shape == (1,)
        assert beats[0] == pytest.approx(43 * 256 / 16000)

    def test_spaced_impulses_kept(self):
        env = np.zeros(200)
        env[40] = 1.0
        env[60] = 1.0  # 20 frames = 0.32 s apart
        beats = detect_beats(env, 256, 16000)
        assert beats.shape == (2,)
        assert np.all(np.diff(beats) >= 0.1)

    def test_below_threshold_ignored(self):
        env = np.ones(100)
        env[50] = 1.01  # peak but under 1.5x the moving mean
        assert detect_beats(env, 256, 16000).size == 0

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_must_be_finite_positive(self, ratio):
        # a NaN or non-positive ratio would pass every local maximum
        env = np.zeros(100)
        env[40] = 1.0
        with pytest.raises(InvalidArgumentError, match="threshold ratio"):
            detect_beats(env, 256, 16000, ratio)


class TestBeatFeatures:
    def test_on_grid_frames_read_scaled_envelope(self, rng):
        # hop / rate == 1 / fps puts every frame on an envelope row
        clip = AudioClip(np.zeros(8000), 8000)
        env = rng.uniform(0.0, 3.0, size=25)
        cond = beat_features(clip, env, 320, [0.2, 0.6], 25, 3)
        assert cond.n_frames == 25 and cond.fps == 25
        assert np.array_equal(cond.features[:, 0], env / env.max())
        assert np.array_equal(cond.beats, [0.2, 0.6])

    def test_linear_between_rows_clamped_at_ends(self):
        # 1001 samples at 8000 Hz span ceil(3.003) = 4 frames at 24 fps
        clip = AudioClip(np.zeros(1001), 8000)
        env = np.arange(4.0)  # rows at 0, 1/32, 2/32, 3/32 s
        f = beat_features(clip, env, 250, [], 24, 1).features[:, 0]
        expect = np.minimum(np.arange(4) / 24 * 32, 3.0) / 3.0
        assert np.max(np.abs(f - expect)) < 1e-12
        assert f[-1] == 1.0

    def test_channels_are_lags(self, rng):
        clip = AudioClip(np.zeros(8000), 8000)
        cond = beat_features(clip, rng.uniform(size=25), 320, [], 25, 30)
        f = cond.features
        assert f.shape == (25, 30)
        for j in range(25):
            assert np.array_equal(f[j:, j], f[: 25 - j, 0])
            assert not f[:j, j].any()
        assert not f[:, 25:].any()  # lags past the clip's 25 frames

    def test_one_envelope_frame_refused_naming_hop(self):
        clip = AudioClip(np.zeros(8000), 8000)
        with pytest.raises(InvalidArgumentError, match="--hop 9000"):
            beat_features(clip, np.zeros(1), 9000, [], 25, 4)
        # a silent clip's envelope is all zero and stays zero, unscaled
        cond = beat_features(clip, np.zeros(2), 9000, [], 25, 4)
        assert cond.n_frames == 25 and not cond.features.any()


class TestSynthCondition:
    def test_no_beats_impulse_channel_zero(self):
        cond = synth_condition([], 40, 25, 3, seed=1)
        assert np.all(cond.features[:, 0] == 0.0)
        assert cond.beats.size == 0

    def test_all_beats_constant_channel(self):
        fps = 25
        beats = np.arange(60) / fps
        cond = synth_condition(beats, 60, fps, 2, seed=1)
        assert np.ptp(cond.features[:, 0]) == 0.0
        assert cond.features[0, 0] > 0.0

    def test_single_beat_matches_kernel(self):
        # isolated interior impulse: smoothing lays the kernel down directly
        fps, m, j = 25, 40, 20
        cond = synth_condition([j / fps], m, fps, 1, seed=0)
        sigma = 1.5
        radius = math.ceil(3 * sigma)
        x = np.arange(-radius, radius + 1)
        kernel = np.exp(-(x**2) / (2 * sigma**2))
        kernel /= kernel.sum()
        expect = np.zeros(m)
        expect[j - radius : j + radius + 1] = kernel
        assert np.allclose(cond.features[:, 0], expect, atol=1e-15)

    def test_same_seed_identical(self):
        a = synth_condition([0.4], 30, 25, 4, seed=7)
        b = synth_condition([0.4], 30, 25, 4, seed=7)
        c = synth_condition([0.4], 30, 25, 4, seed=8)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_tuple_seed(self):
        a = synth_condition([], 20, 25, 3, seed=(3, 1))
        b = synth_condition([], 20, 25, 3, seed=(3, 2))
        assert not np.array_equal(a.features, b.features)


class TestAudioCondition:
    def test_beats_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            AudioCondition(np.zeros((10, 2)), 25, [0.2, 0.2])

    def test_beats_within_clip(self):
        with pytest.raises(InvalidArgumentError):
            AudioCondition(np.zeros((10, 2)), 25, [5.0])

    def test_negative_beat_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AudioCondition(np.zeros((10, 2)), 25, [-0.1])

    def test_accessors(self):
        cond = AudioCondition(np.zeros((10, 3)), 25, [0.2])
        assert cond.n_frames == 10
        assert cond.n_channels == 3
