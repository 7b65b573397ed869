import math

import numpy as np
import pytest
import scipy.linalg

from mdgesture.errors import InvalidArgumentError
from mdgesture.metrics import (
    GaussianSummary,
    beat_align_score,
    diversity,
    frechet_distance,
    gesture_beats,
    motion_features,
    summarize,
    velocity_curve,
)
from mdgesture.motion import MotionSequence
from mdgesture.rng import generator


def dip_sequence(n=30, dip_at=10, fps=25):
    """One keypoint along +x with a single slow-down at `dip_at`."""
    steps = 1.0 - 0.8 * np.exp(-((np.arange(n - 1) - dip_at) ** 2) / 8.0)
    x = np.concatenate([[0.0], np.cumsum(steps)])
    return MotionSequence(np.stack([x, np.zeros(n)], axis=1), fps)


def random_psd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T) / d + 1e-3 * np.eye(d)


class TestGestureBeats:
    def test_constant_velocity_no_beats(self):
        # dyadic step so every frame difference is bit-identical
        frames = np.arange(20)[:, None] * np.array([[0.25, 0.5]])
        assert gesture_beats(MotionSequence(frames)).size == 0

    def test_single_dip_found(self):
        seq = dip_sequence(dip_at=10, fps=25)
        beats = gesture_beats(seq, sigma_smooth=1.0)
        assert beats.shape == (1,)
        assert beats[0] == pytest.approx(10 / 25)

    def test_zero_sigma_equals_raw_minima(self):
        seq = dip_sequence()
        speeds = np.linalg.norm(np.diff(seq.frames, axis=0), axis=1)
        raw_minima = [
            i
            for i in range(1, speeds.size - 1)
            if speeds[i] < speeds[i - 1] and speeds[i] < speeds[i + 1]
        ]
        beats = gesture_beats(seq, sigma_smooth=0.0)
        assert np.array_equal(beats, np.array(raw_minima) / 25)

    def test_time_reversal_mirrors_beats(self):
        seq = dip_sequence(n=40, dip_at=12, fps=25)
        rev = MotionSequence(seq.frames[::-1].copy(), seq.fps)
        fwd = gesture_beats(seq, sigma_smooth=1.5)
        bwd = gesture_beats(rev, sigma_smooth=1.5)
        duration = (seq.n_frames - 2) / float(seq.fps)
        assert np.allclose(np.sort(duration - bwd), fwd, atol=1 / 25)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            gesture_beats(MotionSequence(np.zeros((2, 2))))


class TestBeatAlignScore:
    def test_aligned_is_one(self):
        beats = np.array([0.2, 0.6, 1.0])
        assert beat_align_score(beats, beats.copy()) == pytest.approx(1.0, abs=1e-9)

    def test_sigma_offset_closed_form(self):
        sigma = 0.1
        got = beat_align_score([1.0], [1.0 + sigma], sigma_b=sigma)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_no_gesture_beats_zero(self):
        assert beat_align_score([0.5], []) == 0.0

    def test_empty_audio_rejected(self):
        with pytest.raises(InvalidArgumentError):
            beat_align_score([], [0.5])

    def test_monotone_under_offset(self):
        audio = np.arange(1, 6, dtype=float)  # 1 s apart
        scores = [
            beat_align_score(audio, audio + off) for off in (0.0, 0.03, 0.08, 0.2)
        ]
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestDiversity:
    def test_identical_zero(self):
        assert diversity(np.zeros((2, 3))) == 0.0

    def test_unit_pair(self):
        assert diversity(np.array([[0.0, 0.0], [1.0, 0.0]])) == 1.0

    def test_matches_double_loop(self, rng):
        f = rng.normal(size=(10, 6))
        total, count = 0.0, 0
        for i in range(10):
            for j in range(i + 1, 10):
                total += math.sqrt(sum((f[i, k] - f[j, k]) ** 2 for k in range(6)))
                count += 1
        assert abs(diversity(f) - total / count) < 1e-12

    def test_translation_invariant_scale_linear(self, rng):
        f = rng.normal(size=(8, 4))
        base = diversity(f)
        assert diversity(f + 3.7) == pytest.approx(base, rel=1e-12)
        assert diversity(2.5 * f) == pytest.approx(2.5 * base, rel=1e-12)

    def test_too_few(self):
        with pytest.raises(InvalidArgumentError):
            diversity(np.zeros((1, 3)))


class TestSummarize:
    def test_repeated_vector_zero_cov(self):
        s = summarize(np.tile([1.0, -2.0], (3, 1)))
        assert np.array_equal(s.mean, [1.0, -2.0])
        assert np.all(s.covariance == 0.0)

    def test_antipodal_pair(self):
        v = np.array([0.5, -1.0, 2.0])
        s = summarize(np.stack([-v, v]))
        assert np.allclose(s.mean, 0.0, atol=1e-15)
        assert np.allclose(s.covariance, 2.0 * np.outer(v, v), atol=1e-12)

    def test_matches_two_pass_oracle(self, rng):
        f = rng.normal(size=(40, 5))
        s = summarize(f)
        assert np.allclose(s.mean, f.mean(axis=0), atol=1e-12)
        assert np.allclose(s.covariance, np.cov(f.T, ddof=1), atol=1e-10)

    def test_too_few(self):
        with pytest.raises(InvalidArgumentError):
            summarize(np.zeros((1, 3)))


class TestGaussianSummary:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GaussianSummary(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GaussianSummary(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_tiny_asymmetry_tolerated(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-12
        s = GaussianSummary(np.zeros(2), cov)
        assert s.dim == 2


class TestFrechetDistance:
    def test_identical_zero(self, rng):
        cov = random_psd(rng, 4)
        g = GaussianSummary(rng.normal(size=4), cov)
        assert frechet_distance(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_closed_form(self):
        m1, s1 = 0.3, 0.8
        m2, s2 = -0.5, 1.7
        g1 = GaussianSummary([m1], [[s1**2]])
        g2 = GaussianSummary([m2], [[s2**2]])
        expect = (m1 - m2) ** 2 + (s1 - s2) ** 2
        assert frechet_distance(g1, g2) == pytest.approx(expect, abs=1e-9)

    def test_diagonal_closed_form(self, rng):
        d = 5
        mu1, mu2 = rng.normal(size=d), rng.normal(size=d)
        l1, l2 = rng.uniform(0.1, 2.0, size=d), rng.uniform(0.1, 2.0, size=d)
        g1 = GaussianSummary(mu1, np.diag(l1))
        g2 = GaussianSummary(mu2, np.diag(l2))
        expect = float(
            np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(l1) - np.sqrt(l2)) ** 2)
        )
        assert frechet_distance(g1, g2) == pytest.approx(expect, abs=1e-9)

    def test_symmetric(self, rng):
        g1 = GaussianSummary(rng.normal(size=6), random_psd(rng, 6))
        g2 = GaussianSummary(rng.normal(size=6), random_psd(rng, 6, scale=2.0))
        a = frechet_distance(g1, g2)
        b = frechet_distance(g2, g1)
        assert a == pytest.approx(b, abs=1e-9)

    def test_against_scipy_sqrtm(self, rng):
        g1 = GaussianSummary(rng.normal(size=5), random_psd(rng, 5))
        g2 = GaussianSummary(rng.normal(size=5), random_psd(rng, 5))
        delta = g1.mean - g2.mean
        root = scipy.linalg.sqrtm(g1.covariance @ g2.covariance)
        expect = float(
            delta @ delta
            + np.trace(g1.covariance + g2.covariance - 2.0 * np.real(root))
        )
        assert frechet_distance(g1, g2) == pytest.approx(expect, abs=1e-8)

    def test_dimension_mismatch(self, rng):
        g1 = GaussianSummary(np.zeros(2), np.eye(2))
        g2 = GaussianSummary(np.zeros(3), np.eye(3))
        with pytest.raises(InvalidArgumentError):
            frechet_distance(g1, g2)


class TestMotionFeatures:
    def test_constant_sequence(self):
        frames = np.tile([0.25, -0.5], (6, 1))
        f = motion_features(MotionSequence(frames))
        assert f.shape == (2 * 2 + 2,)
        assert np.array_equal(f[:2], [0.25, -0.5])
        assert np.all(f[2:] == 0.0)

    def test_linear_ramp(self):
        v = np.array([0.3, -0.4])  # one keypoint, speed 0.5 per frame
        frames = np.arange(8)[:, None] * v[None, :]
        f = motion_features(MotionSequence(frames))
        assert f[-2] == pytest.approx(0.5)
        assert f[-1] == pytest.approx(0.0, abs=1e-12)

    def test_permutation_keeps_channel_means(self, rng):
        frames = rng.normal(size=(12, 4))
        perm = rng.permutation(12)
        a = motion_features(MotionSequence(frames))
        b = motion_features(MotionSequence(frames[perm]))
        assert np.allclose(a[:4], b[:4], atol=1e-15)
        assert np.allclose(a[4:8], b[4:8], atol=1e-12)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            motion_features(MotionSequence(np.zeros((2, 2))))


class TestVelocityCurve:
    def test_shapes_and_beat_flags(self):
        seq = dip_sequence(dip_at=10)
        frames, raw, smooth, is_beat = velocity_curve(seq, sigma_smooth=1.0)
        assert frames.shape == raw.shape == smooth.shape == is_beat.shape
        assert raw.size == seq.n_frames - 1
        flagged = np.nonzero(is_beat)[0]
        assert list(flagged) == [10]
