from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mdgesture.audio import AudioCondition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import training_windows
from mdgesture.errors import InvalidArgumentError
from mdgesture.motion import (
    MotionSequence,
    as_points,
    flatten,
    spline_fill,
    unflatten,
)


class TestFlatten:
    def test_single_point(self):
        seq = flatten(np.array([[[[0.5, -0.5]]]]))
        assert seq.n_channels == 2
        assert np.array_equal(seq.frames, [[0.5, -0.5]])

    def test_default_layout_size(self, rng):
        kp = rng.normal(size=(4, 20, 5, 2))
        seq = flatten(kp)
        assert seq.n_channels == 200

    def test_roundtrip(self, rng):
        kp = rng.normal(size=(6, 3, 4, 2))
        assert np.array_equal(unflatten(flatten(kp), 3, 4), kp)

    def test_order_k_major_then_n_then_xy(self):
        kp = np.arange(1 * 2 * 3 * 2, dtype=float).reshape(1, 2, 3, 2)
        seq = flatten(kp)
        # row = k0n0x, k0n0y, k0n1x, ... k1n2y
        assert np.array_equal(seq.frames[0], np.arange(12.0))

    def test_unflatten_dimension_mismatch(self, rng):
        seq = flatten(rng.normal(size=(2, 2, 2, 2)))
        with pytest.raises(InvalidArgumentError):
            unflatten(seq, 3, 2)

    def test_as_points(self, rng):
        kp = rng.normal(size=(5, 2, 3, 2))
        pts = as_points(flatten(kp))
        assert pts.shape == (5, 6, 2)
        assert np.array_equal(pts.reshape(5, 2, 3, 2), kp)


def windows(seq, m, stride):
    """training_windows over one sequence paired with features of its
    own length and rate (audio column j holds frame index + j)."""
    audio = np.arange(seq.n_frames)[:, None] + np.arange(2)[None, :]
    pairs = [(seq, AudioCondition(audio, seq.fps))]
    return training_windows(pairs, PipelineConfig(m=m, stride=stride))


class TestWindows:
    def test_exact_fit(self, rng):
        seq = MotionSequence(rng.normal(size=(80, 4)))
        frames, audio = windows(seq, 80, 10)
        assert frames.shape == (1, 80, 4) and audio.shape == (1, 80, 2)
        assert np.array_equal(frames[0], seq.frames)
        assert np.array_equal(frames[0, 0], seq.frames[0])  # the seed motion

    def test_strided(self, rng):
        seq = MotionSequence(rng.normal(size=(100, 2)))
        frames, audio = windows(seq, 80, 10)
        assert frames.shape == (3, 80, 2) and audio.shape == (3, 80, 2)
        for i in range(3):
            assert np.array_equal(frames[i], seq.frames[10 * i : 10 * i + 80])
            assert audio[i, 0, 0] == 10 * i  # audio cut at the same offset
            assert np.array_equal(frames[i, 0], seq.frames[10 * i])

    def test_window_longer_than_sequence(self, rng):
        seq = MotionSequence(rng.normal(size=(79, 2)))
        with pytest.raises(InvalidArgumentError, match="no training windows"):
            windows(seq, 80, 10)

    def test_windows_at_another_fps(self, rng):
        seq = MotionSequence(rng.normal(size=(10, 2)), fps=Fraction(30))
        frames, _ = windows(seq, 5, 5)
        assert len(frames) == 2
        for off, w in zip([0, 5], frames):
            assert np.array_equal(w, seq.frames[off : off + 5])

    @pytest.mark.parametrize("rows,fps", [(9, 30), (10, 25)])
    def test_features_must_match_motion(self, rng, rows, fps):
        seq = MotionSequence(rng.normal(size=(10, 2)), fps=Fraction(30))
        pairs = [(seq, AudioCondition(np.zeros((rows, 2)), fps))]
        with pytest.raises(InvalidArgumentError, match="do not match motion"):
            training_windows(pairs, PipelineConfig(m=5, stride=5))

    @pytest.mark.parametrize("what, widths", [("motion", (2, 3)), ("audio", (4, 2))])
    def test_one_width_per_dataset(self, rng, what, widths):
        """Two pairs whose motion or audio widths differ cannot stack."""
        pairs = []
        for w in widths:
            c, c_a = (w, 2) if what == "motion" else (2, w)
            seq = MotionSequence(rng.normal(size=(10, c)))
            pairs.append((seq, AudioCondition(rng.normal(size=(10, c_a)), seq.fps)))
        with pytest.raises(InvalidArgumentError,
                           match=rf"inconsistent: {what} widths \[2, [34]\]"):
            training_windows(pairs, PipelineConfig(m=5, stride=5))


class TestSplineFill:
    def test_linear_data_reproduced(self):
        slope = np.array([0.3, -1.2])
        t_left = np.arange(5)[:, None]
        t_right = np.arange(8, 13)[:, None]
        left = t_left * slope
        right = t_right * slope
        fill = spline_fill(left, right, 3)
        expect = np.arange(5, 8)[:, None] * slope
        assert np.allclose(fill, expect, atol=1e-12)

    def test_constant_fill(self):
        left = np.full((3, 2), 1.5)
        right = np.full((4, 2), 1.5)
        assert np.allclose(spline_fill(left, right, 2), 1.5, atol=1e-12)

    @pytest.mark.parametrize("nl, nr, gap", [
        (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),  # the fewest knots allowed
        (5, 5, 2), (5, 5, 3),  # generate_long's FILL_KNOTS a side
        (2, 6, 1), (6, 3, 4), (3, 2, 2),
    ])
    def test_matches_scipy_natural_spline(self, rng, nl, nr, gap):
        left = rng.normal(size=(nl, 3))
        right = rng.normal(size=(nr, 3))
        fill = spline_fill(left, right, gap)
        t = np.concatenate([np.arange(nl), np.arange(nl + gap, nl + gap + nr)])
        y = np.vstack([left, right])
        oracle = CubicSpline(t, y, axis=0, bc_type="natural")(np.arange(nl, nl + gap))
        assert np.max(np.abs(fill - oracle)) < 1e-12

    def test_smooth_junction_second_differences(self):
        # gentle data: the filled junction's discrete curvature must not
        # jump relative to the channel scale
        t_all = np.arange(12.0)
        y_all = 0.5 * t_all[:, None] * 0.1 + 0.1 * np.sin(0.2 * t_all)[:, None]
        left, right = y_all[:5], y_all[7:]
        fill = spline_fill(left, right, 2)
        composite = np.vstack([left, fill, right])
        d2 = np.diff(composite, n=2, axis=0)
        assert np.max(np.abs(np.diff(d2, axis=0))) < 1e-3

    def test_insufficient_knots(self):
        with pytest.raises(InvalidArgumentError):
            spline_fill(np.ones((1, 2)), np.ones((3, 2)), 2)
        with pytest.raises(InvalidArgumentError):
            spline_fill(np.ones((3, 2)), np.ones((3, 2)), 0)

    def test_channel_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            spline_fill(np.ones((3, 2)), np.ones((3, 3)), 1)
