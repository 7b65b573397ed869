from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mdgesture.errors import InvalidArgumentError
from mdgesture.motion import (
    MotionSequence,
    acceleration,
    as_points,
    clip_windows,
    flatten,
    spline_fill,
    unflatten,
    velocity,
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


class TestDifferentials:
    def test_constant_velocity_zero(self):
        seq = MotionSequence(np.ones((5, 4)))
        assert np.array_equal(velocity(seq), np.zeros((4, 4)))

    def test_linear_ramp(self):
        v = np.array([1.0, -2.0, 0.5])
        frames = np.arange(6)[:, None] * v[None, :]
        assert np.allclose(velocity(frames), np.tile(v, (5, 1)))
        assert np.array_equal(acceleration(frames), np.zeros((4, 3)))

    def test_quadratic_acceleration(self):
        u = np.array([0.5, 2.0])
        frames = (np.arange(7)[:, None] ** 2) * u[None, :]
        assert np.allclose(acceleration(frames), np.tile(2 * u, (5, 1)))

    def test_random_matches_elementwise_oracle(self, rng):
        f = rng.normal(size=(5, 3))
        v = velocity(f)
        for m in range(4):
            assert np.array_equal(v[m], f[m + 1] - f[m])
        a = acceleration(f)
        for m in range(3):
            # value equality only: the double difference associates
            # differently from the one-shot stencil
            assert np.allclose(a[m], f[m + 2] - 2 * f[m + 1] + f[m],
                               rtol=0, atol=1e-14)

    def test_acceleration_is_velocity_of_velocity(self, rng):
        f = rng.normal(size=(8, 5))
        assert np.array_equal(acceleration(f), velocity(velocity(f)))

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            velocity(np.ones((1, 2)))
        with pytest.raises(InvalidArgumentError):
            acceleration(np.ones((2, 2)))


class TestWindows:
    def test_exact_fit(self, rng):
        seq = MotionSequence(rng.normal(size=(80, 4)))
        wins = clip_windows(seq, 80, 10)
        assert len(wins) == 1
        off, win = wins[0]
        assert off == 0
        assert np.array_equal(win.frames, seq.frames)

    def test_strided(self, rng):
        seq = MotionSequence(rng.normal(size=(100, 2)))
        wins = clip_windows(seq, 80, 10)
        assert len(wins) == 3
        for i, (off, w) in enumerate(wins):
            assert off == 10 * i
            assert w.n_frames == 80
            assert np.array_equal(w.frames, seq.frames[10 * i : 10 * i + 80])

    def test_window_longer_than_sequence(self, rng):
        seq = MotionSequence(rng.normal(size=(79, 2)))
        assert clip_windows(seq, 80, 10) == []

    def test_fps_carried(self, rng):
        seq = MotionSequence(rng.normal(size=(10, 2)), fps=Fraction(30))
        wins = clip_windows(seq, 5, 5)
        assert [off for off, _ in wins] == [0, 5]
        assert wins[0][1].fps == Fraction(30)


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

    def test_matches_scipy_natural_spline(self, rng):
        left = rng.normal(size=(5, 3))
        right = rng.normal(size=(5, 3))
        gap = 3
        fill = spline_fill(left, right, gap)
        t = np.concatenate([np.arange(5.0), np.arange(8.0, 13.0)])
        y = np.vstack([left, right])
        oracle = CubicSpline(t, y, axis=0, bc_type="natural")(np.arange(5.0, 8.0))
        assert np.max(np.abs(fill - oracle)) < 1e-9

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
