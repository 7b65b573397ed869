import math

import numpy as np
import pytest

from mdgesture.errors import InvalidArgumentError, SingularSystemError
from mdgesture.rng import generator
from mdgesture.tps import (
    TpsTransform,
    _u_of_rsq,
    bending_energy,
    eval_tps,
    eval_tps_grid,
    identity_transform,
    normalized_lattice,
    solve_tps,
    solve_tps_batch,
)

from conftest import random_pairs


def oracle_eval(t, p):
    """Plain-python evaluation of the transform, independent of the
    package's vectorized path."""
    x, y = float(p[0]), float(p[1])
    a = t.affine
    ox = a[0, 2] + a[0, 0] * x + a[0, 1] * y
    oy = a[1, 2] + a[1, 0] * x + a[1, 1] * y
    for (wx, wy), (cx, cy) in zip(t.weights, t.controls_d):
        rsq = (x - cx) ** 2 + (y - cy) ** 2
        u = rsq * math.log(rsq) if rsq > 0 else 0.0
        ox += wx * u
        oy += wy * u
    return np.array([ox, oy])


def reference_solve(src, dst, regularization):
    """One system solved on its own, as (weights, affine), with the
    operations of the one-system solver that predates stacked solves."""
    n = dst.shape[0]
    diff = dst[:, None, :] - dst[None, :, :]
    rsq = np.sum(diff * diff, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = np.log(rsq) * rsq
    kmat[rsq == 0.0] = 0.0
    kmat = kmat + regularization * np.eye(n)
    lmat = np.zeros((n + 3, n + 3))
    lmat[:n, :n] = kmat
    lmat[:n, n:] = np.hstack([np.ones((n, 1)), dst])
    lmat[n:, :n] = lmat[:n, n:].T
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = src
    theta = np.linalg.solve(lmat, rhs)
    coef = theta[n:]  # rows: constant, x, y
    return theta[:n], np.array([coef[[1, 2, 0], 0], coef[[1, 2, 0], 1]])


def square_points():
    return np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [0.0, 0.1]])


def rbf_u(r):
    """U(r) = r^2 log(r^2) through the package kernel, under the errstate
    its callers hold."""
    r = np.asarray(r, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _u_of_rsq(r * r)


class TestRbf:
    def test_zero(self):
        assert rbf_u(0.0) == 0.0

    def test_one(self):
        assert rbf_u(1.0) == 0.0

    def test_e(self):
        assert float(rbf_u(math.e)) == pytest.approx(2.0 * math.e**2, rel=1e-12)

    def test_vectorized(self):
        r = np.array([0.0, 1.0, 2.0])
        expect = np.array([0.0, 0.0, 4.0 * math.log(4.0)])
        assert np.allclose(rbf_u(r), expect, atol=1e-14)


class TestSolve:
    def test_identity_pairs(self):
        pts = square_points()
        t = solve_tps(pts, pts)
        assert np.allclose(t.affine, [[1, 0, 0], [0, 1, 0]], atol=1e-8)
        assert np.max(np.abs(t.weights)) < 1e-8

    def test_pure_translation(self):
        dst = square_points()
        src = dst + np.array([0.2, -0.1])
        t = solve_tps(src, dst)
        assert np.allclose(t.affine, [[1, 0, 0.2], [0, 1, -0.1]], atol=1e-8)
        assert np.max(np.abs(t.weights)) < 1e-8

    def test_random_pairs_interpolate(self, rng):
        src, dst = random_pairs(rng, 5)
        t = solve_tps(src, dst)
        for i in range(5):
            got = oracle_eval(t, dst[i])
            assert np.max(np.abs(got - src[i])) < 1e-8
            assert np.max(np.abs(eval_tps(t, dst[i]) - src[i])) < 1e-8

    def test_side_conditions(self, rng):
        for n in (3, 5, 8):
            src, dst = random_pairs(rng, n)
            t = solve_tps(src, dst)
            w = t.weights
            assert np.max(np.abs(w.sum(axis=0))) < 1e-8
            assert np.max(np.abs((w * dst[:, :1]).sum(axis=0))) < 1e-8
            assert np.max(np.abs((w * dst[:, 1:]).sum(axis=0))) < 1e-8

    def test_too_few_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            solve_tps(pts, pts)

    def test_duplicate_destinations_singular(self):
        dst = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        src = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularSystemError):
            solve_tps(src, dst)

    def test_collinear_destinations_singular(self):
        dst = np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [0.9, 0.0]])
        src = np.array([[-0.5, 0.1], [0.0, 0.2], [0.5, 0.3], [0.9, 0.1]])
        with pytest.raises(SingularSystemError):
            solve_tps(src, dst)

    def test_regularization_rescues_duplicates(self):
        dst = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0], [0.0, 1.0]])
        src = np.array([[0.0, 0.0], [0.1, 0.1], [1.0, 0.0], [0.0, 1.0]])
        t = solve_tps(src, dst, regularization=1e-2)
        assert np.all(np.isfinite(t.weights))


REGULARIZATIONS = pytest.mark.parametrize("reg", [0.0, 1e-3, 0.5])


class TestSolveBitIdentity:
    @REGULARIZATIONS
    def test_one_system_matches_reference(self, rng, reg):
        for n in (3, 5, 8):
            src, dst = random_pairs(rng, n)
            t = solve_tps(src, dst, regularization=reg)
            weights, affine = reference_solve(src, dst, reg)
            assert np.array_equal(t.weights, weights)
            assert np.array_equal(t.affine, affine)
            assert np.array_equal(t.controls_d, dst)

    @REGULARIZATIONS
    def test_batch_matches_one_at_a_time(self, rng, reg):
        pairs = [random_pairs(rng, 5) for _ in range(7)]
        src = np.stack([s for s, _ in pairs])
        dst = np.stack([d for _, d in pairs])
        batch = solve_tps_batch(src, dst, regularization=reg)
        assert len(batch) == 7
        for b, t in enumerate(batch):
            one = solve_tps(src[b], dst[b], regularization=reg)
            assert np.array_equal(t.weights, one.weights)
            assert np.array_equal(t.affine, one.affine)
            assert np.array_equal(t.controls_d, one.controls_d)

    def test_batch_names_the_singular_system(self, rng):
        src, dst = random_pairs(rng, 4)
        bad = dst.copy()
        bad[1] = bad[0]  # duplicate anchor
        with pytest.raises(SingularSystemError) as err:
            solve_tps_batch(np.stack([src] * 3), np.stack([dst, dst, bad]))
        assert err.value.index == 2

    @pytest.mark.parametrize(
        "src,dst,match",
        [(square_points(), 1e200 * square_points(), "kernel overflows"),
         (1.7e308 * np.sign(square_points()), square_points(), "solution is not finite")],
        ids=["dst_near_1e200", "src_near_max_float"],
    )
    def test_overflow_is_singular_without_warnings(self, src, dst, match):
        # the suite turns any RuntimeWarning into an error
        with pytest.raises(SingularSystemError, match=match):
            solve_tps(src, dst)

    def test_batch_rejects_unbatched_points(self):
        pts = square_points()
        with pytest.raises(InvalidArgumentError, match=r"\(B, N, 2\)"):
            solve_tps_batch(pts, pts)


class TestEval:
    def test_identity_point(self):
        t = identity_transform()
        assert np.array_equal(eval_tps(t, [0.3, 0.7]), [0.3, 0.7])

    def test_translation_point(self):
        dst = square_points()
        t = solve_tps(dst + np.array([0.2, -0.1]), dst)
        assert np.allclose(eval_tps(t, [0.0, 0.0]), [0.2, -0.1], atol=1e-9)

    def test_grid_identity_is_lattice(self):
        t = identity_transform()
        grid = eval_tps_grid(t, 4, 4)
        assert np.allclose(grid, normalized_lattice(4, 4), atol=1e-12)

    def test_grid_translation(self):
        dst = square_points()
        t = solve_tps(dst + np.array([0.2, -0.1]), dst)
        grid = eval_tps_grid(t, 4, 4)
        expect = normalized_lattice(4, 4) + np.array([0.2, -0.1])
        assert np.allclose(grid, expect, atol=1e-9)

    def test_grid_bit_identical_to_loop(self, rng):
        src, dst = random_pairs(rng, 6)
        t = solve_tps(src, dst)
        grid = eval_tps_grid(t, 8, 8)
        lattice = normalized_lattice(8, 8)
        for r in range(8):
            for c in range(8):
                p = eval_tps(t, lattice[r, c])
                assert grid[r, c, 0] == p[0] and grid[r, c, 1] == p[1]

    @pytest.mark.parametrize("solved", [False, True], ids=["given", "solved"])
    def test_grid_bit_identical_on_non_square_lattice(self, rng, solved):
        # on 7 x 11 the origin is lattice point (3, 5): the first anchor
        # sits on it (rsq == 0); the second lies outside [-1, 1]^2
        controls = np.array(
            [[0.0, 0.0], [1.4, -1.3], [-0.6, 0.3], [0.5, 0.7], [-0.9, -0.8]]
        )
        if solved:
            t = solve_tps(controls + 0.1 * rng.normal(size=controls.shape), controls)
        else:
            t = TpsTransform(rng.normal(size=(2, 3)), rng.normal(size=(5, 2)), controls)
        lattice = normalized_lattice(7, 11)
        assert lattice[3, 5].tolist() == [0.0, 0.0]
        grid = eval_tps_grid(t, 7, 11)
        assert grid.shape == (7, 11, 2)
        expect = np.array([[eval_tps(t, lattice[r, c]) for c in range(11)]
                           for r in range(7)])
        assert np.array_equal(grid, expect)

    def test_grid_rejects_degenerate_sizes(self):
        t = identity_transform()
        with pytest.raises(InvalidArgumentError):
            eval_tps_grid(t, 1, 8)
        with pytest.raises(InvalidArgumentError):
            eval_tps_grid(t, 8, 0)


class TestEnergy:
    def test_identity_zero(self):
        assert bending_energy(identity_transform()) == 0.0

    def test_affine_rotation_negligible(self):
        ang = math.radians(30.0)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        dst = np.array(
            [[-0.6, -0.4], [0.5, -0.5], [0.6, 0.6], [-0.4, 0.5], [0.0, 0.1], [0.2, -0.2]]
        )
        t = solve_tps(dst @ rot.T, dst)
        assert bending_energy(t) <= 1e-10

    def test_matches_double_loop(self, rng):
        src, dst = random_pairs(rng, 7)
        t = solve_tps(src, dst)
        e = 0.0
        for i in range(7):
            for j in range(7):
                rsq = float(np.sum((dst[i] - dst[j]) ** 2))
                u = rsq * math.log(rsq) if rsq > 0 else 0.0
                e += float(np.dot(t.weights[i], t.weights[j])) * u
        got = bending_energy(t)
        assert got > 0.0
        assert abs(got - e) < 1e-10

    def test_regularization_monotone(self, rng):
        src, dst = random_pairs(rng, 8)
        energies = [bending_energy(solve_tps(src, dst, eps)) for eps in (0.0, 1e-4, 1e-2)]
        assert energies[0] >= energies[1] >= energies[2]


class TestProperties:
    def test_translation_equivariance(self, rng):
        src, dst = random_pairs(rng, 6)
        shift = np.array([0.13, -0.27])
        t1 = solve_tps(src, dst)
        t2 = solve_tps(src + shift, dst + shift)
        for p in rng.uniform(-1, 1, size=(10, 2)):
            a = eval_tps(t1, p) + shift
            b = eval_tps(t2, p + shift)
            assert np.max(np.abs(a - b)) < 1e-9

    def test_interpolation_across_sizes(self, rng):
        for n in (3, 5, 8):
            src, dst = random_pairs(rng, n)
            t = solve_tps(src, dst)
            grid_err = max(
                float(np.max(np.abs(eval_tps(t, dst[i]) - src[i]))) for i in range(n)
            )
            assert grid_err < 1e-8
