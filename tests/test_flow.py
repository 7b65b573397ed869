import warnings

import numpy as np
import pytest

from mdgesture.errors import FormatError, InvalidArgumentError
from mdgesture.flow import (
    FlowField,
    _bilinear,
    combine_flow,
    deform_grids,
    upsample_flow,
    warp_image,
)
from mdgesture.ppm import (
    RasterImage,
    from_bytes_array,
    mask_to_pgm,
    parse_pnm,
    to_bytes_array,
    write_pnm,
)
from mdgesture.tps import (
    TpsTransform,
    eval_tps_grid,
    identity_transform,
    normalized_lattice,
    solve_tps,
)
from mdgesture.workspace import Workspace

from conftest import random_pairs


def random_image(rng, h, w, ch=3):
    return from_bytes_array(rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8))


def anchored(controls):
    """An identity-affine transform with no radial part whose anchors are
    `controls`: for blend tests, where only the anchors matter."""
    controls = np.asarray(controls, dtype=np.float64)
    return TpsTransform(np.eye(2, 3), np.zeros_like(controls), controls)


def shifted_transform(dx, dy):
    dst = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [0.0, 0.1]])
    return solve_tps(dst + np.array([dx, dy]), dst)


class TestPnm:
    def test_roundtrip_color(self, rng):
        img = random_image(rng, 11, 7)
        blob = write_pnm(img)
        again = write_pnm(parse_pnm(blob))
        assert blob == again

    def test_roundtrip_gray(self, rng):
        img = random_image(rng, 5, 9, ch=1)
        blob = write_pnm(img)
        assert blob.startswith(b"P5")
        assert write_pnm(parse_pnm(blob)) == blob

    def test_byte_float_byte_identity(self, rng):
        raw = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
        assert np.array_equal(to_bytes_array(from_bytes_array(raw)), raw)

    def test_header_comments(self):
        blob = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 200, 255])
        img = parse_pnm(blob)
        assert img.height == 2 and img.width == 2 and img.channels == 1
        assert img.data[1, 1, 0] == 1.0

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            parse_pnm(b"P3\n2 2\n255\n" + b"\x00" * 12)

    def test_rejects_bad_maxval(self):
        with pytest.raises(FormatError):
            parse_pnm(b"P6\n1 1\n65535\n" + b"\x00" * 6)

    def test_rejects_truncated_and_trailing(self):
        good = b"P6\n2 1\n255\n" + b"\x00" * 6
        assert parse_pnm(good).width == 2
        with pytest.raises(FormatError):
            parse_pnm(good[:-1])
        with pytest.raises(FormatError):
            parse_pnm(good + b"\x00")

    def test_mask_pgm(self):
        mask = np.array([[True, False], [False, True]])
        img = parse_pnm(mask_to_pgm(mask))
        assert np.array_equal(img.data[:, :, 0], mask.astype(float))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InvalidArgumentError):
            RasterImage(np.full((2, 2, 3), 1.5))


class TestWarp:
    def test_identity_exact_at_dyadic_size(self, rng):
        # 17 and 33 make the normalized round trip float-exact
        img = random_image(rng, 17, 33)
        out = warp_image(img, FlowField(normalized_lattice(17, 33)))
        assert np.array_equal(out.data, img.data)

    def test_identity_byte_exact_at_awkward_size(self, rng):
        # 31/47 round trips carry ~1e-14 dust; quantization absorbs it
        img = random_image(rng, 31, 47)
        out = warp_image(img, FlowField(normalized_lattice(31, 47)))
        assert write_pnm(out) == write_pnm(img)

    def test_one_pixel_shift_matches_interior(self, rng):
        h, w = 33, 17
        img = random_image(rng, h, w)
        lattice = normalized_lattice(h, w)
        shifted = lattice.copy()
        shifted[..., 0] += 2.0 / (w - 1)
        out = warp_image(img, FlowField(shifted))
        assert np.array_equal(out.data[:, : w - 1], img.data[:, 1:])
        assert np.all(out.data[:, w - 1] == 0.0)

    def test_everything_out_of_range(self, rng):
        img = random_image(rng, 8, 8)
        flow = FlowField(np.full((8, 8, 2), -5.0))
        out = warp_image(img, flow)
        assert np.all(out.data == 0.0)
        assert not flow.valid_mask.any()

    def test_linearity(self, rng):
        src, dst = random_pairs(rng, 5)
        t = solve_tps(src, dst)
        flow = combine_flow(*deform_grids([t], 16, 16))
        i1 = random_image(rng, 16, 16)
        i2 = random_image(rng, 16, 16)
        a, b = 0.3, 0.6
        mix = RasterImage(a * i1.data + b * i2.data)
        lhs = warp_image(mix, flow).data
        rhs = a * warp_image(i1, flow).data + b * warp_image(i2, flow).data
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def reference_warp(img, flow):
    """The warp with four two-array fancy-index gathers on the interleaved
    (H, W, C) image, as it was before planar gathers."""
    data = img.data
    h, w = data.shape[:2]

    def taps(p, n):
        p = np.clip(p, 0.0, n - 1.0)
        i0 = np.minimum(np.floor(p), n - 2).astype(np.int64)
        return i0, p - i0

    x0, fx = taps((flow.map[..., 0] + 1.0) * 0.5 * (w - 1), w)
    y0, fy = taps((flow.map[..., 1] + 1.0) * 0.5 * (h - 1), h)
    fx = fx[..., None]
    fy = fy[..., None]
    top = (1.0 - fx) * data[y0, x0] + fx * data[y0, x0 + 1]
    bot = (1.0 - fx) * data[y0 + 1, x0] + fx * data[y0 + 1, x0 + 1]
    out = np.clip((1.0 - fy) * top + fy * bot, 0.0, 1.0)
    out[~flow.valid_mask] = 0.0
    return out


def mixed_sample_points(rng, h, w, src_h, src_w):
    """(h, w, 2) sample points of four kinds, each on about a quarter of
    the pixels: integer source pixels, fractional points, points on an
    edge (one coordinate exactly -1 or 1) and occluded points just or far
    outside [-1, 1]^2. Returns the points and each pixel's kind 0-3."""
    kind = rng.permutation(np.arange(h * w) % 4).reshape(h, w)
    integer = np.stack([-1.0 + 2.0 * rng.integers(0, src_w, size=(h, w)) / (src_w - 1),
                        -1.0 + 2.0 * rng.integers(0, src_h, size=(h, w)) / (src_h - 1)],
                       axis=-1)
    frac = rng.uniform(-1.0, 1.0, size=(h, w, 2))
    edge = frac.copy()
    edge[..., 0] = rng.choice([-1.0, 1.0], size=(h, w))
    occluded = frac.copy()
    occluded[..., 1] = (rng.choice([-1.0, 1.0], size=(h, w))
                        * rng.uniform(np.nextafter(1.0, 2.0), 1.5, size=(h, w)))
    return np.choose(kind[..., None], [integer, frac, edge, occluded]), kind


class TestWarpReference:
    @pytest.mark.parametrize("channels", [3, 1], ids=["rgb", "gray"])
    @pytest.mark.parametrize("shape", [(2, 2), (9, 13), (160, 97)],
                             ids=["2x2", "9x13", "160x97"])
    def test_bit_identical_to_interleaved_gathers(self, rng, shape, channels):
        h, w = shape
        img = random_image(rng, h, w, ch=channels)
        pts, kind = mixed_sample_points(rng, h, w, h, w)
        flow = FlowField(pts)
        assert not flow.valid_mask[kind == 3].any()
        assert flow.valid_mask[kind != 3].all()
        out = warp_image(img, flow)
        assert out.data.shape == (h, w, channels)
        assert np.array_equal(out.data, reference_warp(img, flow))

    def test_output_lattice_differs_from_source(self, rng):
        img = random_image(rng, 9, 13)
        flow = FlowField(mixed_sample_points(rng, 5, 21, 9, 13)[0])
        assert np.array_equal(warp_image(img, flow).data, reference_warp(img, flow))


class TestCombine:
    def test_single_grid_passthrough(self):
        t = shifted_transform(0.1, -0.2)
        grids, nearest_sq = deform_grids([t], 12, 12)
        flow = combine_flow(grids, nearest_sq)
        assert np.array_equal(flow.map, grids[0])

    def test_two_identical_transforms(self):
        t = shifted_transform(0.05, 0.05)
        grids, nearest_sq = deform_grids([t, t], 10, 10)
        flow = combine_flow(grids, nearest_sq)
        assert np.max(np.abs(flow.map - grids[0])) < 1e-9

    def test_equidistant_pixel_is_midpoint(self):
        lattice = normalized_lattice(9, 9)
        g1 = lattice + np.array([0.1, 0.0])
        g2 = lattice + np.array([-0.3, 0.2])
        c1 = np.array([[-0.5, 0.0]])
        c2 = np.array([[0.5, 0.0]])
        flow = combine_flow([g1, g2], deform_grids([anchored(c1), anchored(c2)], 9, 9)[1])
        mid_col = 4  # lattice x == 0 there, equidistant from both anchors
        expect = 0.5 * (g1[:, mid_col] + g2[:, mid_col])
        assert np.max(np.abs(flow.map[:, mid_col] - expect)) < 1e-12

    def test_identity_composition(self):
        ts = [identity_transform() for _ in range(3)]
        grids, nearest_sq = deform_grids(ts, 8, 8)
        flow = combine_flow(grids, nearest_sq)
        assert np.max(np.abs(flow.map - normalized_lattice(8, 8))) < 1e-9

    def test_convexity_bounds(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            ts = []
            for _ in range(k):
                src, dst = random_pairs(rng, 4)
                ts.append(solve_tps(src, dst))
            background = bool(rng.integers(0, 2))
            grids, nearest_sq = deform_grids(ts, 8, 8)
            flow = combine_flow(
                grids, nearest_sq,
                softness=float(rng.uniform(0.05, 0.5)), background=background,
            )
            hull = grids + ([normalized_lattice(8, 8)] if background else [])
            lo = np.min(np.stack(hull), axis=0)
            hi = np.max(np.stack(hull), axis=0)
            assert np.all(flow.map >= lo - 1e-9)
            assert np.all(flow.map <= hi + 1e-9)

    def test_determinism(self, rng):
        src, dst = random_pairs(rng, 5)
        t = solve_tps(src, dst)
        grids, nearest_sq = deform_grids([t, identity_transform()], 16, 16)
        f1 = combine_flow(grids, nearest_sq, background=True)
        f2 = combine_flow(grids, nearest_sq, background=True)
        assert np.array_equal(f1.map, f2.map)

    def test_shape_mismatch_rejected(self):
        t = identity_transform()
        (g1,), near = deform_grids([t], 8, 8)
        (g2,), _ = deform_grids([t], 9, 8)
        with pytest.raises(InvalidArgumentError):
            combine_flow([g1, g2], np.concatenate([near, near]))

    def test_distances_must_pair_with_grids(self):
        grids, nearest_sq = deform_grids([identity_transform()] * 2, 8, 8)
        for bad in (nearest_sq[:1], nearest_sq[:, :7], nearest_sq[0]):
            with pytest.raises(InvalidArgumentError, match="nearest_sq"):
                combine_flow(grids, bad)
        with pytest.raises(InvalidArgumentError):
            combine_flow([], nearest_sq[:0])

    @pytest.mark.parametrize("softness", [0.0, -0.1, 1e-310, 1e-7, np.inf, np.nan])
    def test_bad_softness_rejected_before_arithmetic(self, softness):
        t = identity_transform()
        grids, nearest_sq = deform_grids([t], 8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="finite and >="):
                combine_flow(grids, nearest_sq, softness)

    def test_smallest_softness_accepted(self):
        t = identity_transform()
        grids, _ = deform_grids([t, t], 8, 8)
        _, nearest_sq = deform_grids([t, anchored(t.controls_d + 0.5)], 8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow = combine_flow(grids, nearest_sq, 1e-6, background=True)
        assert np.array_equal(flow.map, grids[0])

    @pytest.mark.parametrize("bad", [np.zeros((0, 2)), np.zeros((3, 3)),
                                     np.array([[0.0, np.nan]])])
    def test_bad_control_set_rejected(self, bad):
        # the blend's distances come from transforms, which refuse them
        with pytest.raises(InvalidArgumentError):
            TpsTransform(np.eye(2, 3), np.zeros((bad.shape[0], 2)), bad)


def reference_nearest_sq(h, w, control_sets):
    """Squared distance from every lattice point to every anchor of each
    set on the full lattice, then the minimum over the set: (K, H, W)."""
    q = normalized_lattice(h, w)
    out = []
    for c in control_sets:
        diff = q[:, :, None, :] - c[None, None, :, :]
        out.append(np.min(np.sum(diff * diff, axis=3), axis=2))
    return np.stack(out)


def reference_combine(grids, control_sets, softness, background):
    """The blend written out per set on the full lattice: distance to
    every anchor, min, sqrt, softmax, then a sequential weighted sum."""
    h, w = grids[0].shape[:2]
    q = normalized_lattice(h, w)
    dists = list(np.sqrt(reference_nearest_sq(h, w, control_sets)))
    stack = list(grids)
    if background:
        dists.append(np.max(np.stack(dists), axis=0))
        stack.append(q)
    logits = np.stack([-d / softness for d in dists])
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=0, keepdims=True)
    out = np.zeros((h, w, 2))
    for k, g in enumerate(stack):
        out += weights[k][:, :, None] * g
    return out


class TestCombineReference:
    @pytest.mark.parametrize("shape", [(2, 2), (17, 30), (64, 64)])
    @pytest.mark.parametrize("softness", [0.01, 0.1, 3.0])
    @pytest.mark.parametrize("background", [False, True])
    def test_bit_identical_to_reference(self, rng, shape, softness, background):
        h, w = shape
        # ragged sets; the first holds an anchor exactly on a lattice
        # point, the last reaches outside [-1, 1]^2
        sets = [rng.uniform(-1.0, 1.0, size=(n, 2)) for n in (1, 3, 7)]
        sets[0][0] = normalized_lattice(h, w)[h // 2, w - 1]
        sets[2][:2] = [[-1.4, 0.3], [1.2, 1.7]]
        grids = [normalized_lattice(h, w) + rng.normal(0.0, 0.1, size=(h, w, 2))
                 for _ in sets]
        _, nearest_sq = deform_grids([anchored(c) for c in sets], h, w)
        flow = combine_flow(grids, nearest_sq, softness, background=background)
        expect = reference_combine(grids, sets, softness, background)
        assert np.array_equal(flow.map, expect)


class TestDeform:
    @pytest.mark.parametrize("shape", [(2, 2), (17, 30), (64, 64)])
    def test_nearest_sq_is_brute_force_minimum(self, rng, shape):
        # one anchor exactly on a lattice point, others outside [-1, 1]^2
        h, w = shape
        sets = [rng.uniform(-1.0, 1.0, size=(5, 2)) for _ in range(3)]
        sets[0][2] = normalized_lattice(h, w)[h - 1, w // 2]
        sets[1][:2] = [[-1.4, 0.3], [1.2, 1.7]]
        ts = [solve_tps(c + 0.05 * rng.normal(size=c.shape), c) for c in sets]
        _, nearest_sq = deform_grids(ts, h, w)
        assert np.array_equal(nearest_sq, reference_nearest_sq(h, w, sets))
        assert nearest_sq[0, h - 1, w // 2] == 0.0

    def test_ragged_counts_equal_one_transform_at_a_time(self, rng):
        # counts 3, 7, 7, 3: three runs of one anchor count each
        ts = [solve_tps(*random_pairs(rng, n)) for n in (3, 7, 7, 3)]
        grids, nearest_sq = deform_grids(ts, 9, 13)
        assert len(grids) == 4 and nearest_sq.shape == (4, 9, 13)
        for t, grid, near in zip(ts, grids, nearest_sq):
            (one,), (one_near,) = eval_tps_grid([t], 9, 13)
            assert np.array_equal(grid, one)
            assert np.array_equal(near, one_near)
        assert np.array_equal(nearest_sq,
                              reference_nearest_sq(9, 13, [t.controls_d for t in ts]))

    def test_one_pass_per_run_of_anchor_counts(self, rng, monkeypatch):
        from mdgesture import flow

        calls = []
        real = flow.eval_tps_grid
        monkeypatch.setattr(flow, "eval_tps_grid",
                            lambda ts, *a, **kw: calls.append(len(ts)) or real(ts, *a, **kw))
        deform_grids([solve_tps(*random_pairs(rng, 5)) for _ in range(20)], 8, 8)
        deform_grids([solve_tps(*random_pairs(rng, n)) for n in (4, 4, 6)], 8, 8)
        assert calls == [20, 2, 1]


class TestMasks:
    def test_identity_all_valid(self):
        assert not (~FlowField(normalized_lattice(6, 6)).valid_mask).any()

    def test_half_plane(self):
        m = normalized_lattice(8, 8).copy()
        m[:, :4, 0] = -5.0
        occ = ~FlowField(m).valid_mask
        assert occ[:, :4].all() and not occ[:, 4:].any()

    def test_random_flow_matches_bounds_oracle(self, rng):
        m = rng.uniform(-1.5, 1.5, size=(10, 10, 2))
        occ = ~FlowField(m).valid_mask
        for r in range(10):
            for c in range(10):
                inside = (
                    -1.0 <= m[r, c, 0] <= 1.0 and -1.0 <= m[r, c, 1] <= 1.0
                )
                assert occ[r, c] == (not inside)


class TestUpsample:
    def test_identity_upsamples_to_identity(self):
        up = upsample_flow(FlowField(normalized_lattice(9, 9)), 17, 17)
        assert np.max(np.abs(up.map - normalized_lattice(17, 17))) < 1e-12

    def test_constant_offset_preserved(self):
        base = FlowField(normalized_lattice(9, 9) + np.array([0.05, -0.03]))
        up = upsample_flow(base, 21, 13)
        expect = normalized_lattice(21, 13) + np.array([0.05, -0.03])
        assert np.max(np.abs(up.map - expect)) < 1e-12

    @pytest.mark.parametrize(
        "src_shape,dst_shape",
        [((64, 64), (160, 160)), ((64, 64), (40, 40)), ((9, 13), (21, 7)),
         ((2, 2), (5, 6))],
        ids=["up_64_160", "down_64_40", "non_square_9x13_21x7", "from_2x2"],
    )
    def test_bit_identical_to_pointwise_bilinear(self, rng, src_shape, dst_shape):
        h, w = src_shape
        flow = FlowField(normalized_lattice(h, w)
                         + rng.normal(0.0, 0.2, size=(h, w, 2)))
        target = normalized_lattice(*dst_shape)
        px = (target[..., 0] + 1.0) * 0.5 * (w - 1)
        py = (target[..., 1] + 1.0) * 0.5 * (h - 1)
        up = upsample_flow(flow, *dst_shape)
        assert np.array_equal(up.map, _bilinear(flow.map, px, py, Workspace()))
