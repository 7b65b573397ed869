import numpy as np
import pytest

from mdgesture.errors import FormatError, InvalidArgumentError
from mdgesture.flow import (
    FlowField,
    combine_flow,
    deform_grids,
    identity_flow,
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
from mdgesture.tps import identity_transform, normalized_lattice, solve_tps

from conftest import random_pairs


def random_image(rng, h, w, ch=3):
    return from_bytes_array(rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8))


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
        out = warp_image(img, identity_flow(17, 33))
        assert np.array_equal(out.data, img.data)

    def test_identity_byte_exact_at_awkward_size(self, rng):
        # 31/47 round trips carry ~1e-14 dust; quantization absorbs it
        img = random_image(rng, 31, 47)
        out = warp_image(img, identity_flow(31, 47))
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
        flow = combine_flow(deform_grids([t], 16, 16), [t.controls_d])
        i1 = random_image(rng, 16, 16)
        i2 = random_image(rng, 16, 16)
        a, b = 0.3, 0.6
        mix = RasterImage(a * i1.data + b * i2.data)
        lhs = warp_image(mix, flow).data
        rhs = a * warp_image(i1, flow).data + b * warp_image(i2, flow).data
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestCombine:
    def test_single_grid_passthrough(self):
        t = shifted_transform(0.1, -0.2)
        grids = deform_grids([t], 12, 12)
        flow = combine_flow(grids, [t.controls_d])
        assert np.array_equal(flow.map, grids[0])

    def test_two_identical_transforms(self):
        t = shifted_transform(0.05, 0.05)
        grids = deform_grids([t, t], 10, 10)
        flow = combine_flow(grids, [t.controls_d, t.controls_d])
        assert np.max(np.abs(flow.map - grids[0])) < 1e-9

    def test_equidistant_pixel_is_midpoint(self):
        lattice = normalized_lattice(9, 9)
        g1 = lattice + np.array([0.1, 0.0])
        g2 = lattice + np.array([-0.3, 0.2])
        c1 = np.array([[-0.5, 0.0]])
        c2 = np.array([[0.5, 0.0]])
        flow = combine_flow([g1, g2], [c1, c2])
        mid_col = 4  # lattice x == 0 there, equidistant from both anchors
        expect = 0.5 * (g1[:, mid_col] + g2[:, mid_col])
        assert np.max(np.abs(flow.map[:, mid_col] - expect)) < 1e-12

    def test_identity_composition(self):
        ts = [identity_transform() for _ in range(3)]
        grids = deform_grids(ts, 8, 8)
        flow = combine_flow(grids, [t.controls_d for t in ts])
        assert np.max(np.abs(flow.map - normalized_lattice(8, 8))) < 1e-9

    def test_convexity_bounds(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            ts = []
            for _ in range(k):
                src, dst = random_pairs(rng, 4)
                ts.append(solve_tps(src, dst))
            background = bool(rng.integers(0, 2))
            grids = deform_grids(ts, 8, 8)
            flow = combine_flow(
                grids, [t.controls_d for t in ts],
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
        grids = deform_grids([t, identity_transform()], 16, 16)
        sets = [t.controls_d, identity_transform().controls_d]
        f1 = combine_flow(grids, sets, background=True)
        f2 = combine_flow(grids, sets, background=True)
        assert np.array_equal(f1.map, f2.map)

    def test_shape_mismatch_rejected(self):
        t = identity_transform()
        g1 = deform_grids([t], 8, 8)[0]
        g2 = deform_grids([t], 9, 8)[0]
        with pytest.raises(InvalidArgumentError):
            combine_flow([g1, g2], [t.controls_d, t.controls_d])


class TestMasks:
    def test_identity_all_valid(self):
        assert not (~identity_flow(6, 6).valid_mask).any()

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
        up = upsample_flow(identity_flow(9, 9), 17, 17)
        assert np.max(np.abs(up.map - normalized_lattice(17, 17))) < 1e-12

    def test_constant_offset_preserved(self):
        base = FlowField(normalized_lattice(9, 9) + np.array([0.05, -0.03]))
        up = upsample_flow(base, 21, 13)
        expect = normalized_lattice(21, 13) + np.array([0.05, -0.03])
        assert np.max(np.abs(up.map - expect)) < 1e-12
