"""Z-order encoding, grid quantization, pixel mappings, and map packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatkin.errors import CapacityError, InvalidArgumentError
from splatkin.morton import (
    AttributeMap,
    Box,
    MortonMapping,
    build_mapping,
    locality_score,
    morton_decode,
    morton_encode,
    pack_map,
    quantize,
    random_mapping,
    unpack_map,
    y_sort_mapping,
)


class TestEncoding:
    def test_known_codes(self):
        # [DERIVED] by hand-interleaving bits (x lowest): x=1,y=1,z=1 -> 0b111
        assert morton_encode(1, 1, 1) == 7
        # x=3 -> bits 0,3; y=1 -> bit 1; z=2 -> bit 5: 1+8+2+32
        assert morton_encode(3, 1, 2) == 43
        # 143 = 0b010001111: x bits {0,3}, y bits {1,7}, z bit {2}
        assert morton_decode(143) == (3, 5, 1)

    def test_axis_order(self):
        # x occupies the lowest lane
        assert morton_encode(1, 0, 0) == 1
        assert morton_encode(0, 1, 0) == 2
        assert morton_encode(0, 0, 1) == 4

    def test_round_trip_exhaustive_five_bits(self):
        side = 32
        g = np.arange(side)
        ix, iy, iz = np.meshgrid(g, g, g, indexing="ij")
        ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
        codes = morton_encode(ix, iy, iz)
        assert len(np.unique(codes)) == side**3  # bijective on the cube
        dx, dy, dz = morton_decode(codes)
        assert np.array_equal(dx, ix) and np.array_equal(dy, iy) and np.array_equal(dz, iz)

    def test_all_codes_round_trip(self):
        codes = np.arange(1 << 15, dtype=np.uint64)
        x, y, z = morton_decode(codes)
        assert np.array_equal(morton_encode(x, y, z), codes)

    def test_21_bit_extremes(self):
        top = (1 << 21) - 1
        assert morton_decode(morton_encode(top, top, top)) == (top, top, top)
        assert morton_decode(morton_encode(top, 0, 0)) == (top, 0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            morton_encode(1 << 21, 0, 0)
        with pytest.raises(InvalidArgumentError):
            morton_encode(-1, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, (1 << 21) - 1), st.integers(0, (1 << 21) - 1),
           st.integers(0, (1 << 21) - 1))
    def test_round_trip_property(self, x, y, z):
        assert morton_decode(morton_encode(x, y, z)) == (x, y, z)


class TestQuantize:
    def test_known_cells(self):
        box = Box(lo=np.zeros(3), hi=np.full(3, 4.0))
        # [TRIVIAL] floor(p) on a 4-cell grid over [0,4)
        cells, clamped = quantize(np.array([2.0, 1.2, 3.9]), box, bits=2)
        assert cells.tolist() == [2, 1, 3]
        assert clamped == 0

    def test_max_face_clamps(self):
        box = Box(lo=np.zeros(3), hi=np.ones(3))
        cells, clamped = quantize(np.array([[1.0, 0.5, 0.0], [2.0, -0.5, 0.5]]), box, bits=3)
        assert cells[0].tolist() == [7, 4, 0]
        assert cells[1].tolist() == [7, 0, 4]
        assert clamped == 3  # 1.0, 2.0 and -0.5 all land outside

    def test_bits_range_checked(self):
        box = Box(lo=np.zeros(3), hi=np.ones(3))
        for bad in (0, 22):
            with pytest.raises(InvalidArgumentError):
                quantize(np.zeros(3), box, bits=bad)

    def test_box_validation(self):
        with pytest.raises(InvalidArgumentError):
            Box(lo=np.zeros(3), hi=np.array([1.0, 0.0, 1.0]))


class TestBuildMapping:
    def test_cube_corner_ranks(self):
        corners = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)],
                           dtype=np.float64)
        rng = np.random.default_rng(0)
        perm = rng.permutation(8)
        mapping = build_mapping(corners[perm], resolution=(4, 2), bits=4)
        # [DERIVED] corner rank along the z-curve is x + 2y + 4z; pixels fill
        # row-major: rank r -> (r mod W, r div W)
        for row, corner in zip(mapping.uv, corners[perm]):
            rank = int(corner[0] + 2 * corner[1] + 4 * corner[2])
            assert row.tolist() == [rank % 4, rank // 4]

    def test_injective_and_stable_under_ties(self):
        pts = np.zeros((5, 3))  # all identical -> same cell; index breaks ties
        mapping = build_mapping(pts, resolution=(5, 1), bits=4)
        assert mapping.uv.tolist() == [[i, 0] for i in range(5)]

    def test_capacity_error_names_minimal_side(self):
        with pytest.raises(CapacityError) as exc:
            build_mapping(np.random.default_rng(1).random((10, 3)), resolution=(3, 3), bits=4)
        assert "4" in str(exc.value)  # ceil(sqrt(10))

    def test_mapping_is_frozen(self):
        mapping = build_mapping(np.random.default_rng(2).random((6, 3)), (3, 2), bits=4)
        with pytest.raises(ValueError):
            mapping.uv[0, 0] = 9

    def test_pixel_to_kernel_inverse(self):
        mapping = build_mapping(np.random.default_rng(3).random((7, 3)), (4, 4), bits=5)
        grid = mapping.pixel_to_kernel()
        assert grid.shape == (4, 4)
        for i, (u, v) in enumerate(mapping.uv):
            assert grid[v, u] == i
        assert (grid == -1).sum() == 16 - 7

    def test_duplicate_pixels_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MortonMapping(resolution=(2, 2), uv=np.array([[0, 0], [0, 0]]), valid_count=2)


class TestAlternativeLayouts:
    def test_y_sort_orders_by_height(self):
        pts = np.array([[0.0, 3.0, 0], [0.0, 1.0, 0], [0.0, 2.0, 0]])
        mapping = y_sort_mapping(pts, resolution=(3, 1))
        assert mapping.uv.tolist() == [[2, 0], [0, 0], [1, 0]]

    def test_random_mapping_is_seeded_permutation(self):
        a = random_mapping(9, (3, 3), seed=4)
        b = random_mapping(9, (3, 3), seed=4)
        c = random_mapping(9, (3, 3), seed=5)
        assert np.array_equal(a.uv, b.uv)
        assert not np.array_equal(a.uv, c.uv)

    def test_locality_ordering_on_random_cloud(self):
        rng = np.random.default_rng(11)
        pts = rng.random((1024, 3))
        res = (32, 32)
        morton = locality_score(build_mapping(pts, res, bits=8), pts)
        ysort = locality_score(y_sort_mapping(pts, res), pts)
        rand = locality_score(random_mapping(len(pts), res, seed=0), pts)
        # space-filling order keeps pixel neighbors spatially close
        assert morton < ysort < rand

    def test_locality_score_hand_case(self):
        # two kernels side by side: score = their 3D distance
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0]])
        mapping = MortonMapping(resolution=(2, 1), uv=np.array([[0, 0], [1, 0]]),
                                valid_count=2)
        assert locality_score(mapping, pts) == pytest.approx(0.5)

    def test_locality_score_rejects_non_finite_positions(self):
        mapping = MortonMapping(resolution=(2, 2), uv=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
                                valid_count=4)
        with pytest.raises(InvalidArgumentError, match="positions"):
            locality_score(mapping, np.full((4, 3), np.nan))


class TestAttributeMaps:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(6)
        pts = rng.random((10, 3))
        mapping = build_mapping(pts, (4, 4), bits=6)
        values = rng.normal(size=(10, 5)).astype(np.float32)
        amap = pack_map(mapping, values)
        assert amap.data.shape == (4, 4, 5)
        assert amap.data.dtype == np.float32
        assert np.array_equal(unpack_map(mapping, amap), values)

    def test_invalid_pixels_stay_zero(self):
        mapping = MortonMapping(resolution=(2, 2), uv=np.array([[1, 1]]), valid_count=1)
        amap = pack_map(mapping, np.array([[3.0, 4.0]]))
        assert amap.data[1, 1].tolist() == [3.0, 4.0]
        assert np.count_nonzero(amap.data) == 2

    def test_count_mismatch_rejected(self):
        mapping = MortonMapping(resolution=(2, 2), uv=np.array([[0, 0]]), valid_count=1)
        with pytest.raises(InvalidArgumentError):
            pack_map(mapping, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad, message", [(1e39, "overflows float32"),
                                              (-1e39, "overflows float32"),
                                              (np.nan, "non-finite"), (np.inf, "non-finite")])
    def test_values_outside_float32_rejected(self, bad, message):
        mapping = MortonMapping(resolution=(2, 2), uv=np.array([[0, 0], [1, 1]]), valid_count=2)
        values = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(InvalidArgumentError, match=f"colors.*{message}"):
            pack_map(mapping, values, "colors")

    def test_largest_float32_packs(self):
        mapping = MortonMapping(resolution=(1, 1), uv=np.array([[0, 0]]), valid_count=1)
        top = float(np.finfo(np.float32).max)
        assert pack_map(mapping, np.array([[top, -top]])).data.tolist() == [[[top, -top]]]

    def test_resolution_mismatch_rejected(self):
        mapping = MortonMapping(resolution=(2, 2), uv=np.array([[0, 0]]), valid_count=1)
        with pytest.raises(InvalidArgumentError):
            unpack_map(mapping, AttributeMap(data=np.zeros((3, 3, 1), dtype=np.float32)))
