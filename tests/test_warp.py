"""Skinned warping, relative transforms, and attribute-map round trips."""

import numpy as np
import pytest

from splatkin.core import GaussianSet, Role, knn_build, quat_multiply, quat_normalize
from splatkin.errors import InvalidArgumentError
from splatkin.morton import build_mapping
from splatkin.warp import (
    FrameMotion,
    apply_motion,
    assemble,
    disassemble,
    relative_motion,
    warp_appearance,
)


def _rand_set(n, seed, role=Role.MOTION, channels=3):
    rng = np.random.default_rng(seed)
    return GaussianSet(
        positions=rng.normal(size=(n, 3)),
        rotations=quat_normalize(rng.normal(size=(n, 4))),
        log_scales=rng.uniform(-4.0, -2.0, size=(n, 3)),
        opacities=rng.uniform(0.2, 1.0, size=n),
        colors=rng.random((n, channels)),
        role=role,
    )


def _identity_motion(n, frame=1):
    return FrameMotion(delta_p=np.zeros((n, 3)),
                       delta_q=np.tile([1.0, 0, 0, 0], (n, 1)), frame=frame)


class TestRelativeMotion:
    def test_round_trip_exact(self):
        canonical = _rand_set(12, seed=0)
        current = _rand_set(12, seed=1)
        motion = relative_motion(canonical, current)
        rebuilt = apply_motion(canonical, motion)
        assert np.allclose(rebuilt.positions, current.positions, atol=1e-12)
        # rotations agree up to quaternion sign
        dots = np.abs(np.sum(quat_normalize(rebuilt.rotations)
                             * quat_normalize(current.rotations), axis=1))
        assert np.allclose(dots, 1.0, atol=1e-12)

    def test_identity_when_frames_match(self):
        canonical = _rand_set(8, seed=2)
        motion = relative_motion(canonical, canonical)
        assert np.allclose(motion.delta_p, 0.0, atol=1e-12)
        assert np.allclose(np.abs(motion.delta_q[:, 0]), 1.0, atol=1e-12)

    def test_requires_motion_role(self):
        canonical = _rand_set(4, seed=3, role=Role.APPEARANCE)
        with pytest.raises(InvalidArgumentError):
            relative_motion(canonical, canonical)

    def test_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            relative_motion(_rand_set(4, seed=4), _rand_set(5, seed=5))


class TestWarp:
    def test_identity_motion_is_noop(self):
        motion_set = _rand_set(10, seed=6)
        appearance = _rand_set(30, seed=7, role=Role.APPEARANCE)
        graph = knn_build(appearance.positions, motion_set.positions, 4, 0.5,
                          normalize=True)
        out = warp_appearance(appearance, _identity_motion(10), graph)
        assert np.allclose(out.positions, appearance.positions, atol=1e-12)
        assert np.allclose(out.rotations, quat_normalize(appearance.rotations), atol=1e-12)
        assert np.array_equal(out.log_scales, appearance.log_scales)
        assert np.array_equal(out.colors, appearance.colors)

    def test_global_rigid_equivariance(self):
        # every kernel carries the same (R, t): the skinned set moves rigidly
        rng = np.random.default_rng(8)
        motion_set = _rand_set(10, seed=9)
        appearance = _rand_set(25, seed=10, role=Role.APPEARANCE)
        q = quat_normalize(rng.normal(size=4))
        t = rng.normal(size=3)
        from splatkin.core import quat_to_matrix

        rot = quat_to_matrix(q)
        motion = FrameMotion(delta_p=np.tile(t, (10, 1)), delta_q=np.tile(q, (10, 1)),
                             frame=1)
        graph = knn_build(appearance.positions, motion_set.positions, 4, 0.5,
                          normalize=True)
        out = warp_appearance(appearance, motion, graph)
        assert np.allclose(out.positions, appearance.positions @ rot.T + t, atol=1e-9)
        expect_q = quat_normalize(quat_multiply(q, appearance.rotations))
        dots = np.abs(np.sum(out.rotations * expect_q, axis=1))
        assert np.allclose(dots, 1.0, atol=1e-9)

    def test_single_neighbor_follows_kernel_exactly(self):
        motion_set = _rand_set(6, seed=11)
        # appearance sample sits exactly on kernel 2
        appearance = _rand_set(1, seed=12, role=Role.APPEARANCE).replace(
            positions=motion_set.positions[2:3].copy())
        graph = knn_build(appearance.positions, motion_set.positions, 1, 0.2,
                          normalize=True)
        assert graph.indices[0, 0] == 2
        current = _rand_set(6, seed=13)
        motion = relative_motion(motion_set, current)
        out = warp_appearance(appearance, motion, graph)
        assert np.allclose(out.positions[0], current.positions[2], atol=1e-12)

    def test_requires_normalized_graph(self):
        motion_set = _rand_set(5, seed=14)
        appearance = _rand_set(7, seed=15, role=Role.APPEARANCE)
        graph = knn_build(appearance.positions, motion_set.positions, 3, 0.5,
                          normalize=False)
        with pytest.raises(InvalidArgumentError):
            warp_appearance(appearance, _identity_motion(5), graph)

    def test_frame_stamped_from_motion(self):
        motion_set = _rand_set(5, seed=16)
        appearance = _rand_set(7, seed=17, role=Role.APPEARANCE)
        graph = knn_build(appearance.positions, motion_set.positions, 2, 0.5,
                          normalize=True)
        out = warp_appearance(appearance, _identity_motion(5, frame=42), graph)
        assert out.frame == 42


class TestAttributeRoundTrip:
    def test_disassemble_assemble_after_f32(self):
        gset = _rand_set(20, seed=18, role=Role.APPEARANCE, channels=4)
        mapping = build_mapping(gset.positions, (5, 4), bits=6)
        maps = disassemble(gset, mapping)
        assert sorted(maps) == ["color", "position", "rotation", "shape"]
        assert maps["shape"].channels == 4  # three log-extents + opacity
        back = assemble(maps, mapping, role=Role.APPEARANCE, frame=3)
        # exchange precision is float32; equality after one rounding
        for name in ("positions", "rotations", "log_scales", "opacities", "colors"):
            orig = getattr(gset, name).astype(np.float32)
            assert np.array_equal(getattr(back, name), orig.astype(np.float64)), name
        assert back.frame == 3

    def test_values_beyond_float32_name_their_map(self):
        gset = _rand_set(6, seed=21, role=Role.APPEARANCE)
        mapping = build_mapping(gset.positions, (3, 2), bits=4)
        far = gset.positions.copy()
        far[2, 1] = 1e39
        with pytest.raises(InvalidArgumentError, match="position map overflows float32"):
            disassemble(gset.replace(positions=far), mapping)

    def test_count_mismatch_rejected(self):
        gset = _rand_set(6, seed=19)
        mapping = build_mapping(np.random.default_rng(1).random((5, 3)), (3, 2), bits=4)
        with pytest.raises(InvalidArgumentError):
            disassemble(gset, mapping)

    def test_missing_map_rejected(self):
        gset = _rand_set(6, seed=20, role=Role.APPEARANCE)
        mapping = build_mapping(gset.positions, (3, 2), bits=4)
        maps = disassemble(gset, mapping)
        del maps["rotation"]
        with pytest.raises(InvalidArgumentError):
            assemble(maps, mapping, role=Role.APPEARANCE)
