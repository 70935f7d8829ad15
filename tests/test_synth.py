"""Synthetic scenes: analytic deformations and exact per-sample transforms."""

import numpy as np
import pytest

from splatkin.core import Role
from splatkin.errors import InvalidArgumentError
from splatkin.synth import _allocate, animate, make_cylinder_scene, make_scene, make_twolink_scene
from splatkin.warp import apply_motion


class TestCylinder:
    def test_quarter_arc_endpoint(self):
        # [DERIVED] curvature pi/(2L) bends the axis into a quarter circle of
        # radius 2L/pi; the free end lands at (2L/pi, 2L/pi, 0)
        sc = make_cylinder_scene(50, 100, seed=0, radius=0.05, length=0.5)
        kappa = np.pi / (2 * 0.5)
        end = sc.deform(np.array([[0.5, 0.0, 0.0]]), None, kappa)[0]
        r = 2 * 0.5 / np.pi
        assert np.allclose(end, [r, r, 0.0], atol=1e-12)

    def test_zero_curvature_is_identity(self):
        sc = make_cylinder_scene(30, 60, seed=1)
        pts = sc.motion.points
        assert np.array_equal(sc.deform(pts, sc.motion_labels, 0.0), pts)

    def test_arc_length_preserved_on_axis(self):
        # the axis bends without stretching: points keep their arc distance
        sc = make_cylinder_scene(30, 60, seed=2, radius=0.05, length=0.5)
        xs = np.linspace(0.0, 0.5, 20)
        axis_pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        bent = sc.deform(axis_pts, None, 1.7)
        seg = np.linalg.norm(np.diff(bent, axis=0), axis=1)
        chord = xs[1] - xs[0]
        arc = 2.0 / 1.7 * np.sin(1.7 * chord / 2.0)  # chord of a circular arc
        assert np.allclose(seg, arc, rtol=1e-10)

    def test_injectivity_bound_enforced(self):
        sc = make_cylinder_scene(30, 60, seed=3, radius=0.1, length=0.5)
        with pytest.raises(InvalidArgumentError):
            sc.deform(sc.motion.points, sc.motion_labels, 10.0)  # kappa*r >= 1

    def test_labels_split_at_midpoint(self):
        sc = make_cylinder_scene(200, 100, seed=4, radius=0.05, length=0.5)
        assert sc.label_names == ("lower", "upper")
        x = sc.motion.points[:, 0]
        assert np.array_equal(sc.motion_labels, (x >= 0.25).astype(np.int64))
        assert 0 < sc.motion_labels.sum() < 200  # both present


class TestTwoLink:
    def test_base_fixed_distal_rotates(self):
        sc = make_twolink_scene(150, 100, seed=5)
        theta = 0.8
        pts = sc.motion.points
        out = sc.deform(pts, sc.motion_labels, theta)
        base = sc.motion_labels == sc.label_names.index("base")
        assert np.array_equal(out[base], pts[base])
        moving = ~base
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        assert np.allclose(out[moving], pts[moving] @ rot.T, atol=1e-12)

    def test_three_nonempty_labels(self):
        sc = make_twolink_scene(30, 500, seed=6)
        assert sc.label_names == ("base", "limb", "tip")
        for labels, n in ((sc.motion_labels, 30), (sc.surface_labels, 500)):
            counts = np.bincount(labels, minlength=3)
            assert (counts > 0).all()
            assert counts.sum() == n

    def test_angle_bound(self):
        sc = make_twolink_scene(20, 40, seed=7)
        with pytest.raises(InvalidArgumentError):
            sc.deform(sc.motion.points, sc.motion_labels, 2.5)

    def test_three_samples_is_one_per_part(self):
        sc = make_twolink_scene(3, 3, seed=7)
        assert np.bincount(sc.motion_labels, minlength=3).tolist() == [1, 1, 1]
        for n_motion, n_appearance in ((2, 40), (20, 0), (-3, 40)):
            with pytest.raises(InvalidArgumentError, match="three samples"):
                make_twolink_scene(n_motion, n_appearance, seed=7)

    def test_allocate_needs_a_sample_per_part(self):
        assert _allocate(3, np.array([5.0, 1.0, 1.0])).tolist() == [1, 1, 1]
        for total in (2, 0, -1):  # once looped forever taking from the largest part
            with pytest.raises(InvalidArgumentError, match="non-empty parts"):
                _allocate(total, np.array([5.0, 1.0, 1.0]))

    def test_tip_samples_on_sphere(self):
        sc = make_twolink_scene(50, 400, seed=8, limb_length=0.25, tip_radius=0.05)
        tip = sc.surface_labels == sc.label_names.index("tip")
        d = np.linalg.norm(sc.surface.points[tip] - [0.25, 0.0, 0.0], axis=1)
        assert np.allclose(d, 0.05, atol=1e-12)


class TestExactMotion:
    @pytest.mark.parametrize("kind,value", [("cylinder", 2.0), ("twolink", -1.3)])
    def test_transforms_reproduce_deformation(self, kind, value):
        sc = make_scene(kind, 120, 60, seed=9)
        fm = sc.exact_motion(value, frame=4)
        assert fm.frame == 4
        moved = apply_motion(sc.motion_set(), fm)
        direct = sc.deform(sc.motion.points, sc.motion_labels, value)
        assert np.abs(moved.positions - direct).max() < 1e-12

    def test_rotations_are_exact_frames(self):
        # kernel rotations after motion equal the local surface rotation
        sc = make_scene("cylinder", 80, 40, seed=10)
        kappa = 1.1
        fm = sc.exact_motion(kappa)
        half = 0.5 * kappa * sc.motion.points[:, 0]
        expect = np.stack([np.cos(half), np.zeros_like(half),
                           np.zeros_like(half), np.sin(half)], axis=1)
        assert np.abs(fm.delta_q - expect).max() < 1e-12


class TestSceneFactories:
    def test_seeded_determinism(self):
        a = make_scene("twolink", 40, 80, seed=11)
        b = make_scene("twolink", 40, 80, seed=11)
        c = make_scene("twolink", 40, 80, seed=12)
        assert np.array_equal(a.motion.points, b.motion.points)
        assert np.array_equal(a.surface.points, b.surface.points)
        assert not np.array_equal(a.motion.points, c.motion.points)

    def test_roles_and_sizes(self):
        sc = make_scene("cylinder", 25, 70, seed=13)
        m = sc.motion_set()
        a = sc.appearance_set()
        assert m.role is Role.MOTION and len(m) == 25
        assert a.role is Role.APPEARANCE and len(a) == 70
        assert m.labels is not None and a.labels is not None

    def test_anisotropy_widens_scales(self):
        sc = make_scene("cylinder", 50, 50, seed=14)
        iso = sc.motion_set(anisotropy=1.0)
        aniso = sc.motion_set(anisotropy=4.0)
        assert np.ptp(iso.log_scales) == 0.0
        assert np.ptp(aniso.log_scales) > 0.5

    def test_colors_in_unit_range(self):
        sc = make_scene("twolink", 30, 90, seed=15)
        for cloud in (sc.motion, sc.surface):
            assert cloud.colors.min() >= 0.0 and cloud.colors.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            make_scene("torus", 10, 10, seed=0)


class TestAnimate:
    def test_frames_numbered_from_one(self):
        sc = make_scene("twolink", 20, 30, seed=16)
        frames = animate(sc, [0.2, 0.4, 0.6])
        assert [f.index for f in frames] == [1, 2, 3]
        assert [f.truth.frame for f in frames] == [1, 2, 3]
        assert frames[-1].value == pytest.approx(0.6)

    def test_schedule_values_validated(self):
        sc = make_scene("twolink", 20, 30, seed=17)
        with pytest.raises(InvalidArgumentError):
            animate(sc, [0.5, 3.0])

    @pytest.mark.parametrize("kind", ["twolink", "cylinder"])
    def test_non_finite_value_named(self, kind):
        # every comparison with nan is false, so the range bounds alone pass it
        sc = make_scene(kind, 20, 30, seed=17)
        for value in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="amplitude must be finite"):
                animate(sc, [0.1, value])

    def test_surface_follows_same_deformation(self):
        sc = make_scene("cylinder", 20, 40, seed=18)
        frames = animate(sc, [1.5])
        direct = sc.deform(sc.surface.points, sc.surface_labels, 1.5)
        assert np.array_equal(frames[0].surface.points, direct)
