"""Energy terms: frozen hand-derived values plus analytic/numeric gradient spot checks."""

import numpy as np
import pytest

from splatkin.core import GaussianSet, PointCloud, Role, knn_build, quat_normalize
from splatkin.energy import (
    e_arap,
    e_data_points,
    e_iso,
    e_l2_gauss,
    e_mask,
    e_sem,
    e_size,
)
from splatkin.errors import InvalidArgumentError
from splatkin.gradcheck import run_gradcheck, THRESHOLDS
from splatkin.render import OrthoCamera, splat


def _single(position=(0.0, 0.0, 0.0), log_scales=(-3.0, -3.0, -3.0),
            color=(0.5, 0.5, 0.5), opacity=0.8, role=Role.MOTION):
    return GaussianSet(
        positions=np.array([position], dtype=np.float64),
        rotations=np.array([[1.0, 0, 0, 0]]),
        log_scales=np.array([log_scales], dtype=np.float64),
        opacities=np.array([opacity]),
        colors=np.array([color], dtype=np.float64),
        role=role,
    )


def _rand_set(n, seed, role=Role.MOTION):
    rng = np.random.default_rng(seed)
    return GaussianSet(
        positions=rng.normal(size=(n, 3)),
        rotations=quat_normalize(rng.normal(size=(n, 4))),
        log_scales=rng.uniform(-3.5, -2.0, size=(n, 3)),
        opacities=rng.uniform(0.3, 0.9, size=n),
        colors=rng.random((n, 3)),
        role=role,
    )


class TestIso:
    def test_hand_value(self):
        # [DERIVED] spread ln 8 with limit 4: exp(ln 8) - 4 = 4, N = 1
        g = _single(log_scales=(-3.0, -3.0, -3.0 + np.log(8.0)))
        assert e_iso(g, ratio_limit=4.0).value == pytest.approx(4.0, rel=1e-12)

    def test_zero_inside_limit(self):
        g = _single(log_scales=(-3.0, -3.0, -3.0 + np.log(3.9)))
        out = e_iso(g, ratio_limit=4.0)
        assert out.value == 0.0
        assert np.all(out.grad_s == 0.0)

    def test_mean_over_kernels(self):
        spread = np.log(8.0)
        g = GaussianSet(
            positions=np.zeros((2, 3)),
            rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
            log_scales=np.array([[-3.0, -3.0, -3.0 + spread], [-3.0, -3.0, -3.0]]),
            opacities=np.full(2, 0.5),
            colors=np.zeros((2, 1)),
            role=Role.MOTION,
        )
        assert e_iso(g, 4.0).value == pytest.approx(2.0, rel=1e-12)  # 4 / N=2


class TestSize:
    def test_hand_value_with_frozen_mean(self):
        # [DERIVED] extent 3 vs frozen mean 1, alpha 2: (3-2) per axis, 3 axes
        g = _single(log_scales=tuple([np.log(3.0)] * 3))
        out = e_size(g, alpha=2.0, frozen_mean=np.ones(3))
        assert out.value == pytest.approx(3.0, rel=1e-12)
        # gradient through own extent only: d/ds exp(s) = exp(s) = 3
        assert np.allclose(out.grad_s, 3.0)

    def test_uniform_population_is_free(self):
        g = _rand_set(10, seed=0).replace(log_scales=np.full((10, 3), -2.5))
        assert e_size(g, alpha=2.0).value == 0.0

    def test_population_mean_is_stop_gradient(self):
        rng = np.random.default_rng(1)
        g = _rand_set(6, seed=2).replace(log_scales=rng.uniform(-3.0, -1.0, (6, 3)))
        live = e_size(g, alpha=1.01)
        frozen = e_size(g, alpha=1.01, frozen_mean=np.exp(g.log_scales).mean(axis=0))
        assert live.value == pytest.approx(frozen.value, rel=1e-12)
        assert np.allclose(live.grad_s, frozen.grad_s)


class TestDataPoints:
    def test_hand_value_two_sided(self):
        # [DERIVED] single kernel vs single point at distance d: d^2 + d^2
        d = 0.3
        g = _single(color=(0.2, 0.4, 0.6))
        cloud = PointCloud(points=np.array([[d, 0.0, 0.0]]),
                           colors=np.array([[0.2, 0.4, 0.6]]))
        assert e_data_points(g, cloud).value == pytest.approx(2 * d * d, rel=1e-12)

    def test_color_term_forward_only(self):
        g = _single(color=(1.0, 0.0, 0.0))
        cloud = PointCloud(points=np.zeros((1, 3)), colors=np.array([[0.0, 0.0, 0.0]]))
        # same position, color differs by 1 in one channel: forward adds 1^2
        assert e_data_points(g, cloud).value == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_exact_match(self):
        g = _rand_set(5, seed=3)
        cloud = PointCloud(points=g.positions.copy(), colors=g.colors.copy())
        out = e_data_points(g, cloud)
        assert out.value == 0.0
        assert np.all(out.grad_p == 0.0) and np.all(out.grad_c == 0.0)

    def test_channel_mismatch_rejected(self):
        g = _single()
        cloud = PointCloud(points=np.zeros((1, 3)), colors=np.zeros((1, 2)))
        with pytest.raises(InvalidArgumentError):
            e_data_points(g, cloud)


class TestSem:
    def test_hand_value(self):
        eps = 0.05
        g = _single()
        out = e_sem(g, np.array([[eps, 0.0, 0.0]]), [np.array([0])])
        # [DERIVED] one singleton cluster displaced by eps: |eps|^2
        assert out.value == pytest.approx(eps * eps, rel=1e-12)
        assert np.allclose(out.grad_p[0], [-2 * eps, 0.0, 0.0])

    def test_centroid_of_members(self):
        g = _rand_set(4, seed=4)
        members = np.array([0, 2])
        target = g.positions[members].mean(axis=0)
        out = e_sem(g, target[None, :], [members])
        assert out.value == pytest.approx(0.0, abs=1e-15)

    def test_empty_cluster_rejected(self):
        g = _single()
        with pytest.raises(InvalidArgumentError):
            e_sem(g, np.zeros((1, 3)), [np.array([], dtype=np.int64)])


class TestL2Gauss:
    def test_hand_value(self):
        g = _single()
        target = g.replace(positions=np.array([[0.1, 0.0, 0.0]]))
        # [DERIVED] squared position gap 0.01, rotations identical
        assert e_l2_gauss(g, target).value == pytest.approx(0.01, rel=1e-12)

    def test_rotation_sign_invariance(self):
        g = _rand_set(6, seed=5)
        # equal positions: only the rotation channel could contribute
        flipped = g.replace(rotations=-g.rotations)
        out = e_l2_gauss(g, flipped)
        assert out.value == pytest.approx(0.0, abs=1e-15)


class TestArap:
    def test_zero_under_rigid_motion(self):
        from splatkin.core import quat_multiply, quat_rotate

        prev = _rand_set(12, seed=8)
        graph = knn_build(prev.positions, prev.positions, 4, 0.5, normalize=False)
        rng = np.random.default_rng(9)
        q = quat_normalize(rng.normal(size=4))
        t = rng.normal(size=3)
        cur = prev.replace(positions=quat_rotate(q, prev.positions) + t,
                           rotations=quat_multiply(q, prev.rotations))
        out = e_arap(prev, cur, graph)
        assert out.value == pytest.approx(0.0, abs=1e-18)
        assert np.abs(out.grad_p).max() < 1e-9
        assert np.abs(out.grad_q).max() < 1e-9

    def test_positive_off_rigid(self):
        prev = _rand_set(10, seed=10)
        graph = knn_build(prev.positions, prev.positions, 3, 0.5, normalize=False)
        rng = np.random.default_rng(11)
        cur = prev.replace(positions=prev.positions + 0.1 * rng.normal(size=(10, 3)))
        assert e_arap(prev, cur, graph).value > 0.0

    def test_graph_size_checked(self):
        prev = _rand_set(6, seed=12)
        graph = knn_build(prev.positions[:5], prev.positions[:5], 2, 0.5, normalize=False)
        with pytest.raises(InvalidArgumentError):
            e_arap(prev, prev, graph)


class TestMask:
    def test_zero_against_own_alpha(self):
        g = _rand_set(8, seed=13).replace(log_scales=np.full((8, 3), -1.2))
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 8.0, 8.0, (24, 24))
        alpha = splat(g, cam).alpha
        out = e_mask(g, [alpha], [cam])
        # rendered coverage equals the target almost everywhere; the tiny
        # opacity ceiling offset keeps this near but not exactly zero
        assert out.value < 1e-6

    def test_value_counts_all_views(self):
        g = _rand_set(5, seed=14).replace(log_scales=np.full((5, 3), -1.5))
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 6.0, 6.0, (16, 16))
        zero_mask = np.zeros((16, 16))
        one = e_mask(g, [zero_mask], [cam]).value
        two = e_mask(g, [zero_mask, zero_mask], [cam, cam]).value
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_mask_shape_checked(self):
        g = _rand_set(3, seed=15)
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (8, 8))
        with pytest.raises(InvalidArgumentError):
            e_mask(g, [np.zeros((9, 8))], [cam])


class TestGradients:
    """Central-difference agreement on small random instances per term."""

    @pytest.mark.parametrize("term", sorted(THRESHOLDS))
    def test_term_gradient(self, term):
        errs = run_gradcheck(seed=7, instances=3, terms=[term])
        assert errs[term] < THRESHOLDS[term], errs
