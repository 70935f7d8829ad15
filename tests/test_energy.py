"""Energy terms: frozen hand-derived values plus analytic/numeric gradient spot checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from splatkin.core import (
    GaussianSet,
    NeighborGraph,
    PointCloud,
    Role,
    knn_build,
    quat_inverse,
    quat_multiply,
    quat_normalize,
    quat_normalize_jacobian,
    quat_right_multiply_matrix,
    quat_rotation_jacobian,
    quat_to_matrix,
)
from splatkin.energy import (
    _OPACITY_CEILING,
    EnergyEval,
    e_arap,
    e_data_points,
    e_iso,
    e_l2_gauss,
    e_mask,
    e_sem,
    e_size,
)
from splatkin.errors import InvalidArgumentError
from splatkin.gradcheck import _CASE_BUILDERS, run_gradcheck, THRESHOLDS
from splatkin.render import _SPAN_SLACK, OrthoCamera, _footprints, splat, world_covariances

from _padded_footprints import padded_footprints, project


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
        assert e_iso(g).value == pytest.approx(4.0, rel=1e-12)

    def test_zero_inside_limit(self):
        g = _single(log_scales=(-3.0, -3.0, -3.0 + np.log(3.9)))
        out = e_iso(g)
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
        assert e_iso(g).value == pytest.approx(2.0, rel=1e-12)  # 4 / N=2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_scatter_add_reference(self, seed):
        # the gradient is bitwise what np.add.at gives, also where scales tie:
        # pairs tie (hi and lo stay apart) and triples tie (hi == lo, gradient 0)
        rng = np.random.default_rng(seed)
        s = rng.uniform(-3.5, 0.0, size=(200, 3))
        s[:40, 1] = s[:40, 0]
        s[40:80, 2] = s[40:80, 1]
        s[80:120] = s[80:120, :1]
        g = _rand_set(200, seed).replace(log_scales=s)
        out = e_iso(g)
        rows = np.arange(len(g))
        hi, lo = np.argmax(s, axis=1), np.argmin(s, axis=1)
        ratio = np.exp(s[rows, hi] - s[rows, lo])
        coeff = np.where(ratio > 4.0, ratio, 0.0) / len(g)
        assert np.count_nonzero(coeff[:80]) > 0  # tied pairs above the limit
        want = np.zeros_like(s)
        np.add.at(want, (rows, hi), coeff)
        np.add.at(want, (rows, lo), -coeff)
        assert out.grad_s.tobytes() == want.tobytes()
        assert np.all(out.grad_s[80:120] == 0.0)


class TestSize:
    def test_hand_value_with_frozen_mean(self):
        # [DERIVED] extent 3 vs frozen mean 1, alpha 2: (3-2) per axis, 3 axes
        g = _single(log_scales=tuple([np.log(3.0)] * 3))
        out = e_size(g, frozen_mean=np.ones(3))
        assert out.value == pytest.approx(3.0, rel=1e-12)
        # gradient through own extent only: d/ds exp(s) = exp(s) = 3
        assert np.allclose(out.grad_s, 3.0)

    def test_uniform_population_is_free(self):
        g = _rand_set(10, seed=0).replace(log_scales=np.full((10, 3), -2.5))
        assert e_size(g).value == 0.0

    def test_population_mean_is_stop_gradient(self):
        rng = np.random.default_rng(1)
        g = _rand_set(6, seed=2).replace(log_scales=rng.uniform(-5.0, -1.0, (6, 3)))
        live = e_size(g)
        frozen = e_size(g, frozen_mean=np.exp(g.log_scales).mean(axis=0))
        assert live.value > 0.0
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

    def test_target_tree_built_once_per_cloud(self):
        g = _rand_set(6, seed=6)
        cloud = PointCloud(points=g.positions + 0.1, colors=g.colors.copy())
        first = e_data_points(g, cloud)
        tree = cloud.tree
        moved = g.replace(positions=g.positions - 0.2)
        e_data_points(moved, cloud)
        assert cloud.tree is tree
        assert np.array_equal(tree.data, cloud.points)
        # a fresh cloud with the same points gives the same bits
        again = e_data_points(g, PointCloud(points=cloud.points, colors=cloud.colors))
        assert again.value == first.value and np.array_equal(again.grad_p, first.grad_p)

    def test_overflowing_match_distance_rejected(self):
        # the k-d tree reports an infinite distance with an out-of-range index
        g = _rand_set(5, seed=4)
        cloud = PointCloud(points=g.positions.copy(), colors=g.colors.copy())
        far = g.replace(positions=np.full((5, 3), 1e300) * [1.0, -1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match="not finite"):
            e_data_points(far, cloud)

    @pytest.mark.parametrize("n,m,seed", [(300, 300, 0), (300, 700, 1), (40, 900, 2)])
    def test_backward_pull_matches_scatter_add_reference(self, n, m, seed):
        # the backward pulls are summed per kernel by one bincount and then added
        # to the forward term, where np.add.at adds them one at a time: the
        # order of summation differs, so the two agree to rounding only
        rng = np.random.default_rng(100 + seed)
        g = _rand_set(n, seed=seed)
        near = g.positions[rng.integers(0, n, m)] + 0.1 * rng.normal(size=(m, 3))
        cloud = PointCloud(points=near, colors=rng.random((m, 3)))
        out = e_data_points(g, cloud)
        _, nn_fwd = cKDTree(cloud.points).query(g.positions)
        _, nn_bwd = cKDTree(g.positions).query(cloud.points)
        want = 2.0 * (g.positions - cloud.points[nn_fwd]) / n
        np.add.at(want, nn_bwd, 2.0 * (g.positions[nn_bwd] - cloud.points) / m)
        assert np.abs(out.grad_p - want).max() <= 1e-15 * np.abs(want).max()


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


# e_arap through the explicit Jacobian tensors, kept as the reference for the closed form
def _e_arap_reference(prev: GaussianSet, cur: GaussianSet, graph: NeighborGraph) -> EnergyEval:
    """As-rigid-as-possible deformation energy between consecutive states.

    sum_i sum_{k in N(i)} w_ik | R(q_i,cur q_i,prev^-1)(p_k,prev - p_i,prev)
    - (p_k,cur - p_i,cur) |^2 with the raw RBF weights carried by ``graph``
    (built once from canonical positions). Gradients cover current positions
    and raw current rotations; the previous state is a constant.
    """
    n = len(cur)
    if len(prev) != n:
        raise InvalidArgumentError(f"kernel counts differ: {len(prev)} vs {n}")
    if len(graph) != n:
        raise InvalidArgumentError("graph was not built for these sets")
    if graph.indices.size and graph.indices.max() >= n:
        raise InvalidArgumentError("graph references kernels beyond the set")

    prev_inv = quat_inverse(prev.rotations)
    q_raw = quat_multiply(cur.rotations, prev_inv)
    q_hat = quat_normalize(q_raw)
    delta_rot = quat_to_matrix(q_hat)

    idx = graph.indices
    w = graph.weights
    a = prev.positions[idx] - prev.positions[:, None, :]  # (N,k,3)
    b = cur.positions[idx] - cur.positions[:, None, :]
    e = np.einsum("nij,nkj->nki", delta_rot, a) - b
    value = float(np.sum(w * np.sum(e * e, axis=2)))

    we = 2.0 * w[:, :, None] * e
    grad_p = np.sum(we, axis=1)
    np.add.at(grad_p, idx, -we)

    g_rot = np.einsum("nki,nkj->nij", we, a)  # dV/d(delta_rot)
    j_rot = quat_rotation_jacobian(q_hat)  # (N,4,3,3)
    grad_q_hat = np.einsum("nij,nqij->nq", g_rot, j_rot)
    proj = quat_normalize_jacobian(q_raw)  # (N,4,4)
    right = quat_right_multiply_matrix(prev_inv)  # q_raw = right @ q_cur
    grad_q = np.einsum("nq,nqr,nrs->ns", grad_q_hat, proj, right)
    return EnergyEval(value=value, grad_p=grad_p, grad_q=grad_q)


# a raw quaternion: any direction, norm in [0.5, 2]
_RAW_QUAT = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda v: np.linalg.norm(v) > 0.1),
    st.floats(0.5, 2.0),
).map(lambda dn: np.asarray(dn[0]) / np.linalg.norm(dn[0]) * dn[1])


@st.composite
def _arap_case(draw):
    """prev/cur sets and a graph; cur rotations are free or near-antipodal to prev."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 9))
    prev_q = np.stack([draw(_RAW_QUAT) for _ in range(n)])
    if draw(st.booleans()):
        cur_q = np.stack([draw(_RAW_QUAT) for _ in range(n)])
    else:
        # cur = -|s| prev (x) (small turn): q_raw lands next to w = -1
        angle = draw(st.floats(0.0, 1e-3))
        axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1)))
        turn = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis / np.linalg.norm(axis)])
        scale = draw(st.floats(0.5, 2.0))
        cur_q = -scale * quat_multiply(prev_q, turn)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gset(rotations):
        return GaussianSet(positions=rng.normal(size=(n, 3)), rotations=rotations,
                           log_scales=np.full((n, 3), -2.0), opacities=np.full(n, 0.5),
                           colors=np.zeros((n, 1)), role=Role.MOTION)

    graph = NeighborGraph(indices=rng.integers(0, n, size=(n, k)),
                          weights=rng.uniform(0.0, 1.0, size=(n, k)), normalized=False)
    return gset(prev_q), gset(cur_q), graph


class TestArapMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_arap_case())
    def test_value_and_gradients_to_rounding(self, case):
        prev, cur, graph = case
        out = e_arap(prev, cur, graph)
        ref = _e_arap_reference(prev, cur, graph)
        assert abs(out.value - ref.value) <= 1e-14 * abs(ref.value)
        for got, want in ((out.grad_p, ref.grad_p), (out.grad_q, ref.grad_q)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_largest_deviation_on_a_tracking_size_set(self):
        prev = _rand_set(300, seed=30)
        rng = np.random.default_rng(31)
        cur = prev.replace(positions=prev.positions + 0.05 * rng.normal(size=(300, 3)),
                           rotations=rng.normal(size=(300, 4)) * rng.uniform(0.5, 2.0, (300, 1)))
        graph = knn_build(prev.positions, prev.positions, 4, 0.5, normalize=False)
        out = e_arap(prev, cur, graph)
        ref = _e_arap_reference(prev, cur, graph)
        assert abs(out.value - ref.value) <= 1e-14 * ref.value
        for got, want in ((out.grad_p, ref.grad_p), (out.grad_q, ref.grad_q)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestMask:
    def test_zero_against_own_alpha(self):
        g = _rand_set(8, seed=13).replace(log_scales=np.full((8, 3), -1.2))
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 8.0, 8.0, (24, 24))
        alpha = splat(g, cam).alpha
        out = e_mask(g, [alpha], [cam])
        # rendered coverage equals the target almost everywhere; the tiny
        # opacity ceiling offset keeps this near but not exactly zero
        assert out.value < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("axis,resolution", [("+z", (24, 24)), ("-x", (19, 13)),
                                                 ("+y", (9, 30))])
    def test_value_is_splat_coverage_residual(self, seed, axis, resolution):
        # splat and e_mask share one coverage product: below the opacity ceiling
        # the L1 residual of splat's alpha is the e_mask value, bit for bit
        rng = np.random.default_rng(60 + seed)
        g = _rand_set(40, seed=50 + seed).replace(
            positions=rng.normal(size=(40, 3)) * 0.6, log_scales=rng.uniform(-1.8, -0.8, (40, 3)),
            rotations=rng.normal(size=(40, 4)) * rng.uniform(0.5, 2.0, (40, 1)))
        assert g.opacities.max() < _OPACITY_CEILING
        cam = OrthoCamera.axis_view(axis, np.zeros(3), 4.0, 3.0, resolution)
        mask = (rng.random(resolution[::-1]) < 0.5) * rng.uniform(0.3, 1.0)
        expected = float(np.abs(splat(g, cam).alpha - mask).sum())
        assert expected > 0.0
        assert e_mask(g, [mask], [cam]).value == expected

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


# e_mask over padded footprints, kept as the reference for the flat-entry e_mask
def _e_mask_reference(gset: GaussianSet, masks, cameras,
                      truncation_radius: float = 3.0) -> EnergyEval:
    """L1 silhouette loss against target coverage images.

    sum over views and pixels of |alpha_hat(u) - mask(u)| with alpha_hat the
    product-form coverage of the soft splat. The per-pixel subgradient is
    sign(alpha_hat - mask); gradients cover positions and raw rotations,
    including the path through each kernel's 2D footprint covariance.
    """
    if len(masks) != len(cameras) or len(cameras) == 0:
        raise InvalidArgumentError("need one mask per camera, at least one view")
    value = 0.0
    grad_p = np.zeros_like(gset.positions)
    grad_q = np.zeros_like(gset.rotations)
    rot = quat_to_matrix(gset.rotations)
    ext_sq = np.exp(2.0 * gset.log_scales)
    proj_jac = quat_normalize_jacobian(gset.rotations)
    rot_jac = quat_rotation_jacobian(quat_normalize(gset.rotations))

    for mask, camera in zip(masks, cameras):
        mask = np.ascontiguousarray(mask, dtype=np.float64)
        w_px, h_px = camera.resolution
        if mask.shape != (h_px, w_px):
            raise InvalidArgumentError(
                f"mask shape {mask.shape} does not match camera resolution {(h_px, w_px)}"
            )
        fp = padded_footprints(gset, camera, truncation_radius,
                               opacity_ceiling=_OPACITY_CEILING)
        one_minus = np.ones((h_px, w_px))
        if fp.kept.size:
            v = fp.valid
            np.multiply.at(one_minus, (fp.pix_y[v], fp.pix_x[v]), 1.0 - fp.g[v])
        alpha = 1.0 - one_minus
        resid = alpha - mask
        value += float(np.abs(resid).sum())
        if fp.kept.size == 0:
            continue

        sign = np.sign(resid)
        # leave-one-out factor per (kernel, pixel): prod_{j != i} (1 - g_j);
        # out-of-image entries are invalid and zeroed, clip only for the gather
        ys = np.clip(fp.pix_y, 0, h_px - 1)
        xs = np.clip(fp.pix_x, 0, w_px - 1)
        pix_sign = sign[ys, xs]
        pix_prod = one_minus[ys, xs]
        coeff = np.where(fp.valid, pix_sign * pix_prod / (1.0 - fp.g) * fp.g, 0.0)

        ad = np.einsum("kab,kpb->kpa", fp.inv_covs, fp.d)
        m = fp.pixel_matrix
        d_mu = np.einsum("kp,kpa->ka", coeff, ad)
        np.add.at(grad_p, fp.kept, d_mu @ m)

        b_cov = 0.5 * np.einsum("kp,kpa,kpb->kab", coeff, ad, ad)
        g3 = np.einsum("ba,kbc,cd->kad", m, b_cov, m)  # dL/d(3D covariance)
        g3rd = np.einsum("kab,kbc->kac", g3, rot[fp.kept]) * ext_sq[fp.kept][:, None, :]
        gq_hat = 2.0 * np.einsum("kqab,kab->kq", rot_jac[fp.kept], g3rd)
        np.add.at(grad_q, fp.kept, np.einsum("kq,kqr->kr", gq_hat, proj_jac[fp.kept]))

    return EnergyEval(value=value, grad_p=grad_p, grad_q=grad_q)


def _mask_scene(n, seed):
    """Anisotropic rotated kernels, some off the window, a needle and a zero opacity."""
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(n, 3)) * 0.7
    positions[: n // 8] += [2.2, 0.0, 0.0]  # partly or wholly outside every window
    log_scales = rng.uniform(-2.6, -1.2, size=(n, 3))
    rotations = quat_normalize(rng.normal(size=(n, 4)))
    # needles along x and y: at least one projects to a singular footprint in any axis view
    log_scales[n // 2], log_scales[n // 2 + 1] = [-1.0, -30.0, -30.0], [-30.0, -1.0, -30.0]
    rotations[n // 2: n // 2 + 2] = [1.0, 0.0, 0.0, 0.0]
    opacities = rng.uniform(0.05, 1.0, size=n)
    opacities[n // 3] = 0.0
    return GaussianSet(positions=positions, rotations=rotations, log_scales=log_scales,
                       opacities=opacities, colors=rng.random((n, 3)), role=Role.APPEARANCE)


class TestMaskMatchesReference:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("truncation_radius", [3.0, 8.0])
    def test_value_bitwise_gradients_to_rounding(self, seed, views, truncation_radius):
        g = _mask_scene(40, seed)
        rng = np.random.default_rng(100 + seed)
        cameras = [OrthoCamera.axis_view(axis, np.zeros(3), 4.0, 3.0, resolution)
                   for axis, resolution in [("+z", (23, 17)), ("-x", (16, 16)),
                                            ("+y", (31, 9))][:views]]
        masks = [(rng.random((h, w)) < 0.4).astype(np.float64) * rng.uniform(0.5, 1.0)
                 for w, h in (cam.resolution for cam in cameras)]
        out = e_mask(g, masks, cameras, truncation_radius)
        ref = _e_mask_reference(g, masks, cameras, truncation_radius)
        assert out.value == ref.value
        for got, want in ((out.grad_p, ref.grad_p), (out.grad_q, ref.grad_q)):
            scale = np.abs(want).max()
            assert scale > 0.0
            assert np.abs(got - want).max() <= 1e-12 * scale


class TestFootprintMemory:
    """One wide kernel among 1500 small ones must not size every kernel's footprint."""

    def _scene(self):
        rng = np.random.default_rng(21)
        n = 1500
        log_scales = np.full((n, 3), -4.5)
        log_scales[0] = -0.5  # a 129 x 129 window; the rest are 5 x 5
        g = GaussianSet(positions=rng.uniform(-0.8, 0.8, size=(n, 3)),
                        rotations=quat_normalize(rng.normal(size=(n, 4))),
                        log_scales=log_scales, opacities=rng.uniform(0.2, 0.9, size=n),
                        colors=rng.random((n, 3)), role=Role.APPEARANCE)
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 1.8, 1.8, (64, 64))
        return g, cam

    def test_slots_bounded_by_own_windows(self):
        g, cam = self._scene()
        _, covs, _ = project(g, cam)
        half_tr = 0.5 * (covs[:, 0, 0] + covs[:, 1, 1])
        det = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
        lam_max = half_tr + np.sqrt(np.maximum(half_tr * half_tr - det, 0.0))
        # each kernel's window holds its truncation ellipse widened by the span slack
        half = np.ceil(np.sqrt(_SPAN_SLACK) * 3.0 * np.sqrt(lam_max) + 0.5).astype(np.int64)
        assert half.max() > 64 and np.median(half) == 2
        fp = _footprints(g, world_covariances(quat_to_matrix(g.rotations), g.log_scales), cam, 3.0)
        assert fp.kept.size == 1500
        # slots are the window pixels inside the image
        assert fp.valid.size <= int(np.sum(np.minimum((2 * half + 1) ** 2, 64 * 64)))

    def test_peak_memory(self):
        g, cam = self._scene()
        mask = splat(g, cam).alpha
        for run in (lambda: splat(g, cam), lambda: e_mask(g, [mask, mask], [cam, cam])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the padded (K,P) table needed about 400 MB for its offsets alone
            assert peak < 64 * 2**20


class TestGradients:
    """Central-difference agreement on small random instances per term."""

    @pytest.mark.parametrize("term", sorted(THRESHOLDS))
    def test_term_gradient(self, term):
        errs = run_gradcheck(seed=7, instances=3, terms=[term])
        assert errs[term] < THRESHOLDS[term], errs

    @pytest.mark.parametrize("term", sorted(THRESHOLDS))
    def test_value_fn_matches_analytic_value(self, term):
        # the instances of acceptance criterion 1 (run_gradcheck seed 5, 20 instances)
        term_id = list(_CASE_BUILDERS).index(term)
        for i in range(20):
            case = _CASE_BUILDERS[term](np.random.Generator(np.random.PCG64((5, term_id, i))))
            assert case.value_fn(case.blocks) == case.analytic.value
