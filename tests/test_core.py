"""Kernel container, quaternion algebra, and neighbor-graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatkin.core import (
    _hamilton,
    _rotation_grad,
    _unit_rotation,
    GaussianSet,
    NeighborGraph,
    PointCloud,
    Role,
    knn_build,
    quat_blend,
    quat_blend_many,
    quat_inverse,
    quat_multiply,
    quat_normalize,
    quat_normalize_jacobian,
    quat_right_multiply_matrix,
    quat_rotate,
    quat_rotation_jacobian,
    quat_to_matrix,
)
from splatkin.errors import DegenerateBlendError, InvalidArgumentError
from splatkin.morton import AttributeMap, Box, MortonMapping
from splatkin.render import OrthoCamera
from splatkin.warp import FrameMotion

RT2 = np.sqrt(0.5)


def _set(n=4, channels=3, seed=0, role=Role.MOTION):
    rng = np.random.default_rng(seed)
    return GaussianSet(
        positions=rng.normal(size=(n, 3)),
        rotations=quat_normalize(rng.normal(size=(n, 4))),
        log_scales=rng.uniform(-3.0, -1.0, size=(n, 3)),
        opacities=rng.uniform(0.1, 0.9, size=n),
        colors=rng.random((n, channels)),
        role=role,
    )


# ---------------------------------------------------------------------------
# container


def _contract_case(name):
    """A container constructor and the caller-owned arrays (of the stored dtype) it gets."""
    rng = np.random.default_rng(7)
    unit = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    return {
        "GaussianSet": (lambda **a: GaussianSet(role=Role.MOTION, **a), dict(
            positions=rng.normal(size=(4, 3)), rotations=unit, log_scales=rng.normal(size=(4, 3)),
            opacities=np.full(4, 0.5), colors=rng.random((4, 3)), labels=np.arange(4))),
        "PointCloud": (PointCloud, dict(points=rng.normal(size=(4, 3)), colors=rng.random((4, 3)))),
        "NeighborGraph": (lambda **a: NeighborGraph(normalized=False, **a), dict(
            indices=np.zeros((4, 2), dtype=np.int64), weights=np.ones((4, 2)))),
        "FrameMotion": (FrameMotion, dict(delta_p=rng.normal(size=(4, 3)), delta_q=unit)),
        "MortonMapping": (lambda **a: MortonMapping(resolution=(2, 2), valid_count=4, **a),
                          dict(uv=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))),
        "OrthoCamera": (lambda **a: OrthoCamera(width=1.0, height=1.0, resolution=(4, 4), **a),
                        dict(rotation=np.eye(3), center=np.zeros(3))),
        "Box": (Box, dict(lo=np.zeros(3), hi=np.ones(3))),
        "AttributeMap": (AttributeMap, dict(data=np.zeros((2, 2, 3), dtype=np.float32))),
    }[name]


@pytest.mark.parametrize("name", ["GaussianSet", "PointCloud", "NeighborGraph", "FrameMotion",
                                  "MortonMapping", "OrthoCamera", "Box", "AttributeMap"])
def test_container_holds_read_only_views_of_caller_arrays(name):
    build, arrays = _contract_case(name)
    obj = build(**arrays)
    for field, buf in arrays.items():
        stored = getattr(obj, field)
        assert np.shares_memory(stored, buf)  # no copy of a conforming array
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 1
        assert buf.flags.writeable
        buf[(0,) * buf.ndim] = 1  # the caller's buffer is not frozen in place


class TestGaussianSet:
    def test_basic_properties(self):
        g = _set(n=5, channels=2)
        assert len(g) == 5
        assert g.color_channels == 2

    def test_arrays_are_read_only(self):
        g = _set()
        with pytest.raises(ValueError):
            g.positions[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.opacities[0] = 0.5

    def test_source_buffer_stays_writeable(self):
        buf = np.zeros((3, 3))
        g = _set(n=3).replace(positions=buf)
        buf[0, 0] = 7.0  # caller's array is not frozen in place
        assert g.positions[0, 0] == 7.0

    def test_replace_keeps_other_fields(self):
        g = _set()
        g2 = g.replace(frame=9)
        assert g2.frame == 9
        assert np.array_equal(g2.positions, g.positions)
        assert g2.role is g.role

    @pytest.mark.parametrize("field,bad", [
        ("opacities", np.full(4, 1.5)),
        ("opacities", np.full(4, -0.1)),
        ("rotations", np.zeros((4, 4))),
        ("positions", np.full((4, 3), np.nan)),
        ("positions", np.zeros((3, 3))),
    ])
    def test_rejects_invalid_fields(self, field, bad):
        g = _set()
        with pytest.raises(InvalidArgumentError):
            g.replace(**{field: bad})

    def test_labels_shape_checked(self):
        g = _set()
        with pytest.raises(InvalidArgumentError):
            g.replace(labels=np.zeros(3, dtype=np.int64))


# ---------------------------------------------------------------------------
# quaternions


class TestQuaternions:
    def test_ninety_about_z(self):
        q = np.array([RT2, 0.0, 0.0, RT2])
        r = quat_to_matrix(q)
        # [DERIVED] hand-expanded rotation matrix for a 90 degree z-turn
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
        assert np.allclose(quat_rotate(q, [1.0, 0.0, 0.0]), [0, 1, 0], atol=1e-12)

    def test_multiply_matches_matrix_composition(self):
        rng = np.random.default_rng(3)
        q1 = quat_normalize(rng.normal(size=4))
        q2 = quat_normalize(rng.normal(size=4))
        lhs = quat_to_matrix(quat_multiply(q1, q2))
        rhs = quat_to_matrix(q1) @ quat_to_matrix(q2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_inverse_of_unnormalized(self):
        q = np.array([2.0, -1.0, 0.5, 3.0])
        ident = quat_multiply(q, quat_inverse(q))
        assert np.allclose(ident, [1, 0, 0, 0], atol=1e-12)

    def test_matrix_normalizes_input(self):
        q = np.array([RT2, 0.0, 0.0, RT2])
        assert np.allclose(quat_to_matrix(3.0 * q), quat_to_matrix(q), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=4).filter(
        lambda v: np.linalg.norm(v) > 1e-3))
    def test_matrix_is_special_orthogonal(self, vals):
        r = quat_to_matrix(np.array(vals))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_right_multiply_matrix(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=4)
        r = rng.normal(size=4)
        assert np.allclose(quat_right_multiply_matrix(r) @ q, quat_multiply(q, r), atol=1e-12)

    def test_rotation_jacobian_matches_fd(self):
        # the jacobian is of the raw quadratic polynomial (valid at unit norm);
        # projection through normalization is a separate factor
        rng = np.random.default_rng(7)
        q = quat_normalize(rng.normal(size=4))
        jac = quat_rotation_jacobian(q)
        h = 1e-6
        for a in range(4):
            dq = np.zeros(4)
            dq[a] = h
            fd = (_poly_matrix(q + dq) - _poly_matrix(q - dq)) / (2 * h)
            assert np.abs(jac[a] - fd).max() < 1e-6

    def test_normalize_jacobian_matches_fd(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=4) * 1.7
        jac = quat_normalize_jacobian(q)
        h = 1e-6
        fd = np.empty((4, 4))
        for a in range(4):
            dq = np.zeros(4)
            dq[a] = h
            fd[:, a] = (quat_normalize(q + dq) - quat_normalize(q - dq)) / (2 * h)
        # convention: jac[a, b] = d q_hat_b / d q_a
        assert np.abs(jac - fd.T).max() < 1e-6


class TestQuaternionKernels:
    """The unchecked kernels against the checked helpers and the explicit Jacobians."""

    def _raw(self, n, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 4)) * rng.uniform(0.5, 2.0, size=(n, 1)), rng

    def test_unit_rotation_is_bitwise_the_checked_helpers(self):
        q, _ = self._raw(50, 1)
        q_hat, norm, rot = _unit_rotation(q)
        assert np.array_equal(q_hat, quat_normalize(q))
        assert np.array_equal(norm[:, 0], np.linalg.norm(q, axis=1))
        assert np.array_equal(rot, quat_to_matrix(q))

    def test_hamilton_is_bitwise_quat_multiply(self):
        q1, rng = self._raw(50, 2)
        q2 = rng.normal(size=(50, 4))
        assert np.array_equal(_hamilton(q1, q2), quat_multiply(q1, q2))

    def test_rotation_grad_matches_jacobian_chain(self):
        q, rng = self._raw(200, 3)
        g = rng.normal(size=(200, 3, 3))
        q_hat, norm, _ = _unit_rotation(q)
        grad_hat = np.einsum("nij,nqij->nq", g, quat_rotation_jacobian(q_hat))
        want = np.einsum("nq,nqr->nr", grad_hat, quat_normalize_jacobian(q))
        got = _rotation_grad(q_hat, norm, g)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_rotation_grad_matches_fd(self):
        q, rng = self._raw(1, 4)
        g = rng.normal(size=(3, 3))
        q_hat, norm, _ = _unit_rotation(q[0])
        got = _rotation_grad(q_hat, norm, g)
        h = 1e-6
        for a in range(4):
            dq = np.zeros(4)
            dq[a] = h
            fd = (np.sum(g * quat_to_matrix(q[0] + dq))
                  - np.sum(g * quat_to_matrix(q[0] - dq))) / (2 * h)
            assert got[a] == pytest.approx(fd, abs=1e-7)

    def test_right_multiply_transpose_is_conjugate_product(self):
        # M(r)^T g == g (x) conj(r): the chain e_arap takes back to the current rotation
        g, rng = self._raw(20, 5)
        r = rng.normal(size=(20, 4))
        want = np.einsum("nr,nrs->ns", g, quat_right_multiply_matrix(r))
        got = _hamilton(g, r * [1.0, -1.0, -1.0, -1.0])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _poly_matrix(q):
    """Quadratic rotation-matrix polynomial, no normalization (FD helper)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class TestBlend:
    def test_single_quat_identity_weight(self):
        q = quat_normalize(np.array([0.3, -0.2, 0.9, 0.1]))
        out = quat_blend(q[None, :], np.array([1.0]))
        assert np.allclose(out, q, atol=1e-12)

    def test_hemisphere_alignment(self):
        q = quat_normalize(np.array([0.5, 0.5, 0.5, 0.5]))
        out = quat_blend(np.stack([q, -q]), np.array([0.5, 0.5]))
        # -q is the same rotation; alignment must prevent cancellation
        assert abs(np.dot(out, q)) == pytest.approx(1.0, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        q = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        with pytest.raises(InvalidArgumentError):
            quat_blend(q, np.array([0.7, 0.6]))

    def test_degenerate_blend_raises(self):
        d = 1e-10
        c = np.sqrt(1.0 - d * d)
        quats = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [d, c, 0.0, 0.0],
            [d, -c, 0.0, 0.0],
        ])
        # dots with the first row are +d, so no hemisphere flips: the weighted
        # sum has norm ~d and must be rejected as direction-less
        w = np.array([d * d, (1 - d * d) / 2, (1 - d * d) / 2])
        with pytest.raises(DegenerateBlendError):
            quat_blend(quats, w)

    def test_blend_many_rows(self):
        rng = np.random.default_rng(5)
        quats = quat_normalize(rng.normal(size=(6, 3, 4)))
        w = rng.random((6, 3))
        w /= w.sum(axis=1, keepdims=True)
        out = quat_blend_many(quats, w)
        for i in range(6):
            assert np.allclose(out[i], quat_blend(quats[i], w[i]), atol=1e-12)


# ---------------------------------------------------------------------------
# weights and neighbors


class TestNeighbors:
    def test_knn_basic(self):
        ref = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        g = knn_build(np.array([[0.9, 0, 0]]), ref, k=2, length_scale=1.0, normalize=False)
        assert g.indices.tolist() == [[1, 0]]
        assert np.allclose(g.weights[0], [np.exp(-0.01), np.exp(-0.81)])

    def test_knn_tie_prefers_lower_index(self):
        ref = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        g = knn_build(np.array([[0.5, 0, 0]]), ref, k=2, length_scale=1.0, normalize=False)
        assert g.indices.tolist() == [[0, 1]]

    def test_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(40, 3))
        g = knn_build(rng.normal(size=(15, 3)), ref, k=5, length_scale=0.3, normalize=True)
        assert g.normalized
        assert np.allclose(g.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_tiny_length_scale_still_normalizes(self):
        # raw weights underflow at this scale; the normalized ones must not
        ref = np.array([[0.0, 0, 0], [0.3, 0, 0], [0.7, 0, 0]])
        g = knn_build(np.array([[0.1, 0, 0]]), ref, k=3, length_scale=1e-3, normalize=True)
        assert np.isfinite(g.weights).all()
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.weights[0, 0] == pytest.approx(1.0)  # nearest dominates

    def test_k_larger_than_reference_rejected(self):
        ref = np.zeros((3, 3))
        with pytest.raises(InvalidArgumentError):
            knn_build(ref, ref, k=4, length_scale=1.0, normalize=False)


def _knn_brute(query, reference, k, length_scale, normalize):
    """Brute-force reference for knn_build: stable sort of every squared distance."""
    d2 = np.sum((query[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    indices = np.argsort(d2, axis=1, kind="stable")[:, :k]
    d2_sel = np.take_along_axis(d2, indices, axis=1)
    inv_l2 = 1.0 / length_scale**2
    if normalize:
        shifted = np.exp(-(d2_sel - d2_sel.min(axis=1, keepdims=True)) * inv_l2)
        return indices, shifted / shifted.sum(axis=1, keepdims=True)
    return indices, np.exp(-d2_sel * inv_l2)


def _cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(n, 3))
    if kind == "lattice":  # exact ties: integer coordinates, exact squared distances
        return rng.integers(-2, 3, size=(n, 3)).astype(np.float64) * 0.5
    # many exact duplicates of a few points
    return rng.normal(size=(3, 3))[rng.integers(0, 3, size=n)]


class TestKnnMatchesBruteForce:
    def _check(self, query, reference, k, length_scale):
        for normalize in (False, True):
            graph = knn_build(query, reference, k, length_scale, normalize)
            indices, weights = _knn_brute(query, reference, k, length_scale, normalize)
            assert graph.indices.tobytes() == indices.tobytes()
            assert graph.weights.tobytes() == weights.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["random", "lattice", "duplicates"]),
           n_query=st.integers(1, 40), n_ref=st.integers(1, 60), k_frac=st.floats(0.0, 1.0),
           self_query=st.booleans(), length_scale=st.sampled_from([1e-3, 0.05, 1.0, 30.0]),
           seed=st.integers(0, 2**16))
    def test_property(self, kind, n_query, n_ref, k_frac, self_query, length_scale, seed):
        reference = _cloud(kind, n_ref, seed)
        query = reference if self_query else _cloud(kind, n_query, seed + 1)
        k = 1 + int(k_frac * (n_ref - 1))
        self._check(query, reference, k, length_scale)

    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
    def test_k_equals_reference_size(self, kind):
        reference = _cloud(kind, 25, 1)
        self._check(_cloud(kind, 10, 2), reference, 25, 0.5)

    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
    def test_single_query(self, kind):
        self._check(_cloud(kind, 1, 3), _cloud(kind, 50, 4), 6, 0.5)

    def test_lattice_self_query_with_many_ties(self):
        axis = np.arange(5.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        self._check(lattice, lattice, 7, 1.0)  # 6 face neighbours tie at distance 1
        self._check(lattice + 0.5, lattice, 9, 1.0)  # 8 cube corners tie

    def test_duplicates_beyond_slack(self):
        reference = np.repeat(np.random.default_rng(5).normal(size=(4, 3)), 30, axis=0)
        self._check(reference, reference, 3, 0.2)
        self._check(reference, reference, 40, 0.2)

    def test_tiny_length_scale(self):
        self._check(_cloud("random", 30, 6), _cloud("random", 80, 7), 5, 1e-4)

    def test_larger_self_query(self):
        cloud = _cloud("random", 2000, 8)
        self._check(cloud, cloud, 8, 0.1)
