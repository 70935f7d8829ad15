"""Differentiable energy terms driving every optimization loop.

Each term returns an EnergyEval carrying the scalar value plus analytic
gradients for the parameter blocks the term supports (None elsewhere).
Rotation gradients are taken with respect to raw 4-vector quaternions; the
normalization happening inside the rotation formula is part of the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import (
    GaussianSet,
    NeighborGraph,
    PointCloud,
    _CONJ,
    _hamilton,
    _rotation_grad,
    _unit_rotation,
)
from .errors import InvalidArgumentError
from .render import _footprints, _transmittance, world_covariances

# keeps the leave-one-out coverage gradient finite for fully opaque kernels
_OPACITY_CEILING = 1.0 - 1e-9
# e_iso penalises a longest axis beyond this many times the shortest
_ISO_RATIO_LIMIT = 4.0
# e_size penalises an extent beyond this many times the population mean
_SIZE_ALPHA = 2.0


@dataclass
class EnergyEval:
    """Scalar energy plus per-block gradients (None where a term has no contract)."""

    value: float
    grad_p: np.ndarray | None = None  # (N,3) positions
    grad_q: np.ndarray | None = None  # (N,4) raw rotations
    grad_s: np.ndarray | None = None  # (N,3) log-scales
    grad_c: np.ndarray | None = None  # (N,C) colors


# GaussianSet field -> EnergyEval gradient attribute, for every block a term can move
GRAD_FIELDS = {
    "positions": "grad_p",
    "rotations": "grad_q",
    "log_scales": "grad_s",
    "colors": "grad_c",
}


def e_arap(prev: GaussianSet, cur: GaussianSet, graph: NeighborGraph) -> EnergyEval:
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

    value, we, a, _, (q_hat, q_norm, prev_inv) = _arap_residual(
        prev, cur.positions, cur.rotations, graph)

    # each edge pulls +we on kernel i and -we on neighbour idx; one bincount over (kernel, axis)
    slots = (graph.indices[:, :, None] * 3 + np.arange(3)).ravel()
    grad_p = np.einsum("nkd->nd", we) - np.bincount(slots, we.ravel(), 3 * n).reshape(n, 3)

    g_rot = we.transpose(0, 2, 1) @ a  # dV/d(delta_rot)
    # q_raw = cur (x) r is linear in cur; its transpose is right-multiplication by conj(r)
    grad_q = _hamilton(_rotation_grad(q_hat, q_norm, g_rot), prev_inv * _CONJ)
    return EnergyEval(value=value, grad_p=grad_p, grad_q=grad_q)


def _arap_residual(prev: GaussianSet, positions: np.ndarray, rotations: np.ndarray,
                   graph: NeighborGraph):
    """Value and weighted edge residuals of ``e_arap`` for raw rotations; unchecked.

    Returns (value, 2 w e, a, rotated, (q_hat, |q|, prev^-1)): ``a`` holds the
    previous edge offsets (N,k,3), ``rotated`` is a R^T with R the relative
    rotation R(q_hat) of q = rotations (x) prev^-1, and e = rotated - b with b
    the current edge offsets. The tracking and transfer solvers share it, so
    they log the same value.
    """
    # prev^-1 = conj(prev)/|prev|^2; GaussianSet guarantees a non-zero norm
    prev_q = prev.rotations
    prev_inv = prev_q * _CONJ / np.sum(prev_q * prev_q, axis=1, keepdims=True)
    q_hat, q_norm, delta_rot = _unit_rotation(_hamilton(rotations, prev_inv))
    idx = graph.indices
    a = np.take(prev.positions, idx, axis=0) - prev.positions[:, None, :]  # (N,k,3)
    # matmul is several times faster with a contiguous right operand than with a view
    rotated = a @ np.ascontiguousarray(delta_rot.transpose(0, 2, 1))
    e = rotated - (np.take(positions, idx, axis=0) - positions[:, None, :])
    we = 2.0 * graph.weights[:, :, None] * e
    return 0.5 * float(np.sum(we * e)), we, a, rotated, (q_hat, q_norm, prev_inv)


def e_iso(gset: GaussianSet) -> EnergyEval:
    """Mean ReLU penalty on per-kernel scale anisotropy.

    (1/N) sum_i ReLU(exp(max(s_i) - min(s_i)) - 4): zero whenever the longest
    axis stays within 4 (``_ISO_RATIO_LIMIT``) times the shortest.
    """
    n = len(gset)
    if n == 0:
        raise InvalidArgumentError("empty set")
    s = gset.log_scales
    hi = np.argmax(s, axis=1)
    lo = np.argmin(s, axis=1)
    rows = np.arange(n)
    ratio = np.exp(s[rows, hi] - s[rows, lo])
    active = ratio > _ISO_RATIO_LIMIT
    value = float(np.sum(np.where(active, ratio - _ISO_RATIO_LIMIT, 0.0)) / n)
    grad_s = np.zeros_like(s)
    coeff = np.where(active, ratio, 0.0) / n
    # one hi and one lo entry per row; where all three scales tie they cancel to 0.0
    grad_s[rows, hi] = coeff
    grad_s[rows, lo] -= coeff
    return EnergyEval(value=value, grad_s=grad_s)


def e_size(gset: GaussianSet, frozen_mean=None) -> EnergyEval:
    """ReLU penalty on kernels outgrowing the population.

    sum over kernels and axes of ReLU(exp(s) - 2 mean(exp(s))), 2 being
    ``_SIZE_ALPHA``, where the per-axis mean is a stop-gradient: gradients flow
    through each kernel's own scale only. ``frozen_mean`` pins the mean
    explicitly, which is how the finite-difference oracle checks exactly these
    semantics.
    """
    if len(gset) == 0:
        raise InvalidArgumentError("empty set")
    extents = np.exp(gset.log_scales)
    mean = extents.mean(axis=0) if frozen_mean is None else np.asarray(frozen_mean, dtype=np.float64)
    excess = extents - _SIZE_ALPHA * mean
    active = excess > 0.0
    value = float(np.sum(np.where(active, excess, 0.0)))
    grad_s = np.where(active, extents, 0.0)
    return EnergyEval(value=value, grad_s=grad_s)


def e_data_points(gset: GaussianSet, cloud: PointCloud) -> EnergyEval:
    """Symmetric colored-point chamfer data term.

    Mean over kernels of squared distance to the nearest target point plus the
    squared color difference at that match, plus mean over target points of
    squared distance to the nearest kernel. Nearest matches are by position
    only; gradients cover kernel positions and colors.
    """
    if len(gset) == 0 or len(cloud) == 0:
        raise InvalidArgumentError("data term needs a non-empty set and cloud")
    if gset.color_channels != cloud.colors.shape[1]:
        raise InvalidArgumentError(
            f"color channels differ: set {gset.color_channels} vs cloud {cloud.colors.shape[1]}"
        )
    value, _, dp, dc, nn_bwd = _point_match(gset.positions, gset.colors, cloud)
    n = len(gset)
    m = len(cloud)
    grad_p = 2.0 * dp / n
    # each target point pulls its nearest kernel; one bincount over (kernel, axis)
    pull = 2.0 * (gset.positions[nn_bwd] - cloud.points) / m
    slots = (nn_bwd[:, None] * 3 + np.arange(3)).ravel()
    grad_p += np.bincount(slots, pull.ravel(), 3 * n).reshape(n, 3)
    grad_c = 2.0 * dc / n
    return EnergyEval(value=value, grad_p=grad_p, grad_c=grad_c)


def _point_match(positions: np.ndarray, colors: np.ndarray, cloud: PointCloud):
    """Value and nearest-point matches of ``e_data_points``; unchecked.

    Returns (value, nn_fwd, dp, dc, nn_bwd): the nearest cloud point of each
    kernel with the position and color differences to it, and the nearest
    kernel of each cloud point. The forward query uses the cloud's cached tree;
    the backward one builds a tree of ``positions``. The tracker's solver
    shares it, so both log the same value. Positions so far apart that a match
    distance overflows are an ``InvalidArgumentError``.
    """
    d_fwd, nn_fwd = cloud.tree.query(positions, k=1)
    d_bwd, nn_bwd = cKDTree(positions).query(cloud.points, k=1)
    # a k-d tree reports an infinite distance with the out-of-range index len(data)
    if not (np.all(np.isfinite(d_fwd)) and np.all(np.isfinite(d_bwd))):
        raise InvalidArgumentError("nearest-point match distances are not finite")
    dp = positions - cloud.points[nn_fwd]
    dc = colors - cloud.colors[nn_fwd]
    fwd = (np.sum(dp * dp, axis=1) + np.sum(dc * dc, axis=1)).sum() / len(positions)
    bwd = float(np.sum(d_bwd * d_bwd)) / len(cloud)
    return float(fwd + bwd), nn_fwd, dp, dc, nn_bwd


def e_sem(gset: GaussianSet, target_centroids, clusters) -> EnergyEval:
    """Semantic centroid alignment: sum_j | mean(p[members_j]) - target_j |^2.

    ``clusters`` lists member-index arrays matched 1:1 with target centroids
    (already paired per label by the pipeline); targets are stop-gradient.
    """
    targets = np.ascontiguousarray(target_centroids, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != 3:
        raise InvalidArgumentError(f"target centroids must be (J,3), got {targets.shape}")
    if len(clusters) != targets.shape[0]:
        raise InvalidArgumentError("cluster count does not match target centroid count")
    if not np.all(np.isfinite(targets)):
        raise InvalidArgumentError("target centroids contain non-finite values")
    value = 0.0
    grad_p = np.zeros_like(gset.positions)
    for j, members in enumerate(clusters):
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise InvalidArgumentError(f"cluster {j} has no assigned kernels")
        delta = gset.positions[members].mean(axis=0) - targets[j]
        value += float(delta @ delta)
        grad_p[members] += 2.0 * delta / members.size
    return EnergyEval(value=value, grad_p=grad_p)


def e_mask(gset: GaussianSet, masks, cameras, truncation_radius: float = 3.0) -> EnergyEval:
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
    grad_cov = np.zeros((len(gset), 3, 3))  # dL/d(3D covariance), summed over views
    q_hat, q_norm, rot = _unit_rotation(gset.rotations)
    cov3 = world_covariances(rot, gset.log_scales)

    for mask, camera in zip(masks, cameras):
        mask = np.ascontiguousarray(mask, dtype=np.float64)
        w_px, h_px = camera.resolution
        if mask.shape != (h_px, w_px):
            raise InvalidArgumentError(
                f"mask shape {mask.shape} does not match camera resolution {(h_px, w_px)}"
            )
        fp = _footprints(gset, cov3, camera, truncation_radius, opacity_ceiling=_OPACITY_CEILING)
        pixel = fp.pixel
        one_minus = _transmittance(pixel, fp.g, h_px * w_px)
        resid = (1.0 - one_minus).reshape(h_px, w_px) - mask
        value += float(np.abs(resid).sum())
        if fp.g.size == 0:
            continue

        # dL/dg per entry: sign(resid) times the leave-one-out factor prod_{j != i} (1 - g_j)
        coeff = np.sign(resid).ravel()[pixel] * one_minus[pixel] / (1.0 - fp.g) * fp.g
        row, k = fp.row, fp.kept.size
        inv00, inv01, _, inv11 = fp.inv_covs.reshape(k, 4)[row].T
        ad0 = inv00 * fp.dx + inv01 * fp.dy  # inv . d
        ad1 = inv01 * fp.dx + inv11 * fp.dy
        c0 = coeff * ad0
        c1 = coeff * ad1
        m = camera.pixel_matrix()
        grad_p[fp.kept] += np.stack([np.bincount(row, c0, k), np.bincount(row, c1, k)], axis=1) @ m

        # dL/d(2D covariance) = 0.5 sum coeff (inv d)(inv d)^T, pulled back through m
        b_cov = 0.5 * np.stack([np.bincount(row, c0 * ad0, k), np.bincount(row, c0 * ad1, k),
                                np.bincount(row, c1 * ad1, k)], axis=1)
        cross = np.outer(m[0], m[1])
        pullback = np.stack([np.outer(m[0], m[0]), cross + cross.T, np.outer(m[1], m[1])])
        grad_cov[fp.kept] += (b_cov @ pullback.reshape(3, 9)).reshape(k, 3, 3)

    # covariance R diag(exp(2s)) R^T: chain through R(q_hat(q))
    g3rd = (grad_cov @ rot) * np.exp(2.0 * gset.log_scales)[:, None, :]
    grad_q = _rotation_grad(q_hat, q_norm, 2.0 * g3rd)
    return EnergyEval(value=value, grad_p=grad_p, grad_q=grad_q)


def e_l2_gauss(gset: GaussianSet, target: GaussianSet) -> EnergyEval:
    """Mean squared difference to a target set over positions and rotations.

    Rotations are hemisphere-aligned pairwise (target flipped when the dot
    product is negative) before differencing; gradients are with respect to
    the first argument.
    """
    if len(gset) != len(target):
        raise InvalidArgumentError(f"kernel counts differ: {len(gset)} vs {len(target)}")
    n = len(gset)
    value, dp, dq = _l2_residual(gset.positions, gset.rotations, target)
    return EnergyEval(value=value, grad_p=2.0 * dp / n, grad_q=2.0 * dq / n)


def _l2_residual(positions: np.ndarray, rotations: np.ndarray, target: GaussianSet):
    """Value and the position and rotation differences of ``e_l2_gauss``; unchecked.

    The transfer solver shares it, so both log the same value.
    """
    n = len(positions)
    dp = positions - target.positions
    dots = np.sum(rotations * target.rotations, axis=1)
    flip = np.where(dots < 0.0, -1.0, 1.0)
    dq = rotations - flip[:, None] * target.rotations
    value = float(np.sum(dp * dp)) / n + float(np.sum(dq * dq)) / n
    return value, dp, dq
