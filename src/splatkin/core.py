"""Core primitives: Gaussian kernels and sets, quaternion algebra, RBF kNN graphs.

Quaternions are stored (w, x, y, z). Scales are stored in log space and
exponentiated wherever an actual extent is needed. Sets are immutable after
construction; optimization loops derive new sets via ``GaussianSet.replace``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateBlendError, InvalidArgumentError

# Below this norm a quaternion (or a blend of quaternions) is treated as degenerate.
DEGENERATE_NORM = 1e-9

# quaternion conjugation as a per-component sign
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])

# knn_build asks the k-d tree for this many neighbors beyond k, and accepts a row
# once its farthest candidate exceeds the k-th squared distance by this relative
# margin (far above the rounding difference between the tree and the recomputation)
_KNN_SLACK = 4
_KNN_MARGIN = 1e-9


class Role(Enum):
    """What a set is for: sparse motion scaffolding or dense appearance."""

    MOTION = "motion"
    APPEARANCE = "appearance"


def _frozen(values, name: str, dtype=np.float64, finite: bool = True) -> np.ndarray:
    """``values`` as a read-only contiguous ``dtype`` view: the rule for every container field.

    Nothing is copied when ``values`` already has that layout, and the caller's
    buffer stays writeable. Float values must be finite unless ``finite`` is off.
    The quaternion and kNN helpers check their array inputs with it too.
    """
    arr = np.ascontiguousarray(values, dtype=dtype)
    if finite and arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass
class GaussianSet:
    """An ordered collection of Gaussian kernels; order defines kernel identity.

    Field arrays are per-kernel rows: positions (N,3), rotations (N,4),
    log_scales (N,3), opacities (N,), colors (N,C). ``labels`` is an optional
    (N,) int array indexing into ``label_names``.
    """

    positions: np.ndarray
    rotations: np.ndarray
    log_scales: np.ndarray
    opacities: np.ndarray
    colors: np.ndarray
    role: Role
    frame: int = 0
    labels: np.ndarray | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.positions = _frozen(self.positions, "positions")
        self.rotations = _frozen(self.rotations, "rotations")
        self.log_scales = _frozen(self.log_scales, "log_scales")
        self.opacities = _frozen(self.opacities, "opacities")
        self.colors = _frozen(self.colors, "colors")
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise InvalidArgumentError(f"positions must be (N,3), got {self.positions.shape}")
        if self.rotations.shape != (n, 4):
            raise InvalidArgumentError(f"rotations must be (N,4), got {self.rotations.shape}")
        if self.log_scales.shape != (n, 3):
            raise InvalidArgumentError(f"log_scales must be (N,3), got {self.log_scales.shape}")
        if self.opacities.shape != (n,):
            raise InvalidArgumentError(f"opacities must be (N,), got {self.opacities.shape}")
        if self.colors.ndim != 2 or self.colors.shape[0] != n:
            raise InvalidArgumentError(f"colors must be (N,C), got {self.colors.shape}")
        if np.any(self.opacities < 0.0) or np.any(self.opacities > 1.0):
            raise InvalidArgumentError("opacities must lie in [0, 1]")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.rotations, axis=1)
        if n and norms.min() <= DEGENERATE_NORM:
            raise InvalidArgumentError("rotations contain a (near) zero-norm quaternion")
        if n and not np.isfinite(norms.max()):
            raise InvalidArgumentError("rotations contain a quaternion whose norm overflows")
        if not isinstance(self.role, Role):
            raise InvalidArgumentError(f"role must be a Role, got {self.role!r}")
        if self.labels is not None:
            self.labels = _frozen(self.labels, "labels", np.int64)
            if self.labels.shape != (n,):
                raise InvalidArgumentError(f"labels must be (N,), got {self.labels.shape}")
            if self.label_names is not None and n and (
                    self.labels.min() < 0 or self.labels.max() >= len(self.label_names)):
                raise InvalidArgumentError(
                    f"label ids must lie in [0, {len(self.label_names)}) to match label_names")

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def color_channels(self) -> int:
        return self.colors.shape[1]

    def replace(self, **kwargs) -> "GaussianSet":
        """Build a new set with some fields swapped out (arrays are re-validated)."""
        return dataclasses.replace(self, **kwargs)


@dataclass
class PointCloud:
    """A colored point cloud used as a per-frame data-term target."""

    points: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        self.points = _frozen(self.points, "points")
        self.colors = _frozen(self.colors, "colors")
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidArgumentError(f"points must be (M,3), got {self.points.shape}")
        if self.colors.ndim != 2 or self.colors.shape[0] != self.points.shape[0]:
            raise InvalidArgumentError("colors must be (M,C) matching points")

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree of ``points``, built on first use and kept: a cloud is a fixed target."""
        return cKDTree(self.points)


@dataclass
class NeighborGraph:
    """Fixed kNN topology with RBF edge weights, built once on canonical positions."""

    indices: np.ndarray  # (N,k) into the reference set
    weights: np.ndarray  # (N,k), raw RBF values or normalized to sum 1 per row
    normalized: bool

    def __post_init__(self):
        self.indices = _frozen(self.indices, "indices", np.int64)
        self.weights = _frozen(self.weights, "weights")
        if self.indices.shape != self.weights.shape or self.indices.ndim != 2:
            raise InvalidArgumentError("indices and weights must share shape (N,k)")

    def __len__(self) -> int:
        return self.indices.shape[0]


# ---------------------------------------------------------------------------
# quaternion algebra


def _hamilton(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 (x) q2, broadcasting over leading dimensions; unchecked."""
    w1, x1, y1, z1 = np.moveaxis(q1, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q2, -1, 0)
    out = np.empty(np.broadcast_shapes(q1.shape, q2.shape))
    out[..., 0] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out[..., 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    return out


def _unit_rotation(q_raw: np.ndarray):
    """(q_hat, |q|, R(q_hat)) of raw quaternions (...,4) from one norm; unchecked.

    ``|q|`` keeps its trailing axis, so it broadcasts against ``q_hat``.
    """
    norm = np.linalg.norm(q_raw, axis=-1, keepdims=True)
    q_hat = q_raw / norm
    w, x, y, z = np.moveaxis(q_hat, -1, 0)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    rot = np.empty(q_raw.shape[:-1] + (3, 3))
    rot[..., 0, 0] = 1 - 2 * (yy + zz)
    rot[..., 0, 1] = 2 * (xy - wz)
    rot[..., 0, 2] = 2 * (xz + wy)
    rot[..., 1, 0] = 2 * (xy + wz)
    rot[..., 1, 1] = 1 - 2 * (xx + zz)
    rot[..., 1, 2] = 2 * (yz - wx)
    rot[..., 2, 0] = 2 * (xz - wy)
    rot[..., 2, 1] = 2 * (yz + wx)
    rot[..., 2, 2] = 1 - 2 * (xx + yy)
    return q_hat, norm, rot


def _rotation_grad(q_hat: np.ndarray, norm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d tr(G^T R(q/|q|)) / d q for raw quaternions q = |q| q_hat; unchecked.

    ``g`` is (...,3,3). The gradient in q_hat is 2 K(G) q_hat with K the
    symmetric 4x4 matrix of G's antisymmetric and symmetric parts (the
    contraction of G with ``quat_rotation_jacobian``); the normalization
    (I - q_hat q_hat^T)/|q| then removes the radial part.
    """
    w, x, y, z = np.moveaxis(q_hat, -1, 0)
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = np.moveaxis(
        g.reshape(g.shape[:-2] + (9,)), -1, 0)
    a, b, c = g21 - g12, g02 - g20, g10 - g01
    s01, s02, s12 = g01 + g10, g02 + g20, g12 + g21
    k = np.empty(q_hat.shape)  # K(G) q_hat
    k[..., 0] = a * x + b * y + c * z
    k[..., 1] = a * w - 2.0 * (g11 + g22) * x + s01 * y + s02 * z
    k[..., 2] = b * w + s01 * x - 2.0 * (g00 + g22) * y + s12 * z
    k[..., 3] = c * w + s02 * x + s12 * y - 2.0 * (g00 + g11) * z
    k -= np.einsum("...q,...q->...", k, q_hat)[..., None] * q_hat
    return k * (2.0 / norm)


def quat_normalize(q) -> np.ndarray:
    """Normalize to unit norm; raises on (near) zero input."""
    q = _frozen(q, "quaternion")
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm <= DEGENERATE_NORM):
        raise InvalidArgumentError("cannot normalize a zero-norm quaternion")
    return q / norm


def quat_multiply(q1, q2) -> np.ndarray:
    """Hamilton product, broadcasting over leading dimensions."""
    return _hamilton(_frozen(q1, "q1"), _frozen(q2, "q2"))


def quat_inverse(q) -> np.ndarray:
    """General inverse conj(q)/|q|^2; equals the conjugate for unit input."""
    q = _frozen(q, "quaternion")
    norm_sq = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(norm_sq <= DEGENERATE_NORM**2):
        raise InvalidArgumentError("cannot invert a zero-norm quaternion")
    return q * _CONJ / norm_sq


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of the normalized quaternion; batch-aware ((...,4) -> (...,3,3))."""
    q = _frozen(q, "quaternion")
    with np.errstate(divide="ignore", invalid="ignore"):
        _, norm, rot = _unit_rotation(q)
    if np.any(norm <= DEGENERATE_NORM):
        raise InvalidArgumentError("cannot normalize a zero-norm quaternion")
    return rot


def quat_rotate(q, v) -> np.ndarray:
    """Rotate 3-vectors by the normalized quaternion."""
    rot = quat_to_matrix(q)
    v = _frozen(v, "vector")
    return np.einsum("...ij,...j->...i", rot, v)


# Explicit Jacobians of the rotation algebra. The energies use the closed forms
# above; these stay public because the tests hold the closed forms to them and
# perfbench/tracing.py wraps them by name.


def quat_rotation_jacobian(q_unit) -> np.ndarray:
    """d R / d q-hat for a UNIT quaternion, shape (...,4,3,3).

    Component order matches (w, x, y, z); callers chain through the
    normalization projection themselves (see ``quat_normalize_jacobian``).
    """
    q = _frozen(q_unit, "quaternion")
    w, x, y, z = np.moveaxis(q, -1, 0)
    zero = np.zeros_like(w)

    def m(r00, r01, r02, r10, r11, r12, r20, r21, r22):
        return np.stack(
            [
                np.stack([r00, r01, r02], axis=-1),
                np.stack([r10, r11, r12], axis=-1),
                np.stack([r20, r21, r22], axis=-1),
            ],
            axis=-2,
        )

    jw = m(zero, -z, y, z, zero, -x, -y, x, zero)
    jx = m(zero, y, z, y, -2 * x, -w, z, w, -2 * x)
    jy = m(-2 * y, x, w, x, zero, z, -w, z, -2 * y)
    jz = m(-2 * z, -w, x, w, -2 * z, y, x, y, zero)
    return 2.0 * np.stack([jw, jx, jy, jz], axis=-3)


def quat_normalize_jacobian(q_raw) -> np.ndarray:
    """d q-hat / d q for a raw quaternion: (I - q q^T)/|q|, shape (...,4,4)."""
    q = _frozen(q_raw, "quaternion")
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm <= DEGENERATE_NORM):
        raise InvalidArgumentError("cannot normalize a zero-norm quaternion")
    unit = q / norm
    eye = np.broadcast_to(np.eye(4), q.shape[:-1] + (4, 4))
    outer = unit[..., :, None] * unit[..., None, :]
    return (eye - outer) / norm[..., None]


def quat_right_multiply_matrix(r) -> np.ndarray:
    """Matrix M with q (x) r == M @ q (Hamilton product as a linear map in q)."""
    r = _frozen(r, "quaternion")
    rw, rx, ry, rz = np.moveaxis(r, -1, 0)
    rows = [
        np.stack([rw, -rx, -ry, -rz], axis=-1),
        np.stack([rx, rw, rz, -ry], axis=-1),
        np.stack([ry, -rz, rw, rx], axis=-1),
        np.stack([rz, ry, -rx, rw], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def quat_blend(quats, weights) -> np.ndarray:
    """Weighted quaternion blend: hemisphere-align to the first entry, sum, normalize.

    This is the k-ary generalization of slerp used for skinning; weights must
    sum to 1 within 1e-6. Raises DegenerateBlendError when the weighted sum
    collapses below norm 1e-9 (antipodal cancellation).
    """
    quats = _frozen(quats, "quaternions")
    weights = _frozen(weights, "weights")
    if quats.ndim != 2 or quats.shape[1] != 4 or quats.shape[0] == 0:
        raise InvalidArgumentError(f"quats must be (k,4) with k >= 1, got {quats.shape}")
    if weights.shape != (quats.shape[0],):
        raise InvalidArgumentError("weights must match quaternion count")
    if abs(float(weights.sum()) - 1.0) > 1e-6:
        raise InvalidArgumentError("blend weights must sum to 1 within 1e-6")
    signs = np.where(quats @ quats[0] < 0.0, -1.0, 1.0)
    blended = (weights * signs) @ quats
    norm = np.linalg.norm(blended)
    if norm <= DEGENERATE_NORM:
        raise DegenerateBlendError("quaternion blend collapsed to zero norm")
    return blended / norm


def quat_blend_many(quats, weights) -> np.ndarray:
    """Row-wise ``quat_blend`` over (N,k,4) stacks; errors name the failing row."""
    quats = _frozen(quats, "quaternions")
    weights = _frozen(weights, "weights")
    if quats.ndim != 3 or quats.shape[2] != 4 or weights.shape != quats.shape[:2]:
        raise InvalidArgumentError("expected quats (N,k,4) and weights (N,k)")
    sums = weights.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-6)[0]
    if bad.size:
        raise InvalidArgumentError(f"blend weights for kernel {int(bad[0])} do not sum to 1")
    dots = np.einsum("nkc,nc->nk", quats, quats[:, 0])
    signs = np.where(dots < 0.0, -1.0, 1.0)
    blended = np.einsum("nk,nkc->nc", weights * signs, quats)
    norms = np.linalg.norm(blended, axis=1)
    bad = np.nonzero(norms <= DEGENERATE_NORM)[0]
    if bad.size:
        raise DegenerateBlendError(f"quaternion blend degenerate for kernel {int(bad[0])}")
    return blended / norms[:, None]


# ---------------------------------------------------------------------------
# kNN graphs


def knn_build(
    query: np.ndarray,
    reference: np.ndarray,
    k: int,
    length_scale: float,
    normalize: bool,
) -> NeighborGraph:
    """Exact k nearest neighbors with RBF weights.

    Ties in distance are broken toward the lower reference index (stable sort
    on squared distance). Normalized weights are computed with max-shifted
    exponentials, which is algebraically the same as dividing raw RBF values
    by their sum but never underflows for small length scales.

    A k-d tree proposes candidates; squared distances are recomputed on them
    with the same expression a brute-force search would use, and a row's
    candidate list is widened until its farthest candidate is clearly farther
    than its k-th nearest, so ties and rounding never change the result.
    """
    query = _frozen(query, "query")
    reference = _frozen(reference, "reference")
    if query.ndim != 2 or query.shape[1] != 3:
        raise InvalidArgumentError(f"query must be (N,3), got {query.shape}")
    if reference.ndim != 2 or reference.shape[1] != 3:
        raise InvalidArgumentError(f"reference must be (M,3), got {reference.shape}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if k > reference.shape[0]:
        raise InvalidArgumentError(f"k={k} exceeds reference size {reference.shape[0]}")
    # the weights divide by length_scale**2, so the square must be a normal float
    square = float(length_scale) * float(length_scale)
    if not (length_scale > 0.0 and np.finfo(np.float64).tiny <= square < np.inf):
        raise InvalidArgumentError(
            f"length_scale must be positive with a finite normal square, got {length_scale}")

    n, m = query.shape[0], reference.shape[0]
    tree = cKDTree(reference)
    indices = np.empty((n, k), dtype=np.int64)
    d2_sel = np.empty((n, k), dtype=np.float64)
    rows = np.arange(n)
    width = min(k + _KNN_SLACK, m)
    while rows.size:
        dist, cand = tree.query(query[rows], k=width)
        # a k-d tree reports an overflowing distance as infinite, with the out-of-range index m
        if not np.all(np.isfinite(dist)):
            raise InvalidArgumentError("nearest-neighbor distances are not finite")
        cand = np.sort(cand.reshape(rows.size, width), axis=1)
        d2 = np.sum((query[rows, None, :] - reference[cand]) ** 2, axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        d2 = np.take_along_axis(d2, order, axis=1)
        indices[rows] = np.take_along_axis(cand, order[:, :k], axis=1)
        d2_sel[rows] = d2[:, :k]
        if width == m:
            break
        # a point outside the candidates is at least as far as the farthest one,
        # up to rounding, so it cannot tie or beat the k-th once this margin holds
        rows = rows[~(d2[:, -1] > d2[:, k - 1] * (1.0 + _KNN_MARGIN))]
        width = min(2 * width, m)

    inv_l2 = 1.0 / length_scale**2
    if normalize:
        shifted = np.exp(-(d2_sel - d2_sel.min(axis=1, keepdims=True)) * inv_l2)
        weights = shifted / shifted.sum(axis=1, keepdims=True)
    else:
        weights = np.exp(-d2_sel * inv_l2)
    return NeighborGraph(indices=indices, weights=weights, normalized=normalize)
