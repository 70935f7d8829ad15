"""Per-kernel footprints padded to the widest window: the reference layout
that the flat-entry ``render._footprints`` replaced, kept for the splat and
mask-energy reference implementations in the tests, plus the whole-set
projection they start from."""

from dataclasses import dataclass

import numpy as np

from splatkin.core import GaussianSet, quat_to_matrix
from splatkin.errors import InvalidArgumentError
from splatkin.render import COND_LIMIT, OrthoCamera, _project, world_covariances


def project(gset: GaussianSet, camera: OrthoCamera):
    """Project kernels: returns (means_px (N,2), covs_px (N,2,2), depths (N,)).

    The 2D covariance is the view-plane block of the rotated 3D covariance
    R diag(exp(2s)) R^T, expressed in pixel units. Depth is the coordinate
    along the view axis (smaller = closer to the camera).
    """
    cov3 = world_covariances(quat_to_matrix(gset.rotations), gset.log_scales)
    return _project(gset.positions, cov3, camera)


@dataclass
class PaddedFootprints:
    """Per-kernel footprints padded to the widest window (the reference layout)."""

    kept: np.ndarray  # (K,) original kernel indices
    skipped: int
    means: np.ndarray  # (K,2)
    inv_covs: np.ndarray  # (K,2,2)
    depths: np.ndarray  # (K,)
    pix_x: np.ndarray  # (K,P) int
    pix_y: np.ndarray  # (K,P) int
    valid: np.ndarray  # (K,P) bool
    g: np.ndarray  # (K,P) contribution, zero where invalid
    d: np.ndarray  # (K,P,2) pixel center minus mean
    pixel_matrix: np.ndarray  # (2,3)


def padded_footprints(gset: GaussianSet, camera: OrthoCamera, truncation_radius: float,
                      opacity_ceiling: float = 1.0) -> PaddedFootprints:
    if truncation_radius <= 0.0:
        raise InvalidArgumentError("truncation radius must be positive")
    means, covs, depths = project(gset, camera)
    a = covs[:, 0, 0]
    b = covs[:, 0, 1]
    c = covs[:, 1, 1]
    half_tr = 0.5 * (a + c)
    det = a * c - b * b
    disc = np.sqrt(np.maximum(half_tr * half_tr - det, 0.0))
    lam_max = half_tr + disc
    lam_min = half_tr - disc
    ok = (lam_min > 0.0) & (lam_max <= COND_LIMIT * lam_min)
    kept = np.nonzero(ok)[0]
    skipped = int(len(gset) - kept.size)

    w_px, h_px = camera.resolution
    if kept.size == 0:
        empty = np.zeros((0, 0))
        return PaddedFootprints(kept=kept, skipped=skipped, means=means[kept],
                                 inv_covs=np.zeros((0, 2, 2)), depths=depths[kept],
                                 pix_x=empty.astype(int), pix_y=empty.astype(int),
                                 valid=empty.astype(bool), g=empty, d=np.zeros((0, 0, 2)),
                                 pixel_matrix=camera.pixel_matrix())

    mu = means[kept]
    dep = depths[kept]
    det_k = det[kept]
    inv = np.empty((kept.size, 2, 2))
    inv[:, 0, 0] = covs[kept, 1, 1] / det_k
    inv[:, 1, 1] = covs[kept, 0, 0] / det_k
    inv[:, 0, 1] = inv[:, 1, 0] = -covs[kept, 0, 1] / det_k

    radius_px = truncation_radius * np.sqrt(lam_max[kept])
    half = np.ceil(radius_px + 0.5).astype(np.int64)
    hw = int(half.max()) if half.size else 0
    side = 2 * hw + 1
    offs = np.arange(-hw, hw + 1)
    ox, oy = np.meshgrid(offs, offs, indexing="xy")
    ox = ox.ravel()
    oy = oy.ravel()

    base_x = np.round(mu[:, 0] - 0.5).astype(np.int64)
    base_y = np.round(mu[:, 1] - 0.5).astype(np.int64)
    pix_x = base_x[:, None] + ox[None, :]
    pix_y = base_y[:, None] + oy[None, :]
    inside = (pix_x >= 0) & (pix_x < w_px) & (pix_y >= 0) & (pix_y < h_px)

    d = np.empty((kept.size, side * side, 2))
    d[:, :, 0] = pix_x + 0.5 - mu[:, 0:1]
    d[:, :, 1] = pix_y + 0.5 - mu[:, 1:2]
    qform = (
        inv[:, None, 0, 0] * d[:, :, 0] ** 2
        + 2.0 * inv[:, None, 0, 1] * d[:, :, 0] * d[:, :, 1]
        + inv[:, None, 1, 1] * d[:, :, 1] ** 2
    )
    opac = np.minimum(gset.opacities[kept], opacity_ceiling)
    valid = inside & (qform <= truncation_radius**2) & (opac[:, None] > 0.0)
    # g = where(valid, opac * exp(-0.5 * qform), 0), built in qform's buffer
    g = qform
    invalid = ~valid
    g[invalid] = 0.0
    g *= -0.5
    np.exp(g, out=g)
    g *= opac[:, None]
    g[invalid] = 0.0
    return PaddedFootprints(kept=kept, skipped=skipped, means=mu, inv_covs=inv, depths=dep,
                             pix_x=pix_x, pix_y=pix_y, valid=valid, g=g, d=d,
                             pixel_matrix=camera.pixel_matrix())
