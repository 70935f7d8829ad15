"""CPU orthographic soft-splat renderer.

Pixel convention: continuous pixel coordinates, pixel j spans [j, j+1) with
center j+0.5; image row 0 is the top of the window (v grows downward). The
window center projects to (W/2, H/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianSet, _frozen, quat_to_matrix
from .errors import InvalidArgumentError

# 2D covariances with eigenvalue ratio beyond this are treated as singular
COND_LIMIT = 1e12
# largest image side in pixels a camera may have; images are allocated whole
MAX_RESOLUTION = 4096
# squared-radius widening of the per-line footprint spans; it exceeds the relative
# rounding error of qform (about 1e-16 * COND_LIMIT) by far
_SPAN_SLACK = 1.02

_AXIS_FORWARD = {
    "+x": np.array([1.0, 0.0, 0.0]),
    "-x": np.array([-1.0, 0.0, 0.0]),
    "+y": np.array([0.0, 1.0, 0.0]),
    "-y": np.array([0.0, -1.0, 0.0]),
    "+z": np.array([0.0, 0.0, 1.0]),
    "-z": np.array([0.0, 0.0, -1.0]),
}


@dataclass
class OrthoCamera:
    """Orthographic view: rows of ``rotation`` are (right, up, forward) in world
    space; the window spans width x height meters centered on ``center``."""

    rotation: np.ndarray  # (3,3)
    center: np.ndarray  # (3,)
    width: float
    height: float
    resolution: tuple[int, int]  # (W, H) pixels

    def __post_init__(self):
        self.rotation = _frozen(self.rotation, "camera rotation")
        self.center = _frozen(self.center, "camera center")
        if self.rotation.shape != (3, 3) or self.center.shape != (3,):
            raise InvalidArgumentError("camera rotation must be (3,3) and center (3,)")
        ortho_err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if ortho_err > 1e-6 or np.linalg.det(self.rotation) < 0.0:
            raise InvalidArgumentError("camera rotation must be a proper rotation matrix")
        if not (0.0 < self.width < np.inf and 0.0 < self.height < np.inf):
            raise InvalidArgumentError("window extents must be finite and positive")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise InvalidArgumentError("resolution must be positive")
        if w > MAX_RESOLUTION or h > MAX_RESOLUTION:
            raise InvalidArgumentError(
                f"resolution {w}x{h} exceeds the {MAX_RESOLUTION}-pixel side limit")

    @classmethod
    def axis_view(cls, axis: str, center, width: float, height: float,
                  resolution: tuple[int, int]) -> "OrthoCamera":
        """Canonical view along a coordinate axis ('+x', '-y', '+z', ...)."""
        if axis not in _AXIS_FORWARD:
            raise InvalidArgumentError(f"unknown axis {axis!r}")
        forward = _AXIS_FORWARD[axis]
        up_hint = np.array([0.0, 1.0, 0.0]) if abs(forward[1]) < 0.9 else np.array([0.0, 0.0, 1.0])
        right = np.cross(up_hint, forward)
        right = right / np.linalg.norm(right)
        up = np.cross(forward, right)
        return cls(rotation=np.stack([right, up, forward]), center=center,
                   width=width, height=height, resolution=resolution)

    def pixel_matrix(self) -> np.ndarray:
        """(2,3) linear map from world offsets to pixel offsets (v grows downward)."""
        w_px, h_px = self.resolution
        return np.stack([
            self.rotation[0] * (w_px / self.width),
            -self.rotation[1] * (h_px / self.height),
        ])


def world_covariances(rot: np.ndarray, log_scales: np.ndarray) -> np.ndarray:
    """3D covariances R diag(exp(2s)) R^T from rotation matrices (N,3,3) and log-scales (N,3)."""
    scaled = rot * np.exp(log_scales)[:, None, :]  # R diag(exp(s))
    return scaled @ scaled.transpose(0, 2, 1)


def _project(positions: np.ndarray, cov3: np.ndarray, camera: OrthoCamera):
    """Pixel means (N,2), pixel-unit view-plane blocks (N,2,2) of ``cov3`` and
    depths (N,) along the view axis (smaller = closer to the camera)."""
    m = camera.pixel_matrix()
    offsets = positions - camera.center
    w_px, h_px = camera.resolution
    means = offsets @ m.T + np.array([w_px / 2.0, h_px / 2.0])
    mc = np.einsum("ab,nbc->nac", m, cov3)
    covs = np.einsum("nab,cb->nac", mc, m)
    depths = offsets @ camera.rotation[2]
    return means, covs, depths


@dataclass
class _Footprints:
    """Per-kernel pixel footprints as flat entries (internal; shared with the mask energy).

    The entries of a kept kernel are the image pixels whose centres lie inside
    its truncation ellipse, kernel-major in ``kept`` order and row-major (y outer,
    x inner) within a kernel. Slots are the pixels tested for that.
    """

    kept: np.ndarray  # (K,) original kernel indices
    skipped: int
    inv_covs: np.ndarray  # (K,2,2)
    depths: np.ndarray  # (K,)
    valid: np.ndarray  # (S,) bool per slot: the slot is an entry
    row: np.ndarray  # (E,) kernel row into ``kept`` of each entry
    pixel: np.ndarray  # (E,) flat image index y*W + x
    g: np.ndarray  # (E,) contribution
    dx: np.ndarray  # (E,) pixel center minus mean, x
    dy: np.ndarray  # (E,) pixel center minus mean, y


def _footprints(gset: GaussianSet, cov3: np.ndarray, camera: OrthoCamera,
                truncation_radius: float, opacity_ceiling: float = 1.0) -> _Footprints:
    """Footprints of ``gset`` (3D covariances ``cov3``) seen by ``camera``."""
    if not 0.0 < truncation_radius < np.inf:
        raise InvalidArgumentError("truncation radius must be finite and positive")
    means, covs, depths = _project(gset.positions, cov3, camera)
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
    mu = means[kept]
    det_k = det[kept]
    inv = np.empty((kept.size, 2, 2))
    inv[:, 0, 0] = covs[kept, 1, 1] / det_k
    inv[:, 1, 1] = covs[kept, 0, 0] / det_k
    inv[:, 0, 1] = inv[:, 1, 0] = -covs[kept, 0, 1] / det_k
    opac = np.minimum(gset.opacities[kept], opacity_ceiling)

    # Only image pixels near the truncation ellipse become slots: the lines (pixel
    # rows, y outer) it crosses, and on each line its x span. Both come from the
    # ellipse widened by _SPAN_SLACK, so every pixel the qform test below can
    # accept is a slot. A kernel without opacity has no lines.
    sxy = covs[kept, 0, 1]
    syy = covs[kept, 1, 1]
    reach_r2 = _SPAN_SLACK * truncation_radius**2
    y_reach = np.sqrt(reach_r2 * syy)
    y0 = np.maximum(np.floor(mu[:, 1] - 0.5 - y_reach), 0)
    y1 = np.minimum(np.ceil(mu[:, 1] - 0.5 + y_reach), h_px - 1)
    ny = np.where(opac > 0.0, np.maximum(y1 - y0 + 1, 0), 0).astype(np.int64)

    line_row = np.repeat(np.arange(kept.size), ny)
    line_y = np.arange(line_row.size) - np.repeat(np.cumsum(ny) - ny - y0.astype(np.int64), ny)
    line_dy = line_y + 0.5 - np.repeat(mu[:, 1], ny)
    line_inv = [np.repeat(inv[:, i, j], ny) for i, j in ((0, 0), (0, 1), (1, 1))]
    reach_sq = (reach_r2 - line_dy**2 / np.repeat(syy, ny)) / line_inv[0]
    reach = np.sqrt(np.maximum(reach_sq, 0.0))
    line_mu_x = np.repeat(mu[:, 0], ny)
    center = line_mu_x - 0.5 + np.repeat(sxy / syy, ny) * line_dy
    lo = np.maximum(np.floor(center - reach), 0)
    hi = np.minimum(np.ceil(center + reach), w_px - 1)
    line_len = np.where(reach_sq >= 0.0, np.maximum(hi - lo + 1, 0), 0).astype(np.int64)

    slot_row = np.repeat(line_row, line_len)
    # each slot's pixel x, then its flat image index y*W + x in the same buffer
    pixel = (np.arange(slot_row.size)
             - np.repeat(np.cumsum(line_len) - line_len - lo.astype(np.int64), line_len))
    dx = pixel + 0.5 - np.repeat(line_mu_x, line_len)
    pixel += np.repeat(line_y * w_px, line_len)
    dy = np.repeat(line_dy, line_len)
    inv00, inv01, inv11 = (np.repeat(v, line_len) for v in line_inv)
    qform = inv00 * dx ** 2 + 2.0 * inv01 * dx * dy + inv11 * dy ** 2
    valid = qform <= truncation_radius**2
    entry = np.flatnonzero(valid)
    row = slot_row[entry]
    # g = opac * exp(-0.5 * qform)
    g = qform[entry]
    g *= -0.5
    np.exp(g, out=g)
    g *= opac[row]
    return _Footprints(kept=kept, skipped=skipped, inv_covs=inv, depths=depths[kept],
                       valid=valid, row=row, pixel=pixel[entry], g=g, dx=dx[entry], dy=dy[entry])


def _transmittance(pixel: np.ndarray, g: np.ndarray, n_pixels: int) -> np.ndarray:
    """Flat per-pixel product of (1 - g) over footprint entries: one minus the coverage."""
    one_minus = np.ones(n_pixels)
    np.multiply.at(one_minus, pixel, 1.0 - g)
    return one_minus


@dataclass
class RenderOutput:
    """Rendered images; ``skipped`` counts kernels dropped for singular 2D covariance."""

    rgb: np.ndarray  # (H,W,3) in [0,1]
    alpha: np.ndarray  # (H,W) in [0,1]
    skipped: int


def splat(gset: GaussianSet, camera: OrthoCamera, truncation_radius: float = 3.0) -> RenderOutput:
    """Soft-splat a set into color and coverage images.

    Coverage uses the order-independent product form alpha = 1 - prod(1 - g_i);
    color composites kernels sorted by depth (ties broken by kernel index),
    closer kernels occluding farther ones.
    """
    if gset.color_channels < 3:
        raise InvalidArgumentError("splat needs at least 3 color channels")
    w_px, h_px = camera.resolution
    fp = _footprints(gset, world_covariances(quat_to_matrix(gset.rotations), gset.log_scales),
                     camera, truncation_radius)
    row, pixel, g = fp.row, fp.pixel, fp.g
    depth_rank = np.empty(fp.kept.size, dtype=np.int64)
    depth_rank[np.argsort(fp.depths, kind="stable")] = np.arange(fp.kept.size)
    kernel_color = gset.colors[fp.kept, :3]
    skipped = fp.skipped
    del fp

    alpha = (1.0 - _transmittance(pixel, g, h_px * w_px)).reshape(h_px, w_px)
    rgb = _composite(pixel, depth_rank[row], row, g, kernel_color, h_px * w_px)
    return RenderOutput(rgb=np.clip(rgb.reshape(h_px, w_px, 3), 0.0, 1.0), alpha=alpha,
                        skipped=skipped)


def _composite(pixel, rank, row, g, kernel_color, n_pixels) -> np.ndarray:
    """Front-to-back color over flat (pixel, depth rank, kernel row, g) entries.

    Entries are sorted by (pixel, depth rank) and processed in layers: layer r
    holds every pixel's r-th closest kernel, so each pixel sees the same
    arithmetic in the same order as a kernel-by-kernel loop in depth order.
    """
    # keys are unique: a kernel covers a pixel at most once
    order = np.argsort(pixel * kernel_color.shape[0] + rank)
    sorted_pixel = pixel[order]
    starts = np.flatnonzero(np.diff(sorted_pixel, prepend=-1))
    overlap = np.diff(starts, append=sorted_pixel.size)  # entries per covered pixel
    by_overlap = np.argsort(-overlap, kind="stable")  # layer r touches a prefix of these pixels
    starts, overlap = starts[by_overlap], overlap[by_overlap]
    pixels = sorted_pixel[starts]
    color = np.zeros((pixels.size, 3))
    transmittance = np.ones(pixels.size)
    # pixels with more than `layer` entries, for every layer
    active = np.searchsorted(-overlap, -np.arange(overlap[0] if overlap.size else 0))
    for layer, n in enumerate(active):
        entry = order[starts[:n] + layer]
        gi = g[entry]
        t_here = transmittance[:n]
        color[:n] += (gi * t_here)[:, None] * kernel_color[row[entry]]
        transmittance[:n] = t_here * (1.0 - gi)
    rgb = np.zeros((n_pixels, 3))
    rgb[pixels] = color
    return rgb
