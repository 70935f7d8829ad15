"""Synthetic scenes with analytic deformation ground truth.

Two families: a cylinder whose axis bends into a constant-curvature circular
arc, and a two-link arm whose distal link (plus tip) rotates rigidly about the
joint. Every sample carries an exact per-frame rigid transform, which is what
the tracking and transfer acceptance tests measure against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GaussianSet, PointCloud, Role
from .errors import InvalidArgumentError
from .warp import FrameMotion

# deformation-parameter validity bounds
MAX_BEND_ANGLE = 2.0  # radians, two-link joint
CURVATURE_MARGIN = 0.99  # |curvature| * radius must stay below this (injectivity)


def _colors_from_positions(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Smooth coordinate colormap: normalized position inside the shape bounds."""
    return np.clip((points - lo) / (hi - lo), 0.0, 1.0)


def _allocate(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` proportionally to ``weights`` (largest remainder, every part >= 1)."""
    if total < len(weights):
        raise InvalidArgumentError(f"cannot split {total} samples into {len(weights)} "
                                   "non-empty parts")
    ideal = total * weights / weights.sum()
    counts = np.floor(ideal).astype(int)
    remainder = ideal - counts
    for i in np.argsort(-remainder, kind="stable")[: total - counts.sum()]:
        counts[i] += 1
    # guarantee non-empty groups
    for i in range(len(counts)):
        while counts[i] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[i] += 1
    return counts


@dataclass
class SyntheticScene:
    """Canonical samples plus the analytic deformation map.

    ``motion`` is the sparse tier used for tracking, ``surface`` the dense
    colored tier used for appearance. ``deform``/``exact_motion`` expose the
    ground-truth trajectory for any deformation value.
    """

    kind: str
    params: dict
    seed: int
    motion: PointCloud
    motion_labels: np.ndarray
    surface: PointCloud
    surface_labels: np.ndarray
    label_names: tuple[str, ...]

    def label_strings(self, which: str = "motion") -> list[str]:
        labels = self.motion_labels if which == "motion" else self.surface_labels
        return [self.label_names[i] for i in labels]

    # -- deformation ------------------------------------------------------

    def validate_value(self, value: float):
        if not np.isfinite(value):
            raise InvalidArgumentError(f"deformation amplitude must be finite, got {value}")
        if self.kind == "cylinder":
            if abs(value) * self.params["radius"] >= CURVATURE_MARGIN:
                raise InvalidArgumentError(
                    f"curvature {value} breaks injectivity for radius {self.params['radius']}"
                )
        else:
            if abs(value) > MAX_BEND_ANGLE:
                raise InvalidArgumentError(
                    f"bend angle {value} exceeds the +/-{MAX_BEND_ANGLE} rad bound"
                )

    def deform(self, points: np.ndarray, labels: np.ndarray, value: float) -> np.ndarray:
        """Analytic deformation of arbitrary canonical points (C1 in ``value``)."""
        self.validate_value(value)
        points = np.asarray(points, dtype=np.float64)
        if self.kind == "cylinder":
            return _bend_cylinder(points, value)
        return _bend_twolink(points, labels, value, self.label_names)

    def exact_motion(self, value: float, frame: int = 0) -> FrameMotion:
        """Exact per-motion-sample relative transforms for a deformation value."""
        self.validate_value(value)
        pts = self.motion.points
        if self.kind == "cylinder":
            angles = value * pts[:, 0]
            dq = _quat_about_z(angles)
        else:
            moving = self._moving_mask(self.motion_labels)
            dq = _quat_about_z(np.where(moving, value, 0.0))
        rot = _rotmat_about_z_quat(dq)
        deformed = self.deform(pts, self.motion_labels, value)
        dp = deformed - np.einsum("nij,nj->ni", rot, pts)
        return FrameMotion(delta_p=dp, delta_q=dq, frame=frame)

    def _moving_mask(self, labels: np.ndarray) -> np.ndarray:
        moving_names = {"limb", "tip"}
        moving_ids = [i for i, n in enumerate(self.label_names) if n in moving_names]
        return np.isin(labels, moving_ids)

    # -- Gaussian-set construction ---------------------------------------

    def _set_from_cloud(self, cloud: PointCloud, labels, role: Role, count_area: float,
                        anisotropy: float, opacity: float, stream: int) -> GaussianSet:
        if not 1.0 <= anisotropy < np.inf:
            raise InvalidArgumentError(f"anisotropy must be finite and at least 1, got {anisotropy}")
        n = len(cloud)
        spacing = np.sqrt(count_area / n)
        base = np.log(0.5 * spacing)
        rng = np.random.Generator(np.random.PCG64((self.seed, stream)))
        log_scales = np.full((n, 3), base)
        if anisotropy > 1.0:
            half = 0.5 * np.log(anisotropy)
            log_scales = log_scales + rng.uniform(-half, half, size=(n, 3))
        return GaussianSet(
            positions=cloud.points,
            rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
            log_scales=log_scales,
            opacities=np.full(n, opacity),
            colors=cloud.colors,
            role=role,
            frame=0,
            labels=labels,
            label_names=self.label_names,
        )

    def motion_set(self, anisotropy: float = 1.0) -> GaussianSet:
        return self._set_from_cloud(self.motion, self.motion_labels, Role.MOTION,
                                    self.params["area"], anisotropy, opacity=0.8, stream=101)

    def appearance_set(self, anisotropy: float = 1.0) -> GaussianSet:
        return self._set_from_cloud(self.surface, self.surface_labels, Role.APPEARANCE,
                                    self.params["area"], anisotropy, opacity=0.9, stream=102)


def _quat_about_z(angles: np.ndarray) -> np.ndarray:
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(half), np.zeros_like(half), np.zeros_like(half), np.sin(half)], axis=-1)


def _rotmat_about_z_quat(q: np.ndarray) -> np.ndarray:
    # cheap special case: rotation about z encoded as (cos a/2, 0, 0, sin a/2)
    angles = 2.0 * np.arctan2(q[:, 3], q[:, 0])
    c = np.cos(angles)
    s = np.sin(angles)
    rot = np.zeros((len(q), 3, 3))
    rot[:, 0, 0] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    rot[:, 1, 1] = c
    rot[:, 2, 2] = 1.0
    return rot


def _bend_cylinder(points: np.ndarray, curvature: float) -> np.ndarray:
    if abs(curvature) < 1e-12:
        return points.copy()
    x = points[:, 0]
    y = points[:, 1]
    phi = curvature * x
    radial = 1.0 / curvature - y
    out = np.empty_like(points)
    out[:, 0] = radial * np.sin(phi)
    out[:, 1] = 1.0 / curvature - radial * np.cos(phi)
    out[:, 2] = points[:, 2]
    return out


def _bend_twolink(points: np.ndarray, labels: np.ndarray, angle: float,
                  label_names: tuple[str, ...]) -> np.ndarray:
    moving_ids = [i for i, n in enumerate(label_names) if n in ("limb", "tip")]
    moving = np.isin(np.asarray(labels), moving_ids)
    c = np.cos(angle)
    s = np.sin(angle)
    out = points.copy()
    out[moving, 0] = c * points[moving, 0] - s * points[moving, 1]
    out[moving, 1] = s * points[moving, 0] + c * points[moving, 1]
    return out


def _sample_cylinder_lateral(rng, n: int, radius: float, length: float, x0: float = 0.0):
    x = x0 + length * rng.random(n)
    theta = 2.0 * np.pi * rng.random(n)
    return np.stack([x, radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def _sample_sphere(rng, n: int, radius: float, center: np.ndarray):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return center + radius * v


def make_cylinder_scene(n_motion: int, n_appearance: int, seed: int,
                        radius: float = 0.05, length: float = 0.5) -> SyntheticScene:
    """Open tube along +x from 0 to ``length``; labels split it at mid-axis."""
    if radius <= 0.0 or length <= 0.0:
        raise InvalidArgumentError("cylinder radius and length must be positive")
    if n_motion < 2 or n_appearance < 2:
        raise InvalidArgumentError("need at least two samples per tier")
    label_names = ("lower", "upper")
    lo = np.array([0.0, -radius, -radius])
    hi = np.array([length, radius, radius])
    area = 2.0 * np.pi * radius * length

    def tier(n, stream):
        rng = np.random.Generator(np.random.PCG64((seed, stream)))
        pts = _sample_cylinder_lateral(rng, n, radius, length)
        labels = (pts[:, 0] >= 0.5 * length).astype(np.int64)  # lower=0, upper=1
        return PointCloud(points=pts, colors=_colors_from_positions(pts, lo, hi)), labels

    motion, motion_labels = tier(n_motion, 1)
    surface, surface_labels = tier(n_appearance, 2)
    return SyntheticScene(kind="cylinder",
                          params={"radius": radius, "length": length, "area": area},
                          seed=seed, motion=motion, motion_labels=motion_labels,
                          surface=surface, surface_labels=surface_labels,
                          label_names=label_names)


def make_twolink_scene(n_motion: int, n_appearance: int, seed: int,
                       base_length: float = 0.25, limb_length: float = 0.25,
                       base_radius: float = 0.04, limb_radius: float = 0.03,
                       tip_radius: float = 0.05) -> SyntheticScene:
    """Two tubes meeting at the origin joint plus a tip sphere; the limb and
    tip rotate rigidly about +z through the joint, the base stays put."""
    for v in (base_length, limb_length, base_radius, limb_radius, tip_radius):
        if v <= 0.0:
            raise InvalidArgumentError("all two-link dimensions must be positive")
    if n_motion < 3 or n_appearance < 3:
        raise InvalidArgumentError("need at least three samples per tier, one per part")
    label_names = ("base", "limb", "tip")
    reach = limb_length + tip_radius
    # bounds wide enough for any bend within the validity limit
    r_max = max(base_radius, limb_radius, tip_radius)
    lo = np.array([-base_length - r_max, -reach - r_max, -r_max])
    hi = np.array([reach + r_max, reach + r_max, r_max])
    areas = np.array([
        2.0 * np.pi * base_radius * base_length,
        2.0 * np.pi * limb_radius * limb_length,
        4.0 * np.pi * tip_radius**2,
    ])

    def tier(n, stream):
        counts = _allocate(n, areas)
        rng = np.random.Generator(np.random.PCG64((seed, stream)))
        base_pts = _sample_cylinder_lateral(rng, counts[0], base_radius, base_length, x0=-base_length)
        limb_pts = _sample_cylinder_lateral(rng, counts[1], limb_radius, limb_length, x0=0.0)
        tip_pts = _sample_sphere(rng, counts[2], tip_radius, np.array([limb_length, 0.0, 0.0]))
        pts = np.concatenate([base_pts, limb_pts, tip_pts])
        labels = np.repeat(np.arange(3), counts)
        return PointCloud(points=pts, colors=_colors_from_positions(pts, lo, hi)), labels

    motion, motion_labels = tier(n_motion, 1)
    surface, surface_labels = tier(n_appearance, 2)
    return SyntheticScene(kind="twolink",
                          params={"base_length": base_length, "limb_length": limb_length,
                                  "base_radius": base_radius, "limb_radius": limb_radius,
                                  "tip_radius": tip_radius, "area": float(areas.sum())},
                          seed=seed, motion=motion, motion_labels=motion_labels,
                          surface=surface, surface_labels=surface_labels,
                          label_names=label_names)


def make_scene(kind: str, n_motion: int, n_appearance: int, seed: int, **params) -> SyntheticScene:
    if kind == "cylinder":
        return make_cylinder_scene(n_motion, n_appearance, seed, **params)
    if kind == "twolink":
        return make_twolink_scene(n_motion, n_appearance, seed, **params)
    raise InvalidArgumentError(f"unknown scene kind {kind!r}")


@dataclass
class Frame:
    """One animated frame: deformed clouds plus the exact motion transforms."""

    index: int
    value: float
    motion: PointCloud
    surface: PointCloud
    truth: FrameMotion


def animate(scene: SyntheticScene, schedule) -> list[Frame]:
    """Deform both sample tiers along a deformation-value schedule.

    Frames are numbered from 1 (the canonical state is frame 0); each carries
    the analytic per-motion-sample transforms as ``truth``.
    """
    frames = []
    for i, value in enumerate(schedule, start=1):
        value = float(value)
        scene.validate_value(value)
        m_pts = scene.deform(scene.motion.points, scene.motion_labels, value)
        s_pts = scene.deform(scene.surface.points, scene.surface_labels, value)
        frames.append(Frame(
            index=i,
            value=value,
            motion=PointCloud(points=m_pts, colors=scene.motion.colors),
            surface=PointCloud(points=s_pts, colors=scene.surface.colors),
            truth=scene.exact_motion(value, frame=i),
        ))
    return frames
