"""Embedded skinning: per-kernel relative transforms, appearance warping,
and map disassembly/assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianSet,
    NeighborGraph,
    Role,
    _frozen,
    quat_blend_many,
    quat_inverse,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)
from .errors import InvalidArgumentError
from .morton import AttributeMap, MortonMapping, pack_map, unpack_map


@dataclass
class FrameMotion:
    """Per-motion-kernel relative transform from the canonical frame to frame t.

    delta_q rotates about the kernel's canonical position indirectly: the warp
    applies p -> R(delta_q) p + delta_p, which is exact at the kernel itself.
    """

    delta_p: np.ndarray  # (M,3)
    delta_q: np.ndarray  # (M,4), unit
    frame: int = 0

    def __post_init__(self):
        self.delta_p = _frozen(self.delta_p, "delta_p")
        self.delta_q = _frozen(self.delta_q, "delta_q")
        if self.delta_p.ndim != 2 or self.delta_p.shape[1] != 3:
            raise InvalidArgumentError(f"delta_p must be (M,3), got {self.delta_p.shape}")
        if self.delta_q.shape != (self.delta_p.shape[0], 4):
            raise InvalidArgumentError(f"delta_q must be (M,4), got {self.delta_q.shape}")

    def __len__(self) -> int:
        return self.delta_p.shape[0]


def relative_motion(canonical: GaussianSet, current: GaussianSet) -> FrameMotion:
    """Relative transforms between two corresponding motion sets.

    delta_q = normalize(q_t * q_c^-1), delta_p = p_t - R(delta_q) p_c, so that
    applying the result to the canonical kernels reproduces the current ones.
    """
    if canonical.role is not Role.MOTION or current.role is not Role.MOTION:
        raise InvalidArgumentError("relative_motion expects two motion sets")
    if len(canonical) != len(current):
        raise InvalidArgumentError(
            f"kernel counts differ: {len(canonical)} vs {len(current)}"
        )
    delta_q = quat_normalize(quat_multiply(current.rotations, quat_inverse(canonical.rotations)))
    rot = quat_to_matrix(delta_q)
    delta_p = current.positions - np.einsum("nij,nj->ni", rot, canonical.positions)
    return FrameMotion(delta_p=delta_p, delta_q=delta_q, frame=current.frame)


def apply_motion(canonical: GaussianSet, motion: FrameMotion) -> GaussianSet:
    """Apply per-kernel relative transforms to a motion set (exact inverse of
    relative_motion when counts correspond)."""
    if len(canonical) != len(motion):
        raise InvalidArgumentError("motion length does not match kernel count")
    rot = quat_to_matrix(motion.delta_q)
    positions = np.einsum("nij,nj->ni", rot, canonical.positions) + motion.delta_p
    rotations = quat_normalize(quat_multiply(motion.delta_q, canonical.rotations))
    return canonical.replace(positions=positions, rotations=rotations, frame=motion.frame)


def warp_appearance(appearance: GaussianSet, motion: FrameMotion, graph: NeighborGraph) -> GaussianSet:
    """Skin a dense appearance set by its motion-kernel neighborhood.

    Each kernel moves to the weight-blended image of its canonical position
    under the neighbors' relative transforms; its rotation composes the
    blended delta rotation with the canonical one. Scales, opacity, color and
    labels are carried over unchanged.
    """
    if appearance.role is not Role.APPEARANCE:
        raise InvalidArgumentError("warp_appearance expects an appearance set")
    if not graph.normalized:
        raise InvalidArgumentError("warp graph must carry normalized weights")
    if len(graph) != len(appearance):
        raise InvalidArgumentError("graph was not built for this appearance set")
    if graph.indices.size and graph.indices.max() >= len(motion):
        raise InvalidArgumentError("graph references kernels beyond the motion set")

    idx = graph.indices  # (N,k)
    w = graph.weights
    dq = motion.delta_q[idx]  # (N,k,4)
    dp = motion.delta_p[idx]  # (N,k,3)
    rot = quat_to_matrix(dq)  # (N,k,3,3)
    moved = np.einsum("nkij,nj->nki", rot, appearance.positions) + dp
    positions = np.einsum("nk,nki->ni", w, moved)
    blended = quat_blend_many(dq, w)
    rotations = quat_normalize(quat_multiply(blended, appearance.rotations))
    return appearance.replace(positions=positions, rotations=rotations, frame=motion.frame)


# ---------------------------------------------------------------------------
# map-space exchange


def disassemble(gset: GaussianSet, mapping: MortonMapping) -> dict[str, AttributeMap]:
    """Split a set into per-attribute maps under a fixed mapping.

    Channels: position 3, rotation 4, shape 4 (three log-scales + opacity),
    color C. Values are stored float32 (map-exchange precision).
    """
    if len(gset) != len(mapping):
        raise InvalidArgumentError(
            f"set size {len(gset)} does not match mapping {len(mapping)}"
        )
    shape_vals = np.concatenate([gset.log_scales, gset.opacities[:, None]], axis=1)
    return {
        "position": pack_map(mapping, gset.positions, "position map"),
        "rotation": pack_map(mapping, gset.rotations, "rotation map"),
        "shape": pack_map(mapping, shape_vals, "shape map"),
        "color": pack_map(mapping, gset.colors, "color map"),
    }


def assemble(
    maps: dict[str, AttributeMap],
    mapping: MortonMapping,
    role: Role,
    frame: int = 0,
    labels=None,
    label_names=None,
) -> GaussianSet:
    """Inverse of disassemble under the same mapping (labels are not map data
    and must be supplied by the caller when wanted)."""
    for key in ("position", "rotation", "shape", "color"):
        if key not in maps:
            raise InvalidArgumentError(f"missing attribute map: {key}")
    position = unpack_map(mapping, maps["position"]).astype(np.float64)
    rotation = unpack_map(mapping, maps["rotation"]).astype(np.float64)
    shape = unpack_map(mapping, maps["shape"]).astype(np.float64)
    color = unpack_map(mapping, maps["color"]).astype(np.float64)
    if position.shape[1] != 3 or rotation.shape[1] != 4 or shape.shape[1] != 4:
        raise InvalidArgumentError("attribute maps carry unexpected channel counts")
    return GaussianSet(
        positions=position,
        rotations=rotation,
        log_scales=shape[:, :3],
        opacities=shape[:, 3],
        colors=color,
        role=role,
        frame=frame,
        labels=labels,
        label_names=label_names,
    )
