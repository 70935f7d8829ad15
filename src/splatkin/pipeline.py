"""Optimization stages: canonical fitting, tracking, alignment, motion transfer.

Every stage is one call to ``_optimize``: a weighted sum of energy terms
minimized by Adam over some parameter blocks. The stages differ only in their
set-up, their terms and which blocks move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import GaussianSet, PointCloud, Role, knn_build, quat_normalize
from .energy import (
    GRAD_FIELDS,
    EnergyEval,
    e_arap,
    e_data_points,
    e_iso,
    e_l2_gauss,
    e_mask,
    e_sem,
    e_size,
)
from .errors import InvalidArgumentError
from .render import OrthoCamera, splat
from .warp import FrameMotion, warp_appearance

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam(object):
    """Adam with bias correction and a per-group linearly decayed step size.

    Each parameter group owns its working array (mutated in place by
    ``step``), first/second moment buffers, and a learning-rate ramp from
    ``lr_start`` down to ``lr_end`` over ``total_steps``. Groups flagged
    ``unit_rows`` are row-normalized after every update (rotation
    quaternions). Every step needs a gradient for every group.
    """

    def __init__(self, total_steps: int):
        if total_steps < 1:
            raise InvalidArgumentError("total_steps must be >= 1")
        self.total_steps = int(total_steps)
        self.t = 0
        self._groups: dict[str, dict] = {}

    def add_group(self, name: str, value: np.ndarray, lr_start: float,
                  lr_end: float | None = None, unit_rows: bool = False):
        if name in self._groups:
            raise InvalidArgumentError(f"duplicate parameter group {name!r}")
        if lr_start < 0.0:
            raise InvalidArgumentError(f"negative learning rate for group {name!r}")
        value = np.array(value, dtype=np.float64)
        self._groups[name] = {
            "value": value,
            "m": np.zeros_like(value),
            "v": np.zeros_like(value),
            "lr_start": float(lr_start),
            "lr_end": float(lr_start if lr_end is None else lr_end),
            "unit_rows": unit_rows,
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self._groups[name]["value"]

    def _lr(self, group: dict) -> float:
        if self.total_steps == 1:
            return group["lr_start"]
        frac = (self.t - 1) / (self.total_steps - 1)
        return group["lr_start"] + (group["lr_end"] - group["lr_start"]) * frac

    def step(self, grads: dict):
        """One update; ``grads`` maps every group name to its gradient array."""
        for name in grads:
            if name not in self._groups:
                raise InvalidArgumentError(f"gradient for unknown group {name!r}")
        for name in self._groups:
            if grads.get(name) is None:
                raise InvalidArgumentError(f"no gradient for group {name!r}")
        self.t += 1
        for name, group in self._groups.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != group["value"].shape:
                raise InvalidArgumentError(
                    f"gradient shape {g.shape} != parameter shape "
                    f"{group['value'].shape} for group {name!r}")
            if not np.all(np.isfinite(g)):
                raise InvalidArgumentError(f"non-finite gradient for group {name!r}")
            m, v, value = group["m"], group["v"], group["value"]
            # in place, with the same operations in the same order as the textbook update
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            denom = np.sqrt(v / (1.0 - _BETA2**self.t))
            denom += _EPS
            step = m / (1.0 - _BETA1**self.t)
            step *= self._lr(group)
            step /= denom
            value -= step
            if group["unit_rows"]:
                value /= np.linalg.norm(value, axis=1, keepdims=True)


def kmeans(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations with distance-weighted seeding.

    Deterministic given (points, k, seed): ties in the assignment go to the
    lowest centroid index, an emptied cluster is re-seeded at the point
    farthest from its current centroid, and iteration stops after
    100 rounds or when no centroid moves more than 1e-7.
    Returns (centroids (k,3), assignment (n,)).
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or k > n:
        raise InvalidArgumentError(f"need 1 <= k <= {n}, got k={k}")
    rng = np.random.Generator(np.random.PCG64(seed))

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            idx = min(idx, n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))

    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        dist2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assignment = np.argmin(dist2, axis=1)  # ties -> lowest index
        moved = 0.0
        for j in range(k):
            members = points[assignment == j]
            if len(members) == 0:
                own = dist2[np.arange(n), assignment]
                new_c = points[int(np.argmax(own))]
            else:
                new_c = members.mean(axis=0)
            moved = max(moved, float(np.abs(new_c - centroids[j]).max()))
            centroids[j] = new_c
        if moved < 1e-7:
            break
    dist2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    assignment = np.argmin(dist2, axis=1)
    return centroids, assignment


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrackConfig:
    """Knobs for canonical fitting and per-frame tracking."""

    iterations_init: int = 2000
    iterations_track: int = 4000
    length_scale: float = 0.001
    lambda_iso: float = 0.004
    lambda_size: float = 1.0
    k_neighbors: int = 4
    lr_position: float = 1e-3
    lr_rotation: float = 1e-3
    lr_scale: float = 1e-3
    lr_color: float = 1e-3
    lr_end_factor: float = 0.1
    seed: int = 0


@dataclass
class TransferConfig:
    """Knobs for semantic alignment and motion transfer."""

    iterations_align: int = 15000
    iterations_transfer: int = 2000
    length_scale: float = 0.001
    lambda_sem: float = 0.001
    lambda_arap_align: float = 0.01
    lambda_arap_transfer: float = 0.2
    k_neighbors: int = 4
    clusters_per_label: int = 8
    lr_position: float = 1e-3
    lr_rotation: float = 1e-3
    lr_end_factor: float = 0.1
    seed: int = 0


@dataclass
class Trace:
    """Per-iteration energy log; the last row re-evaluates the best iterate."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def record(self, iteration: int, values) -> None:
        self.rows.append((iteration, *[float(v) for v in values]))


# (trace column, weight, energy of the current set)
Term = tuple[str, float, Callable[[GaussianSet], EnergyEval]]


def _evaluate(base: GaussianSet, adam: Adam, blocks, terms: list[Term]):
    """Term values plus their weighted total, and the weighted gradient per block.

    Sums start from the first term and add the rest in list order. A function
    of its own so the current set and the term evaluations are freed before
    the Adam step, which keeps peak memory down.
    """
    cur = base.replace(**{name: adam[name] for name in blocks})
    values = []
    total = None
    grads: dict = {}
    for _, weight, energy in terms:
        ev = energy(cur)
        values.append(ev.value)
        total = weight * ev.value if total is None else total + weight * ev.value
        for name in blocks:
            g = getattr(ev, GRAD_FIELDS[name])
            if g is not None:
                grads[name] = weight * g if name not in grads else grads[name] + weight * g
    values.append(total)
    return values, grads


def _optimize(base: GaussianSet, lrs: dict[str, float], lr_end_factor: float,
              iterations: int, terms: list[Term]) -> tuple[GaussianSet, Trace]:
    """Minimize the weighted sum of ``terms`` over the blocks named in ``lrs``.

    ``lrs`` maps each moving GaussianSet field to its start step size; it
    decays linearly to ``lr_end_factor`` times that. Rotations stay unit rows.
    Returns ``base`` with the best iterate's blocks (rotations normalized) and
    the trace, whose final row re-logs the best iterate at index
    ``iterations``.
    """
    adam = Adam(iterations)
    for name, lr in lrs.items():
        adam.add_group(name, getattr(base, name), lr, lr * lr_end_factor,
                       unit_rows=name == "rotations")
    trace = Trace(columns=("iteration",) + tuple(col for col, _, _ in terms) + ("total",))
    best_values = None
    best = None
    for it in range(iterations):
        values, grads = _evaluate(base, adam, lrs, terms)
        trace.record(it, values)
        if best_values is None or values[-1] < best_values[-1]:
            best_values = values
            best = {name: adam[name].copy() for name in lrs}
        adam.step(grads)
    trace.record(iterations, best_values)
    best["rotations"] = quat_normalize(best.get("rotations", base.rotations))
    return base.replace(**best), trace


# ---------------------------------------------------------------------------
# canonical fitting


def init_canonical(initial: GaussianSet, target: PointCloud,
                   cfg: TrackConfig) -> tuple[GaussianSet, Trace]:
    """Fit positions/log-scales/colors to a colored cloud.

    Minimizes the two-sided colored point match plus the spread and size
    penalties. Rotations and opacities keep their initial values; rotations
    come back normalized.
    """
    return _optimize(
        initial,
        {"positions": cfg.lr_position, "log_scales": cfg.lr_scale, "colors": cfg.lr_color},
        cfg.lr_end_factor, cfg.iterations_init,
        [("e_data", 1.0, lambda cur: e_data_points(cur, target)),
         ("e_iso", cfg.lambda_iso, lambda cur: e_iso(cur)),
         ("e_size", cfg.lambda_size, lambda cur: e_size(cur))])


# ---------------------------------------------------------------------------
# frame-to-frame tracking


def track_sequence(canonical: GaussianSet, targets: list[PointCloud],
                   cfg: TrackConfig) -> tuple[list[GaussianSet], list[Trace]]:
    """Track a motion set through a sequence of colored target clouds.

    Each frame warm-starts from the previous result and minimizes the point
    match plus rigidity against the previous frame; only positions and
    rotations move. Returns per-frame sets (frame numbers 1..T) and traces.
    """
    if canonical.role is not Role.MOTION:
        raise InvalidArgumentError("tracking expects a motion-role set")
    graph = knn_build(canonical.positions, canonical.positions, cfg.k_neighbors,
                      cfg.length_scale, normalize=False)
    prev = canonical
    results: list[GaussianSet] = []
    traces: list[Trace] = []
    for t, cloud in enumerate(targets, start=1):
        prev, trace = _optimize(
            prev.replace(frame=t),
            {"positions": cfg.lr_position, "rotations": cfg.lr_rotation},
            cfg.lr_end_factor, cfg.iterations_track,
            [("e_data", 1.0, lambda cur: e_data_points(cur, cloud)),
             ("e_arap", 1.0, lambda cur: e_arap(prev, cur, graph))])
        results.append(prev)
        traces.append(trace)
    return results, traces


# ---------------------------------------------------------------------------
# semantic alignment


@dataclass
class SemanticClusters:
    """Greedy label-wise cluster matching between two labeled sets."""

    members: list[np.ndarray]
    targets: np.ndarray


def _label_indices(gset: GaussianSet, name: str) -> np.ndarray:
    label_id = gset.label_names.index(name)
    return np.flatnonzero(gset.labels == label_id)


def match_clusters(source: GaussianSet, driver: GaussianSet,
                   clusters_per_label: int, seed: int) -> SemanticClusters:
    """Cluster both sets per shared label and pair clusters greedily.

    Centroids are compared after removing each label's mean (so the pairing
    reflects intra-part layout, not a global offset between the two bodies);
    pairs are chosen by ascending centered distance with index tie-breaks.
    The returned targets live in the driver's actual coordinates.
    """
    if source.labels is None or driver.labels is None:
        raise InvalidArgumentError("semantic alignment needs labels on both sets")
    shared = sorted(set(source.label_names) & set(driver.label_names))
    if not shared:
        raise InvalidArgumentError("no shared label names between the two sets")
    member_lists: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for li, name in enumerate(shared):
        src_idx = _label_indices(source, name)
        drv_idx = _label_indices(driver, name)
        if len(src_idx) == 0 or len(drv_idx) == 0:
            continue
        k = min(clusters_per_label, len(src_idx), len(drv_idx))
        # same derived seed on both sides: identical geometry then yields
        # identical clusterings, making self-alignment exactly stationary
        _, src_assign = kmeans(source.positions[src_idx], k, seed=(seed, li))
        _, drv_assign = kmeans(driver.positions[drv_idx], k, seed=(seed, li))
        # centroids as member means under the final assignment: exactly the
        # quantity the semantic term measures
        src_valid = [i for i in range(k) if np.any(src_assign == i)]
        drv_valid = [j for j in range(k) if np.any(drv_assign == j)]
        src_c = np.stack([source.positions[src_idx[src_assign == i]].mean(axis=0)
                          for i in src_valid])
        drv_c = np.stack([driver.positions[drv_idx[drv_assign == j]].mean(axis=0)
                          for j in drv_valid])
        src_centered = src_c - src_c.mean(axis=0)
        drv_centered = drv_c - drv_c.mean(axis=0)
        drv_offset = drv_c.mean(axis=0)
        dist = np.linalg.norm(src_centered[:, None, :] - drv_centered[None, :, :], axis=2)
        order = sorted(((dist[a, b], a, b)
                        for a in range(len(src_valid)) for b in range(len(drv_valid))))
        used_a: set[int] = set()
        used_b: set[int] = set()
        for _, a, b in order:
            if a in used_a or b in used_b:
                continue
            used_a.add(a)
            used_b.add(b)
            member_lists.append(src_idx[src_assign == src_valid[a]])
            targets.append(drv_centered[b] + drv_offset)
    return SemanticClusters(members=member_lists, targets=np.asarray(targets))


def align_canonical(source: GaussianSet, driver: GaussianSet,
                    cameras: list[OrthoCamera], cfg: TransferConfig,
                    ) -> tuple[GaussianSet, Trace]:
    """Deform the source appearance set into the driver's canonical pose.

    The driver is rendered once per camera into silhouette masks; the loop
    then moves source positions/rotations to minimize silhouette mismatch,
    matched-cluster centroid distance, and rigidity against the original
    source (which anchors local shape while the body moves globally).
    """
    masks = [splat(driver, cam).alpha for cam in cameras]
    clusters = match_clusters(source, driver, cfg.clusters_per_label, cfg.seed)
    graph = knn_build(source.positions, source.positions, cfg.k_neighbors,
                      cfg.length_scale, normalize=False)
    return _optimize(
        source,
        {"positions": cfg.lr_position, "rotations": cfg.lr_rotation},
        cfg.lr_end_factor, cfg.iterations_align,
        [("e_mask", 1.0, lambda cur: e_mask(cur, masks, cameras)),
         ("e_sem", cfg.lambda_sem, lambda cur: e_sem(cur, clusters.targets, clusters.members)),
         ("e_arap", cfg.lambda_arap_align, lambda cur: e_arap(source, cur, graph))])


# ---------------------------------------------------------------------------
# motion transfer


def transfer_motion(aligned: GaussianSet, source_canonical: GaussianSet,
                    driver_canonical: GaussianSet, motions: list[FrameMotion],
                    cfg: TransferConfig) -> tuple[list[GaussianSet], list[Trace]]:
    """Re-perform driver motion on the aligned source appearance set.

    Every frame starts at the skinned warp of the aligned set under the
    driver's transforms and is then refined to stay close to that warp while
    keeping local rigidity against the *source* canonical geometry, so the
    result moves like the driver but deforms like the source.
    """
    if len(aligned) != len(source_canonical):
        raise InvalidArgumentError("aligned and source canonical sets differ in size")
    skin = knn_build(aligned.positions, driver_canonical.positions,
                     cfg.k_neighbors, cfg.length_scale, normalize=True)
    rigid = knn_build(source_canonical.positions, source_canonical.positions,
                      cfg.k_neighbors, cfg.length_scale, normalize=False)
    results: list[GaussianSet] = []
    traces: list[Trace] = []
    for fm in motions:
        target = warp_appearance(aligned, fm, skin)
        result, trace = _optimize(
            target,
            {"positions": cfg.lr_position, "rotations": cfg.lr_rotation},
            cfg.lr_end_factor, cfg.iterations_transfer,
            [("e_l2", 1.0, lambda cur: e_l2_gauss(cur, target)),
             ("e_arap", cfg.lambda_arap_transfer,
              lambda cur: e_arap(source_canonical, cur, rigid))])
        results.append(result)
        traces.append(trace)
    return results, traces
