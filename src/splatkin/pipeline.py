"""Optimization stages: canonical fitting, tracking, alignment, motion transfer.

Each stage yields its iterates to one driver, ``_minimize``, which logs them
and returns the lowest-total one. Fitting and alignment run Adam over some
parameter blocks (``_optimize``). Tracking and transfer run local/global
solvers (``_track_iterates``, ``_transfer_iterates``) that stop early: each
step is one linear solve for all positions and per-kernel rotation updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import (
    GaussianSet,
    NeighborGraph,
    PointCloud,
    Role,
    _CONJ,
    _hamilton,
    knn_build,
    quat_normalize,
)
from .energy import (
    GRAD_FIELDS,
    EnergyEval,
    _arap_residual,
    _l2_residual,
    _point_match,
    e_arap,
    e_data_points,
    e_iso,
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

# the stopping rule of the local/global solvers (tracking, transfer); see _minimize
TOL = 1e-5
PATIENCE = 5
# squarings of the shifted Horn matrix per rotation fit: power iteration to the 1024th power
_FIT_SQUARINGS = 10
# minorise-maximise passes of the transfer solver's rotation update per step
_MM_PASSES = 3
# largest condition number bound accepted for the transfer solver's position matrix
_MAX_CONDITION = 1e12


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
    """Knobs for canonical fitting and per-frame tracking.

    ``lr_*`` and ``lr_end_factor`` drive fitting's Adam only;
    ``iterations_track`` caps the tracking solver's steps per frame.
    """

    iterations_init: int = 2000
    iterations_track: int = 4000
    length_scale: float = 0.001
    lambda_iso: float = 0.004
    lambda_size: float = 1.0
    k_neighbors: int = 4
    lr_position: float = 1e-3
    lr_scale: float = 1e-3
    lr_color: float = 1e-3
    lr_end_factor: float = 0.1
    seed: int = 0  # not read: fitting and tracking draw no random numbers


@dataclass
class TransferConfig:
    """Knobs for semantic alignment and motion transfer.

    ``lr_*`` and ``lr_end_factor`` drive alignment's Adam only;
    ``iterations_transfer`` caps the transfer solver's steps per frame.
    """

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


def _minimize(columns: tuple[str, ...], iterates, steps: int, stops: bool) -> tuple[dict, Trace]:
    """Run a stage's generator of (values, state) iterates; return the best state and the trace.

    Values end in the total, and a state maps GaussianSet fields to arrays. Row
    t logs iterate t, and the first lowest-total iterate is re-logged last. The
    generator is resumed at most ``steps`` times and never after the last
    logged iterate; with ``stops`` it ends once the best total has not fallen
    by more than ``TOL`` times the first total for ``PATIENCE`` steps.
    """
    trace = Trace(columns=("iteration",) + columns)
    for it, (values, state) in enumerate(iterates):
        trace.record(it, values)
        total = float(values[-1])  # Python floats: inf - inf gives no NumPy warning
        if it == 0:
            best, best_state = values, state
            anchor, since, tol = total, 0, TOL * total
        elif total < best[-1]:
            best, best_state = values, state
            if total < anchor - tol:
                anchor, since = total, it
        if it == steps or (stops and it - since >= PATIENCE):
            break
    trace.record(it + 1, best)
    return best_state, trace


def _optimize(base: GaussianSet, lrs: dict[str, float], lr_end_factor: float,
              iterations: int, terms: list[Term]) -> tuple[GaussianSet, Trace]:
    """Minimize the weighted sum of ``terms`` over the blocks named in ``lrs``.

    ``lrs`` maps each moving GaussianSet field to its start step size; it
    decays linearly to ``lr_end_factor`` times that. Rotations stay unit rows.
    ``iterations`` iterates are logged, so Adam takes ``iterations - 1`` steps.
    Returns ``base`` with the best iterate's blocks (rotations normalized) and
    the trace.
    """
    adam = Adam(iterations)
    for name, lr in lrs.items():
        adam.add_group(name, getattr(base, name), lr, lr * lr_end_factor,
                       unit_rows=name == "rotations")

    def iterates():
        while True:
            values, grads = _evaluate(base, adam, lrs, terms)
            yield values, {name: adam[name].copy() for name in lrs}
            adam.step(grads)

    best, trace = _minimize(tuple(col for col, _, _ in terms) + ("total",), iterates(),
                            iterations - 1, stops=False)
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
    if cfg.iterations_init < 1:
        raise InvalidArgumentError("iterations_init must be >= 1")
    return _optimize(
        initial,
        {"positions": cfg.lr_position, "log_scales": cfg.lr_scale, "colors": cfg.lr_color},
        cfg.lr_end_factor, cfg.iterations_init,
        [("e_data", 1.0, lambda cur: e_data_points(cur, target)),
         ("e_iso", cfg.lambda_iso, lambda cur: e_iso(cur)),
         ("e_size", cfg.lambda_size, lambda cur: e_size(cur))])


# ---------------------------------------------------------------------------
# frame-to-frame tracking


def _horn_matrix(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shifted Horn matrices M (N,4,4) and their shifts c (N,) for offsets ``a``, ``b`` (N,k,3).

    For a unit quaternion q, sum_k w_k |R(q) a_k - b_k|^2 = 4c - 2 q^T M q, where
    M is Horn's traceless symmetric 4x4 matrix of S = sum_k w_k a_k b_k^T plus
    c = sum_k w_k (|a_k|^2 + |b_k|^2) / 2 times the identity. c bounds the
    traceless part's spectrum, so M is positive semi-definite.
    """
    s = (w[:, :, None] * a).transpose(0, 2, 1) @ b
    sxx, sxy, sxz, syx, syy, syz, szx, szy, szz = np.moveaxis(s.reshape(-1, 9), -1, 0)
    c = 0.5 * np.einsum("nk,nkd->n", w, a * a + b * b)
    m = np.empty((len(s), 4, 4))
    m[:, 0, 0] = c + sxx + syy + szz
    m[:, 1, 1] = c + sxx - syy - szz
    m[:, 2, 2] = c - sxx + syy - szz
    m[:, 3, 3] = c - sxx - syy + szz
    m[:, 0, 1] = m[:, 1, 0] = syz - szy
    m[:, 0, 2] = m[:, 2, 0] = szx - sxz
    m[:, 0, 3] = m[:, 3, 0] = sxy - syx
    m[:, 1, 2] = m[:, 2, 1] = sxy + syx
    m[:, 1, 3] = m[:, 3, 1] = szx + sxz
    m[:, 2, 3] = m[:, 3, 2] = syz + szy
    return m, c


def _fit_rotations(a: np.ndarray, b: np.ndarray, w: np.ndarray, warm: np.ndarray) -> np.ndarray:
    """Per-kernel unit quaternion q minimizing sum_k w_k |R(q) a_k - b_k|^2 (Procrustes).

    ``a`` and ``b`` are (N,k,3) offsets, ``w`` (N,k) non-negative weights and
    ``warm`` (N,4) unit start quaternions. The best q is the top eigenvector of
    the shifted Horn matrix (``_horn_matrix``); squaring it ``_FIT_SQUARINGS``
    times and applying it to ``warm`` is power iteration from ``warm``. So a
    fit never scores below its start, a kernel without weight keeps ``warm``,
    and the result is a proper rotation in ``warm``'s hemisphere.
    """
    m, c = _horn_matrix(a, b, w)
    # scaled to trace 1 the top eigenvalue is at least 1/4, so it stays far
    # from underflow over five squarings; rescale after every fifth
    m /= np.where(c > 0.0, 4.0 * c, 1.0)[:, None, None]
    for i in range(1, _FIT_SQUARINGS + 1):
        m = m @ m
        if i % 5 == 0:
            trace = np.trace(m, axis1=1, axis2=2)
            m /= np.where(trace > 0.0, trace, 1.0)[:, None, None]
    q = (m @ warm[:, :, None])[:, :, 0]
    norm = np.linalg.norm(q, axis=1, keepdims=True)
    return np.where(norm > 0.0, q / np.where(norm > 0.0, norm, 1.0), warm)


@dataclass
class _Laplacian:
    """The weighted Laplacian of a rigidity graph, as a lower band in reverse Cuthill-McKee order.

    It is the part of ``e_arap`` that is quadratic in positions: every edge
    (i, j, w) with i != j adds w |p_j - p_i|^2. It depends on the graph alone,
    so it is assembled once per tracked sequence or transfer call, in the order
    that keeps the band narrow.
    """

    order: np.ndarray  # kernel at each banded row
    band: np.ndarray  # (width+1, N), band[r - c, c] = L[r, c] for r >= c

    @classmethod
    def of(cls, graph: NeighborGraph) -> "_Laplacian":
        # loaded here so that only the local/global solvers pay for the module
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n, k = graph.indices.shape
        i = np.repeat(np.arange(n), k)
        j = graph.indices.ravel()
        real = i != j
        i, j, w = i[real], j[real], graph.weights.ravel()[real]
        adjacency = scipy.sparse.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
        order = reverse_cuthill_mckee(adjacency, symmetric_mode=False)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        lo, hi = np.minimum(rank[i], rank[j]), np.maximum(rank[i], rank[j])
        band = np.zeros((int((hi - lo).max(initial=0)) + 1, n))
        band[0] = np.bincount(lo, w, n) + np.bincount(hi, w, n)
        np.subtract.at(band, (hi - lo, lo), w)
        return cls(order=order, band=band)

    def factored(self, scale: float, diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """A solver of (``scale`` L + diag(``diagonal``)) x = rhs (N,3), factored once.

        The matrix must be positive definite.
        """
        band = scale * self.band
        band[0] += diagonal[self.order]
        factor = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = np.empty_like(rhs)
            x[self.order] = scipy.linalg.cho_solve_banded((factor, True), rhs[self.order],
                                                          check_finite=False)
            return x
        return solve


def _edge_rhs(base: np.ndarray, slots: np.ndarray, w: np.ndarray,
              rotated: np.ndarray) -> np.ndarray:
    """``base`` plus the edge part r of a local/global position solve's right-hand side.

    ``rotated`` holds each edge's rotated rest offset R a (N,k,3) and ``w`` the
    edge weights (N,k); each edge adds w R a at its neighbour and takes it at
    its kernel. ``slots`` are the neighbours' flat (kernel, axis) indices.
    """
    n = len(base)
    wr = w[:, :, None] * rotated
    return base + np.bincount(slots, wr.ravel(), 3 * n).reshape(n, 3) - np.einsum("nkd->nd", wr)


def _track_iterates(prev: GaussianSet, cloud: PointCloud, graph: NeighborGraph,
                    laplacian: _Laplacian):
    """Iterates of e_data_points + e_arap(prev, .) over positions and rotations, for ``_minimize``.

    Iterate 0 is ``prev``. Each step renews the nearest-point matches both ways
    and solves one SPD system for all positions (the energy with the matches
    and rotations held is quadratic in them; colors do not move), then fits
    each kernel's rotation against ``prev``'s edge offsets (``_fit_rotations``,
    kernel quaternion ``fit (x) prev``).
    """
    n, m = len(prev), len(cloud)
    idx, w = graph.indices, graph.weights
    edge_slots = (idx[:, :, None] * 3 + np.arange(3)).ravel()
    positions, rotations = prev.positions, prev.rotations
    fit = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    while True:
        e_data, nn_fwd, _, _, nn_bwd = _point_match(positions, prev.colors, cloud)
        # a: prev's edge offsets, the same on every step
        e_rigid, _, a, rotated, _ = _arap_residual(prev, positions, rotations, graph)
        yield (e_data, e_rigid, e_data + e_rigid), {"positions": positions, "rotations": rotations}
        # zero gradient of the energy with matches and rotations held:
        # (L + diag(1/n + count/m)) p = y/n + (sum of matched points)/m + r
        rhs = _edge_rhs(cloud.points[nn_fwd] / n
                        + np.bincount((nn_bwd[:, None] * 3 + np.arange(3)).ravel(),
                                      cloud.points.ravel(), 3 * n).reshape(n, 3) / m,
                        edge_slots, w, rotated)
        positions = laplacian.factored(1.0, 1.0 / n + np.bincount(nn_bwd, minlength=n) / m)(rhs)
        offsets = np.take(positions, idx, axis=0) - positions[:, None, :]
        fit = _fit_rotations(a, offsets, w, fit)
        rotations = _hamilton(fit, prev.rotations)
        rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)


def track_sequence(canonical: GaussianSet, targets: list[PointCloud],
                   cfg: TrackConfig) -> tuple[list[GaussianSet], list[Trace]]:
    """Track a motion set through a sequence of colored target clouds.

    Each frame warm-starts from the previous result and minimizes the point
    match plus rigidity against the previous frame with ``_track_iterates``;
    only positions and rotations move, and ``cfg.iterations_track`` caps the
    solver steps per frame. Returns per-frame sets (frame numbers 1..T) and
    traces.
    """
    if canonical.role is not Role.MOTION:
        raise InvalidArgumentError("tracking expects a motion-role set")
    if cfg.iterations_track < 1:
        raise InvalidArgumentError("iterations_track must be >= 1")
    graph = knn_build(canonical.positions, canonical.positions, cfg.k_neighbors,
                      cfg.length_scale, normalize=False)
    laplacian = _Laplacian.of(graph)
    prev = canonical
    results: list[GaussianSet] = []
    traces: list[Trace] = []
    for t, cloud in enumerate(targets, start=1):
        if len(cloud) == 0:
            raise InvalidArgumentError("data term needs a non-empty set and cloud")
        if prev.color_channels != cloud.colors.shape[1]:
            raise InvalidArgumentError(
                f"color channels differ: set {prev.color_channels} vs cloud "
                f"{cloud.colors.shape[1]}")
        best, trace = _minimize(("e_data", "e_arap", "total"),
                                _track_iterates(prev, cloud, graph, laplacian),
                                cfg.iterations_track, stops=True)
        prev = prev.replace(frame=t, **best)
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
    if source.label_names is None or driver.label_names is None:
        raise InvalidArgumentError("semantic alignment needs label names on both sets")
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
    if cfg.iterations_align < 1:
        raise InvalidArgumentError("iterations_align must be >= 1")
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


def _transfer_iterates(source: GaussianSet, target: GaussianSet, rigid: NeighborGraph,
                       solve: Callable[[np.ndarray], np.ndarray], lam: float):
    """Iterates of e_l2_gauss(., target) + lam e_arap(source, .) over positions and rotations.

    For ``_minimize``; iterate 0 is ``target``. Each step first solves for all
    positions with the rotations held, which is exact: the energy is then
    quadratic in positions, with (lam L + I/n) p = p_target/n + lam r, and
    ``solve`` applies that matrix's factor. It then updates every kernel's
    rotation with the new positions held, through the relative rotation
    r = q (x) src^-1 (src: the normalized source rotations). For unit r the
    energy is a constant minus (2 |r.u|/n + 2 lam r^T M r), with
    u = q_target (x) src^-1 and M the shifted Horn matrix of the edge offsets
    (``_horn_matrix``, positive semi-definite). Linearising both at r gives the
    minorise-maximise update r <- normalize(2 lam n M r + s u), s = sign(r.u),
    made ``_MM_PASSES`` times per step; it never raises the energy.
    """
    n = len(target)
    idx = rigid.indices
    edge_slots = (idx[:, :, None] * 3 + np.arange(3)).ravel()
    lam_w = lam * rigid.weights
    base = target.positions / n
    src = source.rotations / np.linalg.norm(source.rotations, axis=1, keepdims=True)
    u = _hamilton(target.rotations, src * _CONJ)
    rel = u
    positions, rotations = target.positions, target.rotations
    while True:
        e_l2 = _l2_residual(positions, rotations, target)[0]
        # a: the source's edge offsets, the same on every step
        e_rigid, _, a, rotated, _ = _arap_residual(source, positions, rotations, rigid)
        yield (e_l2, e_rigid, e_l2 + lam * e_rigid), {"positions": positions, "rotations": rotations}
        positions = solve(_edge_rhs(base, edge_slots, lam_w, rotated))
        offsets = np.take(positions, idx, axis=0) - positions[:, None, :]
        m = (2.0 * lam * n) * _horn_matrix(a, offsets, rigid.weights)[0]
        for _ in range(_MM_PASSES):
            pull = np.where((np.sum(rel * u, axis=1) < 0.0)[:, None], -u, u)
            rel = (m @ rel[:, :, None])[:, :, 0] + pull
            rel /= np.linalg.norm(rel, axis=1, keepdims=True)
        rotations = _hamilton(rel, src)
        rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)


def transfer_motion(aligned: GaussianSet, source_canonical: GaussianSet,
                    driver_canonical: GaussianSet, motions: list[FrameMotion],
                    cfg: TransferConfig) -> tuple[list[GaussianSet], list[Trace]]:
    """Re-perform driver motion on the aligned source appearance set.

    Every frame starts at the skinned warp of the aligned set under the
    driver's transforms and is then refined by ``_transfer_iterates`` to stay
    close to that warp while keeping local rigidity against the *source*
    canonical geometry, so the result moves like the driver but deforms like
    the source. ``cfg.iterations_transfer`` caps the solver steps per frame.
    """
    lam = cfg.lambda_arap_transfer
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidArgumentError(
            f"lambda_arap_transfer must be finite and non-negative, got {lam}")
    if cfg.iterations_transfer < 1:
        raise InvalidArgumentError("iterations_transfer must be >= 1")
    if len(aligned) != len(source_canonical):
        raise InvalidArgumentError("aligned and source canonical sets differ in size")
    skin = knn_build(aligned.positions, driver_canonical.positions,
                     cfg.k_neighbors, cfg.length_scale, normalize=True)
    rigid = knn_build(source_canonical.positions, source_canonical.positions,
                      cfg.k_neighbors, cfg.length_scale, normalize=False)
    n = len(aligned)
    laplacian = _Laplacian.of(rigid)
    # the position matrix (lam L + I/n) has a condition number of at most
    # 1 + 2 lam n max(diag L); it is the same for every step of every frame
    if 2.0 * lam * n * laplacian.band[0].max() > _MAX_CONDITION:
        raise InvalidArgumentError(f"lambda_arap_transfer={lam} is too large for this rigidity "
                                   "graph: the position solve would lose its precision")
    solve = laplacian.factored(lam, np.full(n, 1.0 / n))
    results: list[GaussianSet] = []
    traces: list[Trace] = []
    for fm in motions:
        target = warp_appearance(aligned, fm, skin)
        best, trace = _minimize(("e_l2", "e_arap", "total"),
                                _transfer_iterates(source_canonical, target, rigid, solve, lam),
                                cfg.iterations_transfer, stops=True)
        results.append(target.replace(**best))
        traces.append(trace)
    return results, traces
