"""Finite-difference verification of every energy gradient.

Central differences are only a valid oracle where an energy is differentiable,
so the seeded instance generators keep a margin away from each term's
non-smooth sets: ReLU kinks, nearest-neighbor match flips, hemisphere flips,
and the hard footprint truncation (the mask instances use a wide truncation
radius so boundary pixels carry ~1e-14 weight). Defaults elsewhere are
untouched.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .core import GaussianSet, PointCloud, Role, knn_build, quat_normalize
from .energy import (
    _ISO_RATIO_LIMIT,
    _SIZE_ALPHA,
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

DEFAULT_STEP = 1e-5
THRESHOLDS = {
    "e_arap": 1e-4,
    "e_iso": 1e-4,
    "e_size": 1e-4,
    "e_data_points": 1e-4,
    "e_sem": 1e-4,
    "e_mask": 1e-3,
    "e_l2_gauss": 1e-4,
}


class GradCase:
    """One seeded instance: ``energy`` at the set ``base``, checked over the
    ``moving`` fields. ``blocks`` holds copies of them, ``value_fn(blocks)``
    is ``energy(base.replace(**blocks)).value`` and ``analytic`` is
    ``energy(base)``; a case may set its own ``value_fn``."""

    def __init__(self, name: str, base: GaussianSet, moving: tuple[str, ...],
                 energy: Callable[[GaussianSet], EnergyEval]):
        self.name = name
        self.blocks = {field: getattr(base, field).copy() for field in moving}
        self.value_fn = lambda blocks: energy(base.replace(**blocks)).value
        self.analytic = energy(base)


def central_difference(value_fn, blocks: dict[str, np.ndarray], step: float) -> dict[str, np.ndarray]:
    """Per-entry central differences over every block."""
    grads = {}
    for key, base in blocks.items():
        flat = base.reshape(-1).copy()
        grad = np.empty_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            work = dict(blocks)
            flat[i] = saved + step
            work[key] = flat.reshape(base.shape)
            hi = value_fn(work)
            flat[i] = saved - step
            work[key] = flat.reshape(base.shape)
            lo = value_fn(work)
            flat[i] = saved
            grad[i] = (hi - lo) / (2.0 * step)
        grads[key] = grad.reshape(base.shape)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Sup-norm difference scaled by the larger gradient magnitude."""
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def case_error(case: GradCase, step: float = DEFAULT_STEP) -> float:
    numeric = central_difference(case.value_fn, case.blocks, step)
    worst = 0.0
    for block, grad in numeric.items():
        analytic = getattr(case.analytic, GRAD_FIELDS[block])
        if analytic is None:
            raise AssertionError(f"{case.name} provides no gradient for block {block}")
        worst = max(worst, relative_error(analytic, grad))
    return worst


# ---------------------------------------------------------------------------
# seeded instances


def _random_rotations(rng, n):
    q = rng.normal(size=(n, 4))
    return quat_normalize(q)


def _random_set(rng, n, role=Role.MOTION) -> GaussianSet:
    return GaussianSet(
        positions=rng.uniform(-0.5, 0.5, size=(n, 3)),
        rotations=_random_rotations(rng, n),
        log_scales=rng.uniform(-2.5, -1.0, size=(n, 3)),
        opacities=rng.uniform(0.2, 0.9, size=n),
        colors=rng.uniform(0.0, 1.0, size=(n, 3)),
        role=role,
    )


def _sample(rng, draw, what: str):
    """The first of 64 instances ``draw(n)``, for n from 8 to 50 kernels, that
    keeps clear of the term's kinks; ``draw`` returns ``(instance, clear)``."""
    for _ in range(64):
        instance, clear = draw(int(rng.integers(8, 51)))
        if clear:
            return instance
    raise AssertionError(f"could not sample an {what}")


def _arap_case(rng) -> GradCase:
    n = int(rng.integers(8, 51))
    prev = _random_set(rng, n)
    cur = prev.replace(
        positions=prev.positions + rng.normal(scale=0.05, size=(n, 3)),
        rotations=_random_rotations(rng, n),
    )
    graph = knn_build(prev.positions, prev.positions, k=min(4, n), length_scale=0.4, normalize=False)
    return GradCase("e_arap", cur, ("positions", "rotations"), lambda s: e_arap(prev, s, graph))


def _iso_case(rng) -> GradCase:
    def draw(n):
        gset = _random_set(rng, n)
        s = gset.log_scales
        spread = np.exp(s.max(axis=1) - s.min(axis=1))
        gaps = np.sort(s, axis=1)
        # keep away from the ReLU kink and from max/min argument ties
        return gset, (np.all(np.abs(spread - _ISO_RATIO_LIMIT) > 1e-2)
                      and np.all(np.diff(gaps, axis=1) > 1e-3))

    gset = _sample(rng, draw, "e_iso instance away from kinks")
    # the lambda looks e_iso up per call, as the other cases do, so a wrapper installed
    # after the case is built (perfbench's tracer) still sees every evaluation
    return GradCase("e_iso", gset, ("log_scales",), lambda s: e_iso(s))


def _size_case(rng) -> GradCase:
    def draw(n):
        gset = _random_set(rng, n)
        extents = np.exp(gset.log_scales)
        return gset, np.all(np.abs(extents - _SIZE_ALPHA * extents.mean(axis=0)) > 1e-3)

    gset = _sample(rng, draw, "e_size instance away from kinks")
    case = GradCase("e_size", gset, ("log_scales",), lambda s: e_size(s))
    # the default call stops the gradient at the batch mean, so differences hold it fixed
    frozen = np.exp(gset.log_scales).mean(axis=0)
    case.value_fn = lambda blocks: e_size(gset.replace(**blocks), frozen_mean=frozen).value
    return case


def _data_case(rng) -> GradCase:
    def draw(n):
        m = int(rng.integers(30, 81))
        gset = _random_set(rng, n)
        cloud = PointCloud(points=rng.uniform(-0.5, 0.5, size=(m, 3)),
                           colors=rng.uniform(0.0, 1.0, size=(m, 3)))
        d_f, _ = cKDTree(cloud.points).query(gset.positions, k=2)
        d_b, _ = cKDTree(gset.positions).query(cloud.points, k=2)
        # nearest matches must not flip within the FD step
        stable = np.all(d_f[:, 1] - d_f[:, 0] > 1e-3) and np.all(d_b[:, 1] - d_b[:, 0] > 1e-3)
        return (gset, cloud), stable

    gset, cloud = _sample(rng, draw, "e_data instance with stable matches")
    return GradCase("e_data_points", gset, ("positions", "colors"),
                    lambda s: e_data_points(s, cloud))


def _sem_case(rng) -> GradCase:
    n = int(rng.integers(10, 51))
    gset = _random_set(rng, n)
    j = int(rng.integers(2, 6))
    assignment = rng.integers(0, j, size=n)
    assignment[:j] = np.arange(j)  # every cluster non-empty
    clusters = [np.nonzero(assignment == c)[0] for c in range(j)]
    targets = rng.uniform(-0.5, 0.5, size=(j, 3))
    return GradCase("e_sem", gset, ("positions",), lambda s: e_sem(s, targets, clusters))


def _mask_case(rng) -> GradCase:
    radius = 8.0  # boundary pixels then weigh ~exp(-32); FD stays clean
    n = int(rng.integers(4, 11))
    n_views = int(rng.integers(1, 4))
    res = (32, 32)
    gset = _random_set(rng, n, role=Role.APPEARANCE).replace(
        log_scales=rng.uniform(-2.6, -2.0, size=(n, 3)))
    axes = ["+z", "+x", "+y"][:n_views]
    cameras = [OrthoCamera.axis_view(ax, np.zeros(3), 1.6, 1.6, res) for ax in axes]
    # the coverage term is L1 in (alpha - mask): keep every pixel residual a
    # safe margin from the kink so central differences see a smooth branch
    base_alpha = [splat(gset, cam, truncation_radius=radius).alpha for cam in cameras]
    masks = []
    for alpha in base_alpha:
        gap = rng.uniform(0.05, 0.45, size=alpha.shape)
        masks.append(np.where(alpha < 0.5, alpha + gap, alpha - gap))
    return GradCase("e_mask", gset, ("positions", "rotations"),
                    lambda s: e_mask(s, masks, cameras, truncation_radius=radius))


def _l2_case(rng) -> GradCase:
    def draw(n):
        gset = _random_set(rng, n)
        target = _random_set(rng, n)
        dots = np.abs(np.sum(gset.rotations * target.rotations, axis=1))
        return (gset, target), np.all(dots > 1e-2)  # stay off the hemisphere boundary

    gset, target = _sample(rng, draw, "e_l2 instance off the hemisphere boundary")
    return GradCase("e_l2_gauss", gset, ("positions", "rotations"), lambda s: e_l2_gauss(s, target))


_CASE_BUILDERS = {
    "e_arap": _arap_case,
    "e_iso": _iso_case,
    "e_size": _size_case,
    "e_data_points": _data_case,
    "e_sem": _sem_case,
    "e_mask": _mask_case,
    "e_l2_gauss": _l2_case,
}


def run_gradcheck(seed: int = 1, instances: int = 20, step: float = DEFAULT_STEP,
                  terms=None) -> dict[str, float]:
    """Max relative FD error per energy term over seeded random instances."""
    names = list(_CASE_BUILDERS) if terms is None else list(terms)
    unknown = [name for name in names if name not in _CASE_BUILDERS]
    if unknown:
        raise InvalidArgumentError(
            f"unknown term {unknown[0]!r}; known terms: {', '.join(_CASE_BUILDERS)}")
    if instances < 1:
        raise InvalidArgumentError(f"instances must be >= 1, got {instances}")
    report = {}
    for name in names:
        builder = _CASE_BUILDERS[name]
        term_id = list(_CASE_BUILDERS).index(name)  # stable across processes
        worst = 0.0
        for i in range(instances):
            rng = np.random.Generator(np.random.PCG64((seed, term_id, i)))
            worst = max(worst, case_error(builder(rng), step))
        report[name] = worst
    return report
