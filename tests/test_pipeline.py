"""Optimizer, clustering, and the four optimization loops."""

import numpy as np
import pytest

from splatkin.core import PointCloud, Role, knn_build, quat_normalize
from splatkin.energy import e_arap, e_data_points
from splatkin.errors import InvalidArgumentError
from splatkin.pipeline import (
    _BETA1,
    _BETA2,
    _EPS,
    Adam,
    TrackConfig,
    TransferConfig,
    _optimize,
    align_canonical,
    init_canonical,
    kmeans,
    match_clusters,
    track_sequence,
    transfer_motion,
)
from splatkin.render import OrthoCamera
from splatkin.synth import animate, make_scene


class TestAdam:
    def test_quadratic_convergence(self):
        adam = Adam(total_steps=300)
        adam.add_group("x", np.array([5.0, -4.0, 0.5]), lr_start=0.2, lr_end=0.02)
        for _ in range(300):
            adam.step({"x": 2.0 * (adam["x"] - 3.0)})
        assert np.abs(adam["x"] - 3.0).max() < 1e-3

    def test_first_step_magnitude(self):
        # [DERIVED] with bias correction the first update is lr * sign(g)
        adam = Adam(total_steps=10)
        adam.add_group("x", np.zeros(2), lr_start=0.1)
        adam.step({"x": np.array([3.0, -0.007])})
        # epsilon shifts the small-|g| component by ~|eps/g|, hence the loose rtol
        assert np.allclose(adam["x"], [-0.1, 0.1], rtol=1e-4)

    def test_zero_gradient_is_noop_from_fresh_state(self):
        adam = Adam(total_steps=5)
        adam.add_group("x", np.array([1.0, 2.0]), lr_start=0.5)
        adam.step({"x": np.zeros(2)})
        assert np.array_equal(adam["x"], [1.0, 2.0])

    def test_missing_gradient_names_group(self):
        adam = Adam(total_steps=5)
        adam.add_group("x", np.ones(3), lr_start=0.5)
        adam.add_group("y", np.ones(3), lr_start=0.5)
        for grads in ({"x": np.ones(3), "y": None}, {"x": np.ones(3)}):
            with pytest.raises(InvalidArgumentError, match="'y'"):
                adam.step(grads)
        assert np.array_equal(adam["x"], np.ones(3))  # no group moved

    def test_learning_rate_decays_linearly(self):
        adam = Adam(total_steps=11)
        adam.add_group("x", np.zeros(1), lr_start=1.0, lr_end=0.1)
        deltas = []
        prev = 0.0
        for _ in range(11):
            adam.step({"x": np.ones(1)})  # constant gradient: step = lr exactly
            deltas.append(prev - float(adam["x"][0]))
            prev = float(adam["x"][0])
        assert deltas[0] == pytest.approx(1.0, rel=1e-6)
        assert deltas[-1] == pytest.approx(0.1, rel=1e-6)
        assert np.allclose(np.diff(deltas), deltas[1] - deltas[0], atol=1e-6)

    def test_unit_rows_renormalized(self):
        adam = Adam(total_steps=3)
        q = quat_normalize(np.random.default_rng(0).normal(size=(4, 4)))
        adam.add_group("q", q, lr_start=0.3, unit_rows=True)
        adam.step({"q": np.random.default_rng(1).normal(size=(4, 4))})
        assert np.allclose(np.linalg.norm(adam["q"], axis=1), 1.0, atol=1e-12)

    def test_non_finite_gradient_names_group(self):
        adam = Adam(total_steps=3)
        adam.add_group("positions", np.zeros(2), lr_start=0.1)
        with pytest.raises(InvalidArgumentError, match="positions"):
            adam.step({"positions": np.array([1.0, np.nan])})

    def test_shape_mismatch_rejected(self):
        adam = Adam(total_steps=3)
        adam.add_group("x", np.zeros((2, 3)), lr_start=0.1)
        with pytest.raises(InvalidArgumentError):
            adam.step({"x": np.zeros((3, 2))})

    def test_in_place_step_is_bitwise_the_textbook_update(self):
        rng = np.random.default_rng(5)
        steps = 25
        adam = Adam(total_steps=steps)
        adam.add_group("positions", rng.normal(size=(300, 3)), 1e-2, 1e-3)
        adam.add_group("rotations", quat_normalize(rng.normal(size=(300, 4))), 1e-2, 1e-3,
                       unit_rows=True)
        ref = {name: {"value": adam[name].copy(), "m": 0.0, "v": 0.0}
               for name in ("positions", "rotations")}
        for t in range(1, steps + 1):
            grads = {name: rng.normal(size=adam[name].shape) for name in ref}
            adam.step(grads)
            lr_frac = (t - 1) / (steps - 1)
            for name, group in ref.items():
                g = grads[name]
                group["m"] = _BETA1 * group["m"] + (1.0 - _BETA1) * g
                group["v"] = _BETA2 * group["v"] + (1.0 - _BETA2) * g * g
                m_hat = group["m"] / (1.0 - _BETA1**t)
                v_hat = group["v"] / (1.0 - _BETA2**t)
                lr = 1e-2 + (1e-3 - 1e-2) * lr_frac
                group["value"] -= lr * m_hat / (np.sqrt(v_hat) + _EPS)
                if name == "rotations":
                    group["value"][:] = quat_normalize(group["value"])
                assert np.array_equal(adam[name], group["value"]), (name, t)


class TestKMeans:
    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(0).normal(size=(60, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        blobs = np.concatenate([
            rng.normal(size=(30, 3)) * 0.05 + [0, 0, 0],
            rng.normal(size=(30, 3)) * 0.05 + [5, 0, 0],
            rng.normal(size=(30, 3)) * 0.05 + [0, 5, 0],
        ])
        centroids, assign = kmeans(blobs, 3, seed=2)
        # every blob maps to exactly one centroid
        for lo in (0, 30, 60):
            assert len(np.unique(assign[lo:lo + 30])) == 1
        assert len(np.unique(assign)) == 3

    def test_centroids_are_member_means(self):
        pts = np.random.default_rng(3).normal(size=(50, 3))
        centroids, assign = kmeans(pts, 5, seed=4)
        for j in range(5):
            members = pts[assign == j]
            if len(members):
                assert np.allclose(centroids[j], members.mean(axis=0), atol=1e-9)

    def test_k_bounds(self):
        pts = np.zeros((4, 3))
        with pytest.raises(InvalidArgumentError):
            kmeans(pts, 0, seed=0)
        with pytest.raises(InvalidArgumentError):
            kmeans(pts, 5, seed=0)

    def test_duplicate_points_ok(self):
        pts = np.zeros((10, 3))
        centroids, assign = kmeans(pts, 3, seed=5)
        assert np.allclose(centroids, 0.0)
        assert len(assign) == 10


class TestMatchClusters:
    def test_self_match_targets_equal_source_centroids(self):
        sc = make_scene("twolink", 80, 200, seed=6)
        src = sc.appearance_set()
        # driver == source geometry: matched targets must sit on the source's
        # own cluster centroids (same label population, same layout)
        clusters = match_clusters(src, src, clusters_per_label=3, seed=6)
        assert len(clusters.members) == len(clusters.targets) == 9
        for members, target in zip(clusters.members, clusters.targets):
            centroid = src.positions[members].mean(axis=0)
            # identical geometry + identical clustering seed: targets coincide
            # with the source's own member means to float precision
            assert np.linalg.norm(centroid - target) < 1e-9

    def test_global_offset_survives_in_targets(self):
        sc = make_scene("twolink", 80, 200, seed=7)
        src = sc.appearance_set()
        off = np.array([0.4, 0.0, 0.0])
        drv = src.replace(positions=src.positions + off)
        clusters = match_clusters(src, drv, clusters_per_label=2, seed=8)
        for members, target in zip(clusters.members, clusters.targets):
            centroid = src.positions[members].mean(axis=0)
            # matching is centered per label, so targets = centroid + offset
            assert np.linalg.norm(centroid + off - target) < 0.05

    def test_requires_shared_labels(self):
        sc = make_scene("twolink", 40, 60, seed=9)
        src = sc.appearance_set()
        drv = sc.motion_set().replace(label_names=("alpha", "beta", "gamma"))
        with pytest.raises(InvalidArgumentError):
            match_clusters(src, drv, clusters_per_label=2, seed=0)

    def test_requires_labels(self):
        sc = make_scene("twolink", 40, 60, seed=10)
        src = sc.appearance_set().replace(labels=None, label_names=None)
        with pytest.raises(InvalidArgumentError):
            match_clusters(src, sc.motion_set(), clusters_per_label=2, seed=0)


def _fast_track_cfg(**kw):
    base = dict(iterations_init=40, iterations_track=40, length_scale=0.05,
                k_neighbors=4, lr_position=2e-3, lr_rotation=2e-3, seed=0)
    base.update(kw)
    return TrackConfig(**base)


class TestOptimize:
    def test_block_without_gradient_is_rejected(self):
        # a moving block that no term has a gradient for is a dead Adam group
        sc = make_scene("cylinder", 20, 40, seed=13)
        with pytest.raises(InvalidArgumentError, match="log_scales"):
            _optimize(sc.motion_set(), {"positions": 1e-3, "log_scales": 1e-3}, 0.1, 3,
                      [("e_data", 1.0, lambda cur: e_data_points(cur, sc.motion))])


class TestInitCanonical:
    def test_improves_and_traces(self):
        sc = make_scene("twolink", 50, 150, seed=11)
        rng = np.random.default_rng(12)
        start = sc.motion_set().replace(
            positions=sc.motion.points + 0.01 * rng.normal(size=(50, 3)))
        cfg = _fast_track_cfg()
        fitted, trace = init_canonical(start, sc.motion, cfg)
        assert trace.columns == ("iteration", "e_data", "e_iso", "e_size", "total")
        assert len(trace.rows) == cfg.iterations_init + 1
        assert trace.rows[-1][0] == cfg.iterations_init
        first, best = trace.rows[0][-1], trace.rows[-1][-1]
        assert best < first
        assert (fitted.opacities >= 0.0).all() and (fitted.opacities <= 1.0).all()

    def test_best_row_is_minimum_seen(self):
        sc = make_scene("cylinder", 30, 60, seed=13)
        start = sc.motion_set().replace(
            positions=sc.motion.points + np.full((30, 3), 0.02))
        _, trace = init_canonical(start, sc.motion, _fast_track_cfg(iterations_init=25))
        totals = [r[-1] for r in trace.rows[:-1]]
        assert trace.rows[-1][-1] == pytest.approx(min(totals), rel=1e-12)


class TestTrackSequence:
    def test_tracks_small_rotation(self):
        sc = make_scene("twolink", 60, 80, seed=14)
        frames = animate(sc, [0.04, 0.08])
        cfg = _fast_track_cfg(iterations_track=150, lr_position=3e-3, lr_rotation=3e-3)
        results, traces = track_sequence(sc.motion_set(), [f.motion for f in frames], cfg)
        assert [r.frame for r in results] == [1, 2]
        for fr, res, tr in zip(frames, results, traces):
            truth = sc.deform(sc.motion.points, sc.motion_labels, fr.value)
            rms0 = np.sqrt(np.mean(np.sum((sc.motion.points - truth) ** 2, axis=1)))
            rms = np.sqrt(np.mean(np.sum((res.positions - truth) ** 2, axis=1)))
            assert rms < 0.5 * rms0  # tracking halves the error even this short
            assert tr.columns == ("iteration", "e_data", "e_arap", "total")

    def test_motion_role_required(self):
        sc = make_scene("twolink", 30, 40, seed=15)
        with pytest.raises(InvalidArgumentError):
            track_sequence(sc.appearance_set(), [sc.motion], _fast_track_cfg())


def _fast_transfer_cfg(**kw):
    base = dict(iterations_align=40, iterations_transfer=30, length_scale=0.05,
                k_neighbors=4, clusters_per_label=3, lr_position=2e-3,
                lr_rotation=2e-3, seed=1)
    base.update(kw)
    return TransferConfig(**base)


def _cameras(*sets, res=32, scale=1.4):
    pts = np.concatenate([s.positions for s in sets])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = 0.5 * (lo + hi)
    ext = scale * float((hi - lo).max())
    return [OrthoCamera.axis_view(a, center, ext, ext, (res, res))
            for a in ("+z", "+x", "+y")]


class TestAlignCanonical:
    def test_moves_toward_offset_driver(self):
        sc = make_scene("twolink", 60, 150, seed=16)
        src = sc.appearance_set()
        drv = sc.motion_set().replace(positions=sc.motion.points + [0.05, 0.0, 0.0])
        cfg = _fast_transfer_cfg()
        aligned, trace = align_canonical(src, drv, _cameras(src, drv), cfg)
        assert trace.columns == ("iteration", "e_mask", "e_sem", "e_arap", "total")
        assert trace.rows[-1][-1] < trace.rows[0][-1]
        move = aligned.positions - src.positions
        # bulk translation along +x dominates the correction
        assert move[:, 0].mean() > 0.01
        assert abs(move[:, 1].mean()) < 0.01 and abs(move[:, 2].mean()) < 0.01


class TestTransferMotion:
    def test_follows_driver_frames(self):
        sc = make_scene("twolink", 60, 120, seed=17)
        src = sc.appearance_set()
        drv = sc.motion_set()
        fms = [sc.exact_motion(v, frame=i + 1) for i, v in enumerate([0.3, 0.6])]
        cfg = _fast_transfer_cfg()
        results, traces = transfer_motion(src, src, drv, fms, cfg)
        assert [r.frame for r in results] == [1, 2]
        for fm, res, tr in zip(fms, results, traces):
            truth = sc.deform(sc.surface.points, sc.surface_labels,
                              2 * np.arctan2(fm.delta_q[:, 3], fm.delta_q[:, 0]).max())
            assert tr.columns == ("iteration", "e_l2", "e_arap", "total")
            assert tr.rows[-1][-1] <= tr.rows[0][-1]
            # stays close to the analytic deformation of the surface
            d = np.linalg.norm(res.positions - truth, axis=1)
            assert np.median(d) < 0.02

    def test_size_mismatch_rejected(self):
        sc = make_scene("twolink", 40, 80, seed=18)
        src = sc.appearance_set()
        with pytest.raises(InvalidArgumentError):
            transfer_motion(src, sc.motion_set(), sc.motion_set(),
                            [sc.exact_motion(0.1, frame=1)], _fast_transfer_cfg())
