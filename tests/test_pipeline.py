"""Optimizer, clustering, and the four optimization loops."""

import numpy as np
import pytest

from splatkin import pipeline
from splatkin.core import PointCloud, Role, knn_build, quat_normalize, quat_to_matrix
from splatkin.energy import e_arap, e_data_points, e_l2_gauss
from splatkin.errors import InvalidArgumentError
from splatkin.fileio import read_gset, write_gset
from splatkin.pipeline import (
    _BETA1,
    _BETA2,
    _EPS,
    PATIENCE,
    TOL,
    Adam,
    TrackConfig,
    TransferConfig,
    _fit_rotations,
    _Laplacian,
    _minimize,
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
from splatkin.warp import FrameMotion, warp_appearance


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

    def test_requires_label_names(self, tmp_path):
        # a labeled gset read without its name table carries ids but no names
        sc = make_scene("twolink", 40, 80, seed=11)
        write_gset(tmp_path / "a.gset", sc.appearance_set())
        src = read_gset(tmp_path / "a.gset")
        assert src.labels is not None and src.label_names is None
        with pytest.raises(InvalidArgumentError, match="label names"):
            match_clusters(src, sc.appearance_set(), clusters_per_label=2, seed=0)
        with pytest.raises(InvalidArgumentError, match="label names"):
            match_clusters(sc.appearance_set(), src, clusters_per_label=2, seed=0)

    def test_label_ids_beyond_names_rejected(self):
        # an id past the name table would leave its kernels out of every cluster
        src = make_scene("twolink", 40, 80, seed=12).appearance_set()
        labels = src.labels.copy()
        labels[labels == src.label_names.index("tip")] = 7
        with pytest.raises(InvalidArgumentError, match="label ids"):
            src.replace(labels=labels)


def _fast_track_cfg(**kw):
    base = dict(iterations_init=40, iterations_track=40, length_scale=0.05,
                k_neighbors=4, lr_position=2e-3, seed=0)
    base.update(kw)
    return TrackConfig(**base)


class TestOptimize:
    def test_block_without_gradient_is_rejected(self):
        # a moving block that no term has a gradient for is a dead Adam group
        sc = make_scene("cylinder", 20, 40, seed=13)
        with pytest.raises(InvalidArgumentError, match="log_scales"):
            _optimize(sc.motion_set(), {"positions": 1e-3, "log_scales": 1e-3}, 0.1, 3,
                      [("e_data", 1.0, lambda cur: e_data_points(cur, sc.motion))])


def _stage(totals, steps):
    """A stage whose iterate i has total ``totals[i]``; appends i to ``steps`` per step after it."""
    for i, total in enumerate(totals):
        yield (2.0 * total, total), {"positions": i}
        steps.append(i)


class TestMinimize:
    def test_rows_are_the_iterates_then_the_first_best(self):
        totals, steps = [3.0, 1.0, 2.0, 1.0, 4.0, 0.5], []
        best, trace = _minimize(("e", "total"), _stage(totals, steps), 4, stops=False)
        assert trace.columns == ("iteration", "e", "total")
        assert trace.rows == [(i, 2.0 * t, t) for i, t in enumerate(totals[:5])] + [(5, 2.0, 1.0)]
        assert best == {"positions": 1}  # the tie at iterate 3 keeps iterate 1
        assert steps == [0, 1, 2, 3]  # no step past the last logged iterate

    def test_runs_to_the_cap_without_stops(self):
        steps = []
        _, trace = _minimize(("total",), _stage([1.0] * 50, steps), 30, stops=False)
        assert [row[0] for row in trace.rows] == list(range(32))
        assert steps == list(range(30))

    def test_stops_patience_steps_after_the_last_large_fall(self):
        # falls of 0.5 and 0.25 count; the later falls of 1e-7 are below TOL
        totals = [1.0, 0.5, 0.25] + [0.25 - 1e-7 * i for i in range(1, 20)]
        assert 1e-7 < TOL * totals[0]
        steps = []
        best, trace = _minimize(("total",), _stage(totals, steps), 100, stops=True)
        last = 2 + PATIENCE
        assert [row[0] for row in trace.rows] == list(range(last + 2))
        assert steps == list(range(last))
        assert best == {"positions": last}  # small falls still renew the best
        assert trace.rows[-1][-1] == totals[last]

    @pytest.mark.parametrize("stage", ["init", "align"])
    def test_adam_stages_step_once_less_than_they_log(self, monkeypatch, stage):
        made = []

        class Recorded(Adam):
            def __init__(self, total_steps):
                super().__init__(total_steps)
                made.append(self)

        monkeypatch.setattr(pipeline, "Adam", Recorded)
        sc = make_scene("twolink", 30, 60, seed=10)
        if stage == "init":
            _, trace = init_canonical(sc.motion_set(), sc.motion,
                                      _fast_track_cfg(iterations_init=7))
        else:
            src = sc.appearance_set()
            _, trace = align_canonical(src, src, _cameras(src, res=16),
                                       _fast_transfer_cfg(iterations_align=7))
        assert len(trace.rows) == 8
        assert [adam.t for adam in made] == [6]


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


def _rz(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rigid_targets(sc, angles, shift):
    """Clouds of the motion points turned about z by each angle and moved by shift per frame."""
    return [PointCloud(points=sc.motion.points @ _rz(a).T + (i + 1) * np.asarray(shift),
                       colors=sc.motion.colors)
            for i, a in enumerate(angles)]


class TestTrackSequence:
    def test_tracks_small_rotation(self):
        sc = make_scene("twolink", 60, 80, seed=14)
        frames = animate(sc, [0.04, 0.08])
        cfg = _fast_track_cfg(iterations_track=150)
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

    def test_cloud_checked(self):
        sc = make_scene("twolink", 30, 40, seed=15)
        for cloud in (PointCloud(points=np.zeros((0, 3)), colors=np.zeros((0, 3))),
                      PointCloud(points=sc.motion.points, colors=sc.motion.colors[:, :2])):
            with pytest.raises(InvalidArgumentError):
                track_sequence(sc.motion_set(), [cloud], _fast_track_cfg())

    def test_rigid_motion_is_recovered(self):
        sc = make_scene("twolink", 200, 40, seed=16)
        motion = sc.motion_set()
        angles, shift = [0.03, 0.06], [0.004, -0.002, 0.001]
        cfg = _fast_track_cfg(iterations_track=300, length_scale=0.01)
        results, _ = track_sequence(motion, _rigid_targets(sc, angles, shift), cfg)
        graph = knn_build(motion.positions, motion.positions, cfg.k_neighbors,
                          cfg.length_scale, normalize=False)
        prev = motion
        for i, (res, angle) in enumerate(zip(results, angles)):
            exact = motion.positions @ _rz(angle).T + (i + 1) * np.asarray(shift)
            assert np.sqrt(np.mean(np.sum((res.positions - exact) ** 2, axis=1))) < 1e-3
            assert e_arap(prev, res, graph).value < 1e-8
            prev = res

    def test_trace_rows_are_the_energies_and_end_at_the_best(self):
        sc = make_scene("twolink", 80, 40, seed=17)
        motion = sc.motion_set()
        frames = animate(sc, [0.1, 0.2])
        cfg = _fast_track_cfg(iterations_track=60, length_scale=0.02)
        results, traces = track_sequence(motion, [f.motion for f in frames], cfg)
        graph = knn_build(motion.positions, motion.positions, cfg.k_neighbors,
                          cfg.length_scale, normalize=False)
        prev = motion
        for fr, res, tr in zip(frames, results, traces):
            iterations = [row[0] for row in tr.rows]
            assert iterations == list(range(len(tr.rows)))
            totals = [row[-1] for row in tr.rows]
            assert totals[-1] == min(totals)
            assert totals[-1] < totals[0]
            for row in tr.rows:
                assert row[3] == row[1] + row[2]
            e_data = e_data_points(res, fr.motion).value
            e_rigid = e_arap(prev, res, graph).value
            assert tr.rows[-1][1] == pytest.approx(e_data, rel=1e-12, abs=0.0)
            assert tr.rows[-1][2] == pytest.approx(e_rigid, rel=1e-12, abs=0.0)
            assert np.allclose(np.linalg.norm(res.rotations, axis=1), 1.0, atol=1e-15)
            prev = res
        # row 0 is the starting state: the previous frame, which has no rigidity cost
        assert traces[0].rows[0][2] == 0.0
        assert traces[0].rows[0][1] == e_data_points(motion, frames[0].motion).value

    def test_step_cap_is_honoured(self):
        sc = make_scene("twolink", 60, 40, seed=18)
        frames = animate(sc, [0.2])
        cfg = _fast_track_cfg(iterations_track=1)
        _, (trace,) = track_sequence(sc.motion_set(), [frames[0].motion], cfg)
        # the start, one solver step, and the re-logged best
        assert [row[0] for row in trace.rows] == [0, 1, 2]
        assert trace.rows[2][1:] == min(trace.rows[:2], key=lambda row: row[-1])[1:]
        with pytest.raises(InvalidArgumentError, match="iterations_track"):
            track_sequence(sc.motion_set(), [frames[0].motion], _fast_track_cfg(iterations_track=0))
        with pytest.raises(InvalidArgumentError, match="iterations_init"):
            init_canonical(sc.motion_set(), frames[0].motion, _fast_track_cfg(iterations_init=0))

    def test_fitted_target_stops_within_patience(self):
        sc = make_scene("twolink", 60, 40, seed=19)
        cfg = _fast_track_cfg(iterations_track=500)
        _, (trace,) = track_sequence(sc.motion_set(), [sc.motion], cfg)
        steps = trace.rows[-1][0] - 1
        assert steps <= PATIENCE + 1
        assert trace.rows[0][-1] == 0.0 and trace.rows[-1][-1] == 0.0

    def test_runs_are_bitwise_equal(self):
        sc = make_scene("twolink", 80, 40, seed=20)
        frames = animate(sc, [0.15, 0.3])
        cfg = _fast_track_cfg(iterations_track=40)
        runs = [track_sequence(sc.motion_set(), [f.motion for f in frames], cfg)
                for _ in range(2)]
        for (res_a, tr_a), (res_b, tr_b) in zip(zip(*runs[0]), zip(*runs[1])):
            assert np.array_equal(res_a.positions, res_b.positions)
            assert np.array_equal(res_a.rotations, res_b.rotations)
            assert tr_a.rows == tr_b.rows


class TestFitRotations:
    def test_recovers_a_known_rotation(self):
        rng = np.random.default_rng(21)
        truth = quat_normalize(rng.normal(size=(50, 4)))
        a = rng.normal(size=(50, 6, 3))
        b = a @ quat_to_matrix(truth).transpose(0, 2, 1)
        w = rng.uniform(0.1, 1.0, size=(50, 6))
        fit = _fit_rotations(a, b, w, np.tile([1.0, 0.0, 0.0, 0.0], (50, 1)))
        rot = quat_to_matrix(fit)
        assert np.abs(rot - quat_to_matrix(truth)).max() < 1e-12
        assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-12
        assert np.allclose(np.linalg.norm(fit, axis=1), 1.0, atol=1e-15)

    def test_weightless_kernel_keeps_its_start(self):
        rng = np.random.default_rng(22)
        warm = quat_normalize(rng.normal(size=(3, 4)))
        a = rng.normal(size=(3, 4, 3))
        fit = _fit_rotations(a, rng.normal(size=(3, 4, 3)), np.zeros((3, 4)), warm)
        assert np.array_equal(fit, warm)


class TestLaplacian:
    def test_factored_solve_matches_a_dense_solve(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(120, 3))
        graph = knn_build(pts, pts, 5, 1.0, normalize=False)
        diagonal = rng.uniform(0.5, 2.0, size=120)
        # 0.3 L + diag: every edge (i, j, w) with i != j adds 0.3 w |p_j - p_i|^2
        i, j = np.repeat(np.arange(120), 5), graph.indices.ravel()
        w = 0.3 * np.where(i != j, graph.weights.ravel(), 0.0)
        dense = np.diag(diagonal)
        np.add.at(dense, (i, i), w)
        np.add.at(dense, (j, j), w)
        np.add.at(dense, (i, j), -w)
        np.add.at(dense, (j, i), -w)
        solve = _Laplacian.of(graph).factored(0.3, diagonal)
        for _ in range(2):  # the factor is reused
            rhs = rng.normal(size=(120, 3))
            want = np.linalg.solve(dense, rhs)
            assert np.abs(solve(rhs) - want).max() < 1e-12 * np.abs(want).max()


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

    @staticmethod
    def _bend(seed, values, **kw):
        """Transfer of a two-link bend onto its own appearance set, with its targets and graph."""
        sc = make_scene("twolink", 60, 120, seed=seed)
        src, drv = sc.appearance_set(), sc.motion_set()
        fms = [sc.exact_motion(v, frame=i + 1) for i, v in enumerate(values)]
        cfg = _fast_transfer_cfg(**kw)
        results, traces = transfer_motion(src, src, drv, fms, cfg)
        skin = knn_build(src.positions, drv.positions, cfg.k_neighbors, cfg.length_scale,
                         normalize=True)
        rigid = knn_build(src.positions, src.positions, cfg.k_neighbors, cfg.length_scale,
                          normalize=False)
        targets = [warp_appearance(src, fm, skin) for fm in fms]
        return src, cfg, results, traces, targets, rigid

    def test_trace_rows_are_the_energies_and_end_at_the_best(self):
        src, cfg, results, traces, targets, rigid = self._bend(24, [0.3, 0.6])
        lam = cfg.lambda_arap_transfer
        for res, tr, target in zip(results, traces, targets):
            assert [row[0] for row in tr.rows] == list(range(len(tr.rows)))
            totals = [row[-1] for row in tr.rows]
            assert totals[-1] == min(totals) < totals[0]
            for row in tr.rows:
                assert row[3] == row[1] + lam * row[2]
            # row 0 is the warp itself
            assert tr.rows[0][1] == 0.0
            assert tr.rows[0][2] == e_arap(src, target, rigid).value
            assert tr.rows[-1][1] == pytest.approx(e_l2_gauss(res, target).value,
                                                   rel=1e-12, abs=0.0)
            assert tr.rows[-1][2] == pytest.approx(e_arap(src, res, rigid).value,
                                                   rel=1e-12, abs=0.0)
            assert np.allclose(np.linalg.norm(res.rotations, axis=1), 1.0, atol=1e-15)

    def test_step_cap_is_honoured(self):
        src, _, _, (trace,), _, _ = self._bend(25, [0.5], iterations_transfer=1)
        # the warp, one solver step, and the re-logged best
        assert [row[0] for row in trace.rows] == [0, 1, 2]
        assert trace.rows[2][1:] == min(trace.rows[:2], key=lambda row: row[-1])[1:]
        with pytest.raises(InvalidArgumentError, match="iterations_align"):
            align_canonical(src, src, _cameras(src), _fast_transfer_cfg(iterations_align=0))

    @pytest.mark.parametrize("setting", [{"iterations_transfer": 0},
                                         {"lambda_arap_transfer": -0.1},
                                         {"lambda_arap_transfer": np.nan},
                                         {"lambda_arap_transfer": np.inf},
                                         {"lambda_arap_transfer": 1e300}])
    def test_bad_setting_rejected(self, setting):
        sc = make_scene("twolink", 40, 80, seed=26)
        src = sc.appearance_set()
        with pytest.raises(InvalidArgumentError, match=next(iter(setting))):
            transfer_motion(src, src, sc.motion_set(), [sc.exact_motion(0.1, frame=1)],
                            _fast_transfer_cfg(**setting))

    def test_fitted_frame_stops_within_patience(self):
        sc = make_scene("twolink", 60, 120, seed=27)
        src = sc.appearance_set()
        still = FrameMotion(delta_p=np.zeros((60, 3)),
                            delta_q=np.tile([1.0, 0.0, 0.0, 0.0], (60, 1)), frame=1)
        _, (trace,) = transfer_motion(src, src, sc.motion_set(), [still],
                                      _fast_transfer_cfg(iterations_transfer=500))
        steps = trace.rows[-1][0] - 1
        assert steps <= PATIENCE + 1
        # the skinned warp of the identity is the source up to rounding
        assert trace.rows[-1][-1] < 1e-25

    def test_runs_are_bitwise_equal(self):
        runs = [self._bend(28, [0.2, 0.4])[2:4] for _ in range(2)]
        for res_a, res_b, tr_a, tr_b in zip(runs[0][0], runs[1][0], runs[0][1], runs[1][1]):
            assert np.array_equal(res_a.positions, res_b.positions)
            assert np.array_equal(res_a.rotations, res_b.rotations)
            assert tr_a.rows == tr_b.rows

    def test_result_is_stationary(self):
        # the gradient of e_l2_gauss + lam e_arap, with the rotation part projected
        # onto the unit sphere's tangent, nearly vanishes at the result
        src, cfg, results, _, targets, rigid = self._bend(29, [0.3, 0.6],
                                                          iterations_transfer=200)
        lam = cfg.lambda_arap_transfer

        def gradient_norm(cur, target):
            l2, rigidity = e_l2_gauss(cur, target), e_arap(src, cur, rigid)
            grad_p = l2.grad_p + lam * rigidity.grad_p
            grad_q = l2.grad_q + lam * rigidity.grad_q
            q = cur.rotations
            grad_q -= np.sum(grad_q * q, axis=1, keepdims=True) * q
            return np.sqrt(np.sum(grad_p * grad_p) + np.sum(grad_q * grad_q))

        for res, target in zip(results, targets):
            start = gradient_norm(target, target)
            assert start > 0.0
            assert gradient_norm(res, target) < 1e-4 * start
