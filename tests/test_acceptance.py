"""Acceptance gate: nine product-level checks on synthetic scenes.

Every test prints one ``criterion N ... PASS|FAIL`` line. The expensive
pipeline runs are shared through module-scoped fixtures; all seeds are pinned
so the measured numbers are reproducible.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.spatial import cKDTree

from splatkin.core import PointCloud, knn_build
from splatkin.energy import e_arap
from splatkin.fileio import read_gmap, read_trace, write_gmap, write_trace
from splatkin.gradcheck import THRESHOLDS, run_gradcheck
from splatkin.morton import (
    build_mapping,
    locality_score,
    morton_decode,
    morton_encode,
    random_mapping,
    y_sort_mapping,
)
from splatkin.pipeline import (
    TrackConfig,
    TransferConfig,
    align_canonical,
    init_canonical,
    track_sequence,
    transfer_motion,
)
from splatkin.render import OrthoCamera
from splatkin.synth import animate, make_scene
from splatkin.warp import assemble, disassemble, relative_motion, warp_appearance

from _cli_chain import build_chain, run_cli, tree_digest


def _chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Max of the two mean nearest-neighbor Euclidean distances."""
    fwd = cKDTree(b).query(a)[0].mean()
    bwd = cKDTree(a).query(b)[0].mean()
    return float(max(fwd, bwd))


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def _cameras_for(points: np.ndarray, res: int = 64, scale: float = 1.4):
    lo, hi = points.min(axis=0), points.max(axis=0)
    center = 0.5 * (lo + hi)
    extent = float((hi - lo).max()) * scale
    return [OrthoCamera.axis_view(ax, center, extent, extent, (res, res))
            for ax in ("+z", "+x", "+y")]


def _rz(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# shared pipeline runs


@pytest.fixture(scope="module")
def rigid_run():
    """10-frame rigid move (growing rotation about z plus translation) of a
    two-link scene at 500 motion / 5000 appearance kernels."""
    scene = make_scene("twolink", 500, 5000, seed=11)
    motion = scene.motion_set()
    appearance = scene.appearance_set()
    gammas = [0.02 * (i + 1) for i in range(10)]
    shifts = [np.array([0.005 * (i + 1), 0.0, 0.0]) for i in range(10)]
    targets = [PointCloud(points=scene.motion.points @ _rz(g).T + t,
                          colors=scene.motion.colors)
               for g, t in zip(gammas, shifts)]
    cfg = TrackConfig(iterations_track=1200, length_scale=0.01,
                      lr_end_factor=0.01, k_neighbors=4, seed=11)
    started = time.monotonic()
    results, traces = track_sequence(motion, targets, cfg)
    skin = knn_build(appearance.positions, motion.positions, cfg.k_neighbors,
                     cfg.length_scale, normalize=True)
    warped = [warp_appearance(appearance, relative_motion(motion, res), skin)
              for res in results]
    elapsed = time.monotonic() - started
    return {
        "scene": scene, "motion": motion, "appearance": appearance,
        "gammas": gammas, "shifts": shifts, "cfg": cfg,
        "results": results, "traces": traces, "warped": warped,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def articulated_run():
    """20-frame two-link bend sweeping the joint angle from 0 to pi/3."""
    scene = make_scene("twolink", 300, 1500, seed=21)
    motion = scene.motion_set()
    appearance = scene.appearance_set()
    frames = animate(scene, [np.pi / 3 * (i + 1) / 20 for i in range(20)])
    cfg = TrackConfig(iterations_track=1500, length_scale=0.01,
                      lr_end_factor=0.01, k_neighbors=4, seed=21)
    results, traces = track_sequence(motion, [fr.motion for fr in frames], cfg)
    skin = knn_build(appearance.positions, motion.positions, cfg.k_neighbors,
                     cfg.length_scale, normalize=True)
    warped = [warp_appearance(appearance, relative_motion(motion, res), skin)
              for res in results]
    return {
        "scene": scene, "motion": motion, "appearance": appearance,
        "frames": frames, "cfg": cfg, "results": results, "traces": traces,
        "warped": warped,
    }


@pytest.fixture(scope="module")
def self_reperformance(articulated_run):
    """Alignment and transfer with the driver equal to the source."""
    appearance = articulated_run["appearance"]
    motion = articulated_run["motion"]
    cfg = TransferConfig(iterations_align=100, iterations_transfer=300,
                         lambda_arap_transfer=0.02, length_scale=0.01,
                         lr_end_factor=0.01, seed=21)
    cams = _cameras_for(appearance.positions)
    aligned, align_trace = align_canonical(appearance, appearance, cams, cfg)
    motions = [relative_motion(motion, res) for res in articulated_run["results"]]
    transferred, transfer_traces = transfer_motion(aligned, appearance, motion,
                                                   motions, cfg)
    return {
        "aligned": aligned, "align_trace": align_trace,
        "transferred": transferred, "transfer_traces": transfer_traces,
    }


@pytest.fixture(scope="module")
def cross_performer():
    """Different-proportion source aligned onto a driver offset by 0.1 m in x,
    then driven through a pi/3 bend of the driver's joint."""
    driver_scene = make_scene("twolink", 200, 800, seed=31)
    source_scene = make_scene("twolink", 200, 800, seed=32,
                              base_radius=0.05, limb_radius=0.04,
                              tip_radius=0.06)
    driver = driver_scene.appearance_set()
    driver_motion = driver_scene.motion_set()
    source = source_scene.appearance_set()
    offset = np.array([0.1, 0.0, 0.0])
    source_off = source.replace(positions=source.positions + offset)

    cfg = TransferConfig(iterations_align=4000, lambda_sem=1e4,
                         iterations_transfer=400, lambda_arap_transfer=0.2,
                         length_scale=0.01, lr_end_factor=0.1, seed=33)
    cams = _cameras_for(np.concatenate([source_off.positions, driver.positions]))
    aligned, align_trace = align_canonical(source_off, driver, cams, cfg)

    theta = np.pi / 3
    values = [theta * (i + 1) / 5 for i in range(5)]
    motions = [driver_scene.exact_motion(v, frame=i + 1)
               for i, v in enumerate(values)]
    transferred, transfer_traces = transfer_motion(aligned, source_off,
                                                   driver_motion, motions, cfg)
    return {
        "source": source, "source_off": source_off, "offset": offset,
        "aligned": aligned, "align_trace": align_trace, "theta": theta,
        "transferred": transferred, "transfer_traces": transfer_traces,
    }


@pytest.fixture(scope="module")
def init_run():
    """Canonical fit of a jittered kernel set back onto its surface cloud."""
    scene = make_scene("twolink", 100, 400, seed=41)
    appearance = scene.appearance_set()
    rng = np.random.default_rng(41)
    jittered = appearance.replace(
        positions=appearance.positions + rng.normal(scale=0.01, size=(400, 3)))
    target = PointCloud(points=scene.surface.points, colors=scene.surface.colors)
    cfg = TrackConfig(iterations_init=300, length_scale=0.01, seed=41)
    fitted, trace = init_canonical(jittered, target, cfg)
    return {"fitted": fitted, "trace": trace}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    report = run_gradcheck(seed=5, instances=20)
    elapsed = time.monotonic() - started
    assert set(report) == set(THRESHOLDS)
    worst = {name: err / THRESHOLDS[name] for name, err in report.items()}
    bad = [name for name, frac in worst.items() if frac >= 1.0]
    detail = (f"max rel FD error {max(report.values()):.2e}, "
              f"e_mask {report['e_mask']:.2e}, {elapsed:.1f}s")
    _report(1, "gradient fidelity", not bad and elapsed < 60.0, detail)


def test_criterion_2_rigid_motion_exactness(rigid_run):
    motion = rigid_run["motion"]
    appearance = rigid_run["appearance"]
    cfg = rigid_run["cfg"]
    graph = knn_build(motion.positions, motion.positions, cfg.k_neighbors,
                      cfg.length_scale, normalize=False)
    worst_rms = 0.0
    worst_arap = 0.0
    worst_chamfer = 0.0
    prev = motion
    for res, warped, g, t in zip(rigid_run["results"], rigid_run["warped"],
                                 rigid_run["gammas"], rigid_run["shifts"]):
        exact = motion.positions @ _rz(g).T + t
        rms = float(np.sqrt(np.mean(np.sum((res.positions - exact) ** 2, axis=1))))
        arap = e_arap(prev, res, graph).value
        exact_app = appearance.positions @ _rz(g).T + t
        ch = _chamfer(warped.positions, exact_app)
        worst_rms = max(worst_rms, rms)
        worst_arap = max(worst_arap, arap)
        worst_chamfer = max(worst_chamfer, ch)
        prev = res
    elapsed = rigid_run["elapsed"]
    ok = (worst_rms < 2e-3 and worst_arap < 1e-6 and worst_chamfer < 2e-3
          and elapsed < 300.0)
    _report(2, "rigid-motion exactness",
            ok, f"RMS {worst_rms:.2e}, E_arap {worst_arap:.2e}, "
                f"chamfer {worst_chamfer:.2e}, {elapsed:.0f}s")


def test_criterion_3_articulated_tracking(articulated_run):
    worst = 0.0
    for fr, warped in zip(articulated_run["frames"], articulated_run["warped"]):
        worst = max(worst, _chamfer(warped.positions, fr.surface.points))
    _report(3, "articulated tracking", worst < 2e-3,
            f"worst per-frame chamfer {worst:.2e}")


def test_criterion_4_morton_correctness_and_locality():
    ix, iy, iz = np.meshgrid(np.arange(32), np.arange(32), np.arange(32),
                             indexing="ij")
    codes = morton_encode(ix.ravel(), iy.ravel(), iz.ravel())
    bijective = np.array_equal(np.sort(codes), np.arange(32 ** 3))
    dx, dy, dz = morton_decode(codes)
    round_trip = (np.array_equal(dx, ix.ravel()) and np.array_equal(dy, iy.ravel())
                  and np.array_equal(dz, iz.ravel()))

    rng = np.random.default_rng(4)
    cloud = rng.uniform(0.0, 1.0, size=(10000, 3))
    res = (128, 128)
    scores = {
        "morton": locality_score(build_mapping(cloud, res, bits=10), cloud),
        "ysort": locality_score(y_sort_mapping(cloud, res), cloud),
        "random": locality_score(random_mapping(10000, res, seed=4), cloud),
    }
    ordered = scores["morton"] < scores["ysort"] < scores["random"]
    _report(4, "space-filling order", bijective and round_trip and ordered,
            f"32^3 round-trip ok, scores morton {scores['morton']:.4f} "
            f"< ysort {scores['ysort']:.4f} < random {scores['random']:.4f}")


def test_criterion_5_map_round_trip(rigid_run, tmp_path):
    warped = rigid_run["warped"][-1]
    mapping = build_mapping(rigid_run["appearance"].positions, (128, 128), bits=10)
    # one float32 pass first: map payloads are f32, so bitwise fidelity is
    # defined against the quantized set
    quantized = assemble(disassemble(warped, mapping), mapping,
                         role=warped.role, frame=warped.frame,
                         labels=warped.labels, label_names=warped.label_names)
    maps = disassemble(quantized, mapping)
    loaded = {}
    for name, amap in maps.items():
        path = tmp_path / f"{name}.gmap"
        write_gmap(path, amap)
        loaded[name] = read_gmap(path)
    rebuilt = assemble(loaded, mapping, role=quantized.role,
                       frame=quantized.frame, labels=quantized.labels,
                       label_names=quantized.label_names)
    same = (np.array_equal(rebuilt.positions, quantized.positions)
            and np.array_equal(rebuilt.rotations, quantized.rotations)
            and np.array_equal(rebuilt.log_scales, quantized.log_scales)
            and np.array_equal(rebuilt.opacities, quantized.opacities)
            and np.array_equal(rebuilt.colors, quantized.colors)
            and np.array_equal(rebuilt.labels, quantized.labels)
            and rebuilt.frame == quantized.frame
            and rebuilt.role is quantized.role)
    _report(5, "attribute-map round-trip", same,
            f"{len(quantized)} kernels bitwise through 4 map files")


def test_criterion_6_self_reperformance(articulated_run, self_reperformance):
    appearance = articulated_run["appearance"]
    aligned = self_reperformance["aligned"]
    move = float(np.linalg.norm(aligned.positions - appearance.positions,
                                axis=1).mean())
    worst = 0.0
    for fr, out in zip(articulated_run["frames"],
                       self_reperformance["transferred"]):
        worst = max(worst, _chamfer(out.positions, fr.surface.points))
    ok = move < 1e-3 and worst < 2e-3
    _report(6, "self-re-performance fixed point", ok,
            f"self-align mean move {move:.2e}, worst transfer chamfer {worst:.2e}")


def test_criterion_7_cross_performer_transfer(cross_performer):
    run = cross_performer
    recovered = (run["source_off"].positions.mean(axis=0)
                 - run["aligned"].positions.mean(axis=0))
    offset_err = float(np.linalg.norm(recovered - run["offset"]))

    names = run["aligned"].label_names
    distal = np.isin(run["aligned"].labels,
                     [names.index("limb"), names.index("tip")])
    c0 = run["aligned"].positions[distal].mean(axis=0)
    c1 = run["transferred"][-1].positions[distal].mean(axis=0)
    angle = float(np.arctan2(c1[1], c1[0]) - np.arctan2(c0[1], c0[0]))
    angle_err = abs(angle - run["theta"])

    arap_ok = True
    for trace in run["transfer_traces"]:
        col = trace.columns.index("e_arap")
        start, final = trace.rows[0][col], trace.rows[-1][col]
        arap_ok = arap_ok and final <= 1.5 * max(start, 1e-30)

    ok = offset_err < 5e-3 and angle_err < 0.05 and arap_ok
    _report(7, "cross-performer transfer", ok,
            f"offset error {offset_err:.2e}, angle error {angle_err:.2e} rad, "
            f"rigidity within 1.5x of warp start: {arap_ok}")


def test_criterion_8_cli_determinism(tmp_path):
    digests = []
    for name in ("a", "b", "c"):
        root = tmp_path / name
        root.mkdir()
        build_chain(root)
        digests.append(tree_digest(root))
    trees_equal = digests[0] == digests[1] == digests[2]

    reports = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run_cli("gradcheck", "--seed", 3, "--instances", 2) == 0
        reports.append(buf.getvalue())
    ok = trees_equal and reports[0] == reports[1]
    _report(8, "byte-identical determinism", ok,
            f"{len(digests[0])} files identical across three reruns")


def test_criterion_9_energy_descent(rigid_run, articulated_run,
                                    self_reperformance, cross_performer,
                                    init_run, tmp_path):
    traces = {"init": init_run["trace"]}
    for i, tr in enumerate(rigid_run["traces"], start=1):
        traces[f"rigid_track_{i:04d}"] = tr
    for i, tr in enumerate(articulated_run["traces"], start=1):
        traces[f"artic_track_{i:04d}"] = tr
    traces["self_align"] = self_reperformance["align_trace"]
    for i, tr in enumerate(self_reperformance["transfer_traces"], start=1):
        traces[f"self_transfer_{i:04d}"] = tr
    traces["cross_align"] = cross_performer["align_trace"]
    for i, tr in enumerate(cross_performer["transfer_traces"], start=1):
        traces[f"cross_transfer_{i:04d}"] = tr

    rising = []
    for name, trace in traces.items():
        path = tmp_path / f"{name}.csv"
        write_trace(path, trace)
        columns, rows = read_trace(path)
        total = columns.index("total")
        if not rows[-1][total] <= rows[0][total]:
            rising.append(name)

    columns, rows = read_trace(tmp_path / "cross_align.csv")
    total = columns.index("total")
    reduction = 1.0 - rows[-1][total] / rows[0][total]
    ok = not rising and reduction >= 0.5
    _report(9, "energy descent", ok,
            f"{len(traces)} traces end at or below start "
            f"(offenders: {rising or 'none'}), cross-alignment total "
            f"reduced {reduction:.1%}")
