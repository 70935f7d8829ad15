"""The four benchmark workloads.

Each workload is a closed loop with one caller. ``setup(seed, workdir)`` builds
the inputs (the seed reaches only ``synth.make_scene`` / ``synth``), ``run``
is one timed operation, and ``verify`` checks that operation's outputs against
analytic truth and bitwise round-trips and returns their digest. Library calls
go through module attributes (``pipeline.init_canonical``) so that the tracer's
rebinding of module globals sees them.

Scene sizes match the acceptance fixtures (criteria 1, 3 and 7) and the
dense export scale; iteration, frame and instance counts are chosen so that
one operation takes about 2-5 s on one core, which leaves several operations
per run to take the fastest of.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from splatkin import cli, core, fileio, gradcheck, pipeline, render, synth, warp

BEND = np.pi / 3  # joint angle reached at the last frame of every bend


@dataclass
class Check:
    name: str
    value: float
    limit: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.limit)


@dataclass
class Verdict:
    digest: str
    checks: list[Check]
    figures: dict  # accuracy figures for the report


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Max of the two mean nearest-neighbour distances (as the acceptance gate)."""
    return float(max(cKDTree(b).query(a)[0].mean(), cKDTree(a).query(b)[0].mean()))


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _set_arrays(gset):
    return (gset.positions, gset.rotations, gset.log_scales, gset.opacities, gset.colors)


def _trace_arrays(trace):
    return (np.array(trace.rows, dtype=np.float64),)


def _rises(trace) -> float:
    """1 if the trace's final (best) total exceeds its first total, else 0."""
    return float(trace.rows[-1][-1] > trace.rows[0][-1])


class TrackArticulated:
    name = "track_articulated"
    why = ("criterion-3 twolink bend (300 motion / 1500 appearance): init, track and skinning; "
           "e_arap, e_data_points, Adam dominate; no render, morton or fileio")
    loads = ("energy.e_arap", "energy.e_data_points", "energy.e_iso", "energy.e_size",
             "pipeline.init_canonical", "pipeline.track_sequence", "pipeline.adam_step",
             "core.knn_build", "core.gaussian_set", "core.quat", "warp.relative_motion",
             "warp.warp_appearance")
    bypasses = ("render", "morton", "fileio", "cli", "energy.e_mask", "energy.e_sem",
                "energy.e_l2_gauss", "gradcheck")
    frames = 4
    iterations_init = 100
    iterations_track = 150
    tolerances = {"init_chamfer_m": 2e-3, "track_chamfer_m": 1.5e-2, "track_rms_m": 5e-2,
                  "rising_traces": 0.0}

    def config(self):
        return pipeline.TrackConfig(iterations_init=self.iterations_init,
                                    iterations_track=self.iterations_track, length_scale=0.01,
                                    lr_end_factor=0.01, k_neighbors=4, seed=21)

    def setup(self, seed: int, workdir: str):
        scene = synth.make_scene("twolink", 300, 1500, seed=seed)
        appearance = scene.appearance_set()
        frames = synth.animate(scene, [BEND * (i + 1) / self.frames for i in range(self.frames)])
        jitter = np.random.default_rng(41).normal(scale=0.01, size=appearance.positions.shape)
        return {
            "motion": scene.motion_set(),
            "jittered": appearance.replace(positions=appearance.positions + jitter),
            "target": core.PointCloud(points=scene.surface.points, colors=scene.surface.colors),
            "frames": frames,
        }

    def keys(self, state):
        return [0]

    def run(self, state, key):
        cfg = self.config()
        clock = _Clock()
        fitted, init_trace = pipeline.init_canonical(state["jittered"], state["target"], cfg)
        clock.lap("init_canonical")
        results, traces = pipeline.track_sequence(
            state["motion"], [fr.motion for fr in state["frames"]], cfg)
        clock.lap("track_sequence")
        warped = []
        for res in results:
            skin = core.knn_build(fitted.positions, state["motion"].positions, cfg.k_neighbors,
                                  cfg.length_scale, normalize=True)
            warped.append(warp.warp_appearance(
                fitted, warp.relative_motion(state["motion"], res), skin))
        clock.lap("warp")
        return {"fitted": fitted, "init_trace": init_trace, "results": results,
                "traces": traces, "warped": warped, "stages": clock.laps}

    def verify(self, state, key, out) -> Verdict:
        motion = state["motion"]
        rms = max(float(np.sqrt(np.mean(np.sum(
            (res.positions - warp.apply_motion(motion, fr.truth).positions) ** 2, axis=1))))
            for res, fr in zip(out["results"], state["frames"]))
        track_chamfer = max(chamfer(w.positions, fr.surface.points)
                            for w, fr in zip(out["warped"], state["frames"]))
        init_chamfer = chamfer(out["fitted"].positions, state["target"].points)
        rising = sum(_rises(t) for t in [out["init_trace"], *out["traces"]])
        figures = {"track_rms_m": rms, "track_chamfer_m": track_chamfer,
                   "init_chamfer_m": init_chamfer, "rising_traces": rising}
        arrays = [*_set_arrays(out["fitted"]), *_trace_arrays(out["init_trace"])]
        for res, trace, w in zip(out["results"], out["traces"], out["warped"]):
            arrays += [*_set_arrays(res), *_trace_arrays(trace), *_set_arrays(w)]
        return Verdict(_hash_arrays(*arrays), _checks(figures, self.tolerances), figures)

    def stage_metrics(self, stages):
        return {"init_iter_ms": 1e3 * stages["init_canonical"] / self.iterations_init,
                "track_iter_ms": 1e3 * stages["track_sequence"]
                / (self.iterations_track * self.frames)}


class ReperformCross:
    name = "reperform_cross"
    why = ("criterion-7 cross-performer (two 200/800 bodies, 3 views at 64^2, 5 exact frames): "
           "align then transfer; e_mask and footprints dominate")
    loads = ("energy.e_mask", "energy.e_sem", "energy.e_arap", "energy.e_l2_gauss",
             "render.footprints", "render.splat", "pipeline.align_canonical",
             "pipeline.transfer_motion", "pipeline.kmeans", "pipeline.match_clusters",
             "pipeline.adam_step", "core.knn_build", "core.gaussian_set", "core.quat",
             "warp.warp_appearance")
    bypasses = ("energy.e_data_points", "morton", "fileio", "cli", "gradcheck")
    driver_frames = 5
    iterations_align = 40
    iterations_transfer = 40
    offset = np.array([0.1, 0.0, 0.0])
    tolerances = {"align_offset_err_m": 0.09, "transfer_angle_err_rad": 0.05,
                  "transfer_arap_growth_ratio": 1.5, "rising_traces": 0.0}

    def config(self):
        return pipeline.TransferConfig(iterations_align=self.iterations_align, lambda_sem=1e4,
                                       iterations_transfer=self.iterations_transfer,
                                       lambda_arap_transfer=0.2, length_scale=0.01,
                                       lr_end_factor=0.1, seed=33)

    def setup(self, seed: int, workdir: str):
        driver_scene = synth.make_scene("twolink", 200, 800, seed=seed)
        source_scene = synth.make_scene("twolink", 200, 800, seed=seed + 1, base_radius=0.05,
                                        limb_radius=0.04, tip_radius=0.06)
        driver = driver_scene.appearance_set()
        source = source_scene.appearance_set()
        source_off = source.replace(positions=source.positions + self.offset)
        both = np.concatenate([source_off.positions, driver.positions])
        lo, hi = both.min(axis=0), both.max(axis=0)
        extent = float((hi - lo).max()) * 1.4
        cameras = [render.OrthoCamera.axis_view(ax, 0.5 * (lo + hi), extent, extent, (64, 64))
                   for ax in ("+z", "+x", "+y")]
        values = [BEND * (i + 1) / self.driver_frames for i in range(self.driver_frames)]
        return {
            "driver": driver,
            "driver_motion": driver_scene.motion_set(),
            "source_off": source_off,
            "cameras": cameras,
            "motions": [driver_scene.exact_motion(v, frame=i + 1) for i, v in enumerate(values)],
        }

    def keys(self, state):
        return [0]

    def run(self, state, key):
        cfg = self.config()
        clock = _Clock()
        aligned, align_trace = pipeline.align_canonical(state["source_off"], state["driver"],
                                                        state["cameras"], cfg)
        clock.lap("align_canonical")
        transferred, traces = pipeline.transfer_motion(aligned, state["source_off"],
                                                       state["driver_motion"],
                                                       state["motions"], cfg)
        clock.lap("transfer_motion")
        return {"aligned": aligned, "align_trace": align_trace, "transferred": transferred,
                "traces": traces, "stages": clock.laps}

    def verify(self, state, key, out) -> Verdict:
        aligned = out["aligned"]
        recovered = state["source_off"].positions.mean(axis=0) - aligned.positions.mean(axis=0)
        names = aligned.label_names
        distal = np.isin(aligned.labels, [names.index("limb"), names.index("tip")])
        c0 = aligned.positions[distal].mean(axis=0)
        c1 = out["transferred"][-1].positions[distal].mean(axis=0)
        angle = float(np.arctan2(c1[1], c1[0]) - np.arctan2(c0[1], c0[0]))
        growth = 0.0
        for trace in out["traces"]:
            col = trace.columns.index("e_arap")
            growth = max(growth, trace.rows[-1][col] / max(trace.rows[0][col], 1e-30))
        figures = {
            "align_offset_err_m": float(np.linalg.norm(recovered - self.offset)),
            "transfer_angle_err_rad": abs(angle - BEND),
            "transfer_arap_growth_ratio": growth,
            "rising_traces": sum(_rises(t) for t in [out["align_trace"], *out["traces"]]),
        }
        arrays = [*_set_arrays(aligned), *_trace_arrays(out["align_trace"])]
        for res, trace in zip(out["transferred"], out["traces"]):
            arrays += [*_set_arrays(res), *_trace_arrays(trace)]
        return Verdict(_hash_arrays(*arrays), _checks(figures, self.tolerances), figures)

    def stage_metrics(self, stages):
        return {"align_iter_ms": 1e3 * stages["align_canonical"] / self.iterations_align,
                "transfer_iter_ms": 1e3 * stages["transfer_motion"]
                / (self.iterations_transfer * self.driver_frames)}


class ExportDense:
    name = "export_dense"
    why = ("CLI in process at 500 motion / 20000 anisotropic appearance kernels: warp, regress, "
           "render 256^2 per frame; text I/O, brute-force kNN, splat; no optimizer")
    loads = ("cli", "fileio", "core.knn_build", "core.gaussian_set", "core.quat",
             "warp.relative_motion", "warp.warp_appearance", "warp.disassemble",
             "morton.build_mapping", "morton.pack_map", "render.footprints", "render.splat")
    bypasses = ("energy", "pipeline", "gradcheck")
    frames = 2
    resolution = 256
    map_names = ("position", "rotation", "shape", "color")
    tolerances = {"export_chamfer_m": 2e-3, "cli_failures": 0.0, "gset_roundtrip_diff": 0.0,
                  "gmap_roundtrip_diff": 0.0, "empty_alpha": 0.0}
    config_text = "l=0.01\nk_neighbors=4\nmap_width=256\nmap_height=256\nquant_bits=10\n"

    def setup(self, seed: int, workdir: str):
        cfg = os.path.join(workdir, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(self.config_text)
        scene = os.path.join(workdir, "scene")
        rc = _cli("synth", "--kind", "twolink", "--out", scene, "--frames", self.frames,
                  "--amplitude", repr(BEND), "--n-motion", 500, "--n-appearance", 20000,
                  "--anisotropy", 2, "--seed", seed)
        rc |= _cli("map", "--config", cfg, "--input",
                   os.path.join(scene, "appearance_canonical.gset"),
                   "--out", os.path.join(workdir, "mapping.txt"))
        if rc:
            raise RuntimeError("synth or map exited non-zero during setup")
        return {"workdir": workdir, "cfg": cfg, "scene": scene}

    def keys(self, state):
        return list(range(1, self.frames + 1))

    def _paths(self, state, frame):
        out = os.path.join(state["workdir"], f"frame_{frame:04d}")
        return {
            "dir": out,
            "deformed": os.path.join(state["scene"], "truth", f"motion_{frame:04d}.gset"),
            "surface": os.path.join(state["scene"], "frames", f"surface_{frame:04d}.gset"),
            "warped": os.path.join(out, "warped.gset"),
            "maps": os.path.join(out, "maps"),
            "ppm": os.path.join(out, "render.ppm"),
            "pgm": os.path.join(out, "alpha.pgm"),
        }

    def run(self, state, frame):
        p = self._paths(state, frame)
        os.makedirs(p["dir"], exist_ok=True)
        scene = state["scene"]
        common = ("--config", state["cfg"],
                  "--appearance", os.path.join(scene, "appearance_canonical.gset"),
                  "--canonical", os.path.join(scene, "motion_canonical.gset"),
                  "--deformed", p["deformed"])
        clock = _Clock()
        codes = [_cli("warp", *common, "--out", p["warped"])]
        clock.lap("warp")
        codes.append(_cli("regress", *common, "--mapping",
                          os.path.join(state["workdir"], "mapping.txt"), "--out-dir", p["maps"]))
        clock.lap("regress")
        codes.append(_cli("render", "--input", p["warped"], "--out", p["ppm"], "--alpha", p["pgm"],
                          "--resolution", self.resolution))
        clock.lap("render")
        return {"codes": codes, "stages": clock.laps}

    def verify(self, state, frame, out) -> Verdict:
        p = self._paths(state, frame)
        figures = {"cli_failures": float(sum(c != 0 for c in out["codes"]))}
        if figures["cli_failures"]:
            return Verdict("", _checks(figures, self.tolerances), figures)
        files = [p["warped"], *(os.path.join(p["maps"], f"{m}.gmap") for m in self.map_names),
                 p["ppm"], p["pgm"]]
        blobs = [_read_bytes(f) for f in files]
        digest = hashlib.sha256(b"".join(hashlib.sha256(b).digest() for b in blobs)).hexdigest()

        scratch = os.path.join(p["dir"], "roundtrip.bin")
        warped = fileio.read_gset(p["warped"])
        fileio.write_gset(scratch, warped)
        figures["gset_roundtrip_diff"] = float(_read_bytes(scratch) != blobs[0])
        mapping = fileio.read_mapping(os.path.join(state["workdir"], "mapping.txt"),
                                      (self.resolution, self.resolution))
        expected = warp.disassemble(warped, mapping)
        gmap_diff = 0
        for name, blob in zip(self.map_names, blobs[1:5]):
            loaded = fileio.read_gmap(os.path.join(p["maps"], f"{name}.gmap"))
            fileio.write_gmap(scratch, loaded)
            gmap_diff += int(not np.array_equal(loaded.data, expected[name].data))
            gmap_diff += int(_read_bytes(scratch) != blob)
        os.remove(scratch)
        figures["gmap_roundtrip_diff"] = float(gmap_diff)
        figures["empty_alpha"] = float(not np.any(fileio.read_pgm(p["pgm"])))
        surface = fileio.read_gset(p["surface"])
        figures["export_chamfer_m"] = chamfer(warped.positions, surface.positions)
        return Verdict(digest, _checks(figures, self.tolerances), figures)

    def stage_metrics(self, stages):
        return {"export_frame_ms": 1e3 * sum(stages.values())}


class GradcheckSweep:
    name = "gradcheck_sweep"
    why = ("finite-difference check of all seven energy terms on criterion-1 instances: "
           "thousands of tiny energy calls; the only workload that loads gradcheck")
    loads = ("gradcheck.case_error", "energy", "render.footprints", "render.splat",
             "core.knn_build", "core.gaussian_set", "core.quat")
    bypasses = ("pipeline", "warp", "morton", "fileio", "cli", "synth")
    # Instance sizes are drawn at random inside gradcheck, so a seeded draw would
    # change the work per operation by up to 2x. The instances are therefore the
    # fixed ones of the acceptance gate's criterion 1 and --seed is not used.
    gradcheck_seed = 5
    instances = 2
    tolerances = {f"{term}_ratio": 1.0 for term in gradcheck.THRESHOLDS}
    tolerances["run_gradcheck_mismatch"] = 0.0

    def setup(self, seed: int, workdir: str):
        names = list(gradcheck._CASE_BUILDERS)
        cases = []
        for term_id, name in enumerate(names):
            for i in range(self.instances):
                rng = np.random.Generator(np.random.PCG64((self.gradcheck_seed, term_id, i)))
                cases.append(gradcheck._CASE_BUILDERS[name](rng))
        return {"cases": cases, "checked_public": False}

    def keys(self, state):
        return [0]

    def run(self, state, key):
        report = {}
        for case in state["cases"]:
            report[case.name] = max(report.get(case.name, 0.0), gradcheck.case_error(case))
        return {"report": report, "stages": {}}

    def verify(self, state, key, out) -> Verdict:
        report = out["report"]
        figures = {f"{t}_ratio": err / gradcheck.THRESHOLDS[t] for t, err in report.items()}
        figures["gradcheck_worst_ratio"] = max(figures.values())
        if not state["checked_public"]:
            # the sweep must reproduce the public entry point exactly (once per run)
            public = gradcheck.run_gradcheck(seed=self.gradcheck_seed, instances=self.instances)
            figures["run_gradcheck_mismatch"] = float(public != report)
            state["checked_public"] = True
        values = np.array([report[t] for t in sorted(report)])
        return Verdict(_hash_arrays(values), _checks(figures, self.tolerances), figures)

    def stage_metrics(self, stages):
        return {}


WORKLOADS = {w.name: w for w in (TrackArticulated(), ReperformCross(), ExportDense(),
                                 GradcheckSweep())}

# Which end-to-end figure each traced layer is expected to move, on which workload.
LAYER_EFFECTS = {
    "energy.e_arap, energy.e_data_points, energy.e_iso, energy.e_size":
        ["track_articulated: track_iter_ms, init_iter_ms", "reperform_cross: transfer_iter_ms"],
    "energy.e_mask, energy.e_sem, energy.e_l2_gauss":
        ["reperform_cross: align_iter_ms, transfer_iter_ms", "gradcheck_sweep: wall_s"],
    "render.footprints (+kernels, skipped, px_allocated, px_valid, fill, bytes_computed)":
        ["reperform_cross: align_iter_ms", "export_dense: export_frame_ms, peak_rss_mb"],
    "render.splat": ["export_dense: export_frame_ms"],
    "core.knn_build (+pairs)":
        ["export_dense: export_frame_ms", "others: setup_s, transfer_iter_ms"],
    "core.gaussian_set, core.quat": ["track_articulated: track_iter_ms", "gradcheck_sweep: wall_s"],
    "pipeline.adam_step, pipeline.{init_canonical,track_sequence,align_canonical,"
    "transfer_motion}, pipeline.kmeans, pipeline.match_clusters": ["matching *_iter_ms"],
    "warp.*, morton.build_mapping, morton.pack_map, morton.clamp_count":
        ["export_dense: export_frame_ms", "track_articulated: wall_s"],
    "fileio.* (+bytes), cli.<command>":
        ["export_dense: export_frame_ms, setup_s", "zero on library workloads"],
    "synth.make_scene, synth.animate": ["setup_s"],
    "gradcheck.case_error (+energy_calls)": ["gradcheck_sweep: wall_s"],
}


# ---------------------------------------------------------------------------
# helpers


class _Clock:
    """Lap timer for the stages inside one operation."""

    def __init__(self):
        self._last = time.perf_counter()
        self.laps: dict[str, float] = {}

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now


def _checks(figures: dict, tolerances: dict) -> list[Check]:
    return [Check(name, figures[name], limit) for name, limit in tolerances.items()
            if name in figures]


def _cli(*argv) -> int:
    """Run one splatkin subcommand in process, keeping its output off the report."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    if code:
        print(f"splatkin {argv[0]} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return code


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
