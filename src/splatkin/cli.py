"""Command-line front end.

Thin wrappers over the library: every subcommand reads and writes the
formats of ``fileio`` (binary kernel sets, attribute maps and mappings; text
configs, labels and traces) and delegates the actual work. All work runs on
one thread. Exit codes: 0 success, 1 runtime failure (one line on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .core import GaussianSet, PointCloud, Role, knn_build
from .errors import InvalidArgumentError, SplatkinError
from .fileio import (
    attach_labels,
    read_config,
    read_gset,
    read_labels,
    read_mapping,
    write_gmap,
    write_gset,
    write_labels,
    write_mapping,
    write_pgm,
    write_ppm,
    write_trace,
)
from .gradcheck import THRESHOLDS, run_gradcheck
from .morton import build_mapping, random_mapping, locality_score, y_sort_mapping
from .pipeline import (
    TrackConfig,
    TransferConfig,
    align_canonical,
    init_canonical,
    track_sequence,
    transfer_motion,
)
from .render import OrthoCamera, splat
from .synth import animate, make_scene
from .warp import disassemble, relative_motion, warp_appearance

# config keys that set a stage-config field of another name; every other key
# sets the field of its own name in the stage configs that have one
_FIELD_NAMES = {"l": "length_scale", "lambda_1": "lambda_arap_align",
                "lambda_2": "lambda_arap_transfer"}


def _load_config(args) -> dict:
    cfg = read_config(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _stage_config(cls, cfg: dict):
    """``cls`` (``TrackConfig`` or ``TransferConfig``) set from the keys it has."""
    names = {f.name for f in dataclasses.fields(cls)}
    fields = ((_FIELD_NAMES.get(key, key), value) for key, value in cfg.items())
    return cls(**{name: value for name, value in fields if name in names})


def _map_layout(cfg: dict) -> tuple[tuple[int, int], int]:
    """Map resolution (W, H) and Morton quantisation bits, by default 512x512 and 10."""
    return ((int(cfg.get("map_width", 512)), int(cfg.get("map_height", 512))),
            int(cfg.get("quant_bits", 10)))


def _skinned(args, cfg: TrackConfig) -> GaussianSet:
    """The ``--appearance`` set warped by the motion from ``--canonical`` to ``--deformed``."""
    appearance = read_gset(args.appearance)
    canonical = read_gset(args.canonical)
    deformed = read_gset(args.deformed)
    graph = knn_build(appearance.positions, canonical.positions,
                      cfg.k_neighbors, cfg.length_scale, normalize=True)
    return warp_appearance(appearance, relative_motion(canonical, deformed), graph)


def _as_cloud(gset: GaussianSet) -> PointCloud:
    return PointCloud(points=gset.positions, colors=gset.colors)


def _cloud_gset(cloud: PointCloud, frame: int) -> GaussianSet:
    n = len(cloud)
    return GaussianSet(
        positions=cloud.points,
        rotations=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        log_scales=np.full((n, 3), -6.0),
        opacities=np.ones(n),
        colors=cloud.colors,
        role=Role.APPEARANCE,
        frame=frame,
    )


def _sorted_inputs(directory: str, pattern: str) -> list[str]:
    import fnmatch

    names = sorted(n for n in os.listdir(directory) if fnmatch.fnmatch(n, pattern))
    if not names:
        raise SplatkinError(f"no files matching {pattern!r} in {directory}")
    return [os.path.join(directory, n) for n in names]


def _auto_camera(positions: np.ndarray, axis: str, resolution: int,
                 window: float | None, scale: float = 1.2) -> OrthoCamera:
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    center = 0.5 * (lo + hi)
    extent = window if window is not None else max(float((hi - lo).max()), 1e-6) * scale
    return OrthoCamera.axis_view(axis, center, extent, extent, (resolution, resolution))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    if args.frames < 1:
        raise InvalidArgumentError(f"--frames must be at least 1, got {args.frames}")
    cfg = _load_config(args)
    seed = int(cfg.get("seed", 0))
    scene = make_scene(args.kind, args.n_motion, args.n_appearance, seed)
    motion = scene.motion_set(anisotropy=args.anisotropy)
    appearance = scene.appearance_set(anisotropy=args.anisotropy)
    values = [args.amplitude * (i + 1) / args.frames for i in range(args.frames)]
    frames = animate(scene, values)
    # every argument is checked by now, so a failure leaves no partial output
    out = args.out
    os.makedirs(os.path.join(out, "frames"), exist_ok=True)
    os.makedirs(os.path.join(out, "truth"), exist_ok=True)
    write_gset(os.path.join(out, "motion_canonical.gset"), motion)
    write_gset(os.path.join(out, "appearance_canonical.gset"), appearance)
    write_labels(os.path.join(out, "motion_labels.csv"), scene.label_strings("motion"))
    write_labels(os.path.join(out, "appearance_labels.csv"), scene.label_strings("surface"))
    with open(os.path.join(out, "schedule.csv"), "w") as fh:
        fh.write("frame,value\n")
        for fr in frames:
            fh.write(f"{fr.index},{repr(fr.value)}\n")
    from .warp import apply_motion

    for fr in frames:
        write_gset(os.path.join(out, "frames", f"target_{fr.index:04d}.gset"),
                   _cloud_gset(fr.motion, fr.index))
        write_gset(os.path.join(out, "frames", f"surface_{fr.index:04d}.gset"),
                   _cloud_gset(fr.surface, fr.index))
        write_gset(os.path.join(out, "truth", f"motion_{fr.index:04d}.gset"),
                   apply_motion(motion, fr.truth))
    return 0


def cmd_init(args) -> int:
    cfg = _stage_config(TrackConfig, _load_config(args))
    initial = read_gset(args.input)
    target = _as_cloud(read_gset(args.target))
    fitted, trace = init_canonical(initial, target, cfg)
    write_gset(args.out, fitted)
    write_trace(args.trace, trace)
    return 0


def cmd_track(args) -> int:
    cfg = _stage_config(TrackConfig, _load_config(args))
    canonical = read_gset(args.canonical)
    paths = _sorted_inputs(args.targets, args.pattern)
    clouds = [_as_cloud(read_gset(p)) for p in paths]
    results, traces = track_sequence(canonical, clouds, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    for gset, trace in zip(results, traces):
        write_gset(os.path.join(args.out_dir, f"motion_{gset.frame:04d}.gset"), gset)
        write_trace(os.path.join(args.out_dir, f"trace_track_{gset.frame:04d}.csv"), trace)
    return 0


def cmd_warp(args) -> int:
    cfg = _stage_config(TrackConfig, _load_config(args))
    write_gset(args.out, _skinned(args, cfg))
    return 0


def cmd_map(args) -> int:
    resolution, bits = _map_layout(_load_config(args))
    gset = read_gset(args.input)
    write_mapping(args.out, build_mapping(gset.positions, resolution, bits))
    return 0


def cmd_regress(args) -> int:
    cfg = _load_config(args)
    resolution, _ = _map_layout(cfg)
    mapping = read_mapping(args.mapping, resolution)
    warped = _skinned(args, _stage_config(TrackConfig, cfg))
    os.makedirs(args.out_dir, exist_ok=True)
    for name, amap in disassemble(warped, mapping).items():
        write_gmap(os.path.join(args.out_dir, f"{name}.gmap"), amap)
    return 0


def cmd_align(args) -> int:
    cfg = _stage_config(TransferConfig, _load_config(args))
    source = attach_labels(read_gset(args.source), read_labels(args.source_labels))
    driver = attach_labels(read_gset(args.driver), read_labels(args.driver_labels))
    both = np.concatenate([source.positions, driver.positions])
    cameras = [_auto_camera(both, axis, args.mask_resolution, None, scale=args.window_scale)
               for axis in args.views.split(",")]
    aligned, trace = align_canonical(source, driver, cameras, cfg)
    write_gset(args.out, aligned)
    write_trace(args.trace, trace)
    return 0


def cmd_transfer(args) -> int:
    cfg = _stage_config(TransferConfig, _load_config(args))
    aligned = read_gset(args.aligned)
    source_canonical = read_gset(args.source_canonical)
    driver_canonical = read_gset(args.driver_canonical)
    motions = []
    for path in _sorted_inputs(args.driver_frames, args.pattern):
        deformed = read_gset(path)
        motions.append(relative_motion(driver_canonical, deformed))
    results, traces = transfer_motion(aligned, source_canonical, driver_canonical,
                                      motions, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    for gset, trace in zip(results, traces):
        write_gset(os.path.join(args.out_dir, f"transfer_{gset.frame:04d}.gset"), gset)
        write_trace(os.path.join(args.out_dir, f"trace_transfer_{gset.frame:04d}.csv"), trace)
    return 0


def cmd_render(args) -> int:
    gset = read_gset(args.input)
    camera = _auto_camera(gset.positions, args.axis, args.resolution, args.window)
    result = splat(gset, camera, truncation_radius=args.truncation)
    write_ppm(args.out, result.rgb)
    if args.alpha:
        write_pgm(args.alpha, result.alpha)
    return 0


def cmd_locality(args) -> int:
    cfg = _load_config(args)
    gset = read_gset(args.input)
    resolution, bits = _map_layout(cfg)
    seed = int(cfg.get("seed", 0))
    layouts = {
        "morton": build_mapping(gset.positions, resolution, bits),
        "ysort": y_sort_mapping(gset.positions, resolution),
        "random": random_mapping(len(gset), resolution, seed),
    }
    with open(args.out, "w") as fh:
        fh.write("layout,score\n")
        for name, mapping in layouts.items():
            fh.write(f"{name},{repr(locality_score(mapping, gset.positions))}\n")
    return 0


def cmd_gradcheck(args) -> int:
    terms = args.terms.split(",") if args.terms else None
    results = run_gradcheck(seed=args.seed, instances=args.instances, terms=terms)
    failed = False
    for name, err in results.items():
        limit = THRESHOLDS[name]
        status = "PASS" if err < limit else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name} {err:.3e} {limit:.1e} {status}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, seed=False):
    sub.add_argument("--config", help="key=value configuration file")
    if seed:
        sub.add_argument("--seed", type=int, help="override the configured seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatkin",
        description="Sparse-kernel tracking, skinned warping, map packing, and "
                    "motion re-performance for Gaussian scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p.add_argument("--kind", choices=("cylinder", "twolink"), required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--amplitude", type=float, required=True,
                   help="final deformation value (curvature or joint angle)")
    p.add_argument("--n-motion", type=int, default=500)
    p.add_argument("--n-appearance", type=int, default=2000)
    p.add_argument("--anisotropy", type=float, default=1.0)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="fit a canonical kernel set to a colored cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("track", help="track a motion set through target clouds")
    p.add_argument("--canonical", required=True)
    p.add_argument("--targets", required=True, help="directory of target sets")
    p.add_argument("--pattern", default="target_*.gset")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("warp", help="skin an appearance set under tracked motion")
    p.add_argument("--appearance", required=True)
    p.add_argument("--canonical", required=True, help="canonical motion set")
    p.add_argument("--deformed", required=True, help="tracked motion set at one frame")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("map", help="assign kernels to pixels by spatial order")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("regress", help="pack warped attributes into image maps")
    p.add_argument("--mapping", required=True)
    p.add_argument("--appearance", required=True)
    p.add_argument("--canonical", required=True)
    p.add_argument("--deformed", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("align", help="align a source set to a driver's canonical pose")
    p.add_argument("--source", required=True)
    p.add_argument("--source-labels", required=True)
    p.add_argument("--driver", required=True)
    p.add_argument("--driver-labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--views", default="+z,+x,+y", help="comma-separated view axes")
    p.add_argument("--mask-resolution", type=int, default=64)
    p.add_argument("--window-scale", type=float, default=1.4)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("transfer", help="re-perform driver motion on an aligned set")
    p.add_argument("--aligned", required=True)
    p.add_argument("--source-canonical", required=True)
    p.add_argument("--driver-canonical", required=True)
    p.add_argument("--driver-frames", required=True, help="directory of tracked frames")
    p.add_argument("--pattern", default="motion_*.gset")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("render", help="splat a kernel set to an image")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="color output (.ppm)")
    p.add_argument("--alpha", help="optional coverage output (.pgm)")
    p.add_argument("--axis", default="+z")
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--window", type=float, help="window side in world units (default: auto)")
    p.add_argument("--truncation", type=float, default=3.0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("locality", help="score pixel layouts for spatial coherence")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--terms", help="comma-separated term names (default: all)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SplatkinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
