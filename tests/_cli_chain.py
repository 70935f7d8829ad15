"""The full command-line chain, shared by the CLI tests and acceptance criterion 8:
every subcommand once on a small two-link scene, with fast settings."""

import hashlib
import os

from splatkin.cli import main

CONFIG = """\
# fast settings for tests
iterations_init=20
iterations_track=12
iterations_align=25
iterations_transfer=12
l=0.05
k_neighbors=4
map_width=16
map_height=16
quant_bits=6
clusters_per_label=3
"""


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def build_chain(root):
    """Drive every subcommand once, writing under ``root``."""
    cfg = root / "test.cfg"
    cfg.write_text(CONFIG)
    synth = root / "synth"
    assert run_cli("synth", "--kind", "twolink", "--out", synth, "--frames", 3,
                   "--amplitude", 0.3, "--n-motion", 60, "--n-appearance", 150,
                   "--seed", 5) == 0
    assert run_cli("init", "--config", cfg, "--input", synth / "appearance_canonical.gset",
                   "--target", synth / "frames" / "surface_0001.gset",
                   "--out", root / "init.gset", "--trace", root / "trace_init.csv") == 0
    assert run_cli("track", "--config", cfg, "--canonical", synth / "motion_canonical.gset",
                   "--targets", synth / "frames", "--pattern", "target_*.gset",
                   "--out-dir", root / "track") == 0
    assert run_cli("warp", "--config", cfg, "--appearance", synth / "appearance_canonical.gset",
                   "--canonical", synth / "motion_canonical.gset",
                   "--deformed", root / "track" / "motion_0001.gset",
                   "--out", root / "warped_0001.gset") == 0
    assert run_cli("map", "--config", cfg, "--input", synth / "appearance_canonical.gset",
                   "--out", root / "mapping.uvm") == 0
    assert run_cli("regress", "--config", cfg, "--mapping", root / "mapping.uvm",
                   "--appearance", synth / "appearance_canonical.gset",
                   "--canonical", synth / "motion_canonical.gset",
                   "--deformed", root / "track" / "motion_0001.gset",
                   "--out-dir", root / "maps") == 0
    assert run_cli("align", "--config", cfg, "--source", synth / "appearance_canonical.gset",
                   "--source-labels", synth / "appearance_labels.csv",
                   "--driver", synth / "appearance_canonical.gset",
                   "--driver-labels", synth / "appearance_labels.csv",
                   "--out", root / "aligned.gset", "--trace", root / "trace_align.csv",
                   "--mask-resolution", 24) == 0
    assert run_cli("transfer", "--config", cfg, "--aligned", root / "aligned.gset",
                   "--source-canonical", synth / "appearance_canonical.gset",
                   "--driver-canonical", synth / "motion_canonical.gset",
                   "--driver-frames", root / "track", "--pattern", "motion_*.gset",
                   "--out-dir", root / "transfer") == 0
    assert run_cli("render", "--input", root / "warped_0001.gset",
                   "--out", root / "render.ppm", "--alpha", root / "alpha.pgm",
                   "--resolution", 32) == 0
    assert run_cli("locality", "--config", cfg, "--input", synth / "appearance_canonical.gset",
                   "--out", root / "locality.csv") == 0


def tree_digest(root) -> dict:
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out
