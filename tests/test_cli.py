"""End-to-end command-line tests: full tool chain, determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splatkin
from splatkin.cli import build_parser, main
from splatkin.render import MAX_RESOLUTION
from splatkin.fileio import (
    read_gmap,
    read_gset,
    read_labels,
    read_mapping,
    read_pgm,
    read_ppm,
    read_trace,
)

from _cli_chain import build_chain, run_cli


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    build_chain(root)
    return root


class TestChainOutputs:
    def test_synth_layout(self, chain):
        synth = chain / "synth"
        motion = read_gset(synth / "motion_canonical.gset")
        appearance = read_gset(synth / "appearance_canonical.gset")
        assert len(motion) == 60
        assert len(appearance) == 150
        assert len(read_labels(synth / "motion_labels.csv")) == 60
        assert len(read_labels(synth / "appearance_labels.csv")) == 150
        for i in (1, 2, 3):
            assert (synth / "frames" / f"target_{i:04d}.gset").exists()
            assert (synth / "frames" / f"surface_{i:04d}.gset").exists()
            assert (synth / "truth" / f"motion_{i:04d}.gset").exists()

    def test_schedule_values(self, chain):
        lines = (chain / "synth" / "schedule.csv").read_text().splitlines()
        assert lines[0] == "frame,value"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert values == pytest.approx([0.1, 0.2, 0.3])

    def test_init_reduces_energy(self, chain):
        columns, rows = read_trace(chain / "trace_init.csv")
        assert columns[0] == "iteration"
        assert "total" in columns
        total = columns.index("total")
        assert rows[-1][total] <= rows[0][total]

    def test_track_outputs_per_frame(self, chain):
        for i in (1, 2, 3):
            gset = read_gset(chain / "track" / f"motion_{i:04d}.gset")
            assert gset.frame == i
            assert len(gset) == 60
            read_trace(chain / "track" / f"trace_track_{i:04d}.csv")

    def test_warped_set_matches_appearance_count(self, chain):
        warped = read_gset(chain / "warped_0001.gset")
        assert len(warped) == 150
        assert warped.frame == 1

    def test_mapping_covers_every_kernel(self, chain):
        mapping = read_mapping(chain / "mapping.uvm", resolution=(16, 16))
        assert len(mapping) == 150

    def test_regress_writes_four_maps(self, chain):
        for name in ("position", "rotation", "shape", "color"):
            amap = read_gmap(chain / "maps" / f"{name}.gmap")
            assert amap.resolution == (16, 16)

    def test_align_and_transfer_outputs(self, chain):
        aligned = read_gset(chain / "aligned.gset")
        assert len(aligned) == 150
        for i in (1, 2, 3):
            gset = read_gset(chain / "transfer" / f"transfer_{i:04d}.gset")
            assert gset.frame == i
            assert len(gset) == 150

    def test_render_images(self, chain):
        rgb = read_ppm(chain / "render.ppm")
        alpha = read_pgm(chain / "alpha.pgm")
        assert rgb.shape == (32, 32, 3)
        assert alpha.shape == (32, 32)
        assert alpha.max() > 0.0  # something actually splatted

    def test_locality_ordering(self, chain):
        lines = (chain / "locality.csv").read_text().splitlines()
        assert lines[0] == "layout,score"
        scores = dict(ln.split(",") for ln in lines[1:])
        assert set(scores) == {"morton", "ysort", "random"}
        assert float(scores["morton"]) < float(scores["random"])


class TestDeterminism:
    def test_seed_changes_output(self, tmp_path):
        for seed, name in ((7, "s7"), (8, "s8")):
            out = tmp_path / name
            assert run_cli("synth", "--kind", "cylinder", "--out", out, "--frames", 2,
                        "--amplitude", 0.5, "--n-motion", 30, "--n-appearance", 50,
                        "--seed", seed) == 0
        one = (tmp_path / "s7" / "motion_canonical.gset").read_bytes()
        two = (tmp_path / "s8" / "motion_canonical.gset").read_bytes()
        assert one != two


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert run_cli("synth", "--kind", "twolink", "--out", out, "--frames", 1,
                "--amplitude", 0.1, "--n-motion", 20, "--n-appearance", 30) == 0
    return out


def _inputs(command, scene, tmp_path):
    """Valid arguments for ``command`` on the small scene, writing under ``tmp_path``."""
    appearance = scene / "appearance_canonical.gset"
    motion = scene / "motion_canonical.gset"
    labels = scene / "appearance_labels.csv"
    return {
        "render": ("--input", appearance, "--out", tmp_path / "x.ppm"),
        "init": ("--input", appearance, "--target", scene / "frames" / "surface_0001.gset",
                 "--out", tmp_path / "i.gset", "--trace", tmp_path / "i.csv"),
        "warp": ("--appearance", appearance, "--canonical", motion,
                 "--deformed", scene / "truth" / "motion_0001.gset", "--out", tmp_path / "w.gset"),
        "transfer": ("--aligned", appearance, "--source-canonical", appearance,
                     "--driver-canonical", motion, "--driver-frames", scene / "truth",
                     "--out-dir", tmp_path / "t"),
        "synth": ("--kind", "twolink", "--out", tmp_path / "s", "--frames", 1,
                  "--amplitude", 0.1, "--n-motion", 20, "--n-appearance", 30),
        "align": ("--source", appearance, "--source-labels", labels,
                  "--driver", appearance, "--driver-labels", labels,
                  "--out", tmp_path / "a.gset", "--trace", tmp_path / "t.csv"),
    }[command]


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _regress_args(scene, mapping, config, out_dir):
    return ("regress", "--config", config, "--mapping", mapping,
            "--appearance", scene / "appearance_canonical.gset",
            "--canonical", scene / "motion_canonical.gset",
            "--deformed", scene / "truth" / "motion_0001.gset", "--out-dir", out_dir)


def _map_16(scene, tmp_path):
    """Map the small scene's appearance set at 16x16; returns the mapping path."""
    cfg = tmp_path / "map16.cfg"
    cfg.write_text("map_width=16\nmap_height=16\n")
    mapping = tmp_path / "mapping.uvm"
    assert run_cli("map", "--config", cfg, "--input", scene / "appearance_canonical.gset",
                "--out", mapping) == 0
    return mapping


class TestExitCodes:
    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = run_cli("render", "--input", tmp_path / "nope.gset", "--out", tmp_path / "x.ppm")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # exactly one diagnostic line

    def test_old_text_gset_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "old.gset"
        path.write_text("GSET 1\nrole appearance\nframe 0\ncount 1\ncolor_channels 3\n"
                        "0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 -1.0 -1.0 -1.0 0.5 0.5 0.5 0.5\n")
        rc = run_cli("render", "--input", path, "--out", tmp_path / "x.ppm")
        assert rc == 1
        _assert_one_error_line(capsys)
        assert not (tmp_path / "x.ppm").exists()

    def test_negative_label_id_is_runtime_error(self, small_scene, tmp_path, capsys):
        blob = bytearray((small_scene / "appearance_canonical.gset").read_bytes())
        blob[-8:] = (-1).to_bytes(8, "little", signed=True)  # the last kernel's label id
        path = tmp_path / "bad.gset"
        path.write_bytes(blob)
        capsys.readouterr()
        rc = run_cli("render", "--input", path, "--out", tmp_path / "x.ppm")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "negative label id" in err

    def test_empty_target_dir_is_runtime_error(self, tmp_path, capsys):
        gset = tmp_path / "c.gset"
        run_cli("synth", "--kind", "twolink", "--out", tmp_path / "s", "--frames", 1,
             "--amplitude", 0.1, "--n-motion", 20, "--n-appearance", 30)
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run_cli("track", "--canonical", tmp_path / "s" / "motion_canonical.gset",
                  "--targets", empty, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert "no files matching" in capsys.readouterr().err

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed=9\n")
        # config parsing happens before any input is opened
        rc = run_cli("map", "--config", cfg, "--input", tmp_path / "absent.gset",
                  "--out", tmp_path / "m.uvm")
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_removed_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("lr_opacity=0.01\n")
        rc = run_cli("init", "--config", cfg, "--input", tmp_path / "a.gset",
                  "--target", tmp_path / "b.gset", "--out", tmp_path / "c.gset",
                  "--trace", tmp_path / "t.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown key 'lr_opacity'" in err

    @pytest.mark.parametrize("config,expected", [
        ("map_width=32\nmap_height=32\n", "32x32"),
        ("map_width=16\n", "16x512"),
        ("", "512x512"),  # the default map size
    ], ids=["32x32", "16x512", "default"])
    def test_mapping_resolution_mismatch_is_runtime_error(self, small_scene, tmp_path, capsys,
                                                          config, expected):
        mapping = _map_16(small_scene, tmp_path)
        cfg = tmp_path / "other.cfg"
        cfg.write_text(config)
        capsys.readouterr()
        assert run_cli(*_regress_args(small_scene, mapping, cfg, tmp_path / "maps")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"mapping is for a 16x16 map, expected {expected}" in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("fault", ["truncated", "trailing", "text", "duplicate"])
    def test_bad_mapping_file_is_runtime_error(self, small_scene, tmp_path, capsys, fault):
        mapping = _map_16(small_scene, tmp_path)
        blob = mapping.read_bytes()
        mapping.write_bytes({
            "truncated": blob[:-1],
            "trailing": blob + b"\0",
            "text": "".join(f"{i} {i} 0\n" for i in range(30)).encode(),
            "duplicate": blob[:-16] + blob[24:40],  # the last kernel on the first one's pixel
        }[fault])
        capsys.readouterr()
        assert run_cli(*_regress_args(small_scene, mapping, tmp_path / "map16.cfg",
                                   tmp_path / "maps")) == 1
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("command,flag", [("align", "--source-labels"), ("map", "--config")],
                             ids=["labels", "config"])
    def test_binary_text_input_is_runtime_error(self, small_scene, tmp_path, capsys,
                                                command, flag):
        argv = {"align": _inputs("align", small_scene, tmp_path),
                "map": ("--input", small_scene / "appearance_canonical.gset",
                        "--out", tmp_path / "m.uvm")}[command]
        capsys.readouterr()
        assert run_cli(command, *argv, flag, small_scene / "motion_canonical.gset") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "motion_canonical.gset: not UTF-8 text" in err

    def test_overflowing_quaternion_is_runtime_error(self, small_scene, tmp_path, capsys):
        blob = bytearray((small_scene / "appearance_canonical.gset").read_bytes())
        n = int.from_bytes(blob[28:36], "little")
        rotations = 36 + 8 * 3 * n  # the first kernel's rotation follows the positions block
        blob[rotations:rotations + 16] = np.array([1e200, 1e200]).tobytes()
        path = tmp_path / "huge.gset"
        path.write_bytes(blob)
        capsys.readouterr()
        assert run_cli("render", "--input", path, "--out", tmp_path / "x.ppm") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "huge.gset: rotations contain a quaternion whose norm overflows" in err

    def test_overflowing_distance_is_runtime_error(self, small_scene, tmp_path, capsys):
        blob = bytearray((small_scene / "motion_canonical.gset").read_bytes())
        blob[36:44] = np.array([1e200]).tobytes()  # the first kernel's x
        path = tmp_path / "far.gset"
        path.write_bytes(blob)
        capsys.readouterr()
        assert run_cli("track", "--canonical", path, "--targets", small_scene / "frames",
                       "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "distances are not finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("render", "--truncation", "nan"),
        ("render", "--truncation", "inf"),
        ("render", "--window", "inf"),
        ("synth", "--anisotropy", "inf"),
        ("synth", "--anisotropy", "nan"),
        ("synth", "--amplitude", "nan"),
        ("align", "--window-scale", "inf"),
    ])
    def test_non_finite_number_is_runtime_error(self, small_scene, tmp_path, capsys,
                                                command, flag, value):
        capsys.readouterr()
        rc = run_cli(command, *_inputs(command, small_scene, tmp_path), flag, value)
        assert rc == 1
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("extra", [
        ("--frames", 0),
        ("--frames", -2),
        ("--anisotropy", -3),
        ("--anisotropy", 0.5),
        ("--frames", 2, "--amplitude", 5),  # a joint angle beyond the bend limit
    ], ids=["frames-0", "frames-negative", "anisotropy-negative", "anisotropy-below-1",
            "amplitude-beyond-bend"])
    def test_bad_synth_argument_writes_nothing(self, small_scene, tmp_path, capsys, extra):
        capsys.readouterr()
        rc = run_cli("synth", *_inputs("synth", small_scene, tmp_path), *extra)
        assert rc == 1
        _assert_one_error_line(capsys)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag,value", [("--n-motion", 0), ("--n-appearance", 0),
                                            ("--n-motion", -3), ("--n-motion", 1),
                                            ("--n-motion", 2)])
    def test_too_few_twolink_samples_exit_1(self, tmp_path, flag, value):
        # a subprocess with a timeout, so a count that hangs fails here instead of
        # stalling the suite
        src = str(Path(splatkin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "s"
        proc = subprocess.run(
            [sys.executable, "-m", "splatkin", "synth", "--kind", "twolink", "--out", str(out),
             "--frames", "1", "--amplitude", "0.1", "--n-motion", "20", "--n-appearance", "30",
             flag, str(value)],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [("render", "--resolution"),
                                              ("align", "--mask-resolution")])
    def test_resolution_above_cap_is_runtime_error(self, small_scene, tmp_path, capsys,
                                                   command, flag):
        capsys.readouterr()
        rc = run_cli(command, *_inputs(command, small_scene, tmp_path), flag, MAX_RESOLUTION + 1)
        assert rc == 1
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("config", ["lambda_2=-1", "lambda_2=1e300", "iterations_transfer=0"])
    def test_bad_transfer_setting_is_runtime_error(self, small_scene, tmp_path, capsys, config):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(config + "\n")
        capsys.readouterr()
        assert run_cli("transfer", *_inputs("transfer", small_scene, tmp_path),
                       "--config", cfg) == 1
        _assert_one_error_line(capsys)
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command,config", [
        ("warp", "l=1e-300"),  # the weights' l**2 underflows to zero
        ("warp", "l=1e300"),  # l**2 overflows
        ("init", "lr_position=1e300"),  # one step puts kernels beyond any finite match distance
    ], ids=["tiny-length-scale", "huge-length-scale", "huge-step"])
    def test_extreme_setting_is_runtime_error(self, small_scene, tmp_path, capsys,
                                              command, config):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(config + "\n")
        capsys.readouterr()
        assert run_cli(command, *_inputs(command, small_scene, tmp_path), "--config", cfg) == 1
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("command,required", [
        ("init", ("--input", "--target", "--out", "--trace")),
        ("track", ("--canonical", "--targets", "--out-dir")),
        ("warp", ("--appearance", "--canonical", "--deformed", "--out")),
        ("map", ("--input", "--out")),
        ("regress", ("--mapping", "--appearance", "--canonical", "--deformed", "--out-dir")),
        ("transfer", ("--aligned", "--source-canonical", "--driver-canonical",
                      "--driver-frames", "--out-dir")),
    ])
    def test_seed_only_where_read(self, tmp_path, capsys, command, required):
        # every required argument points at a missing file: without --seed the
        # command parses and fails at run time, so the usage error is --seed's
        argv = [command, *(a for flag in required for a in (flag, tmp_path / "absent"))]
        assert run_cli(*argv) == 1
        capsys.readouterr()
        assert run_cli(*argv, "--seed", 3) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command,required", [
        ("synth", ("--kind", "twolink", "--out", "s", "--amplitude", "0.1")),
        ("align", ("--source", "a", "--source-labels", "b", "--driver", "c",
                   "--driver-labels", "d", "--out", "e", "--trace", "f")),
        ("locality", ("--input", "a", "--out", "b")),
    ])
    def test_seed_where_read(self, command, required):
        assert build_parser().parse_args([command, *required, "--seed", "3"]).seed == 3

    @pytest.mark.parametrize("argv", [("map", "--input", "a", "--out", "b"),
                                      ("render", "--input", "a", "--out", "b"),
                                      ("gradcheck",)], ids=["map", "render", "gradcheck"])
    def test_threads_is_usage_error(self, capsys, argv):
        assert run_cli(*argv, "--threads", 4) == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    def test_missing_required_argument_is_usage_error(self, capsys):
        assert run_cli("init") == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("bogus") == 2
        capsys.readouterr()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestGradcheckCommand:
    def test_reports_every_term_and_passes(self, capsys):
        rc = run_cli("gradcheck", "--seed", 3, "--instances", 2)
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 7
        for line in out:
            name, err, limit, status = line.split()
            assert status == "PASS"
            assert float(err) < float(limit)

    def test_term_subset(self, capsys):
        rc = run_cli("gradcheck", "--seed", 3, "--instances", 2, "--terms", "e_arap")
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 1
        assert out[0].startswith("e_arap")

    def test_unknown_term_is_runtime_error(self, capsys):
        rc = run_cli("gradcheck", "--instances", 1, "--terms", "e_arap,e_nope")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "'e_nope'" in captured.err and "e_l2_gauss" in captured.err

    def test_zero_instances_is_runtime_error(self, capsys):
        rc = run_cli("gradcheck", "--instances", 0)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "instances must be >= 1" in captured.err
