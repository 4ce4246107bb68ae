"""The command-line surface: subcommands, exit codes, determinism."""

import shutil

import numpy as np
import pytest

from symmvs import solver
from symmvs.cli import main
from symmvs.fileio import read_pfm, read_ply, write_pfm, write_ply
from symmvs.fusion import PointCloud
from symmvs.geometry import DepthMap
from symmvs.solver import STOP_REASONS


SCENE_CFG = """\
size 48 36
channels 1
seed 21
depth_range 2.0 0.04
camera fx=42 cx=23.5 cy=17.5 center=-0.4,0,0
camera fx=42 cx=23.5 cy=17.5 center=0,0,0
camera fx=42 cx=23.5 cy=17.5 center=0.4,0,0
plane normal=0,0,1 offset=3.0 texture=0 scale=1.5
"""

RUN_CFG = """\
tau_occ = 1.0
max_outer_iters = 4
inner_steps_per_mask_update = 3
temperature = 3e-6
hyp_count = 32
convergence_tol = 1e-6
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.cfg"
    scene.write_text(SCENE_CFG)
    run_cfg = root / "run.cfg"
    run_cfg.write_text(RUN_CFG)
    bundle = root / "bundle"
    assert main(["synth", str(scene), str(bundle)]) == 0
    return {"root": root, "scene": scene, "run_cfg": run_cfg, "bundle": bundle}


def test_synth_writes_complete_bundle(workspace):
    bundle = workspace["bundle"]
    for i in range(3):
        assert (bundle / f"view_{i:04d}.pgm").exists()
        assert (bundle / f"view_{i:04d}_cam.txt").exists()
        assert (bundle / f"view_{i:04d}_gt.pfm").exists()


def test_sweep_writes_depth_maps(workspace):
    out = workspace["root"] / "sweep"
    code = main(["sweep", str(workspace["bundle"]), str(out),
                 "--hyp-count", "32", "--temperature", "3e-6"])
    assert code == 0
    d = read_pfm(out / "depth_0001.pfm")
    center = d.values[10:-10, 14:-14]
    assert np.median(np.abs(center - 3.0)) < 0.1


def test_optimize_then_eval_depth(workspace, capsys):
    out = workspace["root"] / "opt"
    code = main(["optimize", str(workspace["bundle"]), str(out),
                 "--config", str(workspace["run_cfg"])])
    assert code == 0
    assert (out / "loss_history.csv").exists()
    assert (out / "loss_report.txt").exists()
    header = (out / "loss_history.csv").read_text().splitlines()[0]
    assert header == "iter,total,Lu,Ls,Lm,Ld,Lb"
    assert (out / "mask_0_1.pgm").exists()
    reason = capsys.readouterr().err.splitlines()[-1]
    assert reason.startswith("refinement stopped: ")
    assert reason.split(": ")[1] in STOP_REASONS
    report = (out / "loss_report.txt").read_text().splitlines()
    assert report[-1] == "stop_reason = " + reason.split(": ")[1]

    code = main(["eval-depth", str(out), str(workspace["bundle"])])
    assert code == 0
    printed = capsys.readouterr().out
    abs_rel = [float(l.split("=")[1]) for l in printed.splitlines()
               if l.strip().startswith("abs_rel")]
    assert abs_rel and max(abs_rel) < 0.02


def test_optimize_runs_are_byte_identical(workspace):
    out_a = workspace["root"] / "det_a"
    out_b = workspace["root"] / "det_b"
    for out in (out_a, out_b):
        assert main(["optimize", str(workspace["bundle"]), str(out),
                     "--config", str(workspace["run_cfg"])]) == 0
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_fuse_and_eval_cloud(workspace, capsys):
    out = workspace["root"] / "opt"
    ply = workspace["root"] / "fused.ply"
    code = main(["fuse", str(out), str(workspace["bundle"]), str(ply),
                 "--min-views", "2"])
    assert code == 0
    cloud = read_ply(ply)
    assert len(cloud) > 1000
    # fused points sit near the z = 3 plane
    assert np.median(np.abs(cloud.points[:, 2] - 3.0)) < 0.05

    code = main(["eval-cloud", str(ply), str(ply), "--threshold", "0.04"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "f_score = 100" in printed


def test_fuse_quorum_beyond_the_other_views_exits_1(workspace, tmp_path, capsys):
    # three views: a pixel has two other views to confirm it
    ply = tmp_path / "none.ply"
    code = main(["fuse", str(workspace["root"] / "opt"), str(workspace["bundle"]),
                 str(ply), "--min-views", "3"])
    assert code == 1
    assert "min_views = 3 exceeds the 2 other views" in capsys.readouterr().err
    assert not ply.exists()


def test_eval_cloud_self_comparison(workspace, tmp_path, capsys):
    rng = np.random.default_rng(0)
    ply = tmp_path / "a.ply"
    write_ply(ply, PointCloud(rng.uniform(size=(64, 3))))
    assert main(["eval-cloud", str(ply), str(ply)]) == 0
    out = capsys.readouterr().out
    assert "f_score = 100" in out
    assert "acc_mean = 0" in out


def test_missing_camera_file_exits_1(workspace, tmp_path, capsys):
    bundle = tmp_path / "broken"
    bundle.mkdir()
    code = main(["sweep", str(bundle), str(tmp_path / "out")])
    assert code == 1
    assert str(bundle) in capsys.readouterr().err


def test_rejected_camera_exits_1_naming_its_file(workspace, tmp_path, capsys):
    bundle = tmp_path / "bad_camera"
    shutil.copytree(workspace["bundle"], bundle)
    cam_path = bundle / "view_0001_cam.txt"
    lines = cam_path.read_text().splitlines()
    row = lines[1].split()  # first row of the extrinsic matrix
    row[1] = "0.5"
    lines[1] = " ".join(row)
    cam_path.write_text("\n".join(lines) + "\n")
    code = main(["optimize", str(bundle), str(tmp_path / "out")])
    assert code == 1
    assert f"{cam_path}: rotation must be orthonormal" in capsys.readouterr().err


def test_malformed_ply_exits_1_naming_its_file(tmp_path, capsys):
    ply = tmp_path / "bad.ply"
    ply.write_text("ply\nformat\nend_header\n")
    assert main(["eval-cloud", str(ply), str(ply)]) == 1
    err = capsys.readouterr().err
    assert f"{ply}:2: malformed header line" in err
    assert "Traceback" not in err


def test_fuse_missing_depth_file_exits_1(workspace, tmp_path, capsys):
    empty = tmp_path / "no_depths"
    empty.mkdir()
    code = main(["fuse", str(empty), str(workspace["bundle"]),
                 str(tmp_path / "out.ply")])
    assert code == 1
    assert "depth_0000.pfm" in capsys.readouterr().err


def test_fuse_depth_maps_of_other_sizes_exit_1(workspace, tmp_path, capsys):
    for i, rows in enumerate((36, 36, 30)):
        write_pfm(tmp_path / f"depth_{i:04d}.pfm",
                  DepthMap(np.full((rows, 48), 3.0), np.ones((rows, 48), bool)))
    code = main(["fuse", str(tmp_path), str(workspace["bundle"]),
                 str(tmp_path / "out.ply")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: view 2 depth map is (30, 48)" in err
    assert "Traceback" not in err


def test_fuse_depth_maps_off_the_image_grid_exit_1(workspace, tmp_path, capsys):
    # maps of one size, half the 48x36 images' in each direction
    for i in range(3):
        write_pfm(tmp_path / f"depth_{i:04d}.pfm",
                  DepthMap(np.full((18, 24), 3.0), np.ones((18, 24), bool)))
    out = tmp_path / "out.ply"
    code = main(["fuse", str(tmp_path), str(workspace["bundle"]), str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: view 0 depth map is (18, 24), the views' grid is (36, 48)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_scene_file_exits_1(tmp_path, capsys):
    code = main(["synth", str(tmp_path / "nope.cfg"), str(tmp_path / "out")])
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_diverged_run_exits_2(workspace, tmp_path, monkeypatch):
    # a first step of 1e6 depth units at the bundle's spacing of 0.04,
    # never halved
    monkeypatch.setattr(solver, "INITIAL_STEP", 1e6 / 0.04)
    monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(RUN_CFG)
    code = main(["optimize", str(workspace["bundle"]), str(tmp_path / "out"),
                 "--config", str(cfg)])
    assert code == 2


def test_coincident_cameras_exit_1_naming_the_view(tmp_path, capsys):
    scene, run_cfg = tmp_path / "twin.cfg", tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG)
    # two cameras at one centre, no third
    scene.write_text(SCENE_CFG.replace("center=-0.4,0,0", "center=0,0,0")
                     .replace("camera fx=42 cx=23.5 cy=17.5 center=0.4,0,0\n", ""))
    assert main(["synth", str(scene), str(tmp_path / "bundle")]) == 0
    capsys.readouterr()
    code = main(["optimize", str(tmp_path / "bundle"), str(tmp_path / "out"),
                 "--config", str(run_cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("error: view 0: no other camera moves any of its pixels by 0.5 px"
            in err)
    assert "the largest displacement is 0 px" in err
    assert "Traceback" not in err


def test_grid_one_pixel_tall_exits_1_naming_the_view(tmp_path, capsys):
    # a 16x1 bundle used to reach the image gradient's scatter, which
    # printed numpy's "'list' argument must have no negative elements"
    scene, run_cfg = tmp_path / "row.cfg", tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG)
    scene.write_text("size 16 1\nchannels 1\nseed 7\ndepth_range 1.8 0.1\n"
                     "camera fx=20 cx=7.5 cy=0 center=-0.2,0,0\n"
                     "camera fx=20 cx=7.5 cy=0 center=0.2,0,0\n"
                     "plane normal=0,0,1 offset=3.0 texture=0 scale=1.5\n")
    assert main(["synth", str(scene), str(tmp_path / "bundle")]) == 0
    capsys.readouterr()
    code = main(["optimize", str(tmp_path / "bundle"), str(tmp_path / "out"),
                 "--config", str(run_cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("error: view 0 image is (1, 16, 1); initialization needs at least "
            "2 rows and 2 columns") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("lambda1 = -1", "loss weight lambda1 must be non-negative"),
    ("tau_occ = 0", "loss weight tau_occ must be positive"),
])
def test_rejected_run_config_weight_exits_1_naming_its_line(workspace, tmp_path,
                                                            capsys, monkeypatch,
                                                            line, message):
    # a zero tau_occ used to load, and the run failed only at its first
    # mask pass, after the whole sweep
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG + line + "\n")
    monkeypatch.setattr(solver, "init_depths",
                        lambda *args: pytest.fail("the bundle was swept"))
    code = main(["optimize", str(workspace["bundle"]), str(tmp_path / "out"),
                 "--config", str(run_cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {run_cfg}:7: {message}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_rejected_run_config_solver_setting_exits_1_naming_its_line(
        workspace, tmp_path, capsys, monkeypatch):
    # a negative outer-iteration cap used to load, and the error of
    # `SolverConfig` named no file or line
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG + "max_outer_iters = -1\n")
    monkeypatch.setattr(solver, "init_depths",
                        lambda *args: pytest.fail("the bundle was swept"))
    code = main(["optimize", str(workspace["bundle"]), str(tmp_path / "out"),
                 "--config", str(run_cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert (f"error: {run_cfg}:7: max_outer_iters must be an integer >= 0, "
            "got -1\n") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["1", "0", "-3"])
def test_sweep_hypothesis_count_below_two_exits_1_naming_the_flag(
        workspace, tmp_path, capsys, monkeypatch, count):
    # a count of 1 used to build the hypotheses first, whose error named
    # neither the flag nor the count
    monkeypatch.setattr(solver, "init_depths",
                        lambda *args: pytest.fail("the bundle was swept"))
    code = main(["sweep", str(workspace["bundle"]), str(tmp_path / "out"),
                 "--hyp-count", count])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --hyp-count must be an integer >= 2, got {count}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("temperature", ["0", "nan"])
def test_sweep_temperature_not_positive_exits_1_naming_the_flag(
        workspace, tmp_path, capsys, monkeypatch, temperature):
    # it used to be caught only after the first band's volume was built
    monkeypatch.setattr(solver, "init_depths",
                        lambda *args: pytest.fail("the bundle was swept"))
    code = main(["sweep", str(workspace["bundle"]), str(tmp_path / "out"),
                 "--temperature", temperature])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: --temperature must be positive\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_rejects_a_zero_depth_interval(tmp_path, capsys):
    # a range of 1.8 to 1.8 would be written into every camera file
    scene = tmp_path / "flat.cfg"
    scene.write_text(SCENE_CFG.replace("depth_range 2.0 0.04", "depth_range 1.8 0"))
    assert main(["synth", str(scene), str(tmp_path / "bundle")]) == 1
    err = capsys.readouterr().err
    assert f"error: {scene}:4: depth_interval must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "bundle").exists()


def test_sweep_range_that_misses_the_scene_exits_1(tmp_path, capsys):
    # hypotheses at 0.01-0.0131 in front of a plane at 3: every warp leaves
    # the source image, so no pixel of view 0 gets a depth
    scene = tmp_path / "near.cfg"
    scene.write_text(SCENE_CFG.replace("depth_range 2.0 0.04",
                                       "depth_range 0.01 0.0001"))
    assert main(["synth", str(scene), str(tmp_path / "bundle")]) == 0
    capsys.readouterr()
    code = main(["sweep", str(tmp_path / "bundle"), str(tmp_path / "out"),
                 "--hyp-count", "32", "--temperature", "3e-6"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: view 0: no pixel sees a second view at any depth" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
