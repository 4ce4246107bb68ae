"""Round trips and error handling for every file format."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symmvs import DepthHypotheses, DepthMap, LossWeights, PointCloud, cli, fileio
from symmvs.errors import NonFiniteValue, ParseError, UnsupportedVariant
from symmvs.fileio import (
    load_bundle,
    read_camera,
    read_image,
    read_pfm,
    read_ply,
    read_run_config,
    read_scene_config,
    write_bundle,
    write_camera,
    write_image,
    write_mask_pgm,
    write_pfm,
    write_ply,
)
from symmvs.solver import SolverConfig



class TestCameraFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        K = np.array([[55.3, 0.17, 31.49], [0, 54.9, 23.51], [0, 0, 1.0]])
        angle = 0.21
        R = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0],
                [np.sin(angle), np.cos(angle), 0],
                [0, 0, 1.0],
            ]
        )
        t = rng.uniform(-1, 1, 3)
        path = tmp_path / "cam.txt"
        write_camera(path, K, R, t, 425.0, 2.6)
        K2, R2, t2, dmin, dint = read_camera(path)
        np.testing.assert_array_equal(K2, K)
        np.testing.assert_array_equal(R2, R)
        np.testing.assert_array_equal(t2, t)
        assert dmin == 425.0 and dint == 2.6

    def test_identity_extrinsic_and_depth_line(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text(
            "extrinsic\n"
            "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n"
            "intrinsic\n1 0 0\n0 1 0\n0 0 1\n\n"
            "425 2.6\n"
        )
        K, R, t, dmin, dint = read_camera(path)
        np.testing.assert_array_equal(R, np.eye(3))
        np.testing.assert_array_equal(t, np.zeros(3))
        np.testing.assert_array_equal(K, np.eye(3))
        assert (dmin, dint) == (425.0, 2.6)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text(
            "extrinsic\n1 0 0 0\n0 1 oops 0\n0 0 1 0\n0 0 0 1\n"
            "intrinsic\n1 0 0\n0 1 0\n0 0 1\n425 2.6\n"
        )
        with pytest.raises(ParseError) as err:
            read_camera(path)
        assert ":2:" in str(err.value) or ":3:" in str(err.value)

    def test_missing_keyword(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text("1 0 0 0\n")
        with pytest.raises(ParseError):
            read_camera(path)

    @pytest.mark.parametrize("depth_line, name", [
        ("0 2.6", "depth_min"), ("-1 2.6", "depth_min"),
        ("425 0", "depth_interval"), ("425 -2.6", "depth_interval"),
    ])
    def test_non_positive_depth_range_names_file_and_line(self, tmp_path,
                                                         depth_line, name):
        path = tmp_path / "cam.txt"
        path.write_text(
            "extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n"
            "intrinsic\n1 0 0\n0 1 0\n0 0 1\n\n" + depth_line + "\n"
        )
        with pytest.raises(ParseError,
                           match="^" + re.escape(f"{path}:12: {name} must be positive")):
            read_camera(path)


class TestPfm:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.uniform(1.0, 5.0, (9, 7)).astype(np.float32).astype(np.float64)
        valid = rng.uniform(size=(9, 7)) > 0.25
        d = DepthMap(np.where(valid, vals, 0.0), valid)
        path = tmp_path / "d.pfm"
        write_pfm(path, d)
        back = read_pfm(path)
        np.testing.assert_array_equal(back.values, d.values)
        np.testing.assert_array_equal(back.valid, valid)

    def test_fixed_header_layout(self, tmp_path):
        d = DepthMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "d.pfm"
        write_pfm(path, d)
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        assert len(raw) == len(b"Pf\n2 2\n-1.0\n") + 16
        # bottom-up row order: the last image row comes first
        pix = np.frombuffer(raw[-16:], dtype="<f4").reshape(2, 2)
        np.testing.assert_array_equal(pix, [[3.0, 4.0], [1.0, 2.0]])

    def test_positive_scale_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(UnsupportedVariant):
            read_pfm(path)

    def test_color_variant_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(UnsupportedVariant):
            read_pfm(path)

    @pytest.mark.parametrize("size", [b"-1 -1", b"-2 3", b"3 -2"])
    def test_negative_size_names_file_and_line(self, tmp_path, size):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n" + size + b"\n-1.0\n" + b"\x00" * 24)
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: ")):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"-inf", b"inf", b"-1.0x"])
    def test_scale_that_is_not_a_finite_number_names_file_and_line(self, tmp_path,
                                                                   scale):
        # a NaN scale failed `scale >= 0` and was read as little-endian
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + b"\x00" * 16)
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:3: bad scale")):
            read_pfm(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_pixel_names_file(self, tmp_path, bad):
        pixels = np.array([[1.0, 2.0], [bad, 0.0]], dtype="<f4")
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + pixels.tobytes())
        with pytest.raises(NonFiniteValue,
                           match="^" + re.escape(f"{path}: non-finite")):
            read_pfm(path)


class TestImages:
    def test_pgm_round_trip_at_8bit(self, tmp_path):
        rng = np.random.default_rng(2)
        img = np.rint(rng.uniform(size=(6, 8, 1)) * 255) / 255.0
        path = tmp_path / "img.pgm"
        write_image(path, img)
        back = read_image(path)
        np.testing.assert_array_equal(back, img)

    def test_ppm_round_trip_at_8bit(self, tmp_path):
        rng = np.random.default_rng(3)
        img = np.rint(rng.uniform(size=(5, 4, 3)) * 255) / 255.0
        path = tmp_path / "img.ppm"
        write_image(path, img)
        back = read_image(path)
        np.testing.assert_array_equal(back, img)

    def test_mask_pgm(self, tmp_path):
        mask = np.zeros((4, 6), bool)
        mask[1:3, 2:5] = True
        path = tmp_path / "mask.pgm"
        write_mask_pgm(path, mask)
        back = read_image(path)
        np.testing.assert_array_equal(back[..., 0] > 0.5, mask)

    @pytest.mark.parametrize("name", ["img.png", "img.PGM", "img"])
    def test_write_rejects_other_suffixes(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(UnsupportedVariant, match="^" + re.escape(f"{path}: ")):
            write_image(path, np.zeros((5, 7, 1)))
        assert not path.exists()

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ParseError):
            read_image(path)

    @pytest.mark.parametrize("size", [b"ab 2", b"-2 2"])
    def test_bad_header_size_names_file(self, tmp_path, size):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n\0\0\0\0")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: ")):
            read_image(path)


class TestPly:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-2, 2, (57, 3)).astype(np.float32).astype(np.float64)
        colors = np.rint(rng.uniform(size=(57, 3)) * 255) / 255.0
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts, colors), binary=True)
        back = read_ply(path)
        np.testing.assert_array_equal(back.points, pts)
        np.testing.assert_array_equal(back.colors, colors)

    def test_ascii_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, (23, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts), binary=False)
        back = read_ply(path)
        np.testing.assert_array_equal(back.points, pts)
        assert back.colors is None

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((0, 3))), binary=True)
        assert len(read_ply(path)) == 0

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(b"obj\n")
        with pytest.raises(ParseError):
            read_ply(path)

    @pytest.mark.parametrize("header_line, line", [
        ("format", 2),
        ("element vertex abc", 3),
        ("element", 3),
        ("property float", 4),
    ])
    def test_malformed_header_line_names_file_and_line(self, tmp_path,
                                                       header_line, line):
        lines = ["ply", "format ascii 1.0", "element vertex 1",
                 "property float x", "property float y", "property float z",
                 "end_header", "0 0 0"]
        lines[line - 1] = header_line
        path = tmp_path / "c.ply"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match="^" + re.escape(f"{path}:{line}: malformed header")):
            read_ply(path)

    @pytest.mark.parametrize("binary", [True, False])
    def test_negative_vertex_count_names_file(self, tmp_path, binary):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((2, 3))), binary=binary)
        path.write_bytes(path.read_bytes().replace(b"vertex 2", b"vertex -2"))
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: negative")):
            read_ply(path)

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("extra, after", [
        (b"element face 0\nproperty list uchar int vertex_indices\n", True),
        (b"element camera 0\nproperty float fx\n", False),
    ])
    def test_empty_non_vertex_elements_are_skipped(self, tmp_path, binary,
                                                   extra, after):
        pts = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, 3.0]])
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(pts), binary=binary)
        raw = path.read_bytes()
        at = raw.index(b"end_header" if after else b"element vertex")
        path.write_bytes(raw[:at] + extra + raw[at:])
        np.testing.assert_array_equal(read_ply(path).points, pts)

    def test_property_before_any_element_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((2, 3))), binary=False)
        raw = path.read_bytes()
        at = raw.index(b"element vertex")
        path.write_bytes(raw[:at] + b"property float w\n" + raw[at:])
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{path}:3: property before any element")):
            read_ply(path)

    @pytest.mark.parametrize("binary", [True, False])
    def test_list_property_on_the_vertex_element_is_unsupported(self, tmp_path,
                                                                binary):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((2, 3))), binary=binary)
        raw = path.read_bytes()
        at = raw.index(b"end_header")
        path.write_bytes(raw[:at] + b"property list uchar int vertex_indices\n"
                         + raw[at:])
        with pytest.raises(UnsupportedVariant, match="'list' unsupported"):
            read_ply(path)

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_names_file(self, tmp_path, binary, bad):
        # `PointCloud` raised a ValueError that named no file
        path = tmp_path / "c.ply"
        pts = np.array([[0.5, -1.0, 2.0], [1.5, bad, 3.0]])
        colors = np.ones((2, 3))
        write_ply(path, PointCloud(np.zeros((2, 3)), colors), binary=binary)
        raw = path.read_bytes()
        at = raw.index(b"end_header\n") + len(b"end_header\n")
        if binary:
            rec = np.frombuffer(raw[at:], dtype=[("p", "<f4", 3), ("c", "u1", 3)]).copy()
            rec["p"] = pts
            body = rec.tobytes()
        else:
            body = "".join(f"{x} {y} {z} 255 255 255\n" for x, y, z in pts).encode()
        path.write_bytes(raw[:at] + body)
        with pytest.raises(NonFiniteValue, match="^" + re.escape(
                f"{path}: non-finite vertex values")):
            read_ply(path)

    def test_non_finite_ascii_color_names_file(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((2, 3)), np.ones((2, 3))), binary=False)
        path.write_bytes(path.read_bytes().replace(b"255\n", b"nan\n", 1))
        with pytest.raises(NonFiniteValue, match="^" + re.escape(
                f"{path}: non-finite vertex values")):
            read_ply(path)

    def test_non_numeric_ascii_vertex_names_file(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(np.zeros((2, 3))), binary=False)
        path.write_bytes(path.read_bytes().replace(b"0 0 0\n", b"0 abc 0\n", 1))
        pattern = "^" + re.escape(f"{path}: bad vertex data") + ".*'abc'"
        with pytest.raises(ParseError, match=pattern):
            read_ply(path)


class TestSceneConfig:
    def test_parse_and_render(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(
            "# a small scene\n"
            "size 32 24\n"
            "channels 1\n"
            "seed 9\n"
            "depth_range 1.5 0.05\n"
            "camera fx=30 cx=15.5 cy=11.5 center=0,0,0\n"
            "camera fx=30 cx=15.5 cy=11.5 center=0.3,0,0\n"
            "plane normal=0,0,1 offset=2.4 texture=0 scale=1.5\n"
            "plane normal=0,0,1 offset=1.9 texture=1 scale=1.5 bounds=0.2,9,-9,9\n"
        )
        spec, d_min, d_int = read_scene_config(cfg)
        assert (d_min, d_int) == (1.5, 0.05)
        assert len(spec.cameras) == 2
        assert len(spec.primitives) == 2
        assert spec.primitives[1].bounds == (0.2, 9.0, -9.0, 9.0)
        from symmvs import render_scene
        views, depths, _ = render_scene(spec)
        assert views[0].image.shape == (24, 32, 1)

    def test_rotation_and_translation_camera_form(self, tmp_path):
        # ``rot=``/``t=`` give the world-to-camera pose itself; with the
        # identity rotation, ``t`` is minus the camera centre
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(
            "size 32 24\n"
            "depth_range 1.5 0.05\n"
            "camera fx=30 cx=15.5 cy=11.5 center=0.3,-0.1,0.2\n"
            "camera fx=30 fy=31 cx=15.5 cy=11.5 skew=0.5 "
            "rot=0,-1,0,1,0,0,0,0,1 t=0.3,-0.1,0.2\n"
            "plane normal=0,0,1 offset=2.4\n"
        )
        spec, _, _ = read_scene_config(cfg)
        centred, posed = spec.cameras
        np.testing.assert_array_equal(centred.rotation, np.eye(3))
        np.testing.assert_array_equal(centred.translation, [-0.3, 0.1, -0.2])
        np.testing.assert_array_equal(posed.rotation,
                                      [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        np.testing.assert_array_equal(posed.translation, [0.3, -0.1, 0.2])
        np.testing.assert_array_equal(posed.intrinsics,
                                      [[30, 0.5, 15.5], [0, 31, 11.5], [0, 0, 1]])

    def test_unknown_entry_rejected(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("size 8 8\ndepth_range 1 0.1\nsphere radius=1\n")
        with pytest.raises(ParseError):
            read_scene_config(cfg)

    @pytest.mark.parametrize("depth_range, name", [
        ("1.8 0", "depth_interval"), ("1.8 -0.05", "depth_interval"),
        ("0 0.05", "depth_min"), ("-1 0.05", "depth_min"),
    ])
    def test_non_positive_depth_range_names_file_and_line(self, tmp_path,
                                                         depth_range, name):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("size 8 8\ndepth_range " + depth_range
                       + "\ncamera fx=1 cx=0 cy=0 center=0,0,0\n")
        with pytest.raises(ParseError,
                           match="^" + re.escape(f"{cfg}:2: {name} must be positive")):
            read_scene_config(cfg)

    def test_missing_size_rejected(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("depth_range 1 0.1\ncamera fx=1 cx=0 cy=0 center=0,0,0\n"
                       "plane normal=0,0,1 offset=2\n")
        with pytest.raises(ParseError):
            read_scene_config(cfg)


class TestRunConfig:
    def test_parses_weights_and_solver_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "lambda1 = 0.4\n"
            "tau_occ = 1.0\n"
            "max_outer_iters = 7\n"
            "convergence_tol = 1e-5\n"
            "hyp_count = 32\n"
        )
        weights, solver_kw = read_run_config(cfg)
        assert weights.lambda1 == 0.4
        assert weights.lambda2 == LossWeights().lambda2
        assert weights.tau_occ == 1.0
        assert solver_kw["max_outer_iters"] == 7
        assert solver_kw["convergence_tol"] == 1e-5

    @pytest.mark.parametrize("line, message", [
        ("lambda1 = -1", "loss weight lambda1 must be non-negative"),
        ("omega_s = nan", "loss weight omega_s must be non-negative"),
        ("tau_occ = 0", "loss weight tau_occ must be positive"),
        ("tau_occ = nan", "loss weight tau_occ must be positive"),
    ])
    def test_rejected_weight_names_file_and_line(self, tmp_path, line, message):
        # the error of `LossWeights` used to surface without the file; a
        # zero tau_occ loaded, and only the first mask pass refused it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tau_occ = 1.0\nmax_outer_iters = 7\n{line}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{cfg}:3: {message}")
                           + "$"):
            read_run_config(cfg)

    @pytest.mark.parametrize("line, message", [
        ("max_outer_iters = -1", "max_outer_iters must be an integer >= 0, got -1"),
        ("inner_steps_per_mask_update = 0",
         "inner_steps_per_mask_update must be an integer >= 1, got 0"),
        ("convergence_tol = 0", "convergence_tol must be positive"),
        ("convergence_tol = nan", "convergence_tol must be positive"),
        ("hyp_count = 1", "hyp_count must be an integer >= 2, got 1"),
    ])
    def test_rejected_solver_setting_names_file_and_line(self, tmp_path, line,
                                                         message):
        # the checks of `SolverConfig` and `DepthHypotheses` used to run only
        # when the command built them, and their errors named no file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tau_occ = 1.0\nmax_outer_iters = 7\n{line}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{cfg}:3: {message}")
                           + "$"):
            read_run_config(cfg)

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\n   \nlambda1 = 0.4  # the L1 weight\n"
                       "   # indented comment\nhyp_count = 32\n")
        weights, solver_kw = read_run_config(cfg)
        assert weights == LossWeights(lambda1=0.4)
        assert solver_kw == {"hyp_count": 32}

    @pytest.mark.parametrize("line, message", [
        ("lambda1 0.4", "expected key = value"),
        ("lambda1 = heavy", "bad number 'heavy'"),
        ("max_outer_iters = 2.5", "bad value '2.5'"),
        ("convergence_tol = warm", "bad value 'warm'"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tau_occ = 1.0\n\n{line}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{cfg}:3: {message}")
                           + "$"):
            read_run_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lamda1 = 0.4\n")
        with pytest.raises(ParseError):
            read_run_config(cfg)

    def test_documented_keys_are_the_accepted_keys(self, tmp_path):
        # the run.cfg block of docs/formats.md lists every key once
        doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        section = doc.split("## Run configuration", 1)[1]
        block = section.split("```", 2)[1]
        documented = re.findall(r"(\w+) =", block)
        assert len(documented) == len(set(documented))
        accepted = set(LossWeights.__dataclass_fields__) | set(fileio._SOLVER_KEYS)
        assert set(documented) == accepted
        # and read_run_config takes every one of them (2 is valid for each)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = 2\n" for key in sorted(accepted)))
        assert set(read_run_config(cfg)[1]) == set(fileio._SOLVER_KEYS)

    def test_documented_values_are_the_defaults(self):
        doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        block = doc.split("## Run configuration", 1)[1].split("```", 2)[1]
        documented = {k: float(v) for k, v in re.findall(r"(\w+) = (\S+)", block)}
        defaults = {**vars(LossWeights()), **vars(SolverConfig(DepthHypotheses(1, 2, 2)))}
        # hyp_count stands for the hypotheses; its default is the CLI's
        defaults["hyp_count"] = cli.HYP_COUNT
        for key, value in documented.items():
            assert value == defaults[key], key

    def test_solver_keys_are_the_solver_config_fields(self):
        # hyp_count stands for the hypotheses; the weights have their own
        # keys; the temperature is accepted and never read, and has no key
        fields = set(SolverConfig.__dataclass_fields__) - {"hypotheses", "weights",
                                                           "temperature"}
        assert set(fileio._SOLVER_KEYS) - {"hyp_count"} == fields

    @pytest.mark.parametrize("value", ["3e-6", "-1e-6", "nan", "warm"])
    def test_temperature_key_is_rejected_naming_file_and_line(self, tmp_path,
                                                              value):
        # the sweep reads out each pixel's cost minimum: no softmax
        # temperature is left to set, valid, out of range or malformed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tau_occ = 1.0\ntemperature = {value}\n")
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{cfg}:2: unknown key 'temperature'") + "$"):
            read_run_config(cfg)

    @pytest.mark.parametrize("key", ["feature_mode", "smooth_radius_h"])
    def test_removed_sweep_keys_are_rejected(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"convergence_tol = 1e-5\n{key} = 1\n")
        with pytest.raises(ParseError, match=f":2: unknown key '{key}'$"):
            read_run_config(cfg)

    @pytest.mark.parametrize("key, value", [("step_size", "auto"),
                                            ("backtrack_factor", "0.5"),
                                            ("max_halvings", "8")])
    def test_removed_line_search_keys_are_rejected(self, tmp_path, key, value):
        # the line search's first step and halvings are solver constants
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"convergence_tol = 1e-5\n{key} = {value}\n")
        with pytest.raises(ParseError, match=f":2: unknown key '{key}'$"):
            read_run_config(cfg)


class TestBundle:
    def test_round_trip(self, tmp_path, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        out = tmp_path / "bundle"
        write_bundle(out, views, 1.8, 0.05, gt)
        loaded_views, d_min, d_int, loaded_gt = load_bundle(out)
        assert (d_min, d_int) == (1.8, 0.05)
        assert len(loaded_views) == 3
        assert loaded_gt is not None
        np.testing.assert_array_equal(loaded_views[0].intrinsics,
                                      views[0].intrinsics)
        # images went through 8-bit quantization
        assert np.abs(loaded_views[0].image - views[0].image).max() <= 0.5 / 255
        np.testing.assert_allclose(loaded_gt[1].values, gt[1].values, atol=1e-6)

    def test_missing_image_rejected(self, tmp_path, plane_scene):
        views = plane_scene["views"]
        out = tmp_path / "bundle"
        write_bundle(out, views, 1.8, 0.05)
        (out / "view_0001.pgm").unlink()
        with pytest.raises(ParseError):
            load_bundle(out)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("fault, message", [
        ("skewed_rotation", "rotation must be orthonormal"),
        ("negative_focal", "intrinsics need positive focals"),
    ])
    def test_rejected_camera_names_its_file(self, tmp_path, plane_scene,
                                            fault, message):
        views = plane_scene["views"]
        out = tmp_path / "bundle"
        write_bundle(out, views, 1.8, 0.05)
        cam = views[1]
        K, R = cam.intrinsics.copy(), cam.rotation.copy()
        if fault == "skewed_rotation":
            R[0, 1] = 0.2
        else:
            K[0, 0] = -K[0, 0]
        cam_path = out / "view_0001_cam.txt"
        write_camera(cam_path, K, R, cam.translation, 1.8, 0.05)
        with pytest.raises(ValueError) as info:
            load_bundle(out)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{cam_path}: {message}")

    def test_differing_depth_range_names_file_and_ranges(self, tmp_path,
                                                         plane_scene):
        # one range serves every view; the first camera file's used to win
        views = plane_scene["views"]
        out = tmp_path / "bundle"
        write_bundle(out, views, 1.8, 0.05)
        cam = views[2]
        cam_path = out / "view_0002_cam.txt"
        write_camera(cam_path, cam.intrinsics, cam.rotation, cam.translation,
                     1.8, 0.04)
        with pytest.raises(ParseError, match=(
                rf"^{re.escape(str(cam_path))}: depth range 1\.8 0\.04 differs "
                r"from view_0000_cam\.txt's 1\.8 0\.05$")):
            load_bundle(out)

    def test_mismatched_image_size_names_file_and_shapes(self, tmp_path,
                                                         plane_scene):
        views = plane_scene["views"]
        out = tmp_path / "bundle"
        write_bundle(out, views, 1.8, 0.05)
        write_image(out / "view_0002.pgm", views[2].image[:40, :60])
        with pytest.raises(ParseError) as info:
            load_bundle(out)
        msg = str(info.value)
        assert msg.startswith(str(out / "view_0002.pgm"))
        assert "(40, 60, 1)" in msg and "(48, 64, 1)" in msg


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
POSITIVE32 = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                       width=32)


def round_trip(write, read, name, *args, **kwargs):
    """``read(write(...))`` through a file in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path, *args, **kwargs)
        return read(path)


class TestRoundTripProperties:
    """``read(write(x))`` gives back ``x`` at the precision each format stores."""

    @given(arrays(np.float64, (3, 3), elements=FINITE),
           arrays(np.float64, (3, 3), elements=FINITE),
           arrays(np.float64, 3, elements=FINITE), POSITIVE, POSITIVE)
    @settings(max_examples=50, deadline=None)
    def test_camera_file_is_exact(self, K, R, t, d_min, d_interval):
        K2, R2, t2, d_min2, d_interval2 = round_trip(
            write_camera, read_camera, "cam.txt", K, R, t, d_min, d_interval)
        np.testing.assert_array_equal(K2, K)
        np.testing.assert_array_equal(R2, R)
        np.testing.assert_array_equal(t2, t)
        assert (d_min2, d_interval2) == (d_min, d_interval)

    @given(st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
        lambda shape: st.tuples(arrays(np.float32, shape, elements=POSITIVE32),
                                arrays(np.bool_, shape))))
    @settings(max_examples=50, deadline=None)
    def test_pfm_keeps_float32_values_and_validity(self, values_valid):
        values, valid = values_valid
        back = round_trip(write_pfm, read_pfm, "d.pfm",
                          DepthMap(values.astype(np.float64), valid))
        np.testing.assert_array_equal(
            back.values, np.where(valid, values, 0).astype(np.float64))
        np.testing.assert_array_equal(back.valid, valid)

    @given(st.tuples(st.integers(1, 8), st.integers(1, 8), st.sampled_from([1, 3]))
           .flatmap(lambda shape: arrays(np.uint8, shape)))
    @settings(max_examples=50, deadline=None)
    def test_pgm_ppm_keep_8_bit_values(self, levels):
        image = levels / 255.0
        name = "img.pgm" if levels.shape[2] == 1 else "img.ppm"
        np.testing.assert_array_equal(
            round_trip(write_image, read_image, name, image), image)

    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        arrays(np.float32, (n, 3), elements=FINITE32),
        st.none() | arrays(np.uint8, (n, 3)))), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_ply_keeps_float32_points_and_8_bit_colors(self, cloud, binary):
        points, levels = cloud
        colors = None if levels is None else levels / 255.0
        back = round_trip(write_ply, read_ply, "c.ply",
                          PointCloud(points.astype(np.float64), colors), binary=binary)
        np.testing.assert_array_equal(back.points, points.astype(np.float64))
        if colors is None:
            assert back.colors is None
        else:
            np.testing.assert_array_equal(back.colors, colors)
