"""The synthetic renderer: analytic depth, visibility, and texture limits."""

import numpy as np
import pytest

from symmvs import CameraView, PlanePrimitive, SceneSpec, render_scene
from symmvs.geometry import backproject_pixels
from symmvs.scenegen import _camera_rays_world, plane_axes, texture_value

from _oracles import camera_rays_world_int_grid
from conftest import make_camera, same_bytes


class TestSinglePlane:
    def test_fronto_parallel_depth_is_constant(self):
        spec = SceneSpec(
            [PlanePrimitive([0, 0, 1], 2.75, 0, 1.0)],
            [make_camera(0.0)], 64, 48, 1, 11,
        )
        views, depths, _ = render_scene(spec)
        assert depths[0].valid.all()
        np.testing.assert_array_equal(depths[0].values, 2.75)
        assert views[0].image.shape == (48, 64, 1)
        assert views[0].image.min() >= 0.0 and views[0].image.max() <= 1.0

    def test_integer_disparity_shift_reproduces_pixels(self):
        # baseline chosen so the plane's disparity f*b/d is exactly 6 px:
        # pixel x of the shifted camera sees the same world point as pixel
        # x+6 of the reference (up to one ulp in the projection chain)
        f, d, k = 55.0, 3.0, 6
        b = k * d / f
        spec = SceneSpec(
            [PlanePrimitive([0, 0, 1], d, 0, 1.4)],
            [make_camera(0.0, f=f), make_camera(b, f=f)], 64, 48, 1, 13,
        )
        views, _, _ = render_scene(spec)
        np.testing.assert_allclose(
            views[1].image[:, : 64 - k], views[0].image[:, k:], atol=1e-12
        )

    def test_depth_satisfies_plane_equation(self):
        spec = SceneSpec(
            [PlanePrimitive([0.2, -0.1, 1.0], 3.1, 0, 1.0)],
            [make_camera(0.1)], 48, 36, 1, 17,
        )
        _, depths, _ = render_scene(spec)
        cam = spec.cameras[0]
        gx, gy = np.meshgrid(np.arange(48, dtype=float), np.arange(36, dtype=float))
        pts = backproject_pixels(cam, gx, gy, depths[0].values)
        prim = spec.primitives[0]
        residual = pts @ prim.normal - prim.offset
        assert np.abs(residual[depths[0].valid]).max() < 1e-9


class TestReproducibility:
    def test_same_seed_bit_identical(self, plane_scene):
        spec = plane_scene["spec"]
        views_a, depths_a, _ = render_scene(spec)
        views_b, depths_b, _ = render_scene(spec)
        for a, b in zip(views_a, views_b):
            np.testing.assert_array_equal(a.image, b.image)
        for a, b in zip(depths_a, depths_b):
            np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_changes_texture(self, plane_scene):
        spec = plane_scene["spec"]
        other = SceneSpec(spec.primitives, spec.cameras, spec.width, spec.height,
                          spec.channels, spec.seed + 1)
        views_a, _, _ = render_scene(spec)
        views_b, _, _ = render_scene(other)
        assert not np.array_equal(views_a[0].image, views_b[0].image)


class TestTextureBandLimit:
    def test_image_gradients_bounded(self, plane_scene):
        for v in plane_scene["views"]:
            gray = v.image[..., 0]
            gx = np.abs(np.diff(gray, axis=1)).max()
            gy = np.abs(np.diff(gray, axis=0)).max()
            assert max(gx, gy) < 0.15

    def test_resampling_error_small_at_ground_truth(self, plane_scene):
        from _oracles import synthesize_view
        views, gt = plane_scene["views"], plane_scene["gt"]
        img, ok = synthesize_view(gt[1], views[0], views[1])
        assert np.abs(img - views[1].image)[ok].mean() < 0.005

    def test_texture_range(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(-20, 20, (64, 64))
        v = rng.uniform(-20, 20, (64, 64))
        t = texture_value(u, v, 1.5, seed=42)
        assert t.min() >= 0.05 and t.max() <= 0.95


class TestVisibility:
    def test_two_plane_shadow_matches_closed_form(self, occluder_scene):
        # view 1 (center) against view 0 (left camera at -1.1): a background
        # point (x, y, d_bg) is hidden iff the segment to view 0's center
        # crosses the patch plane inside the patch region x <= -0.6
        spec = occluder_scene["spec"]
        d_occ, d_bg = occluder_scene["d_occ"], occluder_scene["d_bg"]
        vis = occluder_scene["visibility"][(1, 0)]
        gt = occluder_scene["gt"][1]
        cam0_center = np.array([-1.1, 0.0, 0.0])
        lam = d_occ / d_bg
        gx, gy = np.meshgrid(np.arange(128, dtype=float), np.arange(96, dtype=float))
        pts = backproject_pixels(spec.cameras[1], gx, gy, gt.values)
        crossing_x = cam0_center[0] + (pts[..., 0] - cam0_center[0]) * lam
        bg_sel = np.abs(gt.values - d_bg) < 1e-9
        expected_hidden = bg_sel & (crossing_x <= -0.6)
        # patch points themselves are always visible from view 0 here
        patch_sel = np.abs(gt.values - d_occ) < 1e-9
        assert vis[patch_sel].all()
        np.testing.assert_array_equal(~vis & bg_sel, expected_hidden)

    def test_visibility_keys_cover_ordered_pairs(self, plane_scene):
        vis = plane_scene["visibility"]
        assert set(vis) == {(i, j) for i in range(3) for j in range(3) if i != j}
        # an unoccluded scene is mutually visible everywhere
        for grid in vis.values():
            assert grid.all()


class TestPreconditions:
    def test_camera_seeing_too_little_raises(self):
        # plane behind the camera: no pixel can hit it
        spec = SceneSpec(
            [PlanePrimitive([0, 0, 1], -2.0, 0, 1.0)],
            [make_camera(0.0)], 32, 24, 1, 5,
        )
        with pytest.raises(ValueError):
            render_scene(spec)

    @pytest.mark.parametrize("width, height", [(0, 24), (32, 0), (-1, 24)])
    def test_empty_image_size_rejected(self, width, height):
        with pytest.raises(ValueError, match="width and height"):
            SceneSpec([PlanePrimitive([0, 0, 1], 2.0, 0, 1.0)],
                      [make_camera(0.0)], width, height, 1, 5)

    def test_rgb_channels(self):
        spec = SceneSpec(
            [PlanePrimitive([0, 0, 1], 2.0, 0, 1.0)],
            [make_camera(0.0)], 32, 24, 3, 5,
        )
        views, _, _ = render_scene(spec)
        assert views[0].image.shape == (24, 32, 3)
        # channels are decorrelated textures, not copies
        assert not np.array_equal(views[0].image[..., 0], views[0].image[..., 1])


def test_plane_axes_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        u, v = plane_axes(n)
        for a, b in ((u, v), (u, n), (v, n)):
            assert abs(a @ b) < 1e-12
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_camera_rays_bit_identical_to_int_grid_form(plane_scene, occluder_scene):
    cams = list(plane_scene["views"]) + list(occluder_scene["views"])
    # a skewed, off-centre K on a rotated camera
    a, b = 0.3, -0.2
    rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    K = np.array([[61.3, 0.37, 30.9], [0.0, 58.7, 24.2], [0.0, 0.0, 1.0]])
    cams.append(CameraView(K, rx @ ry, np.array([0.3, -0.1, 0.7])))
    for cam in cams:
        h, w = (48, 64) if cam.image is None else cam.image.shape[:2]
        got = _camera_rays_world(cam, h, w)
        want = camera_rays_world_int_grid(cam, h, w)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])
