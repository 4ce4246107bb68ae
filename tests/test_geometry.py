"""Camera model, plane-induced homographies, warping, and view synthesis."""

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthMap,
    bilinear_sample,
    plane_homography,
    synthesize_view,
    warp_depth,
    warp_field_from_homography,
)
from symmvs.errors import NonFiniteResult, NonFiniteValue, ShapeMismatch
from symmvs.geometry import (
    DepthHypotheses,
    WarpField,
    intrinsics_inverse,
    relative_motion,
)

from _oracles import bilinear_at, project_reproject
from conftest import make_camera


def random_camera(rng, width=64, height=48):
    f = rng.uniform(40.0, 90.0)
    K = np.array(
        [
            [f, rng.uniform(0, 0.5), (width - 1) / 2 + rng.uniform(-2, 2)],
            [0.0, f * rng.uniform(0.9, 1.1), (height - 1) / 2 + rng.uniform(-2, 2)],
            [0.0, 0.0, 1.0],
        ]
    )
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-0.15, 0.15)
    S = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    R = np.eye(3) + np.sin(angle) * S + (1 - np.cos(angle)) * (S @ S)
    t = rng.uniform(-0.4, 0.4, 3)
    return CameraView(K, R, t, None)


class TestCameraView:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraView(np.eye(3), R, np.zeros(3))

    def test_rejects_lower_triangular_intrinsics(self):
        K = np.eye(3)
        K[1, 0] = 0.5
        with pytest.raises(ValueError):
            CameraView(K, np.eye(3), np.zeros(3))

    def test_grayscale_image_gains_channel_axis(self):
        cam = CameraView(np.eye(3), np.eye(3), np.zeros(3), np.zeros((4, 5)))
        assert cam.image.shape == (4, 5, 1)

    @pytest.mark.parametrize("field, value", [
        ("image", np.nan), ("intrinsics", np.nan), ("translation", np.inf),
    ])
    def test_rejects_non_finite_input(self, field, value):
        args = {"intrinsics": np.eye(3), "rotation": np.eye(3),
                "translation": np.zeros(3), "image": np.zeros((4, 5))}
        args[field].flat[1] = value
        with pytest.raises(NonFiniteValue):
            CameraView(**args)


class TestDepthMap:
    def test_auto_valid_excludes_nonpositive(self):
        d = DepthMap(np.array([[1.0, 0.0], [-2.0, np.inf]]))
        assert d.valid.tolist() == [[True, False], [False, False]]

    def test_rejects_valid_flag_on_bad_entry(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, -1.0]]), np.array([[True, True]]))


class TestDepthHypotheses:
    def test_samples_uniform_and_inclusive(self):
        hyp = DepthHypotheses(2.0, 4.0, 11)
        assert hyp.samples[0] == 2.0
        assert hyp.samples[-1] == 4.0
        np.testing.assert_allclose(np.diff(hyp.samples), hyp.spacing, atol=1e-12)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            DepthHypotheses(4.0, 2.0, 8)


class TestIntrinsicsInverse:
    def test_matches_linalg_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cam = random_camera(rng)
            np.testing.assert_allclose(
                intrinsics_inverse(cam.intrinsics),
                np.linalg.inv(cam.intrinsics),
                atol=1e-12,
            )

    def test_bottom_row_exact(self):
        K = np.array([[53.7, 0.3, 31.1], [0, 49.9, 23.2], [0, 0, 1.0]])
        assert intrinsics_inverse(K)[2].tolist() == [0.0, 0.0, 1.0]


class TestPlaneHomography:
    def test_identity_for_same_camera(self):
        cam = make_camera(0.3)
        np.testing.assert_array_equal(plane_homography(cam, cam, 2.5), np.eye(3))

    def test_axial_translation_closed_form(self):
        # dst camera center moved by t_z along the optical axis:
        # H = K diag(1, 1, 1 - t_z/d) K^-1 (verified by the reprojection
        # oracle below as well).
        f, tz, d = 50.0, 0.4, 2.0
        K = np.array([[f, 0, 31.5], [0, f, 23.5], [0, 0, 1.0]])
        src = CameraView(K, np.eye(3), np.zeros(3), None)
        dst = CameraView(K, np.eye(3), -np.array([0.0, 0.0, tz]), None)
        H = plane_homography(src, dst, d)
        expected = K @ np.diag([1.0, 1.0, 1.0 - tz / d]) @ np.linalg.inv(K)
        expected /= expected[2, 2]
        np.testing.assert_allclose(H, expected, atol=1e-12)

    def test_matches_project_reproject_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            src = random_camera(rng)
            dst = random_camera(rng)
            depth = rng.uniform(1.5, 6.0)
            H = plane_homography(src, dst, depth)
            px, py = rng.uniform(5, 58), rng.uniform(5, 42)
            q = H @ np.array([px, py, 1.0])
            ox, oy, _ = project_reproject(
                src.intrinsics, src.rotation, src.translation,
                dst.intrinsics, dst.rotation, dst.translation, px, py, depth,
            )
            assert abs(q[0] / q[2] - ox) < 1e-9
            assert abs(q[1] / q[2] - oy) < 1e-9

    def test_round_trip_recovers_pixel(self):
        # Forward through H, then back through the oracle with the
        # transformed point's own depth.
        rng = np.random.default_rng(2)
        for _ in range(1000):
            src = random_camera(rng)
            dst = random_camera(rng)
            depth = rng.uniform(1.5, 6.0)
            px, py = rng.uniform(2, 61), rng.uniform(2, 45)
            H = plane_homography(src, dst, depth)
            q = H @ np.array([px, py, 1.0])
            qx, qy = q[0] / q[2], q[1] / q[2]
            _, _, z_dst = project_reproject(
                src.intrinsics, src.rotation, src.translation,
                dst.intrinsics, dst.rotation, dst.translation, px, py, depth,
            )
            bx, by, _ = project_reproject(
                dst.intrinsics, dst.rotation, dst.translation,
                src.intrinsics, src.rotation, src.translation, qx, qy, z_dst,
            )
            assert abs(bx - px) < 1e-6
            assert abs(by - py) < 1e-6

    def test_inverse_matches_reverse_homography_on_plane(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            src = random_camera(rng)
            dst = random_camera(rng)
            depth = rng.uniform(1.5, 6.0)
            H = plane_homography(src, dst, depth)
            px, py = rng.uniform(5, 58), rng.uniform(5, 42)
            q = H @ np.array([px, py, 1.0])
            qx, qy = q[0] / q[2], q[1] / q[2]
            # the plane expressed in dst's frame has the transformed depth
            _, _, z_dst = project_reproject(
                src.intrinsics, src.rotation, src.translation,
                dst.intrinsics, dst.rotation, dst.translation, px, py, depth,
            )
            H_back = plane_homography(dst, src, z_dst)
            b = H_back @ np.array([qx, qy, 1.0])
            # H_back is exact only for pixels whose point sits at z_dst, and
            # (qx, qy) is such a pixel by construction
            assert abs(b[0] / b[2] - px) < 1e-6
            assert abs(b[1] / b[2] - py) < 1e-6

    def test_nonpositive_depth_raises(self):
        cam_a, cam_b = make_camera(0.0), make_camera(0.2)
        with pytest.raises(NonFiniteResult):
            plane_homography(cam_a, cam_b, 0.0)
        with pytest.raises(NonFiniteResult):
            plane_homography(cam_a, cam_b, -1.0)


class TestBilinearSample:
    def test_identity_field_is_exact(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(8, 9))
        gx, gy = np.meshgrid(np.arange(9.0), np.arange(8.0))
        fld = WarpField(np.stack([gx, gy], -1), np.ones((8, 9), bool))
        out, ok = bilinear_sample(img, fld)
        np.testing.assert_array_equal(out, img)
        assert ok.all()

    def test_constant_image_stays_constant(self):
        img = np.full((6, 6), 0.37)
        rng = np.random.default_rng(5)
        coords = np.stack(
            [rng.uniform(0, 5, (6, 6)), rng.uniform(0, 5, (6, 6))], -1
        )
        out, _ = bilinear_sample(img, WarpField(coords, np.ones((6, 6), bool)))
        np.testing.assert_allclose(out, 0.37, rtol=1e-12)

    def test_linear_ramp_half_pixel_shift(self):
        gx, gy = np.meshgrid(np.arange(8.0), np.arange(6.0))
        img = gx.copy()
        coords = np.stack([gx + 0.5, gy], -1)
        inb = coords[..., 0] <= 7.0
        out, ok = bilinear_sample(img, WarpField(coords, inb))
        np.testing.assert_allclose(out[:, :-1], gx[:, :-1] + 0.5, atol=1e-12)
        assert not ok[:, -1].any()

    def test_exact_on_bilinear_functions(self):
        rng = np.random.default_rng(6)
        a, b, c, e = rng.uniform(-1, 1, 4)
        gx, gy = np.meshgrid(np.arange(10.0), np.arange(9.0))
        img = a + b * gx + c * gy + e * gx * gy
        xs = rng.uniform(0, 9, (9, 10))
        ys = rng.uniform(0, 8, (9, 10))
        out, _ = bilinear_sample(
            img, WarpField(np.stack([xs, ys], -1), np.ones((9, 10), bool))
        )
        np.testing.assert_allclose(out, a + b * xs + c * ys + e * xs * ys, atol=1e-9)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(7, 8))
        xs = rng.uniform(0, 7, (7, 8))
        ys = rng.uniform(0, 6, (7, 8))
        out, _ = bilinear_sample(
            img, WarpField(np.stack([xs, ys], -1), np.ones((7, 8), bool))
        )
        for y in range(7):
            for x in range(8):
                assert out[y, x] == pytest.approx(
                    bilinear_at(img, xs[y, x], ys[y, x]), abs=1e-12
                )

    def test_shape_mismatch_raises(self):
        img = np.zeros((5, 5))
        fld = WarpField(np.zeros((4, 4, 2)), np.ones((4, 4), bool))
        with pytest.raises(ShapeMismatch):
            bilinear_sample(img, fld)


class TestWarpFieldFromHomography:
    def test_in_bounds_iff_coords_in_range(self):
        cam_a, cam_b = make_camera(0.0), make_camera(0.9)
        H = plane_homography(cam_a, cam_b, 2.0)
        fld = warp_field_from_homography(H, 48, 64)
        x, y = fld.coords[..., 0], fld.coords[..., 1]
        inside = (x >= -1e-9) & (x <= 63 + 1e-9) & (y >= -1e-9) & (y <= 47 + 1e-9)
        np.testing.assert_array_equal(fld.in_bounds, inside)
        assert (fld.coords[~fld.in_bounds] == -1.0).all()


class TestSynthesizeView:
    def test_self_synthesis_is_bit_exact(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        img, ok = synthesize_view(gt[1], views[1], views[1])
        assert ok.all()
        np.testing.assert_array_equal(img, views[1].image)

    def test_ground_truth_depth_reproduces_image(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        img, ok = synthesize_view(gt[1], views[0], views[1])
        mae = np.abs(img - views[1].image)[ok].mean()
        assert mae < 0.01

    def test_wrong_depth_increases_error(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        img, ok = synthesize_view(gt[1], views[0], views[1])
        mae_gt = np.abs(img - views[1].image)[ok].mean()
        doubled = DepthMap(gt[1].values * 2.0, gt[1].valid.copy())
        img2, ok2 = synthesize_view(doubled, views[0], views[1])
        mae_bad = np.abs(img2 - views[1].image)[ok2].mean()
        assert mae_bad > mae_gt


class TestWarpDepth:
    def test_self_warp_is_identity(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        out = warp_depth(gt[0], gt[0], views[0], views[0])
        np.testing.assert_array_equal(out.values, gt[0].values)
        np.testing.assert_array_equal(out.valid, gt[0].valid)

    def test_plane_depth_invariant_under_x_translation(self, plane_scene):
        gt, views, z0 = plane_scene["gt"], plane_scene["views"], plane_scene["z0"]
        out = warp_depth(gt[0], gt[1], views[0], views[1])
        np.testing.assert_allclose(out.values[out.valid], z0, atol=1e-9)

    def test_occluder_scene_disagrees_exactly_on_hidden_band(self, occluder_scene):
        views, gt = occluder_scene["views"], occluder_scene["gt"]
        vis = occluder_scene["visibility"][(2, 0)]
        out = warp_depth(gt[0], gt[2], views[0], views[2])
        agree = np.abs(out.values - gt[2].values) <= 0.02
        inner = out.valid.copy()
        inner[:2] = inner[-2:] = False
        inner[:, :2] = inner[:, -2:] = False
        assert (inner & vis).sum() > 1000
        assert (inner & ~vis).sum() > 1000
        # where the point is visible in view 0 the warp must agree, and on
        # the hidden band it must not
        assert agree[inner & vis].mean() > 0.98
        assert (~agree)[inner & ~vis].mean() > 0.98

    def test_unit_consistency_under_power_of_two_scaling(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        out1 = warp_depth(gt[0], gt[1], views[0], views[1])

        def scaled(cam):
            return CameraView(cam.intrinsics, cam.rotation, cam.translation * 2.0,
                              cam.image)

        gt0 = DepthMap(gt[0].values * 2.0, gt[0].valid.copy())
        gt1 = DepthMap(gt[1].values * 2.0, gt[1].valid.copy())
        out2 = warp_depth(gt0, gt1, scaled(views[0]), scaled(views[1]))
        np.testing.assert_array_equal(out2.valid, out1.valid)
        np.testing.assert_array_equal(out2.values[out2.valid],
                                      out1.values[out1.valid] * 2.0)


def test_relative_motion_identity_fast_path():
    cam = make_camera(0.4)
    same = CameraView(cam.intrinsics.copy(), cam.rotation.copy(),
                      cam.translation.copy(), None)
    R, t = relative_motion(cam, same)
    np.testing.assert_array_equal(R, np.eye(3))
    np.testing.assert_array_equal(t, np.zeros(3))


def test_points_behind_the_source_camera_are_invalid():
    # the source camera sits far in front of the scene looking the same
    # way, so every transformed point gets a negative z there
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(12, 16, 1))
    target = CameraView(make_camera(0.0, width=16, height=12).intrinsics,
                        np.eye(3), np.zeros(3), img)
    ahead = CameraView(target.intrinsics, np.eye(3),
                       np.array([0.0, 0.0, -10.0]), img)
    depth = DepthMap(np.full((12, 16), 2.0))
    _, ok = synthesize_view(depth, ahead, target)
    assert not ok.any()
    warped = warp_depth(depth, depth, ahead, target)
    assert not warped.valid.any()
