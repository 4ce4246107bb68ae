"""Camera model, plane-induced homographies, warping, and view synthesis."""

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthMap,
    build_cost_volume,
    extract_features,
    warp_depth,
)
from symmvs.errors import NonFiniteResult, NonFiniteValue, ShapeMismatch
from symmvs import autodiff as ad
from symmvs import geometry
from symmvs.autodiff import Var
from symmvs.geometry import (
    DepthHypotheses,
    WarpField,
    bilinear_sample,
    intrinsics_inverse,
    plane_homography,
    relative_motion,
    warp_field_from_homography,
)

from _oracles import (
    bilinear_at,
    lift,
    project_reproject,
    sample_validity_direct,
    synth_values_unshared,
    synthesize_view,
    warp_depth_values_unshared,
    where_mask,
)
from conftest import make_camera, records, same_bytes


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
        for d_min, d_max in [(4.0, 2.0), (1.0, np.inf), (1.0, np.nan),
                             (np.nan, 2.0), (-np.inf, 2.0)]:
            with pytest.raises(ValueError):
                DepthHypotheses(d_min, d_max, 8)


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


def test_same_camera_sampling_cannot_shift_the_cached_pixel_grid():
    # a same-camera pair samples at the shared pixel grid itself; writing
    # into its coordinates would shift every later ray on that grid
    cam = make_camera(0.0, width=8, height=6)
    rays = geometry.view_rays(cam, 6, 8)
    pair = geometry.pair_coefficients(cam, cam, 6, 8)
    x, y, _, _ = geometry.pair_sampling(pair, np.full((6, 8), 2.0),
                                        np.ones((6, 8), bool))
    for coords in (x, y):
        with pytest.raises(ValueError, match="read-only"):
            coords += 5.0
    assert same_bytes(geometry.view_rays(cam, 6, 8), rays)


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


def test_sample_validity_matches_direct_corner_formula():
    # Random grids with coordinates that hit the pixel lattice exactly, sit
    # just inside or outside the weight tolerance around it, or lie on the
    # clipped last row and column; the shared bilinear corner helper must
    # flag the same pixels.
    rng = np.random.default_rng(11)
    for _ in range(3000):
        h, w = (int(n) for n in rng.integers(2, 9, size=2))
        valid = rng.uniform(size=(h, w)) < rng.uniform(0.3, 1.0)
        xv = rng.uniform(-0.5, w - 0.5, size=(h, w))
        yv = rng.uniform(-0.5, h - 0.5, size=(h, w))
        snap = rng.uniform(size=(h, w)) < 0.4
        xv = np.where(snap, np.round(xv), xv)
        yv = np.where(rng.uniform(size=(h, w)) < 0.4, np.round(yv), yv)
        nudge = rng.choice([0.0, 1e-13, -1e-13, 5e-12, -5e-12], size=(h, w))
        xv = xv + nudge
        xv[:, -1] = w - 1.0
        yv[-1, :] = h - 1.0
        inb = (rng.uniform(size=(h, w)) < 0.9) & (xv > -1.0) & (yv > -1.0)
        got = geometry._sample_validity(valid, inb, ad.bilinear_taps(xv, yv, inb, h, w))
        assert np.array_equal(got, sample_validity_direct(valid, xv, yv, inb))


def test_sampling_chain_with_pair_coefficients_is_bit_identical(plane_scene):
    # a kept record gives the chain computed from the two cameras in place
    views, gt = plane_scene["views"], plane_scene["gt"]
    h, w = gt[0].values.shape
    pair = geometry.pair_coefficients(views[0], views[2], h, w)
    r_rel, t_rel = relative_motion(views[0], views[2])
    m = views[2].intrinsics @ r_rel @ intrinsics_inverse(views[0].intrinsics)
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    a = [m[i, 0] * gx + m[i, 1] * gy + m[i, 2] for i in range(3)]
    b = views[2].intrinsics @ t_rel
    d = gt[0].values
    z = a[2] * d + b[2]
    front = z > 1e-12
    z_safe = np.where(front, z, 1.0)
    fresh = ((a[0] * d + b[0]) / z_safe, (a[1] * d + b[1]) / z_safe, front)
    for _ in range(2):
        got = geometry.sampling_chain(pair, d)
        assert len(got) == len(fresh)
        for want, g in zip(fresh, got):
            assert np.array_equal(want, g)


def test_sampling_chain_matches_project_reproject_oracle():
    # rotated, skewed cameras and a depth per pixel: every entry of the
    # record's matrix counts
    rng = np.random.default_rng(5)
    h, w = 48, 64
    gy, gx = np.mgrid[0:h, 0:w]
    for _ in range(20):
        target, source = random_camera(rng), random_camera(rng)
        depth = rng.uniform(1.5, 6.0, (h, w))
        x, y, front = geometry.sampling_chain(
            geometry.pair_coefficients(target, source, h, w), depth)
        assert front.all()
        for k in rng.choice(h * w, 50, replace=False):
            r, c = divmod(int(k), w)
            ox, oy, _ = project_reproject(
                target.intrinsics, target.rotation, target.translation,
                source.intrinsics, source.rotation, source.translation,
                gx[r, c], gy[r, c], depth[r, c])
            assert abs(x[r, c] - ox) < 1e-9 and abs(y[r, c] - oy) < 1e-9


def test_pair_record_holds_no_image_sized_array():
    # a record is a 3x3 matrix and a few numbers, whatever the grid
    rng = np.random.default_rng(2)
    cams = [random_camera(rng, 640, 480) for _ in range(2)]
    pair = geometry.pair_coefficients(*cams, 480, 640)
    for name in geometry.ViewPair.__dataclass_fields__:
        assert np.size(getattr(pair, name)) <= 9, name
    assert pair.m.shape == (3, 3)


def test_backprojected_pixels_lie_on_their_view_rays_bit_for_bit():
    # skew and rotation make every entry of K^-1 and R count: a pixel's
    # point is its `view_rays` ray scaled by its depth, to the bit
    rng = np.random.default_rng(11)
    cam = random_camera(rng)
    h, w = 48, 64
    depth = rng.uniform(1.0, 3.0, (h, w))
    gy, gx = np.mgrid[0:h, 0:w]
    got = geometry.backproject_pixels(cam, gx, gy, depth)
    rays = geometry.view_rays(cam, h, w)
    assert same_bytes(got, (rays * depth[..., None] - cam.translation) @ cam.rotation)


@pytest.mark.parametrize("source", [2, 0])
@pytest.mark.parametrize("rows", [(0, 48), (0, 13), (13, 26), (47, 48)])
def test_pair_record_over_rows_holds_the_whole_records_rows(plane_scene, source,
                                                            rows):
    # source 0 is the target itself: its chain is the pixel grid of the rows
    views, gt = plane_scene["views"], plane_scene["gt"]
    h, w = gt[0].values.shape
    top, bottom = rows
    whole = geometry.pair_coefficients(views[0], views[source], h, w)
    band = whole.band(top, bottom)
    assert whole.rows == (0, h)
    assert band.rows == rows and band.grid == (h, w) and band.same == whole.same
    # a band of a band takes rows of the grid too
    outer = whole.band(max(0, top - 1), bottom)
    assert outer.band(top, bottom).rows == rows
    for depth in (gt[0].values, 2.4):
        band_depth = depth if np.isscalar(depth) else depth[top:bottom]
        got = geometry.pair_sampling(band, band_depth, True)
        want = geometry.pair_sampling(whole, depth, True)
        for g, e in zip(got[:3] + got[3][0] + got[3][1],
                        want[:3] + want[3][0] + want[3][1]):
            assert np.array_equal(g, e[top:bottom])
    if source == 0:
        x, y = geometry.sampling_chain(band, 2.4)[:2]
        assert np.array_equal(y, np.broadcast_to(np.arange(top, bottom)[:, None],
                                                 (bottom - top, w)))
        assert np.array_equal(x[0], np.arange(w))


@pytest.mark.parametrize("rows", [(0, 0), (5, 3), (-1, 4), (0, 49)])
def test_pair_record_rejects_rows_outside_the_grid(plane_scene, rows):
    views = plane_scene["views"]
    whole = geometry.pair_coefficients(views[0], views[1], 48, 64)
    with pytest.raises(ValueError, match="rows"):
        whole.band(*rows)
    # a band's row view must lie within the band's rows
    with pytest.raises(ValueError, match=r"record's rows \(10, 20\)"):
        whole.band(10, 20).band(9, 15)


@pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
def test_plane_homography_agrees_with_sampling_chain(request, scene):
    # The sweep samples through the chain at a constant depth; the plane-
    # induced homography of the same depth is the other form of that map.
    sc = request.getfixturevalue(scene)
    views = sc["views"]
    hyp = sc.get("hyp", DepthHypotheses(1.5, 4.0, 16))
    h, w = views[0].image.shape[:2]
    for t in range(len(views)):
        for s in range(len(views)):
            if s == t:
                continue
            pair = geometry.pair_coefficients(views[t], views[s], h, w)
            for depth in hyp.samples:
                hom = plane_homography(views[t], views[s], float(depth))
                fld = warp_field_from_homography(hom, h, w)
                x, y, front = geometry.sampling_chain(pair, float(depth))
                inb = front & geometry._in_bounds(x, y, w, h)
                assert np.array_equal(inb, fld.in_bounds)
                for got, want in ((x, fld.coords[..., 0]), (y, fld.coords[..., 1])):
                    assert np.abs(got - want)[inb].max(initial=0.0) < 1e-12


def _holey_setup(plane_scene):
    """Noisy target depth, and a source validity grid with holes, so the
    sample validity narrows the in-bounds mask."""
    views, gt = plane_scene["views"], plane_scene["gt"]
    rng = np.random.default_rng(4)
    depth = gt[0].values + rng.normal(0.0, 0.05, gt[0].values.shape)
    holes = rng.uniform(size=depth.shape) < 0.15
    return views, depth, gt[0].valid, ~holes, rng


def _synth(target, source, depth, valid, image, source_valid):
    """`geometry.synth_values` at the pair's own record and sampling."""
    pair = geometry.pair_coefficients(target, source, *valid.shape)
    return geometry.synth_values(geometry.pair_sampling(pair, depth, valid), image,
                                 source_valid)


def _warp(source_values, source_valid, target_values, target_valid, source, target):
    """`geometry.warp_depth_values` at the pair's own record and sampling."""
    pair = geometry.pair_coefficients(target, source, *target_valid.shape)
    return geometry.warp_depth_values(
        pair, geometry.pair_sampling(pair, target_values, target_valid),
        source_values, source_valid)


def test_shared_taps_synthesis_is_bit_identical_to_unshared(plane_scene):
    views, depth, valid, source_valid, rng = _holey_setup(plane_scene)
    image = views[1].image
    g = rng.normal(size=image.shape)
    runs = []
    for synth in (_synth, synth_values_unshared):
        d_leaf, img_leaf = Var(depth), Var(image)
        out, ok = synth(views[0], views[1], d_leaf, valid, img_leaf, source_valid)
        (lift(out) * g).sum().backward()
        runs.append((out.value, ok, d_leaf.grad, img_leaf.grad))
    assert all(np.abs(grad).max() > 0.0 for grad in runs[0][2:])
    for shared, unshared in zip(*runs):
        assert same_bytes(shared, unshared)
    _, unnarrowed = _synth(views[0], views[1], depth, valid, image,
                           np.ones_like(source_valid))
    assert runs[0][1].sum() < unnarrowed.sum()


def test_shared_taps_depth_warp_is_bit_identical_to_unshared(plane_scene):
    views, depth, valid, source_valid, rng = _holey_setup(plane_scene)
    # a sloped source depth, so the sampled depth varies with the coordinates
    source_depth = plane_scene["gt"][1].values + 0.01 * np.arange(depth.shape[1])
    g = rng.normal(size=depth.shape)
    runs = []
    for warp in (_warp, warp_depth_values_unshared):
        s_leaf, t_leaf = Var(source_depth), Var(depth)
        out, ok = warp(s_leaf, source_valid, t_leaf, valid, views[1], views[0])
        (lift(out) * g).sum().backward()
        runs.append((out.value, ok, s_leaf.grad, t_leaf.grad))
    assert all(np.abs(grad).max() > 0.0 for grad in runs[0][2:])
    for shared, unshared in zip(*runs):
        assert same_bytes(shared, unshared)
    _, unnarrowed = _warp(source_depth, np.ones_like(source_valid),
                          depth, valid, views[1], views[0])
    assert runs[0][1].sum() < unnarrowed.sum()


def _half_behind_views():
    """A wide-angle reference, a source turned 60 degrees about y that
    about half of the reference's rays at depth 1.5-2.5 pass behind, and a
    plain second source."""
    rng = np.random.default_rng(12)
    h, w = 24, 32
    K = make_camera(0.0, f=12.0, width=w, height=h).intrinsics
    cos, sin = np.cos(np.pi / 3), np.sin(np.pi / 3)
    turned = np.array([[cos, 0.0, -sin], [0.0, 1.0, 0.0], [sin, 0.0, cos]])
    centres = [np.zeros(3), np.array([0.5, 0.0, 1.0]), np.array([0.3, 0.0, 0.0])]
    rots = [np.eye(3), turned, np.eye(3)]
    return [CameraView(K, r, -r @ c, rng.uniform(size=(h, w, 1)))
            for r, c in zip(rots, centres)]


def _chain_consumers(views, rng):
    """Values, validity and Var gradients of every consumer of the chain."""
    target, source, _ = views
    h, w = target.image.shape[:2]
    depth = 2.0 + rng.uniform(-0.3, 0.3, (h, w))
    valid = np.ones((h, w), bool)
    holey = rng.uniform(size=(h, w)) > 0.1
    g = rng.normal(size=(h, w))
    out = []
    for source_valid in (None, holey):
        d_leaf, img_leaf = Var(depth), Var(source.image)
        img, ok = _synth(target, source, d_leaf, valid, img_leaf, source_valid)
        (lift(img) * g[..., None]).sum().backward()
        out += [img.value, ok, d_leaf.grad, img_leaf.grad]
    s_leaf, t_leaf = Var(depth[::-1] + 0.1), Var(depth)
    vals, ok = _warp(s_leaf, holey, t_leaf, valid, source, target)
    (lift(vals) * g).sum().backward()
    out += [vals.value, ok, s_leaf.grad, t_leaf.grad]
    feats = [extract_features(v.image) for v in views]
    vol = build_cost_volume(records(views), feats, 0, DepthHypotheses(1.5, 2.5, 8))
    out += [vol.cost, vol.valid]
    return out


def test_chain_coordinates_outside_front_are_never_read(monkeypatch):
    views = _half_behind_views()
    h, w = views[0].image.shape[:2]
    x, y, front = geometry.sampling_chain(
        geometry.pair_coefficients(views[0], views[1], h, w), 2.0)
    ok = front & geometry._in_bounds(x, y, w, h)
    assert ok.sum() > 100 and front.mean() < 0.6
    plain = _chain_consumers(views, np.random.default_rng(3))
    assert all(np.abs(a).max() > 0 for a in plain)

    chain = geometry.sampling_chain

    def nan_outside_front(*args, **kwargs):
        x, y, front = chain(*args, **kwargs)
        return (where_mask(front, x, np.nan), where_mask(front, y, np.nan),
                front)

    monkeypatch.setattr(geometry, "sampling_chain", nan_outside_front)
    poisoned = _chain_consumers(views, np.random.default_rng(3))
    for a, b in zip(plain, poisoned):
        assert same_bytes(a, b)


class TestPyramid:
    def test_halved_camera_projects_to_the_coarse_pixel_of_the_fine_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            cam = random_camera(rng)
            fine = CameraView(cam.intrinsics, cam.rotation, cam.translation,
                              rng.uniform(size=(48, 64, 2)))
            coarse = geometry.halve_view(fine)
            pts = rng.uniform([-1.0, -1.0, 2.0], [1.0, 1.0, 5.0], (200, 3))
            xf, yf, zf = geometry.project_points(fine, pts)
            xc, yc, zc = geometry.project_points(coarse, pts)
            np.testing.assert_allclose(xc, (xf + 0.5) / 2 - 0.5, rtol=0, atol=1e-12)
            np.testing.assert_allclose(yc, (yf + 0.5) / 2 - 0.5, rtol=0, atol=1e-12)
            assert same_bytes(zc, zf)
            assert same_bytes(coarse.rotation, fine.rotation)
            assert same_bytes(coarse.translation, fine.translation)

    def test_halved_image_is_the_mean_of_each_2x2_block(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(6, 8, 3))
        coarse = geometry.halve_view(CameraView(make_camera(0.0).intrinsics,
                                                np.eye(3), np.zeros(3), img))
        assert coarse.image.shape == (3, 4, 3)
        for r in range(3):
            for c in range(4):
                block = img[2 * r:2 * r + 2, 2 * c:2 * c + 2]
                np.testing.assert_allclose(coarse.image[r, c], block.mean(axis=(0, 1)),
                                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(5, 8), (6, 7)])
    def test_an_odd_side_cannot_be_halved(self, shape):
        view = CameraView(make_camera(0.0).intrinsics, np.eye(3), np.zeros(3),
                          np.zeros(shape))
        with pytest.raises(ShapeMismatch, match="odd side"):
            geometry.halve_view(view)

    def test_upsampled_affine_depth_is_exact_away_from_the_clamped_border(self):
        # dyadic slopes keep every product and sum exact, and the taps'
        # weights 1/4 and 3/4 sum to 1: bilinear is exact on an affine map
        h, w = 12, 16
        ys, xs = np.mgrid[0:h, 0:w].astype(float)
        depth = geometry.upsample_depth(DepthMap(2.0 + 0.125 * xs + 0.0625 * ys))
        assert depth.values.shape == (2 * h, 2 * w) and depth.valid.all()
        yf, xf = np.mgrid[0:2 * h, 0:2 * w].astype(float)
        xc, yc = (xf + 0.5) / 2 - 0.5, (yf + 0.5) / 2 - 0.5
        want = 2.0 + 0.125 * xc + 0.0625 * yc
        inner = (slice(1, -1), slice(1, -1))
        assert same_bytes(depth.values[inner], want[inner])
        # the outermost fine rows and columns read the clamped edge
        clamped = (2.0 + 0.125 * np.clip(xc, 0, w - 1)
                   + 0.0625 * np.clip(yc, 0, h - 1))
        np.testing.assert_array_equal(depth.values, clamped)

    def test_upsampled_pixel_is_valid_iff_all_four_taps_are(self):
        rng = np.random.default_rng(5)
        h, w = 7, 9
        values = rng.uniform(1.0, 3.0, (h, w))
        valid = rng.uniform(size=(h, w)) > 0.15
        depth = geometry.upsample_depth(DepthMap(np.where(valid, values, 0.0), valid))
        for yf in range(2 * h):
            for xf in range(2 * w):
                taps = []
                for p, n in ((yf, h), (xf, w)):
                    c = min(max((p + 0.5) / 2 - 0.5, 0.0), n - 1.0)
                    lo = min(int(np.floor(c)), n - 2)
                    taps.append((lo, c - lo))
                (r, fy), (c, fx) = taps
                ok = valid[r:r + 2, c:c + 2].all()
                assert depth.valid[yf, xf] == ok
                if ok:
                    want = bilinear_at(values, c + fx, r + fy)
                    assert abs(depth.values[yf, xf] - want) < 1e-12
                else:
                    assert depth.values[yf, xf] == 0.0
