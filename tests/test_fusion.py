"""Cross-view depth filtering and point-cloud assembly."""

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthMap,
    depths_to_cloud,
    filter_consistent,
)
from symmvs.errors import ShapeMismatch
from symmvs.geometry import project_points

from conftest import make_camera


class TestFilterConsistent:
    def test_perfect_depths_survive_unchanged(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        out = filter_consistent(gt, views, tau_fuse=hyp.spacing, min_views=1)
        for filtered, original in zip(out, gt):
            assert filtered.valid.sum() > 0.5 * original.valid.sum()
            sel = filtered.valid
            np.testing.assert_allclose(filtered.values[sel], original.values[sel],
                                       rtol=1e-10)

    def test_corrupted_view_is_filtered_out(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        rng = np.random.default_rng(0)
        depths = [d.copy() for d in gt]
        bad = np.clip(
            depths[2].values + rng.uniform(0.5, 1.5, depths[2].values.shape),
            hyp.d_min, hyp.d_max,
        )
        depths[2] = DepthMap(np.where(depths[2].valid, bad, 0.0),
                             depths[2].valid.copy())
        out = filter_consistent(depths, views, tau_fuse=hyp.spacing, min_views=1)
        # the corrupted view loses nearly all pixels; the clean views keep
        # everything still confirmed by the other clean view
        assert out[2].valid.mean() < 0.05
        clean = filter_consistent(gt, views, tau_fuse=hyp.spacing, min_views=1)
        for v in (0, 1):
            kept = out[v].valid
            assert (kept <= clean[v].valid).all()
            assert kept.sum() >= 0.8 * clean[v].valid.sum()
            np.testing.assert_allclose(
                out[v].values[kept], gt[v].values[kept], atol=2 * hyp.spacing
            )

    def test_quorum_matches_brute_force_count(self, plane_scene):
        from symmvs.geometry import warp_depth
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        rng = np.random.default_rng(1)
        depths = [d.copy() for d in gt]
        bad = np.clip(depths[0].values + 1.0, hyp.d_min, hyp.d_max)
        depths[0] = DepthMap(np.where(depths[0].valid, bad, 0.0),
                             depths[0].valid.copy())
        tau = hyp.spacing
        min_views = 2  # = N - 1: every pixel needs both other views to agree
        out = filter_consistent(depths, views, tau_fuse=tau, min_views=min_views)
        for i in range(3):
            quorum = np.zeros(depths[i].values.shape, dtype=int)
            for j in range(3):
                if j == i:
                    continue
                warped = warp_depth(depths[j], depths[i], views[j], views[i])
                quorum += (
                    warped.valid
                    & depths[i].valid
                    & (np.abs(depths[i].values - warped.values) <= tau)
                )
            expected = depths[i].valid & (quorum >= min_views)
            np.testing.assert_array_equal(out[i].valid, expected)

    def test_monotone_in_threshold_and_quorum(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        counts_tau = [
            sum(d.valid.sum() for d in filter_consistent(gt, views, t, 1))
            for t in (1e-6, 1e-3, 0.05, 1.0)
        ]
        assert counts_tau == sorted(counts_tau)
        counts_quorum = [
            sum(d.valid.sum() for d in filter_consistent(gt, views, 0.05, q))
            for q in (1, 2)
        ]
        assert counts_quorum == sorted(counts_quorum, reverse=True)

    def test_parameter_validation(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        with pytest.raises(ValueError):
            filter_consistent(gt, views, tau_fuse=0.0, min_views=1)
        with pytest.raises(ValueError):
            filter_consistent(gt, views, tau_fuse=0.1, min_views=0)

    @pytest.mark.parametrize("n_views", [2, 3])
    def test_quorum_beyond_the_other_views_is_rejected(self, plane_scene, n_views):
        # a pixel has n - 1 other views to confirm it; asking for n keeps none
        views, gt = plane_scene["views"][:n_views], plane_scene["gt"][:n_views]
        with pytest.raises(ValueError, match=f"^min_views = {n_views} exceeds "
                                             f"the {n_views - 1} other views$"):
            filter_consistent(gt, views, tau_fuse=0.1, min_views=n_views)

    def test_depth_maps_of_other_sizes_name_the_view(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        depths = gt[:2] + [DepthMap(gt[2].values[:40], gt[2].valid[:40])]
        with pytest.raises(ShapeMismatch, match=r"^view 2 depth map is \(40, 64\)"):
            filter_consistent(depths, views, tau_fuse=0.1)
        # half-size maps agree with one another but not with the 48x64 views
        half = [DepthMap(d.values[::2, ::2], d.valid[::2, ::2]) for d in gt]
        with pytest.raises(ShapeMismatch, match=r"^view 0 depth map is \(24, 32\), "
                                                r"the views' grid is \(48, 64\)"):
            filter_consistent(half, views, tau_fuse=0.1)


class TestDepthsToCloud:
    def test_frustum_corners_of_constant_depth(self):
        f, d = 40.0, 2.5
        cam = make_camera(0.0, f=f, width=9, height=7)
        cam = CameraView(cam.intrinsics, cam.rotation, cam.translation,
                         np.full((7, 9, 1), 0.5))
        depth = DepthMap(np.full((7, 9), d))
        cloud = depths_to_cloud([depth], [cam])
        assert len(cloud) == 63
        # corner pixel (0, 0) backprojects to ((0 - cx)/f * d, (0 - cy)/f * d, d)
        cx, cy = 4.0, 3.0
        np.testing.assert_allclose(
            cloud.points[0], [-cx / f * d, -cy / f * d, d], atol=1e-12
        )
        np.testing.assert_allclose(
            cloud.points[-1], [(8 - cx) / f * d, (6 - cy) / f * d, d], atol=1e-12
        )

    def test_empty_maps_give_empty_cloud(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        empty = [DepthMap(np.zeros(d.values.shape),
                          np.zeros(d.values.shape, bool)) for d in gt]
        cloud = depths_to_cloud(empty, views)
        assert len(cloud) == 0

    def test_depth_map_off_its_image_grid_names_the_view(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        depths = gt[:1] + [DepthMap(d.values[::2, ::2], d.valid[::2, ::2])
                           for d in gt[1:]]
        with pytest.raises(ShapeMismatch, match=r"^view 1 depth map is \(24, 32\)"):
            depths_to_cloud(depths, views)

    def test_plane_scene_points_lie_on_the_plane(self, plane_scene):
        views, gt, z0 = plane_scene["views"], plane_scene["gt"], plane_scene["z0"]
        cloud = depths_to_cloud(gt, views)
        np.testing.assert_allclose(cloud.points[:, 2], z0, atol=1e-6)

    def test_round_trip_reprojection(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        filtered = filter_consistent(gt, views, hyp.spacing, 1)
        offset = 0
        for i, (d, view) in enumerate(zip(filtered, views)):
            ys, xs = np.nonzero(d.valid)
            pts = depths_to_cloud([d], [view]).points
            px, py, pz = project_points(view, pts)
            np.testing.assert_allclose(px, xs, atol=1e-6)
            np.testing.assert_allclose(py, ys, atol=1e-6)
            # identity-rotation rig: the camera-frame z survives exactly
            np.testing.assert_array_equal(pz, d.values[ys, xs])

    def test_world_frame_consistency_under_rigid_motion(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        filtered = filter_consistent(gt, views, hyp.spacing, 2)
        cloud = depths_to_cloud(filtered, views)

        angle = 0.3
        R = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        shift = np.array([0.2, -0.1, 0.4])
        moved_views = []
        for v in views:
            # world' = R @ world + shift  =>  R_cam' = R_cam @ R^T
            moved_views.append(
                CameraView(v.intrinsics, v.rotation @ R.T,
                           v.translation - v.rotation @ R.T @ shift, v.image)
            )
        moved_filtered = filter_consistent(gt, moved_views, hyp.spacing, 2)
        moved_cloud = depths_to_cloud(moved_filtered, moved_views)
        back = (moved_cloud.points - shift) @ R
        np.testing.assert_allclose(back, cloud.points, atol=1e-9)

    def test_colors_follow_points(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        cloud = depths_to_cloud(gt, views)
        assert cloud.colors is not None
        assert cloud.colors.shape == (len(cloud), 3)
        assert (cloud.colors >= 0).all() and (cloud.colors <= 1).all()

    def test_rgb_views_give_their_own_colours(self):
        # a gray view's colour is its one channel, repeated; an RGB view's
        # is its pixel as it is
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(4, 5, 3))
        view = CameraView(make_camera(0.0, width=5, height=4).intrinsics, np.eye(3),
                          np.zeros(3), image)
        valid = np.zeros((4, 5), dtype=bool)
        valid[1, 2] = valid[3, 0] = True
        cloud = depths_to_cloud([DepthMap(np.full((4, 5), 2.0), valid)], [view])
        np.testing.assert_array_equal(cloud.colors, image[[1, 3], [2, 0]])
