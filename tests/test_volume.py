"""Feature extraction, plane-sweep cost volumes, smoothing, and regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmvs import (
    CameraView,
    DepthHypotheses,
    build_cost_volume,
    extract_features,
    regress_depth,
    smooth_cost_volume,
)
from symmvs.errors import TooFewViews, UnknownMode
from symmvs.volume import CostVolume

from _oracles import box_filter_valid_brute, population_variance_brute
from conftest import DESK_TEMPERATURE, make_camera


class TestExtractFeatures:
    def test_constant_image_grad3(self):
        fm = extract_features(np.full((6, 8), 0.4), "grad3")
        assert fm.values.shape == (6, 8, 3)
        np.testing.assert_allclose(fm.values[..., 0], 0.4)
        np.testing.assert_array_equal(fm.values[..., 1], 0.0)
        np.testing.assert_array_equal(fm.values[..., 2], 0.0)

    def test_x_ramp_gradient_channel(self):
        w = 8
        gx = np.tile(np.arange(w, dtype=float) / w, (6, 1))
        fm = extract_features(gx, "grad3")
        np.testing.assert_allclose(fm.values[:, :-1, 1], 1.0 / w, atol=1e-12)
        np.testing.assert_array_equal(fm.values[:, -1, 1], 0.0)

    def test_intensity_mode_is_channel_mean(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(5, 5, 3))
        fm = extract_features(img, "intensity")
        assert fm.values.shape == (5, 5, 1)
        np.testing.assert_allclose(fm.values[..., 0], img.mean(axis=2), atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            extract_features(np.zeros((4, 4)), "sift")


class TestBuildCostVolume:
    def test_identical_views_give_exactly_zero_cost(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(12, 16))
        views = [
            CameraView(make_camera(0.0, width=16, height=12).intrinsics,
                       np.eye(3), np.zeros(3), img)
            for _ in range(3)
        ]
        feats = [extract_features(v.image, "grad3") for v in views]
        hyp = DepthHypotheses(1.0, 2.0, 5)
        vol = build_cost_volume(views, feats, 0, hyp)
        assert (vol.cost == 0.0).all()
        assert (vol.support == 3).all()
        assert vol.valid.all()

    def test_true_depth_wins_argmin_on_interior(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image, "grad3") for v in views]
        vol = build_cost_volume(views, feats, 1, hyp)
        am = np.argmin(np.where(vol.valid, vol.cost, np.inf), axis=0)
        interior = np.zeros(am.shape, bool)
        interior[2:-2, 14:-14] = True
        interior &= vol.valid.all(axis=0)
        assert (am[interior] == 24).mean() >= 0.98

    def test_out_of_bounds_view_reduces_support(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(12, 16))
        near = CameraView(make_camera(0.0, f=20.0, width=16, height=12).intrinsics,
                          np.eye(3), np.zeros(3), img)
        far = CameraView(make_camera(50.0, f=20.0, width=16, height=12).intrinsics,
                         np.eye(3), np.array([-50.0, 0.0, 0.0]), img)
        feats = [extract_features(v.image, "intensity") for v in (near, far)]
        hyp = DepthHypotheses(0.5, 1.0, 3)
        vol = build_cost_volume([near, far], feats, 0, hyp)
        # the second camera is 50 units off axis: every warp misses it
        assert (vol.support == 1).all()
        assert not vol.valid.any()

    def test_variance_matches_brute_force(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image, "intensity") for v in views]
        vol = build_cost_volume(views, feats, 0, hyp)
        # spot-check a few cells against the direct per-view resampling
        from symmvs import plane_homography, warp_field_from_homography, bilinear_sample
        rng = np.random.default_rng(3)
        h, w, _ = feats[0].values.shape
        for _ in range(20):
            k = int(rng.integers(0, hyp.count))
            y = int(rng.integers(2, h - 2))
            x = int(rng.integers(2, w - 2))
            samples = [feats[0].values[y, x, 0]]
            for s in (1, 2):
                hom = plane_homography(views[0], views[s], float(hyp.samples[k]))
                fld = warp_field_from_homography(hom, h, w)
                vals, ok = bilinear_sample(feats[s].values, fld)
                if ok[y, x]:
                    samples.append(vals[y, x, 0])
            if len(samples) >= 2:
                expected = population_variance_brute(samples)
                assert vol.cost[k, y, x] == pytest.approx(expected, rel=1e-9, abs=1e-15)
                assert vol.support[k, y, x] == len(samples)

    def test_permutation_invariance(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image, "grad3") for v in views]
        vol_a = build_cost_volume(views, feats, 0, hyp)
        perm_views = [views[0], views[2], views[1]]
        perm_feats = [feats[0], feats[2], feats[1]]
        vol_b = build_cost_volume(perm_views, perm_feats, 0, hyp)
        assert np.abs(vol_a.cost - vol_b.cost).max() < 1e-12

    def test_too_few_views(self, plane_scene):
        views = plane_scene["views"][:1]
        feats = [extract_features(views[0].image, "grad3")]
        with pytest.raises(TooFewViews):
            build_cost_volume(views, feats, 0, plane_scene["hyp"])


class TestSmoothCostVolume:
    def make_volume(self, cost, valid=None):
        d, h, w = cost.shape
        valid = np.ones(cost.shape, bool) if valid is None else valid
        support = np.where(valid, 2, 1)
        return CostVolume(0, DepthHypotheses(1.0, 2.0, d), cost, support, valid)

    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(4, 5, 6))
        valid = rng.uniform(size=(4, 5, 6)) > 0.3
        vol = self.make_volume(np.where(valid, cost, 0.0), valid)
        out = smooth_cost_volume(vol, (0, 0, 0))
        np.testing.assert_array_equal(out.cost, vol.cost)
        np.testing.assert_array_equal(out.valid, vol.valid)
        np.testing.assert_array_equal(out.support, vol.support)

    def test_constant_volume_unchanged(self):
        vol = self.make_volume(np.full((3, 4, 5), 0.7))
        out = smooth_cost_volume(vol, (1, 2, 1))
        np.testing.assert_allclose(out.cost, 0.7, rtol=1e-12)

    def test_impulse_spreads_over_neighborhood(self):
        cost = np.zeros((5, 5, 5))
        cost[2, 2, 2] = 27.0
        vol = self.make_volume(cost)
        out = smooth_cost_volume(vol, (1, 1, 1))
        np.testing.assert_allclose(out.cost[1:4, 1:4, 1:4], 1.0, rtol=1e-12)
        assert out.cost[0, 2, 2] == 0.0

    def test_matches_brute_force_with_invalid_cells(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(size=(4, 5, 6))
        valid = rng.uniform(size=(4, 5, 6)) > 0.4
        vol = self.make_volume(np.where(valid, cost, 0.0), valid)
        out = smooth_cost_volume(vol, (1, 1, 2))
        expected, expected_ok = box_filter_valid_brute(vol.cost, valid, (1, 1, 2))
        np.testing.assert_array_equal(out.valid, expected_ok)
        np.testing.assert_allclose(out.cost[out.valid], expected[expected_ok],
                                   rtol=1e-10, atol=1e-12)


class TestRegressDepth:
    def test_uniform_cost_gives_midpoint(self):
        hyp = DepthHypotheses(425.0, 935.0, 192)
        vol = CostVolume(0, hyp, np.full((192, 4, 5), 0.3),
                         np.full((192, 4, 5), 3), np.ones((192, 4, 5), bool))
        depth, prob = regress_depth(vol, temperature=1.0)
        np.testing.assert_allclose(depth.values, 680.0, rtol=1e-12)
        np.testing.assert_allclose(prob.sum(axis=0), 1.0, atol=1e-6)

    def test_one_hot_limit(self):
        hyp = DepthHypotheses(1.0, 2.0, 8)
        cost = np.full((8, 3, 3), 1e4)
        cost[5] = 0.0
        vol = CostVolume(0, hyp, cost, np.full(cost.shape, 2),
                         np.ones(cost.shape, bool))
        depth, _ = regress_depth(vol, temperature=1.0)
        np.testing.assert_allclose(depth.values, hyp.samples[5], rtol=1e-12)

    def test_symmetric_distribution_mean(self):
        # costs engineered so softmax gives probabilities (1/4, 1/2, 1/4)
        hyp = DepthHypotheses(1.0, 3.0, 3)
        cost = np.zeros((3, 2, 2))
        cost[0] = cost[2] = np.log(2.0)
        vol = CostVolume(0, hyp, cost, np.full(cost.shape, 2),
                         np.ones(cost.shape, bool))
        depth, prob = regress_depth(vol, temperature=1.0)
        np.testing.assert_allclose(prob[:, 0, 0], [0.25, 0.5, 0.25], atol=1e-12)
        np.testing.assert_allclose(depth.values, 2.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        hyp = DepthHypotheses(1.0, 2.0, 16)
        cost = rng.uniform(size=(16, 4, 4))
        vol = CostVolume(0, hyp, cost, np.full(cost.shape, 2),
                         np.ones(cost.shape, bool))
        d1, _ = regress_depth(vol, 0.1)
        vol2 = CostVolume(0, hyp, cost + 3.7, vol.support, vol.valid)
        d2, _ = regress_depth(vol2, 0.1)
        np.testing.assert_allclose(d1.values, d2.values, atol=1e-9)

    def test_output_in_range_and_invalid_pixels_flagged(self):
        rng = np.random.default_rng(7)
        hyp = DepthHypotheses(1.0, 2.0, 8)
        cost = rng.uniform(size=(8, 3, 3))
        valid = np.ones(cost.shape, bool)
        valid[:, 0, 0] = False
        vol = CostVolume(0, hyp, cost, np.where(valid, 2, 1), valid)
        depth, prob = regress_depth(vol, 0.05)
        assert not depth.valid[0, 0]
        assert depth.valid[1:].all()
        sel = depth.valid
        assert (depth.values[sel] >= hyp.d_min).all()
        assert (depth.values[sel] <= hyp.d_max).all()
        np.testing.assert_allclose(prob.sum(axis=0), 1.0, atol=1e-6)

    def test_partial_hypothesis_validity_normalizes_over_the_valid_subset(self):
        hyp = DepthHypotheses(1.0, 4.0, 4)
        cost = np.zeros((4, 1, 1))
        valid = np.array([True, True, False, False]).reshape(4, 1, 1)
        vol = CostVolume(0, hyp, cost, np.where(valid, 2, 1), valid)
        depth, prob = regress_depth(vol, 1.0)
        # equal costs over the two valid samples {1, 2}: expectation 1.5
        np.testing.assert_allclose(prob[:, 0, 0], [0.5, 0.5, 0.0, 0.0],
                                   atol=1e-12)
        assert depth.values[0, 0] == pytest.approx(1.5, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance_property(self, shift):
        rng = np.random.default_rng(8)
        hyp = DepthHypotheses(1.0, 2.0, 6)
        cost = rng.uniform(size=(6, 2, 2))
        vol = CostVolume(0, hyp, cost, np.full(cost.shape, 2),
                         np.ones(cost.shape, bool))
        d1, _ = regress_depth(vol, 0.5)
        vol2 = CostVolume(0, hyp, cost + shift, vol.support, vol.valid)
        d2, _ = regress_depth(vol2, 0.5)
        np.testing.assert_allclose(d1.values, d2.values, atol=1e-9)


def test_smoothed_regression_accuracy_on_plane(plane_scene):
    views, hyp, z0 = plane_scene["views"], plane_scene["hyp"], plane_scene["z0"]
    feats = [extract_features(v.image, "grad3") for v in views]
    vol = build_cost_volume(views, feats, 1, hyp)
    vol = smooth_cost_volume(vol, (1, 1, 1))
    depth, _ = regress_depth(vol, DESK_TEMPERATURE)
    gt = plane_scene["gt"][1]
    err = np.abs(depth.values - gt.values)[depth.valid & gt.valid]
    assert np.median(err) < hyp.spacing
