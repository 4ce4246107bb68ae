"""Feature extraction, plane-sweep cost volumes, smoothing, and regression."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmvs import (
    CameraView,
    DepthHypotheses,
    build_cost_volume,
    extract_features,
    pair_records,
    regress_depth,
    smooth_cost_volume,
)
from symmvs.errors import NonFiniteValue, ShapeMismatch, TooFewViews
from symmvs.photometry import channel_mean
from symmvs.volume import CostVolume

from _oracles import (
    box_filter_valid_brute,
    cost_volume_loop,
    population_variance_brute,
    regress_depth_loop,
    smooth_cost_volume_whole,
)
from conftest import make_camera, records


def gray_features(view):
    """One-channel (1, H, W) features: the view's luminance."""
    return channel_mean(view.image)[None]


class TestExtractFeatures:
    def test_constant_image_grad3(self):
        fm = extract_features(np.full((6, 8), 0.4))
        assert fm.shape == (3, 6, 8)
        np.testing.assert_allclose(fm[0], 0.4)
        np.testing.assert_array_equal(fm[1], 0.0)
        np.testing.assert_array_equal(fm[2], 0.0)

    def test_x_ramp_gradient_channel(self):
        w = 8
        gx = np.tile(np.arange(w, dtype=float) / w, (6, 1))
        fm = extract_features(gx)
        np.testing.assert_allclose(fm[1, :, :-1], 1.0 / w, atol=1e-12)
        np.testing.assert_array_equal(fm[1, :, -1], 0.0)


class TestBuildCostVolume:
    @staticmethod
    def identical_views():
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(12, 16))
        views = [
            CameraView(make_camera(0.0, width=16, height=12).intrinsics,
                       np.eye(3), np.zeros(3), img)
            for _ in range(3)
        ]
        return views, [extract_features(v.image) for v in views]

    def test_identical_views_give_exactly_zero_cost(self):
        views, feats = self.identical_views()
        hyp = DepthHypotheses(1.0, 2.0, 5)
        vol = build_cost_volume(records(views), feats, 0, hyp)
        assert (vol.cost == 0.0).all()
        assert vol.valid.all()

    @pytest.mark.parametrize("rows", [(0, 5), (5, 12), (11, 12)])
    def test_identical_views_give_exactly_zero_cost_over_rows(self, rows):
        views, feats = self.identical_views()
        vol = build_cost_volume(records(views, rows), feats, 0,
                                DepthHypotheses(1.0, 2.0, 5))
        assert vol.cost.shape == (5, rows[1] - rows[0], 16)
        assert (vol.cost == 0.0).all()
        assert vol.valid.all()

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
    def test_volume_over_rows_holds_the_whole_volumes_rows(self, request, scene):
        sc = request.getfixturevalue(scene)
        views = sc["views"]
        hyp = sc.get("hyp", DepthHypotheses(1.5, 4.0, 16))
        feats = [extract_features(v.image) for v in views]
        h = views[0].image.shape[0]
        for ref in range(len(views)):
            whole = build_cost_volume(records(views), feats, ref, hyp)
            for top, bottom in ((0, 7), (7, h - 5), (h - 5, h), (0, h)):
                band = build_cost_volume(records(views, (top, bottom)), feats, ref,
                                         hyp)
                for got, want in ((band.cost, whole.cost), (band.valid, whole.valid)):
                    assert same_bits(got, np.ascontiguousarray(want[:, top:bottom]))

    def test_true_depth_wins_argmin_on_interior(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        vol = build_cost_volume(records(views), feats, 1, hyp)
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
        feats = [gray_features(v) for v in (near, far)]
        hyp = DepthHypotheses(0.5, 1.0, 3)
        vol = build_cost_volume(records([near, far]), feats, 0, hyp)
        # the second camera is 50 units off axis: every warp misses it
        assert not vol.valid.any()

    def test_variance_matches_brute_force(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [gray_features(v) for v in views]
        vol = build_cost_volume(records(views), feats, 0, hyp)
        # spot-check a few cells against the direct per-view resampling
        from symmvs import plane_homography, warp_field_from_homography, bilinear_sample
        rng = np.random.default_rng(3)
        h, w = feats[0].shape[1:]
        for _ in range(20):
            k = int(rng.integers(0, hyp.count))
            y = int(rng.integers(2, h - 2))
            x = int(rng.integers(2, w - 2))
            samples = [feats[0][0, y, x]]
            for s in (1, 2):
                hom = plane_homography(views[0], views[s], float(hyp.samples[k]))
                fld = warp_field_from_homography(hom, h, w)
                vals, ok = bilinear_sample(np.moveaxis(feats[s], 0, -1), fld)
                if ok[y, x]:
                    samples.append(vals[y, x, 0])
            if len(samples) >= 2:
                expected = population_variance_brute(samples)
                assert vol.cost[k, y, x] == pytest.approx(expected, rel=1e-9, abs=1e-15)
                assert vol.valid[k, y, x]

    def test_permutation_invariance(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        vol_a = build_cost_volume(records(views), feats, 0, hyp)
        perm_views = [views[0], views[2], views[1]]
        perm_feats = [feats[0], feats[2], feats[1]]
        vol_b = build_cost_volume(records(perm_views), perm_feats, 0, hyp)
        assert np.abs(vol_a.cost - vol_b.cost).max() < 1e-12

    @pytest.mark.parametrize("features", [
        pytest.param(gray_features, id="intensity"),
        pytest.param(lambda v: extract_features(v.image), id="grad3"),
    ])
    @pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
    def test_matches_per_view_resampling_loop_exactly(self, request, scene,
                                                      features):
        # F = 1 and F = 3 channels
        sc = request.getfixturevalue(scene)
        views = sc["views"]
        hyp = sc.get("hyp", DepthHypotheses(1.5, 4.0, 16))
        feats = [features(v) for v in views]
        for ref in range(len(views)):
            vol = build_cost_volume(records(views), feats, ref, hyp)
            cost, valid = cost_volume_loop(views, feats, ref, hyp)
            assert np.array_equal(vol.cost, cost)
            assert np.array_equal(vol.valid, valid)

    @pytest.mark.parametrize("bad_view", [0, 2])
    def test_non_finite_features_name_the_view(self, plane_scene, bad_view):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        feats[bad_view] = feats[bad_view].copy()
        feats[bad_view][1, 10, 20] = np.nan
        with pytest.raises(NonFiniteValue, match=f"view {bad_view} "):
            build_cost_volume(records(views), feats, 1, hyp)

    def test_feature_shape_mismatch(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        feats[2] = gray_features(views[2])
        with pytest.raises(ShapeMismatch, match="view 2 "):
            build_cost_volume(records(views), feats, 0, hyp)

    @pytest.mark.parametrize("bad_view", [0, 2])
    @pytest.mark.parametrize("bad", [
        pytest.param(lambda f: f[0], id="2-D"),
        pytest.param(lambda f: f[:, :, :, None], id="4-D"),
        pytest.param(lambda f: f[:0], id="no-channel"),
    ])
    def test_features_not_f_h_w_name_the_view(self, plane_scene, bad_view, bad):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        feats[bad_view] = bad(feats[bad_view])
        with pytest.raises(ShapeMismatch, match=f"^features of view {bad_view} "):
            build_cost_volume(records(views), feats, 0, hyp)

    def test_features_are_read_without_a_copy(self, plane_scene, monkeypatch):
        # each view's (3, H, W) stack is reshaped to (3, H*W) as a view: every
        # array the gathers read shares memory with a source's features
        views = plane_scene["views"]
        feats = [extract_features(v.image) for v in views]
        read = []
        take = np.take
        monkeypatch.setattr(np, "take", lambda a, *args, **kw: (
            read.append(a), take(a, *args, **kw))[1])
        build_cost_volume(records(views), feats, 0, DepthHypotheses(2.0, 3.0, 2))
        assert read and all(any(np.shares_memory(a, f) for f in feats[1:])
                            for a in read)

    def test_records_off_the_grid_or_the_rows_name_the_pair(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        feats = [extract_features(v.image) for v in views]
        # a record over other rows than the first, or built for another grid,
        # whose bilinear taps would index the features at the wrong pixels
        pairs = records(views)
        pairs[0, 2] = pairs[0, 2].band(0, 20)
        message = (r"^pair \(0, 2\) record covers rows \(0, 20\) of \(48, 64\), "
                   r"not \(0, 48\) ")
        with pytest.raises(ShapeMismatch, match=message):
            build_cost_volume(pairs, feats, 0, hyp)
        message = (r"^pair \(1, 0\) record covers rows .* of \(24, 32\), "
                   r"not .* of \(48, 64\)$")
        with pytest.raises(ShapeMismatch, match=message):
            build_cost_volume(pair_records(views, (24, 32)), feats, 1, hyp)

    def test_too_few_views(self, plane_scene):
        views = plane_scene["views"][:1]
        feats = [extract_features(views[0].image)]
        with pytest.raises(TooFewViews):
            build_cost_volume(records(views), feats, 0, plane_scene["hyp"])


def same_bits(a, b):
    """Equal dtype, shape and bytes: tells 0.0 from -0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_volume(seed, shape, p_valid=0.6, dead_pixels=3):
    """A cost volume with scattered invalid cells whose cost is not the
    sentinel 0, and a few pixels with no valid hypothesis at all."""
    rng = np.random.default_rng(seed)
    d, h, w = shape
    cost = rng.uniform(0.0, 2.0, size=shape)
    valid = rng.uniform(size=shape) < p_valid
    for _ in range(dead_pixels):
        valid[:, rng.integers(h), rng.integers(w)] = False
    return CostVolume(DepthHypotheses(1.0, 3.0, d), cost, valid)


VOLUME_SHAPES = [(2, 5, 7), (3, 1, 6), (5, 6, 1), (8, 9, 11), (17, 4, 5)]


class TestSmoothCostVolume:
    def make_volume(self, cost, valid=None):
        d, h, w = cost.shape
        valid = np.ones(cost.shape, bool) if valid is None else valid
        return CostVolume(DepthHypotheses(1.0, 2.0, d), cost, valid)

    def test_constant_volume_unchanged(self):
        vol = self.make_volume(np.full((3, 4, 5), 0.7))
        out = smooth_cost_volume(vol)
        np.testing.assert_allclose(out.cost, 0.7, rtol=1e-12)

    def test_impulse_spreads_over_neighborhood(self):
        cost = np.zeros((5, 5, 5))
        cost[2, 2, 2] = 27.0
        vol = self.make_volume(cost)
        out = smooth_cost_volume(vol)
        np.testing.assert_allclose(out.cost[1:4, 1:4, 1:4], 1.0, rtol=1e-12)
        assert out.cost[0, 2, 2] == 0.0

    def test_matches_brute_force_with_invalid_cells(self):
        rng = np.random.default_rng(5)
        # the 3x3x3 window is wider than every axis of (2, 1, 2): each
        # window is clipped at both ends
        for shape in [(4, 5, 6), (2, 1, 2)]:
            cost = rng.uniform(size=shape)
            valid = rng.uniform(size=shape) > 0.4
            vol = self.make_volume(np.where(valid, cost, 0.0), valid)
            out = smooth_cost_volume(vol)
            expected, expected_ok = box_filter_valid_brute(vol.cost, valid, (1, 1, 1))
            np.testing.assert_array_equal(out.valid, expected_ok)
            np.testing.assert_allclose(out.cost[out.valid], expected[expected_ok],
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shape", VOLUME_SHAPES)
    def test_streamed_matches_whole_volume_form_bit_for_bit(self, shape):
        # axes of 1 clip the window at both ends
        vol = random_volume(sum(shape), shape)
        out = smooth_cost_volume(vol)
        cost, ok = smooth_cost_volume_whole(vol)
        assert same_bits(out.cost, cost)
        assert same_bits(out.valid, ok)

    def test_signed_zero_costs_keep_their_bits(self):
        # -0.0 everywhere: each 3x3 window sum starts at +0.0, which turns
        # a window of -0.0 into +0.0, so every output is +0.0
        vol = random_volume(11, (4, 5, 6))
        vol.cost[...] = -0.0
        out = smooth_cost_volume(vol)
        cost, ok = smooth_cost_volume_whole(vol)
        assert same_bits(out.cost, cost) and same_bits(out.valid, ok)
        assert same_bits(out.cost, np.zeros(vol.cost.shape))


def one_pixel_volume(cost, valid=None):
    """A (D, 1, 1) volume over the samples 1, 2, ..., D."""
    cost = np.asarray(cost, dtype=np.float64).reshape(-1, 1, 1)
    valid = (np.ones(cost.shape, bool) if valid is None
             else np.asarray(valid, bool).reshape(cost.shape))
    return CostVolume(DepthHypotheses(1.0, cost.shape[0], cost.shape[0]), cost, valid)


class TestRegressDepth:
    def test_exact_vertex_on_a_quadratic_cost(self):
        # the parabola through three samples of a quadratic is the quadratic
        hyp = DepthHypotheses(1.0, 2.0, 11)
        z = np.array([[1.234, 1.5], [1.1 + 0.05, 1.87]])
        cost = (hyp.samples[:, None, None] - z) ** 2
        vol = CostVolume(hyp, cost, np.ones(cost.shape, bool))
        depth, at_end = regress_depth(vol)
        assert depth.valid.all() and not at_end.any()
        np.testing.assert_allclose(depth.values, z, rtol=0, atol=1e-12)

    def test_first_minimum_on_ties(self):
        # two equal minima apart: the first; next to each other: the
        # parabola's vertex halfway between them
        depth, _ = regress_depth(one_pixel_volume([5.0, 1.0, 4.0, 1.0, 5.0]))
        assert depth.values[0, 0] == pytest.approx(2.0 + 1.0 / 14.0, abs=1e-15)
        depth, _ = regress_depth(one_pixel_volume([5.0, 1.0, 1.0, 5.0]))
        assert depth.values[0, 0] == 2.5

    def test_no_offset_next_to_an_invalid_entry(self):
        cost = [3.0, 2.0, 1.0, 1.5, 3.0]
        for invalid in (1, 3):
            valid = np.ones(5, bool)
            valid[invalid] = False
            depth, _ = regress_depth(one_pixel_volume(cost, valid))
            assert depth.valid[0, 0] and depth.values[0, 0] == 3.0
        # both neighbours valid: the vertex, a sixth of a spacing above
        depth, _ = regress_depth(one_pixel_volume(cost))
        assert depth.values[0, 0] == pytest.approx(3.0 + 1.0 / 6.0, abs=1e-15)

    def test_no_offset_on_a_symmetric_or_flat_parabola(self):
        # equal neighbours put the vertex on the sample. A flat parabola
        # (c- = c0 = c+) cannot occur at a first minimum with both
        # neighbours valid, since c- > c0 there; the equal right neighbour
        # is the flattest case, and it moves half a spacing
        depth, _ = regress_depth(one_pixel_volume([4.0, 2.0, 1.0, 2.0, 4.0]))
        assert depth.values[0, 0] == 3.0
        depth, _ = regress_depth(one_pixel_volume([4.0, 2.0, 1.0, 1.0, 4.0]))
        assert depth.values[0, 0] == 3.5

    def test_range_end_minimum_and_all_invalid_pixel_are_invalid(self):
        hyp = DepthHypotheses(1.0, 2.0, 5)
        cost = np.tile(np.array([3.0, 2.0, 1.0, 2.0, 3.0])[:, None, None], (1, 1, 4))
        cost[:, 0, 0] = [0.5, 1.0, 2.0, 3.0, 4.0]  # minimum at d_min
        cost[:, 0, 1] = [4.0, 3.0, 2.0, 1.0, 0.5]  # minimum at d_max
        valid = np.ones(cost.shape, bool)
        valid[:, 0, 2] = False  # no valid hypothesis
        depth, at_end = regress_depth(CostVolume(hyp, cost, valid))
        assert depth.valid.tolist() == [[False, False, False, True]]
        assert at_end.tolist() == [[True, True, False, False]]
        assert (depth.values[~depth.valid] == 0.0).all()
        assert depth.values[0, 3] == 1.5

    def test_no_runtime_warning(self):
        # invalid entries next to minima, pixels without a valid
        # hypothesis, range-end minima and huge costs: nothing may warn
        vol = random_volume(21, (9, 7, 8), p_valid=0.5)
        vol.cost[:, 0] *= 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth, at_end = regress_depth(vol)
        assert np.isfinite(depth.values).all()
        assert not (depth.valid & at_end).any()

    def test_one_hot_limit(self):
        hyp = DepthHypotheses(1.0, 2.0, 8)
        cost = np.full((8, 3, 3), 1e4)
        cost[5] = 0.0
        vol = CostVolume(hyp, cost, np.ones(cost.shape, bool))
        depth, _ = regress_depth(vol)
        assert (depth.values == hyp.samples[5]).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        hyp = DepthHypotheses(1.0, 2.0, 16)
        cost = rng.uniform(size=(16, 4, 4))
        vol = CostVolume(hyp, cost, np.ones(cost.shape, bool))
        d1, _ = regress_depth(vol)
        vol2 = CostVolume(hyp, cost + 3.7, vol.valid)
        d2, _ = regress_depth(vol2)
        assert (d1.valid == d2.valid).all()
        np.testing.assert_allclose(d1.values, d2.values, atol=1e-9)

    def test_output_in_range_and_invalid_pixels_flagged(self):
        rng = np.random.default_rng(7)
        hyp = DepthHypotheses(1.0, 2.0, 8)
        cost = rng.uniform(size=(8, 3, 3))
        cost[[0, -1]] = 2.0  # no minimum at a range end
        valid = np.ones(cost.shape, bool)
        valid[:, 0, 0] = False
        vol = CostVolume(hyp, cost, valid)
        depth, _ = regress_depth(vol)
        assert not depth.valid[0, 0]
        assert depth.valid.sum() == 8
        sel = depth.valid
        assert (depth.values[sel] >= hyp.d_min).all()
        assert (depth.values[sel] <= hyp.d_max).all()

    def test_partial_hypothesis_validity_normalizes_over_the_valid_subset(self):
        # the minimum is taken over the valid entries only: the invalid
        # entries' costs (here lower) are never read
        hyp = DepthHypotheses(1.0, 5.0, 5)
        cost = np.array([0.0, 2.0, 1.0, 3.0, 0.0]).reshape(5, 1, 1)
        valid = np.array([False, True, True, True, False]).reshape(5, 1, 1)
        depth, at_end = regress_depth(CostVolume(hyp, cost, valid))
        assert depth.valid[0, 0] and not at_end[0, 0]
        assert depth.values[0, 0] == 3.0 + (2.0 - 3.0) / (2.0 * (1.0 + 2.0))

    @given(st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance_property(self, shift):
        rng = np.random.default_rng(8)
        hyp = DepthHypotheses(1.0, 2.0, 6)
        cost = rng.uniform(size=(6, 2, 2))
        vol = CostVolume(hyp, cost, np.ones(cost.shape, bool))
        d1, _ = regress_depth(vol)
        vol2 = CostVolume(hyp, cost + shift, vol.valid)
        d2, _ = regress_depth(vol2)
        np.testing.assert_allclose(d1.values, d2.values, atol=1e-9)

    @pytest.mark.parametrize("shape", VOLUME_SHAPES)
    @pytest.mark.parametrize("scale", [1e-3, 0.3, 50.0])
    def test_in_place_matches_whole_volume_form_bit_for_bit(self, shape, scale):
        # the vectorized readout against the per-pixel loop, at costs of
        # several magnitudes
        vol = random_volume(sum(shape) + 1, shape)
        vol.cost *= scale
        depth, at_end = regress_depth(vol)
        values, valid, expected_at_end = regress_depth_loop(vol)
        assert same_bits(depth.values, values)
        assert same_bits(depth.valid, valid)
        assert same_bits(at_end, expected_at_end)
        assert not depth.valid.all()

    def test_no_valid_hypothesis_anywhere(self):
        vol = random_volume(14, (4, 3, 5), p_valid=0.0)
        depth, at_end = regress_depth(vol)
        assert not depth.valid.any() and not at_end.any()
        assert same_bits(depth.values, np.zeros((3, 5)))

    def test_input_volume_is_left_unchanged(self):
        vol = random_volume(15, (6, 4, 5))
        before = [a.copy() for a in (vol.cost, vol.valid)]
        out = smooth_cost_volume(vol)
        regress_depth(vol)
        regress_depth(out)
        for a, b in zip(before, (vol.cost, vol.valid)):
            assert same_bits(a, b)


@pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
def test_sweep_stages_match_whole_volume_forms_on_scenes(request, scene):
    sc = request.getfixturevalue(scene)
    views = sc["views"]
    hyp = sc.get("hyp", DepthHypotheses(1.5, 4.0, 16))
    feats = [extract_features(v.image) for v in views]
    for ref in range(len(views)):
        vol = build_cost_volume(records(views), feats, ref, hyp)
        smoothed = smooth_cost_volume(vol)
        cost, ok = smooth_cost_volume_whole(vol)
        assert same_bits(smoothed.cost, cost) and same_bits(smoothed.valid, ok)
        depth, at_end = regress_depth(smoothed)
        values, valid, expected_at_end = regress_depth_loop(smoothed)
        assert same_bits(depth.values, values) and same_bits(depth.valid, valid)
        assert same_bits(at_end, expected_at_end)


def test_smoothed_regression_accuracy_on_plane(plane_scene):
    views, hyp, z0 = plane_scene["views"], plane_scene["hyp"], plane_scene["z0"]
    feats = [extract_features(v.image) for v in views]
    vol = build_cost_volume(records(views), feats, 1, hyp)
    vol = smooth_cost_volume(vol)
    depth, _ = regress_depth(vol)
    gt = plane_scene["gt"][1]
    err = np.abs(depth.values - gt.values)[depth.valid & gt.valid]
    assert np.median(err) < hyp.spacing
