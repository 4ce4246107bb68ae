"""The robust penalty, census transform, SSIM, the unary comparator, the
smoothness term, and the pairwise synthesis entries of the total loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmvs import (
    DepthMap,
    LossWeights,
    OcclusionMask,
    SceneState,
    census_distance,
    census_transform,
    charbonnier,
    ssim_map,
    total_loss,
)
from symmvs.autodiff import value_of
from symmvs.errors import EmptyMask, ShapeMismatch
from symmvs.photometry import (
    box_norm,
    channel_mean,
    edge_weights,
    reference_stats,
    smoothness_term,
    unary_comparator,
)

from _oracles import census_bits_brute, census_distance_mean, ssim_direct
from conftest import same_bytes

PHI_0 = math.sqrt(1e-6)
UNARY_FLOOR = (0.5 + 0.8 + 0.2) * PHI_0


def smoothness(image, depth, w):
    return smoothness_term(depth.values, depth.valid,
                           edge_weights(image, w.alpha1, w.alpha2))


def ssim(a, b):
    """`ssim_map` of two (H, W, C) images, ``a`` as the reference."""
    return ssim_map(reference_stats(a), reference_stats(b))


def unary(image_ref, image_syn, mask, w):
    return unary_comparator(reference_stats(image_ref), reference_stats(image_syn),
                            mask, w)


def pair_synthesis(view_i, view_j, depth_i, depth_j, w):
    """Synthesis term of the pair (view_i, view_j) under full masks."""
    full = np.ones(depth_i.values.shape, bool)
    masks = {(0, 1): OcclusionMask((0, 1), full), (1, 0): OcclusionMask((1, 0), full)}
    state = SceneState([view_i, view_j], [depth_i, depth_j], masks, w)
    return total_loss(state).synthesis[(0, 1)]


class TestLossWeights:
    def test_stock_defaults(self):
        w = LossWeights()
        assert (w.lambda1, w.lambda2, w.lambda3, w.lambda4) == (0.5, 0.8, 0.5, 0.2)
        assert (w.lambda5, w.lambda6) == (0.3, 0.3)
        assert (w.alpha1, w.alpha2) == (0.5, 0.5)
        assert (w.omega_u, w.omega_s) == (0.8, 0.1)
        assert w.tau_occ == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossWeights(lambda3=-0.1)


class TestCharbonnier:
    def test_at_zero(self):
        assert charbonnier(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_at_one(self):
        assert charbonnier(1.0) == pytest.approx(math.sqrt(1.000001), rel=1e-15)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_even_function(self, x):
        assert charbonnier(np.float64(x)) == charbonnier(np.float64(-x))

    def test_dominates_abs_and_floor(self):
        xs = np.linspace(-3, 3, 301)
        phi = charbonnier(xs)
        assert (phi >= np.abs(xs)).all()
        assert (phi >= 1e-3).all()
        at_zero = charbonnier(np.zeros(1))
        assert at_zero[0] == pytest.approx(1e-3, rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        # the slope that the VJPs of the formulas built on it use
        xs = np.linspace(-2, 2, 101)
        h = 1e-6
        numeric = (charbonnier(xs + h) - charbonnier(xs - h)) / (2 * h)
        np.testing.assert_allclose(xs / charbonnier(xs), numeric, rtol=1e-6, atol=1e-10)


class TestCensus:
    def test_constant_image_all_zero(self):
        planes = census_transform(np.full((5, 6), 0.3))
        assert planes.shape == (8, 5, 6)
        assert not planes.any()

    def test_step_edge_matches_brute_force(self):
        img = np.zeros((5, 8))
        img[:, 4:] = 1.0
        planes = census_transform(img)
        np.testing.assert_array_equal(planes, census_bits_brute(img))
        # a pixel just right of the edge sees exactly its 3 left neighbors
        # as darker
        assert planes[:, 2, 4].sum() == 3

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_gain_bias_invariance(self, gain, bias):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(6, 6))
        np.testing.assert_array_equal(census_transform(img),
                                      census_transform(gain * img + bias))

    def test_distance_identical_and_complementary(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(5, 5))
        planes = census_transform(img)
        np.testing.assert_array_equal(census_distance(planes, planes), 0.0)
        flipped = census_transform(-img)
        # interior pixels have no boundary ties, so all 8 bits flip
        np.testing.assert_allclose(census_distance(planes, flipped)[1:-1, 1:-1], 1.0)

    def test_distance_of_shifted_edge_matches_bit_count(self):
        img_a = np.zeros((5, 8))
        img_a[:, 4:] = 1.0
        img_b = np.zeros((5, 8))
        img_b[:, 5:] = 1.0
        d = census_distance(census_transform(img_a), census_transform(img_b))
        brute = (census_bits_brute(img_a) != census_bits_brute(img_b)).mean(axis=0)
        np.testing.assert_allclose(d, brute, atol=1e-15)

    def test_planes_and_distance_match_brute_force(self):
        # quantized intensities give many ties, which must read as bit 0
        rng = np.random.default_rng(3)
        img_a = np.round(rng.uniform(size=(11, 14)) * 6.0) / 6.0
        img_b = np.round(rng.uniform(size=(11, 14)) * 6.0) / 6.0
        a, b = census_transform(img_a), census_transform(img_b)
        bits_a, bits_b = census_bits_brute(img_a), census_bits_brute(img_b)
        np.testing.assert_array_equal(a, bits_a)
        np.testing.assert_array_equal(b, bits_b)
        assert same_bytes(census_distance(a, b), census_distance_mean(bits_a, bits_b))

    def test_distance_shape_mismatch(self):
        a = census_transform(np.zeros((4, 4)))
        b = census_transform(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            census_distance(a, b)


class TestSSIM:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(8, 9))
        np.testing.assert_allclose(ssim(img[..., None], img[..., None]), 1.0, atol=1e-9)

    def test_equal_constants_give_one(self):
        a = np.full((5, 5), 0.5)
        np.testing.assert_allclose(ssim(a[..., None], a.copy()[..., None]), 1.0,
                                   atol=1e-12)

    def test_matches_direct_formula_on_inverted_patch(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(7, 8))
        np.testing.assert_allclose(
            ssim(a[..., None], (1.0 - a)[..., None]), ssim_direct(a, 1.0 - a),
            atol=1e-9,
        )

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(9, 9))
        b = rng.uniform(size=(9, 9))
        s = ssim(a[..., None], b[..., None])
        assert (s <= 1.0 + 1e-12).all()
        assert (s >= -1.0 - 1e-12).all()

    def test_window_normalizer_is_one_read_only_array_per_grid(self):
        # the normalizer depends on the grid alone: it is made once and
        # shared by every caller, so none may write into it
        norm = box_norm(5, 7)
        assert box_norm(5, 7) is norm
        with pytest.raises(ValueError):
            norm[0, 0] = 0.0
        # the in-image pixel count of each 3x3 window
        assert (norm[0, 0], norm[0, 3], norm[2, 3]) == (4.0, 6.0, 9.0)

    def test_channel_average(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(6, 6, 3))
        b = rng.uniform(size=(6, 6, 3))
        per = np.stack([value_of(ssim(a[..., c:c + 1], b[..., c:c + 1]))
                        for c in range(3)])
        np.testing.assert_allclose(ssim(a, b), per.mean(axis=0), atol=1e-12)


class TestUnaryLoss:
    def test_perfect_match_hits_the_robust_floor(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(10, 12, 1))
        mask = np.ones((10, 12), bool)
        loss = unary(img, img.copy(), mask, LossWeights())
        assert loss == pytest.approx(UNARY_FLOOR, rel=1e-9)

    def test_mean_normalization_mask_independent(self):
        # spatially uniform residuals: halving the mask leaves the loss as is
        rng = np.random.default_rng(8)
        img = rng.uniform(0.2, 0.8, size=(10, 12, 1))
        syn = img + 0.05
        full = np.ones((10, 12), bool)
        half = full.copy()
        half[:, 6:] = False
        w = LossWeights(lambda2=0.0, lambda3=0.0, lambda4=0.0)
        assert unary(img, syn, full, w) == pytest.approx(
            unary(img, syn, half, w), rel=1e-9
        )

    def test_constant_offset_closed_form(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(0.2, 0.8, size=(12, 14, 1))
        syn = img + 0.1
        mask = np.ones((12, 14), bool)
        w = LossWeights()
        loss = unary(img, syn, mask, w)
        ssim_term = (1.0 - ssim_direct(img[..., 0], syn[..., 0])).mean() / 2.0
        expected = (
            w.lambda1 * charbonnier(0.1)
            + w.lambda2 * PHI_0
            + w.lambda3 * ssim_term
            + w.lambda4 * PHI_0
        )
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_floor_is_a_lower_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.uniform(size=(8, 8, 1))
            b = rng.uniform(size=(8, 8, 1))
            w = LossWeights(lambda3=0.0)
            assert unary(a, b, np.ones((8, 8), bool), w) >= UNARY_FLOOR - 1e-12

    def test_empty_mask_raises(self):
        img = np.zeros((4, 4, 1))
        with pytest.raises(EmptyMask):
            unary(img, img, np.zeros((4, 4), bool), LossWeights())


class TestSmoothnessLoss:
    def test_constant_depth_is_zero(self):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(8, 9, 1))
        d = DepthMap(np.full((8, 9), 2.5))
        assert smoothness(img, d, LossWeights()) == 0.0

    def test_ramp_with_flat_image_is_one(self):
        img = np.full((10, 12, 1), 0.5)
        gx = np.tile(np.arange(12, dtype=float) + 1.0, (10, 1))
        d = DepthMap(gx)
        assert smoothness(img, d, LossWeights()) == pytest.approx(1.0, rel=1e-12)

    def test_image_edges_reduce_the_penalty(self):
        gx = np.tile(np.arange(12, dtype=float) + 1.0, (10, 1))
        d = DepthMap(gx)
        flat = np.full((10, 12, 1), 0.5)
        edgy = (gx / 12.0)[:, :, None]
        w = LossWeights()
        assert smoothness(edgy, d, w) < smoothness(flat, d, w)

    def test_invariant_to_constant_depth_shift(self):
        rng = np.random.default_rng(12)
        img = rng.uniform(size=(8, 9, 1))
        vals = rng.uniform(1.0, 2.0, (8, 9))
        w = LossWeights()
        a = smoothness(img, DepthMap(vals), w)
        b = smoothness(img, DepthMap(vals + 5.0), w)
        assert a == pytest.approx(b, rel=1e-12)


class TestSynthesisLoss:
    def test_identical_views_hit_floor_plus_smoothness(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        w = LossWeights()
        loss = pair_synthesis(views[1], views[1], gt[1], gt[1], w)
        ls = smoothness(views[1].image, gt[1], w)
        assert loss == pytest.approx(0.8 * 2 * UNARY_FLOOR + 0.1 * ls, rel=1e-9)

    def test_zero_weights_give_zero(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        w = LossWeights(omega_u=0.0, omega_s=0.0)
        assert pair_synthesis(views[0], views[1], gt[0], gt[1], w) == 0.0

    def test_ground_truth_beats_doubled_depth(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        w = LossWeights()
        good = pair_synthesis(views[0], views[1], gt[0], gt[1], w)
        doubled = [DepthMap(g.values * 2.0, g.valid.copy()) for g in gt[:2]]
        bad = pair_synthesis(views[0], views[1], doubled[0], doubled[1], w)
        assert good < bad


def test_grayscale_is_channel_mean():
    # the channels are added one after another, from the first
    rng = np.random.default_rng(13)
    img = rng.uniform(size=(5, 6, 3))
    assert same_bytes(channel_mean(img),
                      (img[:, :, 0] + img[:, :, 1] + img[:, :, 2]) / 3)
    np.testing.assert_allclose(channel_mean(img), img.mean(axis=2), atol=1e-15)
    gray = img[:, :, 0]
    assert channel_mean(gray) is gray
