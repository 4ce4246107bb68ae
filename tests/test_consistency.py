"""Occlusion masks, cross-view consistency losses, and the total objective."""

import math

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthMap,
    LossWeights,
    compute_all_masks,
    occlusion_mask,
    total_loss,
)
from symmvs.consistency import OcclusionMask, SceneState, _evaluate
from symmvs.errors import TooFewViews

from conftest import scene_state

PHI_0 = math.sqrt(1e-6)
UNARY_FLOOR = (0.5 + 0.8 + 0.2) * PHI_0


def identical_pair_state(plane_scene, n=2):
    """n copies of the same view with the same correct depth."""
    views = [plane_scene["views"][1]] * n
    depths = [plane_scene["gt"][1]] * n
    weights = LossWeights(tau_occ=1.0)
    return scene_state(views, depths, weights)


class TestOcclusionMask:
    def test_same_view_fully_valid(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        m = occlusion_mask(gt[0], gt[0], views[0], views[0], tau=0.01)
        np.testing.assert_array_equal(m.valid, gt[0].valid)
        assert m.valid_count == int(gt[0].valid.sum())

    def test_huge_tau_keeps_all_warp_valid_pixels(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        m_small = occlusion_mask(gt[0], gt[1], views[0], views[1], tau=1e-12)
        m_huge = occlusion_mask(gt[0], gt[1], views[0], views[1], tau=1e12)
        # the huge threshold never binds: validity equals pure warp validity
        assert m_huge.valid_count >= m_small.valid_count
        from symmvs.geometry import warp_depth_values
        first, first_ok = warp_depth_values(
            gt[0].values, gt[0].valid, gt[1].values, gt[1].valid,
            views[0], views[1])
        second, second_ok = warp_depth_values(
            first, first_ok, gt[0].values, gt[0].valid, views[1], views[0])
        np.testing.assert_array_equal(m_huge.valid, second_ok & gt[0].valid)

    def test_monotone_in_tau(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        counts = [
            occlusion_mask(gt[0], gt[1], views[0], views[1], tau=t).valid_count
            for t in (1e-6, 1e-4, 0.01, 0.05, 1.0)
        ]
        assert counts == sorted(counts)

    def test_fixed_point_on_occlusion_free_scene(self, plane_scene):
        gt, views, hyp = plane_scene["gt"], plane_scene["views"], plane_scene["hyp"]
        m = occlusion_mask(gt[0], gt[1], views[0], views[1], tau=hyp.spacing)
        m_loose = occlusion_mask(gt[0], gt[1], views[0], views[1], tau=1e12)
        np.testing.assert_array_equal(m.valid, m_loose.valid)

    def test_occluded_band_detected(self, occluder_scene):
        from symmvs.geometry import backproject_pixels, project_points
        views, gt = occluder_scene["views"], occluder_scene["gt"]
        vis = occluder_scene["visibility"][(2, 0)]
        m = occlusion_mask(gt[2], gt[0], views[2], views[0], tau=0.05, pair=(2, 0))
        # comparison region: pixels whose point projects inside view 0,
        # derived analytically so it is independent of the warp chain
        h, w = gt[2].values.shape
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        pts = backproject_pixels(views[2], gx, gy, gt[2].values)
        px, py, pz = project_points(views[0], pts)
        region = (
            gt[2].valid & (pz > 0)
            & (px >= 1) & (px <= w - 2) & (py >= 1) & (py <= h - 2)
        )
        region[:2] = region[-2:] = False
        region[:, :2] = region[:, -2:] = False
        band = ~vis & region
        invalid = ~m.valid & region
        inter = (band & invalid).sum()
        union = (band | invalid).sum()
        assert band.sum() > 1000
        assert (region & vis).sum() > 1000
        assert inter / union >= 0.95

    def test_rejects_nonpositive_tau(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        with pytest.raises(ValueError):
            occlusion_mask(gt[0], gt[1], views[0], views[1], tau=0.0)


class TestImageConsistency:
    def test_identical_views_hit_floor(self, plane_scene):
        bd = total_loss(identical_pair_state(plane_scene))
        assert bd.image_consistency[(0, 1)] == pytest.approx(UNARY_FLOOR, rel=1e-9)

    def test_ground_truth_beats_perturbed(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        good = total_loss(scene_state(views, gt, weights)).image_consistency[(0, 1)]
        bumped = [DepthMap(d.values * 1.1, d.valid.copy()) for d in gt]
        bad = total_loss(scene_state(views, bumped, weights)).image_consistency[(0, 1)]
        assert good < bad

    def test_symmetric_for_identical_pair(self, plane_scene):
        bd = total_loss(identical_pair_state(plane_scene))
        a = bd.image_consistency[(0, 1)]
        b = bd.image_consistency[(1, 0)]
        assert a == pytest.approx(b, abs=1e-12)


class TestDepthConsistency:
    def test_consistent_depths_hit_phi_floor(self, plane_scene):
        bd = total_loss(identical_pair_state(plane_scene))
        assert bd.depth_consistency[(0, 1)] == pytest.approx(PHI_0, rel=1e-9)

    def test_biased_source_gives_phi_of_bias(self, plane_scene):
        views, gt = plane_scene["views"], plane_scene["gt"]
        weights = LossWeights(tau_occ=10.0)
        biased = DepthMap(gt[1].values + 2.0, gt[1].valid.copy())
        state = scene_state([views[0], views[1]], [gt[0], biased], weights)
        val = total_loss(state).depth_consistency[(0, 1)]
        assert val == pytest.approx(math.sqrt(4.0 + 1e-6), rel=1e-6)

    def test_empty_mask_total_skips(self, plane_scene):
        views, gt, weights = (plane_scene["views"][:2], plane_scene["gt"][:2],
                              plane_scene["weights"])
        shape = gt[0].values.shape
        masks = {
            (0, 1): OcclusionMask((0, 1), np.zeros(shape, bool)),
            (1, 0): OcclusionMask((1, 0), np.zeros(shape, bool)),
        }
        bd = total_loss(SceneState(views, gt, masks, weights))
        assert bd.depth_consistency[(0, 1)] == 0.0
        assert "Ld_0_1" in bd.skipped
        assert "Lu_0_1" in bd.skipped


class TestBrightnessConsistency:
    def test_three_identical_views_hit_floor(self, plane_scene):
        bd = total_loss(identical_pair_state(plane_scene, n=3))
        assert bd.brightness[(0, 1, 2)] == pytest.approx(UNARY_FLOOR, rel=1e-9)

    def test_symmetric_in_the_two_sources(self, plane_scene):
        # relabeling views 1 and 2 swaps the two sources of Lb_0_1_2
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        perm = [0, 2, 1]
        a = total_loss(scene_state(views, gt, weights)).brightness[(0, 1, 2)]
        b = total_loss(scene_state([views[k] for k in perm], [gt[k] for k in perm],
                                   weights)).brightness[(0, 1, 2)]
        assert a == pytest.approx(b, abs=1e-9)


class TestTotalLoss:
    def test_two_views_term_counts(self, plane_scene):
        state = scene_state(plane_scene["views"][:2], plane_scene["gt"][:2],
                            plane_scene["weights"])
        bd = total_loss(state)
        assert len(bd.synthesis) == 1
        assert len(bd.pair_consistency) == 1
        assert len(bd.brightness) == 0
        assert len(bd.unary) == 2
        assert len(bd.image_consistency) == 2
        assert len(bd.depth_consistency) == 2

    def test_three_views_term_counts(self, plane_scene):
        state = scene_state(plane_scene["views"], plane_scene["gt"],
                            plane_scene["weights"])
        bd = total_loss(state)
        assert len(bd.synthesis) == 3
        assert len(bd.pair_consistency) == 3
        assert len(bd.brightness) == 3

    def test_zero_weights_zero_total(self, plane_scene):
        weights = LossWeights(omega_u=0, omega_s=0, lambda1=0, lambda2=0,
                              lambda3=0, lambda4=0, lambda5=0, lambda6=0,
                              tau_occ=1.0)
        state = scene_state(plane_scene["views"], plane_scene["gt"], weights)
        assert total_loss(state).total == 0.0

    def test_breakdown_recomputes_total(self, plane_scene):
        state = scene_state(plane_scene["views"], plane_scene["gt"],
                            plane_scene["weights"])
        bd = total_loss(state)
        assert abs(bd.recomputed_total() - bd.total) < 1e-12

    def test_relabeling_leaves_total_unchanged(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        bd = total_loss(scene_state(views, gt, weights))
        perm = [2, 0, 1]
        bd_p = total_loss(scene_state([views[k] for k in perm],
                                      [gt[k] for k in perm], weights))
        assert abs(bd.total - bd_p.total) < 1e-12
        # the per-pair synthesis terms are the same multiset
        vals = sorted(bd.synthesis.values())
        vals_p = sorted(bd_p.synthesis.values())
        np.testing.assert_allclose(vals, vals_p, atol=1e-12)

    def test_ground_truth_beats_scaled_depths(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        at_gt = total_loss(scene_state(views, gt, weights)).total
        for s in (0.8, 0.9, 1.1, 1.2):
            scaled = [DepthMap(d.values * s, d.valid.copy()) for d in gt]
            assert at_gt < total_loss(scene_state(views, scaled, weights)).total

    def test_single_view_rejected(self, plane_scene):
        state = SceneState(plane_scene["views"][:1], plane_scene["gt"][:1], {},
                           plane_scene["weights"])
        with pytest.raises(TooFewViews):
            total_loss(state)

    def test_report_lines_are_deterministic_and_complete(self, plane_scene):
        state = scene_state(plane_scene["views"], plane_scene["gt"],
                            plane_scene["weights"])
        lines_a = total_loss(state).report_lines()
        lines_b = total_loss(state).report_lines()
        assert lines_a == lines_b
        joined = "\n".join(lines_a)
        for key in ("Lu_0_1", "Lu_1_0", "Ls_0", "Lm_0_1", "Ld_0_1",
                    "Lb_0_1_2", "Lsynth_0_1", "Lc_0_1", "Lconsistency",
                    "total"):
            assert key + " " in joined or key + " =" in joined


def test_masks_cover_all_ordered_pairs(plane_scene):
    masks = compute_all_masks(plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
    assert set(masks) == {(i, j) for i in range(3) for j in range(3) if i != j}
    assert masks[(0, 1)].pair == (0, 1)


def test_gradient_flows_to_both_depths_of_a_pair(plane_scene):
    views, gt, weights = (plane_scene["views"][:2], plane_scene["gt"][:2],
                          plane_scene["weights"])
    masks = compute_all_masks(views, gt, weights)
    bd, total, leaves = _evaluate(views, gt, masks, weights, with_grad=True)
    total.backward()
    assert leaves[0].grad is not None and np.abs(leaves[0].grad).max() > 0
    assert leaves[1].grad is not None and np.abs(leaves[1].grad).max() > 0
