"""Occlusion masks, cross-view consistency losses, and the total objective."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthMap,
    LossWeights,
    compute_all_masks,
    consistency,
    fusion,
    geometry,
    photometry,
    total_loss,
)
from symmvs.autodiff import Var, value_of
from symmvs.consistency import (
    OcclusionMask,
    SceneState,
    ViewContext,
    _evaluate,
    _pair_warps,
)
from symmvs.errors import ShapeMismatch, TooFewViews
from symmvs.photometry import edge_weights, reference_stats, unary_comparator
from symmvs.solver import SolverConfig, loss_gradient, refine

from _oracles import round_trip_mask, synthesize_view
from conftest import noisy_depths, same_bytes, scene_state

PHI_0 = math.sqrt(1e-6)
UNARY_FLOOR = (0.5 + 0.8 + 0.2) * PHI_0


def identical_pair_state(plane_scene, n=2):
    """n copies of the same view with the same correct depth."""
    views = [plane_scene["views"][1]] * n
    depths = [plane_scene["gt"][1]] * n
    weights = LossWeights(tau_occ=1.0)
    return scene_state(views, depths, weights)


def sampled(views, depths, t, s):
    """A fresh `geometry.ViewPair` of (t, s) and its sampling at view t's
    depth."""
    pair = geometry.pair_coefficients(views[t], views[s], *depths[t].values.shape)
    return pair, geometry.pair_sampling(pair, depths[t].values, depths[t].valid)


def pair_mask(views, depths, t, s, tau):
    """Mask (t, s) of `compute_all_masks` over ``views`` at ``depths``."""
    return compute_all_masks(views, depths, LossWeights(tau_occ=tau))[t, s]


class TestOcclusionMask:
    def test_same_view_fully_valid(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        m = pair_mask([views[0]] * 2, [gt[0]] * 2, 0, 1, tau=0.01)
        np.testing.assert_array_equal(m.valid, gt[0].valid)
        assert m.valid_count == int(gt[0].valid.sum())

    def test_huge_tau_keeps_all_warp_valid_pixels(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        m_small = pair_mask(views[:2], gt[:2], 0, 1, tau=1e-12)
        m_huge = pair_mask(views[:2], gt[:2], 0, 1, tau=1e12)
        # the huge threshold never binds: validity equals pure warp validity
        assert m_huge.valid_count >= m_small.valid_count
        from symmvs.geometry import warp_depth
        first = warp_depth(gt[0], gt[1], views[0], views[1])
        second = warp_depth(first, gt[0], views[1], views[0])
        np.testing.assert_array_equal(m_huge.valid, second.valid & gt[0].valid)

    def test_monotone_in_tau(self, plane_scene):
        gt, views = plane_scene["gt"], plane_scene["views"]
        counts = [
            pair_mask(views[:2], gt[:2], 0, 1, tau=t).valid_count
            for t in (1e-6, 1e-4, 0.01, 0.05, 1.0)
        ]
        assert counts == sorted(counts)

    def test_fixed_point_on_occlusion_free_scene(self, plane_scene):
        gt, views, hyp = plane_scene["gt"], plane_scene["views"], plane_scene["hyp"]
        m = pair_mask(views[:2], gt[:2], 0, 1, tau=hyp.spacing)
        m_loose = pair_mask(views[:2], gt[:2], 0, 1, tau=1e12)
        np.testing.assert_array_equal(m.valid, m_loose.valid)

    def test_occluded_band_detected(self, occluder_scene):
        from symmvs.geometry import backproject_pixels, project_points
        views, gt = occluder_scene["views"], occluder_scene["gt"]
        vis = occluder_scene["visibility"][(2, 0)]
        m = pair_mask(views, gt, 2, 0, tau=0.05)
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

    def test_rejects_nonpositive_tau(self):
        # the threshold is checked where it enters, so no mask pass sees one
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="^loss weight tau_occ must be "
                                                 "positive$"):
                LossWeights(tau_occ=tau)


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
        assert abs(sum(bd.synthesis.values()) + bd.consistency_total
                   - bd.total) < 1e-12

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
    bd, leaves = _evaluate(views, gt, masks, weights, with_grad=True)
    assert not bd.skipped
    assert leaves[0].grad is not None and np.abs(leaves[0].grad).max() > 0
    assert leaves[1].grad is not None and np.abs(leaves[1].grad).max() > 0


@pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
def test_gradient_and_value_paths_report_the_same_terms(scene, request):
    # every term value and every skip, with one mask emptied
    sc = request.getfixturevalue(scene)
    state = scene_state(sc["views"], noisy_depths(sc["gt"], 0.05, sc["hyp"]),
                        sc["weights"])
    state.masks[0, 1] = OcclusionMask((0, 1), np.zeros_like(state.masks[0, 1].valid))
    value_bd, plain = _evaluate(state.views, state.depths, state.masks,
                                state.weights, False)
    grad_bd, leaves = _evaluate(state.views, state.depths, state.masks,
                                state.weights, True)
    assert not any(isinstance(leaf, Var) for leaf in plain)
    assert all(isinstance(leaf, Var) and leaf.grad is not None for leaf in leaves)
    assert {"Lu_0_1", "Lm_1_0", "Ld_0_1"} <= value_bd.skipped
    assert grad_bd.skipped == value_bd.skipped
    assert grad_bd.report_lines() == value_bd.report_lines()


def stage_graphs(monkeypatch, sc):
    """(nodes, bytes of values) of the graph of every backward pass that
    one gradient evaluation of scene ``sc`` at its ground truth runs."""
    graphs = []
    run = Var.backward

    def measured(root):
        seen, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        graphs.append((len(seen), sum(n.value.nbytes for n in seen.values())))
        run(root)

    monkeypatch.setattr(Var, "backward", measured)
    state = scene_state(sc["views"], sc["gt"], sc["weights"])
    loss_gradient(state)
    return graphs


def assert_stages_within(monkeypatch, sc, passes):
    """One gradient evaluation of scene ``sc`` runs ``passes`` backward
    passes, none over more than 23 nodes holding 442,408 bytes."""
    graphs = stage_graphs(monkeypatch, sc)
    assert len(graphs) == passes
    assert max(nodes for nodes, _ in graphs) <= 23
    assert max(size for _, size in graphs) <= 442_408


def test_gradient_tape_stays_small(plane_scene, monkeypatch):
    # Each loss formula is one tape node, and each group of terms is pushed
    # back as soon as it is done: one pass per unordered pair for its
    # terms, one per reference view, one per unordered pair for its
    # second-order images, and one for the smoothness terms. The largest
    # graph is that of a pair's terms, the same with any number of views.
    # A formula that falls back to one node per array operation multiplies
    # both bounds; one tape over the whole evaluation held 103 nodes and
    # 1,917,128 bytes here, 213 and 3,932,584 with four views.
    assert_stages_within(monkeypatch, plane_scene, 3 + 3 + 3 + 1)


def test_gradient_tape_stays_small_with_four_views(occluder4_scene, monkeypatch):
    assert_stages_within(monkeypatch, occluder4_scene, 6 + 4 + 6 + 1)


@pytest.mark.parametrize("scene, bound", [("plane_scene", 87),
                                          ("occluder_scene", 87),
                                          ("occluder4_scene", 119)])
def test_value_evaluation_holds_one_pair_at_a_time(scene, bound, request):
    # the tracemalloc peak of one `total_loss`, in image-sized float64
    # arrays, its fresh `ViewContext` included. Measured: 82.9, 82.3 and
    # 114.8; building every pair's samplings, syntheses and statistics
    # before the first term held 140.1, 139.4 and 258.1, growing with the
    # number of pairs where the streamed order grows with the views
    sc = request.getfixturevalue(scene)
    state = scene_state(sc["views"], sc["gt"], LossWeights(tau_occ=1.0))
    h, w = state.depths[0].values.shape
    tracemalloc.start()
    try:
        total_loss(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * h * w * 8


@pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
def test_gradient_evaluation_frees_its_tape_as_it_goes(scene, request):
    # the tracemalloc peak of one `loss_gradient` against that of one value
    # evaluation, both with a prebuilt `ViewContext`. Measured, in
    # image-sized float64 arrays: 89.1 against 41.8 on the plane, 97.4
    # against 48.6 with four views; one tape over the whole evaluation,
    # freed only by its backward pass, held 261.7 and 503.6
    sc = request.getfixturevalue(scene)
    state = scene_state(sc["views"], sc["gt"], LossWeights(tau_occ=1.0))
    ctx = ViewContext(state.views, state.weights)
    peaks = []
    for run in (lambda: _evaluate(state.views, state.depths, state.masks,
                                  state.weights, False, ctx),
                lambda: loss_gradient(state, ctx)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    value_peak, gradient_peak = peaks
    assert gradient_peak <= 2.5 * value_peak


@pytest.mark.parametrize("with_grad", [False, True])
def test_breakdown_records_keep_their_insertion_order(occluder4_scene, with_grad):
    # `report_lines` sorts its keys; `solver.refine` sums the records in
    # insertion order, so that order is part of every logged value
    sc = occluder4_scene
    state = scene_state(sc["views"], noisy_depths(sc["gt"], 0.05, sc["hyp"]),
                        sc["weights"])
    state.masks[2, 1] = OcclusionMask((2, 1), np.zeros_like(state.masks[2, 1].valid))
    bd, _ = _evaluate(state.views, state.depths, state.masks, state.weights,
                         with_grad)
    n = len(state.views)
    unordered = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ordered = [key for i, j in unordered for key in ((i, j), (j, i))]
    assert {"Lu_2_1", "Lm_1_2", "Ld_2_1"} <= bd.skipped
    assert list(bd.unary) == ordered
    assert list(bd.image_consistency) == ordered
    assert list(bd.depth_consistency) == ordered
    assert list(bd.brightness) == [(r, j, k) for r in range(n) for j in range(n)
                                   for k in range(j + 1, n) if r not in (j, k)]
    assert list(bd.synthesis) == unordered
    assert list(bd.pair_consistency) == unordered
    assert list(bd.smoothness) == list(range(n))


# Every pass that reads one depth map per view checks them by one rule, so
# one fault reads the same from each of them.
DEPTH_PASSES = {
    "compute_all_masks": lambda v, d, m, w: compute_all_masks(v, d, w),
    "total_loss": lambda v, d, m, w: total_loss(SceneState(v, d, m, w)),
    "loss_gradient": lambda v, d, m, w: loss_gradient(SceneState(v, d, m, w)),
    "filter_consistent": lambda v, d, m, w: fusion.filter_consistent(d, v, 0.05),
    "depths_to_cloud": lambda v, d, m, w: fusion.depths_to_cloud(d, v),
}
DEPTH_FAULTS = {
    "two_maps_for_three_views": (lambda gt: gt[:2], r"^2 depth maps for 3 views$"),
    "view_1_one_row_short": (
        lambda gt: [gt[0], DepthMap(gt[1].values[:-1], gt[1].valid[:-1]), gt[2]],
        r"^view 1 depth map is \(47, 64\), the views' grid is \(48, 64\)$"),
}


@pytest.mark.parametrize("fault", list(DEPTH_FAULTS))
@pytest.mark.parametrize("entry", list(DEPTH_PASSES))
def test_one_depth_fault_reads_the_same_from_every_pass(plane_scene, entry, fault):
    views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                          plane_scene["weights"])
    masks = compute_all_masks(views, gt, weights)
    depths, message = DEPTH_FAULTS[fault]
    with pytest.raises(ShapeMismatch, match=message):
        DEPTH_PASSES[entry](views, depths(gt), masks, weights)


class TestViewContext:
    """A context shared by many evaluations gives exactly what a fresh
    evaluation of each call gives, and rejects views and caller data it
    does not fit, naming the view."""

    @staticmethod
    def candidates(gt, hyp_min, hyp_max):
        rng = np.random.default_rng(4)
        out = [gt]
        for sigma in (0.05, 0.3):
            out.append([
                DepthMap(np.where(d.valid, np.clip(
                    d.values + rng.normal(0.0, sigma, d.values.shape),
                    hyp_min, hyp_max), 0.0), d.valid.copy())
                for d in gt
            ])
        out.append([DepthMap(np.where(d.valid, d.values * 1.1, 0.0), d.valid.copy())
                    for d in gt])
        return out

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
    def test_reused_context_is_bit_identical(self, scene, request):
        sc = request.getfixturevalue(scene)
        views, gt = sc["views"], sc["gt"]
        weights = LossWeights(tau_occ=1.0)
        ctx = ViewContext(views, weights)
        for depths in self.candidates(gt, 1.0, 5.0):
            masks = compute_all_masks(views, depths, weights)
            kept = compute_all_masks(views, depths, weights, ctx)
            assert masks.keys() == kept.keys()
            for key in masks:
                assert np.array_equal(masks[key].valid, kept[key].valid)
            state = SceneState(views, depths, masks, weights)
            fresh_bd = total_loss(state)
            kept_bd, _ = _evaluate(views, depths, masks, weights, False, ctx)
            assert kept_bd == fresh_bd
            # and the shared data is what the public helpers compute alone
            for (i, j), m in masks.items():
                img, ok = synthesize_view(depths[i], views[j], views[i])
                if (m.valid & ok).any():
                    assert kept_bd.unary[(i, j)] == float(unary_comparator(
                        reference_stats(views[i].image),
                        reference_stats(img), m.valid & ok, weights))
            for a, b in zip(loss_gradient(state), loss_gradient(state, ctx)):
                assert np.array_equal(a, b)

    @staticmethod
    def with_image(view, image):
        return CameraView(view.intrinsics, view.rotation, view.translation, image)

    def test_missing_image_names_the_view(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        views = views[:2] + [self.with_image(views[2], None)]
        with pytest.raises(ValueError, match="^view 2 has no image"):
            ViewContext(views, weights)
        with pytest.raises(ValueError, match="^view 2 has no image"):
            total_loss(SceneState(views, gt, {}, weights))
        with pytest.raises(TooFewViews):
            ViewContext(views[:1], weights)

    def test_mismatched_image_shape_names_the_view(self, plane_scene):
        views, weights = plane_scene["views"], plane_scene["weights"]
        views = [views[0], self.with_image(views[1], views[1].image[:-1]), views[2]]
        with pytest.raises(ShapeMismatch, match=r"^view 1 image is \(47, 64, 1\)"):
            ViewContext(views, weights)

    def test_depth_off_the_grid_names_the_view(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        ctx = ViewContext(views, weights)
        masks = compute_all_masks(views, gt, weights, ctx)
        for rows, cols in [(48, 63), (40, 64)]:
            off = DepthMap(gt[2].values[:rows, :cols], gt[2].valid[:rows, :cols])
            depths = gt[:2] + [off]
            message = rf"^view 2 depth map is \({rows}, {cols}\)"
            for context in (ctx, None):
                with pytest.raises(ShapeMismatch, match=message):
                    compute_all_masks(views, depths, weights, context)
            with pytest.raises(ShapeMismatch, match=message):
                _evaluate(views, depths, masks, weights, False, ctx)
            with pytest.raises(ShapeMismatch, match=message):
                total_loss(SceneState(views, depths, masks, weights))
        # depths on one grid other than the images' would be warped on
        # their own grid with the cameras of the images' grid
        half = [DepthMap(d.values[::2, ::2], d.valid[::2, ::2]) for d in gt]
        with pytest.raises(ShapeMismatch, match=r"^view 0 depth map is \(24, 32\)"):
            compute_all_masks(views, half, weights)

    @staticmethod
    def evaluations(views, depths, masks, weights):
        """The value and the gradient path of one evaluation."""
        state = SceneState(views, depths, masks, weights)
        return (lambda: total_loss(state), lambda: loss_gradient(state))

    @pytest.mark.parametrize("shape", [(48, 1), (24, 32)])
    def test_mask_off_the_grid_names_the_pair(self, plane_scene, shape):
        # a (48, 1) mask used to broadcast against the grid and change the
        # loss silently; a (24, 32) one raised numpy's broadcasting error
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        masks = compute_all_masks(views, gt, weights)
        masks[0, 1] = OcclusionMask((0, 1), np.ones(shape, dtype=bool))
        message = (rf"^pair \(0, 1\) mask is \({shape[0]}, {shape[1]}\), "
                   r"the views' grid is \(48, 64\)")
        for evaluation in self.evaluations(views, gt, masks, weights):
            with pytest.raises(ShapeMismatch, match=message):
                evaluation()

    def test_missing_mask_names_the_pair(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        masks = compute_all_masks(views, gt, weights)
        del masks[1, 2]
        for evaluation in self.evaluations(views, gt, masks, weights):
            with pytest.raises(ShapeMismatch,
                               match=r"^no occlusion mask for pair \(1, 2\)"):
                evaluation()

    @pytest.mark.parametrize("change", [{"alpha1": 0.7}, {"alpha2": 0.25}])
    def test_context_for_other_alphas_is_rejected(self, plane_scene, change):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        ctx = ViewContext(views, weights)
        masks = compute_all_masks(views, gt, weights, ctx)
        other = dataclasses.replace(weights, **change)
        with pytest.raises(ValueError, match="alpha1, alpha2"):
            _evaluate(views, gt, masks, other, False, ctx)
        with pytest.raises(ValueError, match="alpha1, alpha2"):
            loss_gradient(SceneState(views, gt, masks, other), ctx)
        # a context built for the other weights holds their edge weights
        kept = ViewContext(views, other).edges
        for i, v in enumerate(views):
            alone = edge_weights(v.image, other.alpha1, other.alpha2)
            assert all(np.array_equal(a, b) for a, b in zip(kept[i], alone))


class TestSharedWork:
    """One evaluation or mask update samples each ordered pair once, an
    evaluation processes each synthesized image once and does no camera-only
    work, and what they share is what the standalone helpers compute."""

    @staticmethod
    def state(sc):
        views, weights = sc["views"], sc["weights"]
        depths = noisy_depths(sc["gt"], 0.05, sc["hyp"])
        masks = compute_all_masks(views, depths, weights)
        return views, depths, masks, weights, ViewContext(views, weights)

    @staticmethod
    def counting(monkeypatch, module, names):
        """Wrap ``module``'s functions ``names`` to count their calls."""
        calls = dict.fromkeys(names, 0)

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
        return calls

    @staticmethod
    def standalone(views, depths):
        """Every ordered pair, and its first- and second-order syntheses
        from `geometry.synth_values`, each at its own record and sampling."""
        n = len(views)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        first = {(t, s): geometry.synth_values(sampled(views, depths, t, s)[1],
                                               views[s].image)
                 for t, s in pairs}
        second = {(t, s): geometry.synth_values(sampled(views, depths, t, s)[1],
                                                *first[(s, t)])
                  for t, s in pairs}
        return pairs, first, second

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_sampling_chains_and_census_per_evaluation(self, scene, with_grad,
                                                       request, monkeypatch):
        views, depths, masks, weights, ctx = self.state(
            request.getfixturevalue(scene))
        chains = self.counting(monkeypatch, geometry, ["sampling_chain"])
        census = self.counting(monkeypatch, photometry, ["census_transform"])
        bd, _ = _evaluate(views, depths, masks, weights, with_grad, ctx)
        n = len(views)
        assert not bd.skipped
        assert len(bd.brightness) == n * (n - 1) * (n - 2) // 2
        # a gradient samples each ordered pair again when it pushes the
        # pair's second-order images back
        assert chains == {"sampling_chain": (2 if with_grad else 1) * n * (n - 1)}
        assert census == {"census_transform": 2 * n * (n - 1)}

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_shared_warps_match_the_standalone_helpers(self, scene, with_grad,
                                                       request):
        views, depths, masks, weights, ctx = self.state(
            request.getfixturevalue(scene))
        leaves = [Var(d.values) if with_grad else d.values for d in depths]
        pairs, first, second = self.standalone(views, depths)
        for i, j in pairs:
            tables = dict(zip(("synth", "second", "dwarp"),
                              _pair_warps(ctx, views, leaves, depths,
                                          min(i, j), max(i, j))))
            alone = {
                "synth": first[(i, j)],
                "second": second[(i, j)],
                "dwarp": geometry.warp_depth_values(
                    *sampled(views, depths, i, j), depths[j].values,
                    depths[j].valid),
            }
            for kind, (vals, ok) in alone.items():
                got_vals, got_ok = tables[kind][i, j]
                assert np.array_equal(got_ok, ok), (kind, i, j)
                assert ok.any(), (kind, i, j)
                assert same_bytes(value_of(got_vals), vals), (kind, i, j)

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    def test_comparator_terms_match_standalone_syntheses(self, scene, request):
        views, depths, masks, weights, ctx = self.state(
            request.getfixturevalue(scene))
        bd, _ = _evaluate(views, depths, masks, weights, False, ctx)
        pairs, first, second = self.standalone(views, depths)

        def compare(a, b, mask):
            return float(unary_comparator(reference_stats(a),
                                          reference_stats(b), mask, weights))

        for i, j in pairs:
            img, ok = first[(i, j)]
            assert bd.unary[(i, j)] == compare(views[i].image, img,
                                               masks[(i, j)].valid & ok)
            img, ok = second[(j, i)]
            assert bd.image_consistency[(i, j)] == compare(views[j].image, img,
                                                           masks[(j, i)].valid & ok)
        n = len(views)
        assert len(bd.brightness) == n * (n - 1) * (n - 2) // 2
        for (i, j, k), value in bd.brightness.items():
            (a, ok_a), (b, ok_b) = second[(i, j)], second[(i, k)]
            m = masks[(i, j)].valid & masks[(i, k)].valid & ok_a & ok_b
            assert value == compare(a, b, m)

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    @pytest.mark.parametrize("kept", [False, True])
    def test_mask_pass_samples_each_ordered_pair_once(self, scene, kept, request,
                                                      monkeypatch):
        views, depths, _, weights, ctx = self.state(request.getfixturevalue(scene))
        weights = dataclasses.replace(weights, tau_occ=0.05)
        alone = {(i, j): round_trip_mask(views, depths, i, j, weights.tau_occ)
                 for i in range(len(views)) for j in range(len(views)) if i != j}
        calls = self.counting(monkeypatch, geometry,
                              ["pair_sampling", "pair_coefficients"])
        masks = compute_all_masks(views, depths, weights, ctx if kept else None)
        n = len(views)
        assert calls == {"pair_sampling": n * (n - 1),
                         "pair_coefficients": 0 if kept else n * (n - 1)}
        assert masks.keys() == alone.keys()
        assert any(not m.all() for m in alone.values())
        for key, m in masks.items():
            assert m.pair == key
            assert same_bytes(m.valid, alone[key]), key

    @pytest.mark.parametrize("run", [
        lambda state: compute_all_masks(state.views, state.depths, state.weights),
        total_loss,
        loss_gradient,
    ], ids=["masks", "total_loss", "gradient"])
    def test_one_shot_pass_holds_one_pairs_records(self, occluder4_scene, run,
                                                   monkeypatch):
        # four views have twelve records; a pass without a context builds
        # each unordered pair's two when it reaches the pair and drops them
        views, depths, masks, weights, _ = self.state(occluder4_scene)
        alive, held = weakref.WeakSet(), []
        coefficients = geometry.pair_coefficients
        samplings = consistency._pair_samplings

        def building(*args):
            held.append(len(alive))
            record = coefficients(*args)
            alive.add(record)
            return record

        def sampling(records, *args):
            held.append(len(alive))
            return samplings(records, *args)

        monkeypatch.setattr(geometry, "pair_coefficients", building)
        monkeypatch.setattr(consistency, "_pair_samplings", sampling)
        run(SceneState(views, depths, masks, weights))
        assert held and max(held) == 2

    def test_refine_builds_each_ordered_pair_record_once(self, occluder4_scene,
                                                         monkeypatch):
        views, depths, _, weights, _ = self.state(occluder4_scene)
        built = []
        coefficients = geometry.pair_coefficients
        index = {id(v): k for k, v in enumerate(views)}

        def counting(target, source, *grid):
            built.append((index[id(target)], index[id(source)]))
            return coefficients(target, source, *grid)

        monkeypatch.setattr(geometry, "pair_coefficients", counting)
        state = refine(SceneState(views, depths, {}, weights),
                       SolverConfig(occluder4_scene["hyp"], max_outer_iters=2,
                                    inner_steps_per_mask_update=2, weights=weights))
        assert state.iteration > 0
        n = len(views)
        assert sorted(built) == [(t, s) for t in range(n) for s in range(n) if t != s]

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_evaluation_does_no_camera_only_work(self, scene, with_grad, request,
                                                 monkeypatch):
        views, depths, masks, weights, ctx = self.state(
            request.getfixturevalue(scene))
        calls = self.counting(monkeypatch, geometry, [
            "same_camera", "relative_motion", "intrinsics_inverse", "view_rays"])
        bd, _ = _evaluate(views, depths, masks, weights, with_grad, ctx)
        assert not bd.skipped
        assert calls == dict.fromkeys(calls, 0)
