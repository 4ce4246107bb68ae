"""Initialization, analytic gradients, and the alternating refinement loop."""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthHypotheses,
    DepthMap,
    LossWeights,
    PlanePrimitive,
    PointCloud,
    SceneSpec,
    cloud_metrics,
    compute_all_masks,
    consistency,
    depth_metrics,
    depths_to_cloud,
    filter_consistent,
    init_depths,
    loss_gradient,
    refine,
    render_scene,
    run_pipeline,
    total_loss,
)
from symmvs import geometry, photometry, solver, volume
from symmvs.consistency import OcclusionMask, SceneState, _evaluate
from symmvs.errors import (EmptySweep, MinimumAtRangeEnd, NoParallax, ShapeMismatch,
                           TooFewViews)
from symmvs.solver import SolverConfig

from _oracles import smoothness_gradient_flat_image
from conftest import (make_camera, median_abs_error, noisy_depths,
                      records, same_bytes)


def whole_image_depths(views, hyp):
    """The oracle of the banded sweep: build, smooth and regress each
    reference's whole-image volume."""
    feats = [volume.extract_features(v.image) for v in views]
    depths = []
    for ref in range(len(views)):
        vol = volume.build_cost_volume(records(views), feats, ref, hyp)
        vol = volume.smooth_cost_volume(vol)
        depths.append(volume.regress_depth(vol)[0])
    return depths


def swept_whole(views):
    """``views`` cropped by their last row and column where the level rule
    would halve their grid, so that `init_depths` sweeps them as they are.
    The kept pixels keep their coordinates, and so the cameras."""
    if not solver._sweep_levels(*views[0].image.shape[:2]):
        return views
    return [CameraView(v.intrinsics, v.rotation, v.translation, v.image[:-1, :-1])
            for v in views]


def record_builds(monkeypatch):
    """A list that collects (reference, rows) of every cost-volume build."""
    builds = []
    build = volume.build_cost_volume

    def recording(pairs, feats, ref, hyp):
        builds.append((ref, next(iter(pairs.values())).rows))
        return build(pairs, feats, ref, hyp)

    monkeypatch.setattr(volume, "build_cost_volume", recording)
    return builds


def sweep_in_bands(monkeypatch, band_rows, hyp, width):
    """Make `init_depths` sweep ``band_rows`` reference rows per band, and
    record its builds."""
    monkeypatch.setattr(solver, "SWEEP_BAND_BYTES", band_rows * hyp.count * width * 8)
    return record_builds(monkeypatch)


def quick_start_scene(z=3.0):
    """The README quick-start plane, at depth ``z``: its views and true
    depths."""
    K = np.array([[55.0, 0, 31.5], [0, 55.0, 23.5], [0, 0, 1.0]])
    cams = [CameraView(K, np.eye(3), np.array([-cx, 0.0, 0.0]), None)
            for cx in (-0.55, 0.0, 0.55)]
    scene = SceneSpec([PlanePrimitive([0, 0, 1], z, texture_scale=1.3)],
                      cams, width=64, height=48, seed=7)
    views, gt, _ = render_scene(scene)
    return views, gt


def desk_config(hyp, **kw):
    base = dict(
        hypotheses=hyp,
        max_outer_iters=30,
        inner_steps_per_mask_update=4,
        convergence_tol=1e-6,
        weights=LossWeights(tau_occ=1.0),
    )
    base.update(kw)
    return SolverConfig(**base)


class TestInitDepths:
    def test_cost_minimum_recovers_the_quick_start_plane(self):
        # the cost minimum reads 0.0378 here (the softmax it replaced,
        # 0.0492); a temperature is accepted and never read, as the bench's
        # harness still passes one
        views, gt = quick_start_scene()
        hyp = DepthHypotheses(1.8, 4.95, 64)
        depths = init_depths(views, hyp, SolverConfig(hyp).temperature)
        err = [depth_metrics(d, g).abs_diff for d, g in zip(depths, gt)]
        assert np.mean(err) <= 0.042
        for a, b in zip(depths, init_depths(views, hyp, 3e-6)):
            assert same_bytes(a.values, b.values) and same_bytes(a.valid, b.valid)

    def test_off_grid_plane_init_error(self):
        # the quick-start plane moved half a spacing off the samples, to
        # z = 3.025, where the samples nearest the plane are 0.025 off: the
        # parabola's vertex reads 0.0371, the softmax read 0.0500
        views, gt = quick_start_scene(3.0 + 0.025)
        hyp = DepthHypotheses(1.8, 4.95, 64)
        depths = init_depths(views, hyp)
        err = [depth_metrics(d, g).abs_diff for d, g in zip(depths, gt)]
        assert np.mean(err) <= 0.042

    def test_range_with_every_minimum_at_an_end_raises_range_end(self, plane_scene):
        # two hypotheses are both range ends, so no minimum lies inside the
        # range; every pixel sees a second view, so it is not EmptySweep's
        # "no pixel sees a second view"
        views, hyp = plane_scene["views"], DepthHypotheses(2.5, 3.5, 2)
        with pytest.raises(MinimumAtRangeEnd,
                           match=r"^view 0: no valid depth; \d+ of its pixels have "
                                 r"their cost minimum at an end of \[2\.5, 3\.5\]"):
            init_depths(views, hyp)

    def test_three_views_agree_with_each_other(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        depths = init_depths(views, hyp)
        # margins cover the largest cross-pair disparity over the swept range
        interior = np.zeros(depths[0].values.shape, bool)
        interior[4:-4, 22:-22] = True
        for a in range(3):
            for b in range(a + 1, 3):
                sel = interior & depths[a].valid & depths[b].valid
                diff = np.abs(depths[a].values - depths[b].values)[sel]
                assert np.median(diff) < plane_scene["hyp"].spacing

    def test_two_views_recover_plane_depth(self, plane_scene):
        views, hyp, z0 = plane_scene["views"], plane_scene["hyp"], plane_scene["z0"]
        depths = init_depths(views[:2], hyp)
        interior = np.zeros(depths[0].values.shape, bool)
        interior[4:-4, 20:-20] = True
        err = np.abs(depths[0].values - z0)[interior & depths[0].valid]
        assert np.median(err) < 0.5 * hyp.spacing

    def test_coincident_cameras_raise_no_parallax(self, plane_scene):
        # without a baseline every hypothesis scores the same; the sweep
        # would return one depth everywhere and call it valid
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        v = views[1]
        twin = CameraView(v.intrinsics, v.rotation, v.translation, v.image[::-1])
        with pytest.raises(NoParallax, match="view 0"):
            init_depths([v, twin], hyp)
        with pytest.raises(NoParallax, match="view 0"):
            run_pipeline([v, twin], desk_config(hyp))
        # a third view gives every reference a baseline
        assert len(init_depths([v, twin, views[2]], hyp)) == 3

    @pytest.mark.parametrize("spread, moved", [(1e-3, "0.0389"), (1e-2, "0.389")])
    def test_near_zero_parallax_raises_naming_the_largest_displacement(
            self, plane_scene, spread, moved):
        # cameras at -spread, 0 and +spread: [1.8, 4.95] moves every pixel
        # of view 0 by 55 * 2 * spread * (1 / 1.8 - 1 / 4.95) px at most, so
        # every hypothesis samples nearly the same texture, and the sweep
        # would put every depth near the midpoint 3.375, every pixel valid
        spec = plane_scene["spec"]
        rig = SceneSpec(spec.primitives, [make_camera(x) for x in (-spread, 0.0, spread)],
                        width=64, height=48, channels=1, seed=7)
        views, hyp = render_scene(rig)[0], plane_scene["hyp"]
        with pytest.raises(NoParallax, match=(r"^view 0: .*\[1\.8, 4\.95\]; the "
                                              rf"largest displacement is {moved} px")):
            init_depths(views, hyp)
        with pytest.raises(NoParallax, match="^view 0: "):
            run_pipeline(views, desk_config(hyp))

    def test_no_parallax_on_the_input_grid_names_its_displacement(self, plane_scene):
        # the rig above at 128x96 with twice the focal length and spread
        # 1e-3: view 0 falls short at 64x48 (0.0389 px) and then on the
        # input grid, whose displacement the error gives
        spec = plane_scene["spec"]
        cams = [make_camera(x, f=110.0, width=128, height=96)
                for x in (-1e-3, 0.0, 1e-3)]
        rig = SceneSpec(spec.primitives, cams, width=128, height=96, channels=1,
                        seed=7)
        views, hyp = render_scene(rig)[0], plane_scene["hyp"]
        with pytest.raises(NoParallax, match=r"^view 0: .*the largest displacement "
                                             r"is 0\.0778 px, so"):
            init_depths(views, hyp)

    def test_a_reference_short_of_parallax_is_swept_a_level_finer(
            self, plane_scene, monkeypatch):
        # cameras at -0.02, 0 and +0.02 at 128x96 with twice the focal
        # length above: the outer views move a pixel by up to 1.56 px on the
        # input grid and 0.778 px at 64x48, the middle view by half that,
        # 0.389 px at 64x48. So the outer views are swept at 64x48 and
        # upsampled, the middle one at 128x96
        spec = plane_scene["spec"]
        cams = [make_camera(x, f=110.0, width=128, height=96)
                for x in (-2e-2, 0.0, 2e-2)]
        rig = SceneSpec(spec.primitives, cams, width=128, height=96, channels=1,
                        seed=7)
        views, hyp = render_scene(rig)[0], plane_scene["hyp"]
        builds = record_builds(monkeypatch)
        got = init_depths(views, hyp)
        assert builds == [(0, (0, 48)), (1, (0, 96)), (2, (0, 48))]
        monkeypatch.undo()
        coarse = whole_image_depths([geometry.halve_view(v) for v in views], hyp)
        fine = whole_image_depths(views, hyp)
        want = [geometry.upsample_depth(coarse[0]), fine[1],
                geometry.upsample_depth(coarse[2])]
        for g, e in zip(got, want):
            assert same_bytes(g.values, e.values) and same_bytes(g.valid, e.valid)

    @pytest.mark.parametrize("height, width, levels", [
        (192, 256, 2), (96, 128, 1), (48, 64, 0), (24, 32, 0), (12, 16, 0),
        (384, 512, 3), (191, 255, 0), (96, 126, 0), (94, 128, 0), (200, 130, 1),
    ])
    def test_sweep_levels_halve_while_even_and_at_least_64x48(self, height, width,
                                                              levels):
        assert solver._sweep_levels(height, width) == levels

    def test_init_is_the_upsampled_whole_image_sweep_of_the_swept_level(
            self, occluder_scene):
        # 128x96 is swept at 64x48 and upsampled (a 64x48 grid is swept as
        # it is: see the banded-sweep test on the plane)
        views = occluder_scene["views"]
        hyp = DepthHypotheses(1.5, 4.0, 16)
        assert solver._sweep_levels(*views[0].image.shape[:2]) == 1
        want = whole_image_depths([geometry.halve_view(v) for v in views], hyp)
        want = [geometry.upsample_depth(d) for d in want]
        got = init_depths(views, hyp)
        for g, e in zip(got, want):
            assert g.values.shape == views[0].image.shape[:2]
            assert same_bytes(g.values, e.values) and same_bytes(g.valid, e.valid)

    def test_pyramid_init_permutes_with_the_views_and_reruns_identically(
            self, occluder_scene):
        views, hyp = occluder_scene["views"], DepthHypotheses(1.2, 4.35, 64)
        base = init_depths(views, hyp)
        for a, b in zip(base, init_depths(views, hyp)):
            assert same_bytes(a.values, b.values) and same_bytes(a.valid, b.valid)
        perm = [2, 0, 1]
        permuted = init_depths([views[k] for k in perm], hyp)
        for new, old in enumerate(perm):
            np.testing.assert_array_equal(permuted[new].valid, base[old].valid)
            assert np.abs(permuted[new].values - base[old].values).max() < 1e-12

    def test_single_view_rejected(self, plane_scene):
        with pytest.raises(TooFewViews):
            init_depths(plane_scene["views"][:1], plane_scene["hyp"], 1.0)

    def test_missing_image_names_the_view(self, plane_scene):
        # the same check as a loss evaluation's, before any camera is read
        views = list(plane_scene["views"])
        views[1] = CameraView(views[1].intrinsics, views[1].rotation,
                              views[1].translation, None)
        with pytest.raises(ValueError, match="^view 1 has no image; "):
            init_depths(views, plane_scene["hyp"])

    @pytest.mark.parametrize("width, height", [(16, 1), (1, 16)])
    def test_grid_one_pixel_tall_or_wide_names_the_view(self, plane_scene, width,
                                                         height):
        # a bilinear tap's four corners need a 2x2 grid: on a 16x1 one the
        # corner indices went negative, and the image gradient's scatter
        # raised numpy's "'list' argument must have no negative elements"
        cameras = [make_camera(x, f=20.0, width=width, height=height)
                   for x in (-0.2, 0.2)]
        views, gt, _ = render_scene(SceneSpec(plane_scene["spec"].primitives, cameras,
                                              width=width, height=height, seed=7))
        hyp = DepthHypotheses(1.8, 4.95, 32)
        message = rf"^view 0 image is \({height}, {width}, 1\); "
        with pytest.raises(ShapeMismatch, match=message + "initialization needs"):
            init_depths(views, hyp)
        with pytest.raises(ShapeMismatch, match=message + "initialization needs"):
            run_pipeline(views, desk_config(hyp))
        state = SceneState(views=views, depths=gt, masks={},
                           weights=LossWeights(tau_occ=100.0))
        for evaluation in (total_loss, loss_gradient):
            with pytest.raises(ShapeMismatch, match=message + "the objective needs"):
                evaluation(state)

    def test_range_that_misses_the_scene_raises_empty_sweep(self, plane_scene):
        # at depths of 0.01-0.02 every warp leaves the source image: no
        # hypothesis has a second view, and refinement would "converge" at
        # a loss of 0 on depth maps without a valid pixel
        views, hyp = plane_scene["views"], DepthHypotheses(0.01, 0.02, 8)
        with pytest.raises(EmptySweep, match=r"^view 0: .*\[0\.01, 0\.02\]"):
            init_depths(views, hyp)
        with pytest.raises(EmptySweep, match="^view 0: "):
            run_pipeline(views, desk_config(hyp))

    def test_empty_sweep_names_the_first_view_without_depth(self, plane_scene):
        # the third camera sits 60 units off to the side: views 0 and 1
        # still see each other, but no pixel of view 2 lands in either
        views = plane_scene["views"]
        far = CameraView(views[2].intrinsics, views[2].rotation,
                         views[2].translation - np.array([60.0, 0.0, 0.0]),
                         views[2].image)
        hyp = DepthHypotheses(1.8, 2.2, 4)
        with pytest.raises(EmptySweep, match="^view 2: "):
            init_depths([views[0], views[1], far], hyp)

    def test_banded_sweep_names_the_empty_view(self, plane_scene, monkeypatch):
        # the two cases above, in bands of 13 rows: every band of the
        # reference is swept before the whole view is found empty
        views = plane_scene["views"]
        far = CameraView(views[2].intrinsics, views[2].rotation,
                         views[2].translation - np.array([60.0, 0.0, 0.0]),
                         views[2].image)
        builds = sweep_in_bands(monkeypatch, 13, DepthHypotheses(1.8, 2.2, 4), 64)
        with pytest.raises(EmptySweep, match=r"^view 0: .*\[0\.01, 0\.02\]"):
            init_depths(views, DepthHypotheses(0.01, 0.02, 4))
        assert [ref for ref, _ in builds] == [0] * 4
        builds.clear()
        with pytest.raises(EmptySweep, match="^view 2: "):
            init_depths([views[0], views[1], far], DepthHypotheses(1.8, 2.2, 4))
        assert [ref for ref, _ in builds] == [0] * 4 + [1] * 4 + [2] * 4

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder_scene"])
    def test_banded_sweep_is_bit_identical_to_whole_image(self, request, scene,
                                                          monkeypatch):
        # 13 rows per band divide neither 48 nor 95 rows; each band carries
        # one halo row on either side. The 128x96 occluder is cropped to
        # 127x95, which the level rule sweeps whole
        views = swept_whole(request.getfixturevalue(scene)["views"])
        hyp = DepthHypotheses(1.5, 4.0, 16)
        h, w = views[0].image.shape[:2]
        want = whole_image_depths(views, hyp)
        builds = sweep_in_bands(monkeypatch, 13, hyp, w)
        got = init_depths(views, hyp)
        bands = [(max(0, t - 1), min(h, t + 14)) for t in range(0, h, 13)]
        assert len(bands) >= 4
        assert builds == [(ref, rows) for ref in range(len(views)) for rows in bands]
        for g, e in zip(got, want):
            assert same_bytes(g.values, e.values) and same_bytes(g.valid, e.valid)

    def test_banded_sweep_with_a_twin_of_the_reference_camera(self, plane_scene,
                                                              monkeypatch):
        # view 1 is view 0's camera and image: in every band of either, the
        # twin's chain is the band's pixel grid and its pair costs exactly 0
        views, hyp = plane_scene["views"], DepthHypotheses(1.5, 4.0, 16)
        v = views[0]
        rig = [v, CameraView(v.intrinsics, v.rotation, v.translation, v.image),
               views[2]]
        want = whole_image_depths(rig, hyp)
        sweep_in_bands(monkeypatch, 13, hyp, 64)
        got = init_depths(rig, hyp)
        for g, e in zip(got, want):
            assert same_bytes(g.values, e.values) and same_bytes(g.valid, e.valid)
        assert same_bytes(got[0].values, got[1].values)

    @pytest.mark.parametrize("scene", ["plane_scene", "occluder4_scene"])
    def test_each_ordered_pair_record_is_built_once(self, request, scene,
                                                    monkeypatch):
        # three bands of 16 rows: a reference's parallax check and every
        # band of its sweep read its whole-grid records (each pair's record
        # was built four times: for the check and once per band)
        views = request.getfixturevalue(scene)["views"]
        hyp = DepthHypotheses(1.5, 4.0, 16)
        h, w = views[0].image.shape[:2]
        builds = sweep_in_bands(monkeypatch, h // 3, hyp, w)
        built = []
        coefficients = geometry.pair_coefficients
        index = {id(v): k for k, v in enumerate(views)}

        def counting(target, source, *grid):
            built.append((index[id(target)], index[id(source)]))
            return coefficients(target, source, *grid)

        monkeypatch.setattr(geometry, "pair_coefficients", counting)
        init_depths(views, hyp)
        n = len(views)
        assert len(builds) == 3 * n
        assert sorted(built) == [(t, s) for t in range(n) for s in range(n) if t != s]

    def test_sweep_memory_stays_near_two_volumes(self, occluder_scene):
        # one float volume at 3 views, 95x127, 32 hypotheses is 2.9 MiB; the
        # sweep holds a raw and a smoothed volume, plus the features and one
        # hypothesis' samplings.
        # The occluder is cropped to 127x95 so that the level rule sweeps it
        # as it is, and the bound is in volumes of the grid actually swept.
        # Measured: 3.08 volumes; whole-volume smoothing or regression
        # temporaries, an int64 view count per entry or a previous
        # reference's volume kept alive each give 4.1 to 5.7 (7.7 before
        # streaming)
        views, hyp = swept_whole(occluder_scene["views"]), DepthHypotheses(1.5, 4.0, 32)
        h, w = views[0].image.shape[:2]
        tracemalloc.start()
        try:
            init_depths(views, hyp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.8 * hyp.count * h * w * 8

    def test_banded_sweep_holds_less_than_one_whole_volume(self, monkeypatch):
        # the bench's plane at 255x191, which the level rule sweeps whole,
        # at 64 hypotheses: three bands of 64 rows under the default
        # budget. The whole volume as `build_cost_volume` returns it takes
        # 9 bytes an entry (float cost and validity), 26.8 MiB. Measured:
        # 26.2 MiB; a single whole-image band gives 62.6 MiB, and a 12 MiB
        # budget (two bands) 35.2 MiB
        width, height = 255, 191
        cams = [make_camera(x, f=220.0, width=width, height=height)
                for x in (-0.55, 0.0, 0.55)]
        spec = SceneSpec([PlanePrimitive(normal=[0, 0, 1], offset=3.0,
                                         texture_scale=1.3)],
                         cams, width=width, height=height, seed=7)
        views = render_scene(spec)[0]
        hyp = DepthHypotheses(1.8, 4.95, 64)
        builds = record_builds(monkeypatch)
        tracemalloc.start()
        try:
            init_depths(views, hyp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rows for _, rows in builds] == [(0, 65), (63, 129), (127, 191)] * 3
        assert peak < hyp.count * height * width * 9


class TestLossGradient:
    def test_zero_weights_give_zero_gradients(self, plane_scene):
        weights = LossWeights(omega_u=0, omega_s=0, lambda1=0, lambda2=0,
                              lambda3=0, lambda4=0, lambda5=0, lambda6=0,
                              tau_occ=1.0)
        views, gt = plane_scene["views"], plane_scene["gt"]
        masks = compute_all_masks(views, gt, weights)
        state = SceneState(views=views, depths=gt, masks=masks, weights=weights)
        for g in loss_gradient(state):
            np.testing.assert_array_equal(g, 0.0)

    def test_gradient_zero_on_invalid_pixels(self, plane_scene):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        holed = []
        for d in gt:
            valid = d.valid.copy()
            valid[10:14, 20:24] = False
            holed.append(DepthMap(np.where(valid, d.values, 0.0), valid))
        masks = compute_all_masks(views, holed, weights)
        state = SceneState(views=views, depths=holed, masks=masks, weights=weights)
        for g, d in zip(loss_gradient(state), holed):
            np.testing.assert_array_equal(g[~d.valid], 0.0)

    def test_matches_finite_differences_spot_check(self, plane_scene):
        # a small version of the full oracle run in the acceptance suite, on
        # the full masks and again with mask (0, 1) emptied, which skips
        # every term that reads it
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        weights = LossWeights(tau_occ=1.0)
        fd_weights = LossWeights(lambda4=0.0, tau_occ=1.0)
        depths = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=5)
        full = compute_all_masks(views, depths, weights)
        cut = dict(full)
        cut[0, 1] = OcclusionMask((0, 1), np.zeros_like(full[0, 1].valid))
        for masks, skipped in [(full, set()),
                               (cut, {"Lu_0_1", "Ld_0_1", "Lm_1_0", "Lb_0_1_2"})]:
            assert _evaluate(views, depths, masks, weights)[0].skipped == skipped
            state = SceneState(views=views, depths=depths, masks=masks,
                               weights=weights)
            grads = loss_gradient(state)
            rng = np.random.default_rng(2)
            h = 1e-4
            checked = 0
            while checked < 12:
                v = int(rng.integers(0, 3))
                y = int(rng.integers(6, 42))
                x = int(rng.integers(16, 48))
                if abs(grads[v][y, x]) < 1e-4:
                    continue
                base = depths[v].values[y, x]
                vals = []
                for s in (+1, -1):
                    pert = [d.copy() for d in depths]
                    pert[v].values[y, x] = base + s * h
                    vals.append(_evaluate(views, pert, masks, fd_weights)[0].total)
                fd = (vals[0] - vals[1]) / (2 * h)
                an = grads[v][y, x]
                # unguarded sampling: allow the occasional kink crossing
                if abs(an - fd) / max(abs(an), abs(fd)) < 1e-3:
                    checked += 1
                else:
                    checked += 1 if abs(an - fd) < 5e-4 else 0
            assert checked == 12

    def test_matches_finite_differences_at_coarse_step(self, plane_scene):
        # same oracle at the coarser 1e-3 step: valid only where the
        # gradient dominates the robust penalty's FD truncation floor
        from _oracles import fd_smooth_region
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        weights = LossWeights(tau_occ=1.0)
        fd_weights = LossWeights(lambda4=0.0, tau_occ=1.0)
        depths = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=9)
        masks = compute_all_masks(views, depths, weights)
        state = SceneState(views=views, depths=depths, masks=masks,
                           weights=weights)
        grads = loss_gradient(state)
        step = 1e-3
        regions = [fd_smooth_region(views, depths, v, step) for v in range(3)]
        rng = np.random.default_rng(4)
        errors = []
        while len(errors) < 25:
            v = int(rng.integers(0, 3))
            y = int(rng.integers(0, 48))
            x = int(rng.integers(0, 64))
            if not regions[v][y, x] or abs(grads[v][y, x]) < 2e-3:
                continue
            base = depths[v].values[y, x]
            vals = []
            for s in (+1, -1):
                pert = [d.copy() for d in depths]
                pert[v].values[y, x] = base + s * step
                vals.append(_evaluate(views, pert, masks, fd_weights)[0].total)
            fd = (vals[0] - vals[1]) / (2 * step)
            an = grads[v][y, x]
            errors.append(abs(an - fd) / max(abs(an), abs(fd)))
        assert max(errors) < 1e-3

    def test_matches_finite_differences_with_skipped_terms(self, occluder4_scene,
                                                          monkeypatch):
        # four views with mask (0, 1) emptied: Lu_0_1, Ld_0_1, Lm_1_0 and
        # both brightness terms over (0, 1) are skipped, so the second-order
        # image (0, 1) gets no gradient, and the pair's second-order pass
        # pushes back (1, 0) alone; pixels away from lattice crossings, as
        # in criterion 02
        from _oracles import fd_smooth_region
        from symmvs import consistency
        sc = occluder4_scene
        views, hyp = sc["views"], sc["hyp"]
        weights = LossWeights(lambda4=0.0, tau_occ=1.0)
        depths = noisy_depths(sc["gt"], 2 * hyp.spacing, hyp, seed=5)
        masks = compute_all_masks(views, depths, weights)
        masks[0, 1] = OcclusionMask((0, 1), np.zeros_like(masks[0, 1].valid))
        skipped = _evaluate(views, depths, masks, weights)[0].skipped
        assert skipped == {"Lu_0_1", "Ld_0_1", "Lm_1_0", "Lb_0_1_2", "Lb_0_1_3"}
        replayed = {}
        rebuild = consistency._second_orders

        def recorded(ctx, views, leaves, depths, i, j, keys):
            replayed[i, j] = keys
            return rebuild(ctx, views, leaves, depths, i, j, keys)

        monkeypatch.setattr(consistency, "_second_orders", recorded)
        grads = loss_gradient(SceneState(views=views, depths=depths, masks=masks,
                                         weights=weights))
        assert replayed[0, 1] == [(1, 0)]
        assert all(len(keys) == 2 for pair, keys in replayed.items() if pair != (0, 1))
        step = 1e-4
        regions = [fd_smooth_region(views, depths, v, step) for v in range(4)]
        h, w = depths[0].values.shape
        rng = np.random.default_rng(3)
        errors = []
        while len(errors) < 40:
            v = int(rng.integers(0, 4))
            y = int(rng.integers(0, h))
            x = int(rng.integers(0, w))
            if not regions[v][y, x] or abs(grads[v][y, x]) < 1e-4:
                continue
            base = depths[v].values[y, x]
            vals = []
            for sign in (+1, -1):
                pert = [d.copy() for d in depths]
                pert[v].values[y, x] = base + sign * step
                vals.append(_evaluate(views, pert, masks, weights)[0].total)
            fd = (vals[0] - vals[1]) / (2 * step)
            an = grads[v][y, x]
            errors.append(abs(an - fd) / max(abs(an), abs(fd)))
        assert max(errors) < 1e-3

    def test_flat_image_leaves_only_smoothness_gradient(self):
        # constant images: photometric residuals and their gradients vanish,
        # so the loss gradient reduces to the smoothness closed form
        K = np.array([[40.0, 0, 15.5], [0, 40.0, 11.5], [0, 0, 1.0]])
        img = np.full((24, 32, 1), 0.5)
        views = [
            CameraView(K, np.eye(3), np.array([-dx, 0.0, 0.0]), img.copy())
            for dx in (0.0, 0.3)
        ]
        # curved ramp: first differences and Laplacian both bounded away
        # from the |.| kink at zero
        xs = np.arange(32, dtype=float) / 31.0
        gx = np.tile(2.0 + xs + 0.3 * xs ** 2, (24, 1))
        depths = [DepthMap(gx.copy()), DepthMap(gx.copy())]
        # photometric residuals vanish on constant images; depth consistency
        # is switched off so only the smoothness gradient remains
        weights = LossWeights(lambda3=0.0, lambda5=0.0, lambda6=0.0, tau_occ=10.0)
        masks = compute_all_masks(views, depths, weights)
        state = SceneState(views=views, depths=depths, masks=masks, weights=weights)
        grads = loss_gradient(state)
        # per-pair weight: omega_s * mean over both views of the term
        expected = 0.1 * 0.5 * smoothness_gradient_flat_image(gx)
        np.testing.assert_allclose(grads[0], expected, atol=1e-6)


class TestRefine:
    def test_start_at_ground_truth_stays_put(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=3, convergence_tol=1e-5)
        state = SceneState(views=views, depths=[d.copy() for d in gt],
                           masks={}, weights=config.weights)
        state = refine(state, config)
        assert state.converged and not state.diverged
        assert state.stop_reason == "stationary_stall"
        for d, g in zip(state.depths, gt):
            moved = np.abs(d.values - g.values)[g.valid].max()
            assert moved < 0.1 * hyp.spacing

    def test_history_monotone_within_phases(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=4)
        config = desk_config(hyp, max_outer_iters=6)
        state = SceneState(views=views, depths=start, masks={},
                           weights=config.weights)
        state = refine(state, config)
        # history restarts at each mask update (phase start); within a phase
        # the accepted totals never increase
        totals = [t for _, t in state.history]
        iters = [i for i, _ in state.history]
        for k in range(1, len(totals)):
            if iters[k] != iters[k - 1]:  # an accepted step, same phase
                assert totals[k] <= totals[k - 1] + 1e-15

    def test_depths_stay_clamped(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start = noisy_depths(gt, 4 * hyp.spacing, hyp, seed=6)
        config = desk_config(hyp, max_outer_iters=4)
        state = refine(SceneState(views=views, depths=start, masks={},
                                  weights=config.weights), config)
        for d in state.depths:
            assert (d.values[d.valid] >= hyp.d_min).all()
            assert (d.values[d.valid] <= hyp.d_max).all()
        # the outer-iteration cap ran out, which is not convergence
        assert state.stop_reason == "max_iters" and len(state.outer_log) == 4
        assert not state.converged and not state.diverged

    @pytest.mark.parametrize("outer", [0, 3])
    def test_weights_other_than_the_configs_are_rejected(self, plane_scene, outer):
        # every mask and loss reads the state's weights, so a config whose
        # weights differ would be ignored without a word
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=outer,
                             weights=LossWeights(tau_occ=1.0, lambda4=0.0))
        state = SceneState(views=views, depths=gt, masks={}, weights=LossWeights())
        with pytest.raises(ValueError, match=r"config's in lambda4, tau_occ;"):
            refine(state, config)
        assert state.masks == {} and state.stop_reason is None

    def test_loose_tolerance_stops_after_one_phase(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=6)
        config = desk_config(hyp, max_outer_iters=4, convergence_tol=0.9)
        state = refine(SceneState(views=views, depths=start, masks={},
                                  weights=config.weights), config)
        assert state.stop_reason == "tol_reached" and len(state.outer_log) == 1
        assert state.converged and state.iteration > 0

    def test_zero_objective_stops_at_zero_gradient(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        zero = LossWeights(**{name: 0.0 for name in LossWeights.__dataclass_fields__
                              if name != "tau_occ"}, tau_occ=1.0)
        config = desk_config(hyp, max_outer_iters=3, weights=zero)
        state = refine(SceneState(views=views, depths=[d.copy() for d in gt],
                                  masks={}, weights=zero), config)
        assert state.stop_reason == "zero_gradient" and state.iteration == 0
        assert state.converged and not state.diverged

    def test_zero_outer_iters_only_recomputes_masks(self, plane_scene,
                                                    monkeypatch):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=0)
        state = SceneState(views=views, depths=[d.copy() for d in gt],
                           masks={}, weights=config.weights)
        called = []
        # no loss is evaluated, so no view context's image data is built
        for name in ("reference_stats", "edge_weights"):
            monkeypatch.setattr(photometry, name,
                                lambda *args, name=name: called.append(name))
        state = refine(state, config)
        assert set(state.masks) == {(i, j) for i in range(3) for j in range(3)
                                    if i != j}
        for d, g in zip(state.depths, gt):
            np.testing.assert_array_equal(d.values, g.values)
        assert state.history == []
        assert called == []
        assert state.stop_reason == "max_iters" and not state.converged

    def test_zero_outer_iters_check_the_depths_against_the_images(self,
                                                                  plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=0)
        half = [DepthMap(d.values[::2, ::2], d.valid[::2, ::2]) for d in gt]
        state = SceneState(views=views, depths=half, masks={},
                           weights=config.weights)
        with pytest.raises(ShapeMismatch, match=r"^view 0 depth map is \(24, 32\)"):
            refine(state, config)

    def test_mask_counts_grow_once_loss_improves(self, plane_scene):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=7)
        # a tight occlusion threshold so masks start partial and recover
        config = desk_config(hyp, max_outer_iters=10,
                             weights=LossWeights(tau_occ=3 * hyp.spacing))
        state = SceneState(views=views, depths=start, masks={},
                           weights=config.weights)
        state = refine(state, config)
        totals = [e["total"] for e in state.outer_log]
        counts = [e["mask_valid"] for e in state.outer_log]
        assert len(totals) >= 2
        assert totals[-1] < totals[0]
        improved = [k for k in range(len(totals)) if totals[k] < totals[0]]
        tail = counts[improved[0]:]
        # non-decreasing up to a sliver of border-pixel flicker
        slack = max(2, counts[0] // 1000)
        assert all(b >= a - slack for a, b in zip(tail, tail[1:]))
        assert tail[-1] >= tail[0]

    def test_flags_derive_from_the_stop_reason(self):
        flags = {"tol_reached": (True, False), "max_iters": (False, False),
                 "zero_gradient": (True, False), "stationary_stall": (True, False),
                 "line_search_failed": (False, True), None: (False, False)}
        assert set(flags) - {None} == set(solver.STOP_REASONS)
        state = SceneState(views=[], depths=[], masks={}, weights=LossWeights())
        for reason, (converged, diverged) in flags.items():
            state.stop_reason = reason
            assert (state.converged, state.diverged) == (converged, diverged)
        with pytest.raises(AttributeError):
            state.converged = True

    def test_diverged_flag_on_hopeless_line_search(self, plane_scene, monkeypatch):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=8)
        # a first step of 1e6 depth units, never halved
        monkeypatch.setattr(solver, "INITIAL_STEP", 1e6 / hyp.spacing)
        monkeypatch.setattr(solver, "MAX_HALVINGS", 0)
        config = desk_config(hyp, max_outer_iters=3)
        state = refine(SceneState(views=views, depths=start, masks={},
                                  weights=config.weights), config)
        assert state.diverged and not state.converged
        assert state.stop_reason == "line_search_failed"


class TestRunPipeline:
    def test_outputs_are_cross_view_consistent(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=10)
        state = run_pipeline(views, config)
        m, loose = (compute_all_masks(views[:2], state.depths[:2],
                                      LossWeights(tau_occ=tau))[0, 1]
                    for tau in (hyp.spacing, 1e12))
        interior = np.zeros(m.valid.shape, bool)
        interior[4:-4, 14:-14] = True
        region = loose.valid & interior
        assert m.valid[region].mean() >= 0.98

    def test_occluder_scene_unoccluded_depth_unaffected(self, occluder_scene):
        from symmvs import DepthHypotheses
        views, gt = occluder_scene["views"], occluder_scene["gt"]
        hyp = DepthHypotheses(1.2, 4.35, 64)
        weights = LossWeights(tau_occ=0.3)
        config = SolverConfig(hypotheses=hyp, max_outer_iters=6,
                              inner_steps_per_mask_update=3, weights=weights,
                              convergence_tol=1e-6)
        state = run_pipeline(views, config)
        # view 1 sees both planes; check its depth where everything is
        # mutually visible against the analytic ground truth
        vis_all = occluder_scene["visibility"][(1, 0)] & occluder_scene["visibility"][(1, 2)]
        interior = np.zeros(vis_all.shape, bool)
        interior[8:-8, 16:-16] = True
        sel = vis_all & interior & state.depths[1].valid & gt[1].valid
        err = np.abs(state.depths[1].values - gt[1].values)[sel]
        assert np.median(err) < hyp.spacing
        # the mask for (1, 0) excludes most of the analytically hidden band
        band = ~occluder_scene["visibility"][(1, 0)] & interior & gt[1].valid
        if band.sum() > 200:
            assert (~state.masks[(1, 0)].valid)[band].mean() > 0.8

    def test_two_view_pipeline_runs_without_triples(self, plane_scene):
        views, hyp = plane_scene["views"][:2], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=3)
        state = run_pipeline(views, config)
        assert len(state.depths) == 2
        assert all(np.isfinite(e["total"]) for e in state.outer_log)
        assert all(e["Lb"] == 0.0 for e in state.outer_log)

    def test_rgb_scene_refines(self):
        from symmvs import DepthHypotheses, PlanePrimitive, SceneSpec, render_scene
        from conftest import make_camera
        hyp = DepthHypotheses(2.0, 4.0, 32)
        spec = SceneSpec(
            [PlanePrimitive([0, 0, 1], float(hyp.samples[16]), texture_scale=1.4)],
            [make_camera(-0.4, f=40, width=40, height=30),
             make_camera(0.4, f=40, width=40, height=30)],
            width=40, height=30, channels=3, seed=2,
        )
        views, gt, _ = render_scene(spec)
        rng = np.random.default_rng(0)
        noisy = [DepthMap(np.clip(d.values + rng.normal(0, 0.1, d.values.shape),
                                  hyp.d_min, hyp.d_max), d.valid.copy())
                 for d in gt]
        config = desk_config(hyp, max_outer_iters=6, inner_steps_per_mask_update=3)
        state = SceneState(views=views, depths=[d.copy() for d in noisy],
                           masks={}, weights=config.weights)
        err0 = median_abs_error(noisy, gt)
        state = refine(state, config)
        assert median_abs_error(state.depths, gt) < err0
        assert not state.diverged

    def test_rerun_bit_identical(self, plane_scene):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        config = desk_config(hyp, max_outer_iters=3)
        a = run_pipeline(views, config)
        b = run_pipeline(views, config)
        for da, db in zip(a.depths, b.depths):
            np.testing.assert_array_equal(da.values, db.values)
            np.testing.assert_array_equal(da.valid, db.valid)
        assert a.history == b.history


def test_quick_start_refine_trajectory(monkeypatch):
    """The README quick-start scene refines with 36 value and 9 gradient
    evaluations over 8 accepted steps in 3 outer iterations. A gradient
    that changes by more than rounding flips a line-search decision, and
    these counts with it."""
    views, _ = quick_start_scene()
    config = SolverConfig(hypotheses=DepthHypotheses(1.8, 4.95, 64),
                          weights=LossWeights(tau_occ=1.0))
    evaluations = {False: 0, True: 0}
    evaluate = consistency._evaluate

    def counted(views, depths, masks, weights, with_grad=False, context=None):
        evaluations[with_grad] += 1
        return evaluate(views, depths, masks, weights, with_grad, context)

    monkeypatch.setattr(consistency, "_evaluate", counted)
    state = run_pipeline(views, config)
    assert state.converged and not state.diverged
    assert (evaluations[False], evaluations[True]) == (36, 9)
    assert (state.iteration, len(state.outer_log)) == (8, 3)


def _refine_digest(views, depths, config):
    """sha256 over everything a refine run returns."""
    state = refine(SceneState(views=list(views), depths=[d.copy() for d in depths],
                              masks={}, weights=config.weights), config)
    h = hashlib.sha256()
    for d in state.depths:
        h.update(d.values.tobytes())
        h.update(d.valid.tobytes())
    for key in sorted(state.masks):
        h.update(state.masks[key].valid.tobytes())
    h.update(repr((state.history, state.outer_log, state.converged,
                   state.diverged)).encode())
    return h.hexdigest()


_ALONE = """
import pickle, sys
from test_solver import _refine_digest
views, depths, config = pickle.load(sys.stdin.buffer)
print(_refine_digest(views, depths, config))
"""


def test_refine_leaves_nothing_behind(plane_scene, occluder_scene, tmp_path):
    """Each scene refines to the same bytes after the other scene's run in
    this process as alone in a fresh interpreter."""
    hyp = DepthHypotheses(1.2, 4.95, 64)
    config = desk_config(hyp, max_outer_iters=2, inner_steps_per_mask_update=2)
    runs = [(sc["views"], noisy_depths(sc["gt"], 0.1, hyp))
            for sc in (plane_scene, occluder_scene)]
    in_process = [_refine_digest(views, depths, config) for views, depths in runs]

    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")]))
    for (views, depths), digest in zip(runs, in_process):
        alone = subprocess.run(
            [sys.executable, "-c", _ALONE], input=pickle.dumps((views, depths, config)),
            env=env, cwd=tmp_path, capture_output=True, check=True, timeout=300,
        )
        assert alone.stdout.decode().strip() == digest


def test_skipped_terms_warned_once_per_mask_phase(plane_scene, caplog):
    # the second camera looks at a part of the plane the first never sees,
    # so both occlusion masks are empty and every pair term is skipped
    far = plane_scene["views"][1]
    far = CameraView(far.intrinsics, far.rotation, far.translation - [20.0, 0.0, 0.0],
                     far.image)
    views = [plane_scene["views"][0], far]
    config = desk_config(plane_scene["hyp"], max_outer_iters=2,
                         inner_steps_per_mask_update=2)
    depths = noisy_depths(plane_scene["gt"][:2], 0.1, plane_scene["hyp"])
    with caplog.at_level("WARNING", logger="symmvs"):
        state = refine(SceneState(views=views, depths=depths, masks={},
                                  weights=config.weights), config)
    records = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(state.outer_log) == 2
    assert len(records) == len(state.outer_log)
    terms = ("Lu_0_1", "Lu_1_0", "Lm_0_1", "Lm_1_0", "Ld_0_1", "Ld_1_0")
    for phase, rec in enumerate(records):
        msg = rec.getMessage()
        assert msg.startswith(f"mask phase {phase}: ")
        for term in terms:
            assert f"{term} x" in msg
    assert set(terms) <= total_loss(state).skipped


@pytest.mark.parametrize("call", [
    pytest.param(lambda sc: SolverConfig(sc["hyp"], convergence_tol=np.nan),
                 id="convergence_tol"),
    pytest.param(lambda sc: LossWeights(omega_u=np.nan), id="omega_u"),
    pytest.param(lambda sc: LossWeights(tau_occ=np.nan), id="tau_occ"),
    pytest.param(lambda sc: filter_consistent(sc["gt"], sc["views"], np.nan),
                 id="tau_fuse"),
    pytest.param(lambda sc: cloud_metrics(PointCloud(np.zeros((1, 3))),
                                          PointCloud(np.zeros((1, 3))), np.nan),
                 id="threshold"),
    pytest.param(lambda sc: compute_all_masks(
        sc["views"], sc["gt"], dataclasses.replace(sc["weights"], tau_occ=np.nan)),
                 id="occlusion-tau"),
])
def test_nan_parameter_is_rejected(plane_scene, call):
    with pytest.raises(ValueError, match=r"must be (positive|non-negative)$"):
        call(plane_scene)


@pytest.mark.parametrize("field, call", [
    ("max_outer_iters", lambda hyp: SolverConfig(hyp, max_outer_iters=2.5)),
    ("max_outer_iters", lambda hyp: SolverConfig(hyp, max_outer_iters=3.0)),
    ("max_outer_iters", lambda hyp: SolverConfig(hyp, max_outer_iters=-1)),
    ("inner_steps_per_mask_update",
     lambda hyp: SolverConfig(hyp, inner_steps_per_mask_update=1.5)),
    ("inner_steps_per_mask_update",
     lambda hyp: SolverConfig(hyp, inner_steps_per_mask_update=0)),
    ("count", lambda hyp: DepthHypotheses(1.0, 2.0, 2.5)),
    ("count", lambda hyp: DepthHypotheses(1.0, 2.0, "4")),
    ("count", lambda hyp: DepthHypotheses(1.0, 2.0, 1)),
])
def test_bad_count_is_rejected_naming_its_field(plane_scene, field, call):
    # a fractional count used to pass, and `range()` raised a bare TypeError
    # only once `refine` reached it
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= \d, got "):
        call(plane_scene["hyp"])


@pytest.mark.parametrize("make, field, value", [
    (lambda hyp: LossWeights(), "tau_occ", float("nan")),
    (lambda hyp: LossWeights(), "lambda1", -1.0),
    (lambda hyp: SolverConfig(hyp), "max_outer_iters", -1),
    (lambda hyp: SolverConfig(hyp), "weights", LossWeights(tau_occ=1.0)),
])
def test_assigning_a_checked_field_raises(plane_scene, make, field, value):
    # a field assigned after construction used to skip the only check: a
    # NaN tau_occ gave masks with no valid pixel, and every term was skipped
    obj = make(plane_scene["hyp"])
    before = getattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, value)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("field, call", [
    ("max_outer_iters", lambda hyp: SolverConfig(hyp, max_outer_iters=True)),
    ("max_outer_iters", lambda hyp: SolverConfig(hyp, max_outer_iters=False)),
    ("inner_steps_per_mask_update",
     lambda hyp: SolverConfig(hyp, inner_steps_per_mask_update=True)),
    ("count", lambda hyp: DepthHypotheses(1.0, 2.0, True)),
    ("count", lambda hyp: DepthHypotheses(1.0, 2.0, np.bool_(True))),
])
def test_bool_count_is_rejected_naming_its_field(plane_scene, field, call):
    # `isinstance(True, int)` holds, so a flag used to pass as the count 1
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= \d, "
                                         r"got (np\.)?(True|False)"):
        call(plane_scene["hyp"])


def test_numpy_integer_counts_are_accepted(plane_scene):
    config = SolverConfig(plane_scene["hyp"], max_outer_iters=np.int64(2),
                          inner_steps_per_mask_update=np.int32(3))
    assert config.max_outer_iters == 2
    assert DepthHypotheses(1.0, 2.0, np.int64(5)).samples.shape == (5,)


@pytest.mark.parametrize("n_views, n_depths", [(3, 2), (2, 3)])
@pytest.mark.parametrize("call", [
    pytest.param(lambda sc, views, depths: compute_all_masks(views, depths,
                                                             sc["weights"]),
                 id="compute_all_masks"),
    pytest.param(lambda sc, views, depths: total_loss(
        SceneState(views=views, depths=depths, masks={}, weights=sc["weights"])),
                 id="total_loss"),
    pytest.param(lambda sc, views, depths: refine(
        SceneState(views=views, depths=depths, masks={}, weights=sc["weights"]),
        desk_config(sc["hyp"])),
                 id="refine"),
    pytest.param(lambda sc, views, depths: filter_consistent(depths, views, 0.1),
                 id="filter_consistent"),
    pytest.param(lambda sc, views, depths: depths_to_cloud(depths, views),
                 id="depths_to_cloud"),
])
def test_depth_count_other_than_view_count_is_rejected(plane_scene, call, n_views,
                                                       n_depths):
    # the views and depth maps of one scene; either list one longer
    views = plane_scene["views"][:n_views]
    depths = [d.copy() for d in plane_scene["gt"][:n_depths]]
    with pytest.raises(ShapeMismatch, match=f"^{n_depths} depth maps for {n_views} views$"):
        call(plane_scene, views, depths)
