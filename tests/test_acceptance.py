"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Criteria
with runtime budgets assert them with time.monotonic around the measured
work only.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from symmvs import (
    DepthMap,
    LossWeights,
    PointCloud,
    build_cost_volume,
    cloud_metrics,
    compute_all_masks,
    depth_metrics,
    depths_to_cloud,
    extract_features,
    filter_consistent,
    overall_from_means,
    refine,
    regress_depth,
    run_pipeline,
    smooth_cost_volume,
    total_loss,
)
from symmvs import consistency, geometry
from symmvs.cli import main as cli_main
from symmvs.consistency import SceneState
from symmvs.solver import SolverConfig, loss_gradient

from conftest import (median_abs_error, noisy_depths, records,
                      scene_state)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL - {description}")
        raise
    print(f"criterion {number:02d} PASS - {description}")


def test_criterion_01_hyperparameter_fidelity():
    with criterion(1, "loss-weight defaults match the stock values exactly"):
        w = LossWeights()
        assert w.lambda1 == 0.5
        assert w.lambda2 == 0.8
        assert w.lambda3 == 0.5
        assert w.lambda4 == 0.2
        assert w.lambda5 == 0.3
        assert w.lambda6 == 0.3
        assert w.alpha1 == 0.5
        assert w.alpha2 == 0.5
        assert w.omega_u == 0.8
        assert w.omega_s == 0.1
        assert w.tau_occ == 5.0


# -- criterion 2: gradient oracle ------------------------------------------------

FD_STEP = 1e-4
GRAD_FLOOR = 1e-4


def test_criterion_02_gradient_oracle(plane_scene):
    from _oracles import fd_smooth_region

    with criterion(2, "analytic gradients match finite differences at 100+ pixels"):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        h, w = gt[0].values.shape
        weights = LossWeights(tau_occ=1.0)
        # the census term is locally constant by definition, so the
        # finite-difference oracle freezes it as well
        fd_weights = LossWeights(lambda4=0.0, tau_occ=1.0)
        depths = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=5)
        masks = compute_all_masks(views, depths, weights)
        state = SceneState(views=views, depths=depths, masks=masks,
                           weights=weights)

        start = time.monotonic()
        grads = loss_gradient(state)
        regions = [fd_smooth_region(views, depths, v, FD_STEP) for v in range(3)]
        rng = np.random.default_rng(11)
        errors = []
        while len(errors) < 100:
            v = int(rng.integers(0, 3))
            y = int(rng.integers(0, h))
            x = int(rng.integers(0, w))
            if not regions[v][y, x] or abs(grads[v][y, x]) < GRAD_FLOOR:
                continue
            base = depths[v].values[y, x]
            vals = []
            for sign in (+1, -1):
                pert = [d.copy() for d in depths]
                pert[v].values[y, x] = base + sign * FD_STEP
                bd, _ = consistency._evaluate(views, pert, masks, fd_weights)
                vals.append(bd.total)
            fd = (vals[0] - vals[1]) / (2 * FD_STEP)
            an = grads[v][y, x]
            errors.append(abs(an - fd) / max(abs(an), abs(fd), 1e-10))
        elapsed = time.monotonic() - start
        assert len(errors) >= 100
        assert max(errors) < 1e-3
        assert elapsed < 60.0


def test_criterion_03_cost_volume_sanity(plane_scene):
    with criterion(3, "plane sweep recovers the true hypothesis on a 3-view scene"):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        z0 = plane_scene["z0"]
        assert hyp.count == 64
        assert gt[0].values.shape == (48, 64)

        start = time.monotonic()
        feats = [extract_features(v.image) for v in views]
        vol = build_cost_volume(records(views), feats, 1, hyp)
        arg = np.argmin(np.where(vol.valid, vol.cost, np.inf), axis=0)
        interior = np.zeros(arg.shape, bool)
        interior[2:-2, 14:-14] = True
        interior &= vol.valid.all(axis=0)
        assert (arg[interior] == 24).mean() >= 0.98

        smoothed = smooth_cost_volume(vol)
        depth, _ = regress_depth(smoothed)
        err = np.abs(depth.values - z0)[interior & depth.valid]
        assert np.median(err) < hyp.spacing
        elapsed = time.monotonic() - start
        assert elapsed < 30.0


def test_criterion_04_ground_truth_optimality(plane_scene):
    with criterion(4, "total loss at ground truth beats every scaled variant"):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        at_gt = total_loss(scene_state(views, gt, weights)).total
        for s in (0.8, 0.9, 1.1, 1.2):
            scaled = [DepthMap(d.values * s, d.valid.copy()) for d in gt]
            at_scaled = total_loss(scene_state(views, scaled, weights)).total
            assert at_gt < at_scaled


def test_criterion_05_refinement_efficacy(plane_scene):
    with criterion(5, "refinement halves the median depth error from noise"):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        start_depths = noisy_depths(gt, 2 * hyp.spacing, hyp, seed=3)
        err0 = median_abs_error(start_depths, gt)
        config = SolverConfig(
            hypotheses=hyp, max_outer_iters=50, inner_steps_per_mask_update=4,
            convergence_tol=1e-6,
            weights=LossWeights(tau_occ=1.0),
        )
        state = SceneState(views=views, depths=[d.copy() for d in start_depths],
                           masks={}, weights=config.weights)
        start = time.monotonic()
        state = refine(state, config)
        elapsed = time.monotonic() - start

        err1 = median_abs_error(state.depths, gt)
        assert err1 <= 0.5 * err0
        assert not state.diverged
        # loss history non-increasing within each mask-frozen phase
        totals = [t for _, t in state.history]
        iters = [i for i, _ in state.history]
        for k in range(1, len(totals)):
            if iters[k] != iters[k - 1]:
                assert totals[k] <= totals[k - 1] + 1e-15
        assert elapsed < 300.0


def test_criterion_06_occlusion_reasoning(occluder_scene):
    with criterion(6, "occlusion mask matches the analytic hidden band"):
        views, gt = occluder_scene["views"], occluder_scene["gt"]
        vis = occluder_scene["visibility"][(2, 0)]
        m = compute_all_masks(views, gt, LossWeights(tau_occ=0.05))[2, 0]
        h, w = gt[2].values.shape
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        pts = geometry.backproject_pixels(views[2], gx, gy, gt[2].values)
        px, py, pz = geometry.project_points(views[0], pts)
        region = (
            gt[2].valid & (pz > 0)
            & (px >= 1) & (px <= w - 2) & (py >= 1) & (py <= h - 2)
        )
        region[:2] = region[-2:] = False
        region[:, :2] = region[:, -2:] = False
        band = ~vis & region
        invalid = ~m.valid & region
        jaccard = (band & invalid).sum() / (band | invalid).sum()
        assert band.sum() > 1000
        assert jaccard >= 0.95


def test_criterion_07_view_permutation_symmetry(plane_scene):
    with criterion(7, "permuting the views permutes identical depth outputs"):
        views, hyp = plane_scene["views"], plane_scene["hyp"]
        config = SolverConfig(
            hypotheses=hyp, max_outer_iters=4, inner_steps_per_mask_update=3,
            convergence_tol=1e-6,
            weights=LossWeights(tau_occ=1.0),
        )
        base = run_pipeline(views, config)
        perm = [2, 0, 1]
        permuted = run_pipeline([views[k] for k in perm], config)
        for new_idx, old_idx in enumerate(perm):
            np.testing.assert_array_equal(
                permuted.depths[new_idx].valid, base.depths[old_idx].valid
            )
            diff = np.abs(
                permuted.depths[new_idx].values - base.depths[old_idx].values
            ).max()
            assert diff < 1e-12


def test_criterion_08_overall_metric_reading():
    with criterion(8, "combined cloud score reproduces the published rounding"):
        overall = overall_from_means(0.760, 0.515)
        assert overall == pytest.approx(0.6375, abs=1e-12)
        assert abs(overall - 0.637) <= 0.0005 + 1e-12


def test_criterion_09_delta_boundary():
    with criterion(9, "ratio exactly 1.25 fails the strict first inlier test"):
        gt = DepthMap(np.full((6, 8), 4.0))
        pred = DepthMap(gt.values * 1.25)
        m = depth_metrics(pred, gt)
        assert m.delta1 == 0.0
        assert m.delta2 == 1.0
        assert m.delta3 == 1.0


def test_criterion_10_fusion_round_trip(plane_scene):
    with criterion(10, "perfect depths fuse onto the analytic plane, f-score 100"):
        views, gt, hyp = plane_scene["views"], plane_scene["gt"], plane_scene["hyp"]
        z0 = plane_scene["z0"]
        filtered = filter_consistent(gt, views, tau_fuse=hyp.spacing, min_views=2)
        cloud = depths_to_cloud(filtered, views)
        assert len(cloud) > 1000
        assert np.abs(cloud.points[:, 2] - z0).max() < 1e-6

        # analytic reference: a grid on the plane spanning the fused bbox.
        # With min_views=2 every survivor lies in the mutual-visibility
        # rectangle, so the grid both covers the cloud (accuracy) and stays
        # within a pixel footprint of it everywhere (completeness).
        threshold = hyp.spacing
        xs = cloud.points[:, 0]
        ys = cloud.points[:, 1]
        pitch = 0.02
        gx = np.arange(xs.min(), xs.max() + pitch / 2, pitch)
        gy = np.arange(ys.min(), ys.max() + pitch / 2, pitch)
        mx, my = np.meshgrid(gx, gy)
        reference = PointCloud(
            np.stack([mx.ravel(), my.ravel(), np.full(mx.size, z0)], axis=1)
        )
        m = cloud_metrics(cloud, reference, threshold=threshold)
        assert m.f_score == 100.0


def test_criterion_11_term_count_audit(plane_scene):
    with criterion(11, "loss breakdown carries exactly the index-set terms"):
        views, gt, weights = (plane_scene["views"], plane_scene["gt"],
                              plane_scene["weights"])
        bd2 = total_loss(scene_state(views[:2], gt[:2], weights))
        assert (len(bd2.synthesis), len(bd2.pair_consistency),
                len(bd2.brightness)) == (1, 1, 0)
        bd3 = total_loss(scene_state(views, gt, weights))
        assert (len(bd3.synthesis), len(bd3.pair_consistency),
                len(bd3.brightness)) == (3, 3, 3)


SCENE_CFG = """\
size 48 36
channels 1
seed 21
depth_range 2.0 0.04
camera fx=42 cx=23.5 cy=17.5 center=-0.4,0,0
camera fx=42 cx=23.5 cy=17.5 center=0,0,0
camera fx=42 cx=23.5 cy=17.5 center=0.4,0,0
plane normal=0,0,1 offset=3.0 texture=0 scale=1.5
"""

RUN_CFG = """\
tau_occ = 1.0
max_outer_iters = 3
inner_steps_per_mask_update = 3
hyp_count = 32
convergence_tol = 1e-6
"""


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "identical CLI runs write byte-identical artifacts"):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_CFG)
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(RUN_CFG)
        bundle_a = tmp_path / "bundle_a"
        bundle_b = tmp_path / "bundle_b"
        assert cli_main(["synth", str(scene), str(bundle_a)]) == 0
        assert cli_main(["synth", str(scene), str(bundle_b)]) == 0
        for name in sorted(p.name for p in bundle_a.iterdir()):
            assert (bundle_a / name).read_bytes() == (bundle_b / name).read_bytes()

        out_a = tmp_path / "opt_a"
        out_b = tmp_path / "opt_b"
        for out in (out_a, out_b):
            assert cli_main(["optimize", str(bundle_a), str(out),
                             "--config", str(run_cfg)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
