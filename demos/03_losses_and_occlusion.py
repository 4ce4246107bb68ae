"""The multi-view objective, term by term, and occlusion reasoning.

The total loss combines, per view pair, photometric synthesis residuals in
both directions plus smoothness, and cross-view consistency terms built
from second-order synthesis (warp there and back again). The breakdown
itemizes every term. Occlusion masks come from the double depth warp: a
pixel whose depth does not survive the round trip is excluded everywhere.
"""

import numpy as np

from symmvs import (
    CameraView,
    DepthMap,
    LossWeights,
    PlanePrimitive,
    SceneSpec,
    compute_all_masks,
    render_scene,
    total_loss,
)
from symmvs.consistency import SceneState


def pinhole(center_x, f=55.0, width=64, height=48):
    K = np.array([[f, 0, (width - 1) / 2], [0, f, (height - 1) / 2], [0, 0, 1.0]])
    return CameraView(K, np.eye(3), np.array([-center_x, 0.0, 0.0]), None)


spec = SceneSpec(
    primitives=[PlanePrimitive([0, 0, 1], 3.0, texture_scale=1.3)],
    cameras=[pinhole(-0.55), pinhole(0.0), pinhole(0.55)],
    width=64, height=48, seed=7,
)
views, gt, _ = render_scene(spec)
weights = LossWeights(tau_occ=1.0)   # threshold in scene depth units


def state_at(depths):
    return SceneState(views, depths, compute_all_masks(views, depths, weights),
                      weights)


breakdown = total_loss(state_at(gt))
print("loss breakdown at ground-truth depths:")
for line in breakdown.report_lines():
    print("  " + line)

# the objective prefers the true depths over any global rescaling
print("\ntotal loss vs. depth scale:")
for scale in (0.8, 0.9, 1.0, 1.1, 1.2):
    depths = [DepthMap(d.values * scale, d.valid.copy()) for d in gt]
    value = total_loss(state_at(depths)).total
    marker = "  <-- ground truth" if scale == 1.0 else ""
    print(f"  scale {scale:.1f}: {value:.5f}{marker}")

# --- occlusion masks on the two-plane scene --------------------------------

patch = PlanePrimitive([0, 0, 1], 1.7, texture_id=1, texture_scale=1.6,
                       bounds=(0.6, 50.0, -50.0, 50.0))
background = PlanePrimitive([0, 0, 1], 3.6, texture_scale=1.2)
occ_spec = SceneSpec(
    [patch, background],
    [pinhole(-1.1, f=110, width=128, height=96),
     pinhole(0.0, f=110, width=128, height=96),
     pinhole(1.1, f=110, width=128, height=96)],
    width=128, height=96, seed=3,
)
occ_views, occ_gt, occ_vis = render_scene(occ_spec)

# a tight threshold: the patch and the background are 1.9 depth units apart
mask = compute_all_masks(occ_views, occ_gt, LossWeights(tau_occ=0.05))[2, 0]
hidden = ~occ_vis[(2, 0)]
print("\nocclusion reasoning, view 2 against view 0:")
print(f"  analytically hidden pixels: {hidden.sum()}")
print(f"  pixels the mask excludes:   {(~mask.valid).sum()}")
caught = (hidden & ~mask.valid).sum() / hidden.sum()
print(f"  hidden pixels caught by the mask: {caught:.1%}")
