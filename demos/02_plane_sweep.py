"""Plane-sweep matching: cost volumes, smoothing, and depth regression.

For every depth hypothesis, each neighboring view is warped into the
reference view through the fronto-parallel plane at that depth (the same
sampling chain the refinement uses, at a constant depth); the per-pixel cost is
the variance of the (fixed, non-learned) features across the views. Where
the hypothesis is right, the views agree and the variance collapses.
"""

import numpy as np

from symmvs import (
    CameraView,
    DepthHypotheses,
    PlanePrimitive,
    SceneSpec,
    build_cost_volume,
    extract_features,
    pair_records,
    regress_depth,
    render_scene,
    smooth_cost_volume,
)


def pinhole(center_x, f=55.0, width=64, height=48):
    K = np.array([[f, 0, (width - 1) / 2], [0, f, (height - 1) / 2], [0, 0, 1.0]])
    return CameraView(K, np.eye(3), np.array([-center_x, 0.0, 0.0]), None)


hyp = DepthHypotheses(d_min=1.8, d_max=1.8 + 63 * 0.05, count=64)
true_depth = float(hyp.samples[24])

spec = SceneSpec(
    primitives=[PlanePrimitive([0, 0, 1], true_depth, texture_scale=1.3)],
    cameras=[pinhole(-0.55), pinhole(0.0), pinhole(0.55)],
    width=64, height=48, seed=7,
)
views, gt, _ = render_scene(spec)
print(f"sweeping {hyp.count} hypotheses over [{hyp.d_min}, {hyp.d_max:.2f}], "
      f"true depth {true_depth} = sample #24")

features = [extract_features(v.image) for v in views]
# each (reference, source) pair's camera record, built once from the cameras
pairs = pair_records(views, (48, 64))
volume = build_cost_volume(pairs, features, ref=1, hyp=hyp)

y, x = 24, 32
profile = volume.cost[:, y, x]
print(f"\ncost profile at the center pixel (min at #{profile.argmin()}):")
for k in range(0, 64, 8):
    bar = "#" * int(40 * profile[k] / profile.max())
    print(f"  sample {k:2d} (d={hyp.samples[k]:.2f}): {profile[k]:.2e} {bar}")

argmin = np.argmin(np.where(volume.valid, volume.cost, np.inf), axis=0)
interior = np.zeros(argmin.shape, bool)
interior[2:-2, 14:-14] = True
print(f"\nargmin hits the true sample on {np.mean(argmin[interior] == 24):.1%} "
      "of interior pixels")

# 3x3x3 box smoothing stands in for learned regularization; the softmax
# expectation needs a sharp temperature because these costs live at the
# 1e-3 scale
smoothed = smooth_cost_volume(volume)
for temperature in (1e-3, 1e-4, 3e-6):
    depth, _ = regress_depth(smoothed, temperature)
    err = np.abs(depth.values - true_depth)[interior]
    print(f"temperature {temperature:7.0e}: median |error| = {np.median(err):.4f} "
          f"(hypothesis spacing {hyp.spacing})")
