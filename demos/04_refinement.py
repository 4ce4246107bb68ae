"""Joint refinement of all depth maps against the full objective.

Starting from noisy depths, the solver alternates occlusion-mask updates
with mask-frozen projected gradient steps (analytic gradients through the
whole warping chain, Armijo backtracking line search). The loss history is
non-increasing within every mask-frozen phase.
"""

import time

import numpy as np

from symmvs import (
    CameraView,
    DepthHypotheses,
    DepthMap,
    LossWeights,
    PlanePrimitive,
    SceneSpec,
    SceneState,
    refine,
    render_scene,
)
from symmvs.solver import SolverConfig


def pinhole(center_x, f=55.0, width=64, height=48):
    K = np.array([[f, 0, (width - 1) / 2], [0, f, (height - 1) / 2], [0, 0, 1.0]])
    return CameraView(K, np.eye(3), np.array([-center_x, 0.0, 0.0]), None)


hyp = DepthHypotheses(1.8, 1.8 + 63 * 0.05, 64)
true_depth = float(hyp.samples[24])
spec = SceneSpec(
    [PlanePrimitive([0, 0, 1], true_depth, texture_scale=1.3)],
    [pinhole(-0.55), pinhole(0.0), pinhole(0.55)],
    width=64, height=48, seed=7,
)
views, gt, _ = render_scene(spec)

rng = np.random.default_rng(3)
sigma = 2 * hyp.spacing
noisy = [
    DepthMap(np.clip(d.values + rng.normal(0, sigma, d.values.shape),
                     hyp.d_min, hyp.d_max), d.valid.copy())
    for d in gt
]


def median_error(depths):
    errs = [np.abs(d.values - g.values)[g.valid] for d, g in zip(depths, gt)]
    return float(np.median(np.concatenate(errs)))


config = SolverConfig(
    hypotheses=hyp,
    max_outer_iters=50,
    inner_steps_per_mask_update=4,
    temperature=3e-6,
    convergence_tol=1e-6,
    weights=LossWeights(tau_occ=1.0),
)
state = SceneState(views=views, depths=[d.copy() for d in noisy], masks={},
                   weights=config.weights)

print(f"start: median |depth error| = {median_error(noisy):.4f} "
      f"(noise sigma = {sigma})")
t0 = time.time()
state = refine(state, config)
elapsed = time.time() - t0

print(f"after {len(state.outer_log)} outer iterations ({elapsed:.1f}s): "
      f"median |depth error| = {median_error(state.depths):.4f}")
print(f"converged={state.converged}  diverged={state.diverged}  "
      f"stopped: {state.stop_reason}")

print("\nper-outer-iteration loss totals:")
for entry in state.outer_log[:8]:
    print(f"  outer {entry['iter']:2d}: total {entry['total']:.5f} "
          f"(Lu {entry['Lu']:.4f}  Ld {entry['Ld']:.4f}  Lb {entry['Lb']:.4f})")
if len(state.outer_log) > 8:
    last = state.outer_log[-1]
    print(f"  ...          total {last['total']:.5f} at outer {last['iter']}")

reduction = 1 - median_error(state.depths) / median_error(noisy)
print(f"\nmedian error reduced by {reduction:.1%}")
