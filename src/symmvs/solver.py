"""End-to-end symmetric pipeline: per-view plane-sweep initialization, then
alternating occlusion-mask re-estimation and joint gradient refinement of
all depth maps against the full multi-view objective.

Refinement runs projected gradient descent with a backtracking (Armijo)
line search on the total loss, masks frozen within each inner phase, so
the recorded loss history is non-increasing between mask updates. Depths
stay clamped to the hypothesis range. The state being refined is the one
`consistency.SceneState` that every loss evaluation reads (`SolverState` is
an alias of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import consistency, volume
from .consistency import SceneState
from .errors import TooFewViews
from .geometry import DepthHypotheses, DepthMap
from .photometry import LossWeights

__all__ = [
    "SolverConfig",
    "SolverState",
    "init_depths",
    "loss_gradient",
    "refine",
    "run_pipeline",
]

ARMIJO_C = 1e-4
# A stalled line search counts as failure (not convergence) only when the
# smallest admissible step still increases the loss by more than this
# relative amount; flat stalls are stationary points.
_STALL_REL_JUMP = 1e-2


@dataclass
class SolverConfig:
    """Knobs of the refinement driver.

    ``step_size`` is the initial line-search step in depth units (None
    picks twice the hypothesis spacing). ``weights`` carries every loss
    weight, including the occlusion threshold used at mask updates.
    """

    hypotheses: DepthHypotheses
    max_outer_iters: int = 30
    inner_steps_per_mask_update: int = 4
    step_size: float | None = None
    backtrack_factor: float = 0.5
    max_halvings: int = 8
    convergence_tol: float = 1e-5
    temperature: float = 1.0
    feature_mode: str = "grad3"
    smooth_radius: tuple = (1, 1, 1)
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.max_outer_iters < 0 or self.inner_steps_per_mask_update < 1:
            raise ValueError("iteration counts must be sensible")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")
        if self.max_halvings < 0 or self.convergence_tol <= 0:
            raise ValueError("line-search limits must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


# `refine` updates the progress fields of the one scene state in place;
# `SolverState` names the same class.
SolverState = SceneState


def init_depths(views, hypotheses: DepthHypotheses, temperature: float,
                feature_mode: str = "grad3", smooth_radius=(1, 1, 1)):
    """Initial depth map for every view from its own smoothed cost volume.

    Every view serves as reference exactly once, so the initialization is
    symmetric under view relabeling.
    """
    if len(views) < 2:
        raise TooFewViews("initialization needs at least two views")
    feats = [volume.extract_features(v.image, feature_mode) for v in views]
    depths = []
    for ref in range(len(views)):
        vol = volume.build_cost_volume(views, feats, ref, hypotheses)
        vol = volume.smooth_cost_volume(vol, smooth_radius)
        depth, _ = volume.regress_depth(vol, temperature)
        depths.append(depth)
    return depths


def loss_gradient(state: SceneState):
    """Analytic gradient of the total loss w.r.t. every depth pixel.

    Masks are held fixed; the census term is locally constant and
    contributes nothing; invalid pixels get exactly zero.
    """
    _, total, leaves = consistency._evaluate(
        state.views, state.depths, state.masks, state.weights, with_grad=True
    )
    grads = []
    if hasattr(total, "backward"):
        total.backward()
    for leaf, depth in zip(leaves, state.depths):
        g = leaf.grad if getattr(leaf, "grad", None) is not None else None
        if g is None:
            g = np.zeros_like(depth.values)
        grads.append(np.where(depth.valid, g, 0.0))
    return grads


def _total(state: SceneState, depths):
    bd, _, _ = consistency._evaluate(
        state.views, depths, state.masks, state.weights
    )
    return bd


def refine(state: SceneState, config: SolverConfig) -> SceneState:
    """Alternate occlusion-mask updates with mask-frozen gradient descent.

    Each outer iteration recomputes every occlusion mask at the current
    depths, then takes up to ``inner_steps_per_mask_update`` projected
    gradient steps, each guarded by a backtracking line search that only
    accepts a step when the masked loss decreases by the Armijo margin.
    Stops when the relative loss decrease over an outer iteration falls
    below ``convergence_tol``; if the line search cannot move at all while
    a significant gradient remains, the state is flagged diverged and the
    best depths found so far are returned.
    """
    hyp = config.hypotheses
    step0 = config.step_size if config.step_size is not None else 2.0 * hyp.spacing

    state.masks = consistency.compute_all_masks(state.views, state.depths,
                                                state.weights)
    if config.max_outer_iters == 0:
        return state

    for outer in range(config.max_outer_iters):
        if outer > 0:
            state.masks = consistency.compute_all_masks(state.views, state.depths,
                                                        state.weights)
        bd = _total(state, state.depths)
        f_cur = bd.total
        f_phase_start = f_cur
        state.history.append((state.iteration, f_cur))

        alpha = step0
        accepted_any = False
        smallest_trial = None
        for _ in range(config.inner_steps_per_mask_update):
            grads = loss_gradient(state)
            ginf = max(float(np.abs(g).max()) for g in grads)
            if ginf == 0.0:
                break
            dirs = [g / ginf for g in grads]

            a = min(alpha * 2.0, step0)
            accepted = False
            for _ in range(config.max_halvings + 1):
                cand = []
                move_sq = 0.0
                for d, direction in zip(state.depths, dirs):
                    new_vals = np.where(
                        d.valid,
                        np.clip(d.values - a * direction, hyp.d_min, hyp.d_max),
                        d.values,
                    )
                    move_sq += float(((new_vals - d.values) ** 2).sum())
                    cand.append(DepthMap(new_vals, d.valid.copy()))
                f_new = _total(state, cand).total
                smallest_trial = f_new
                if np.isfinite(f_new) and f_new <= f_cur - (ARMIJO_C / a) * move_sq:
                    accepted = True
                    break
                a *= config.backtrack_factor
            if not accepted:
                break
            state.depths = cand
            f_cur = f_new
            alpha = a
            state.iteration += 1
            state.history.append((state.iteration, f_cur))
            accepted_any = True

        bd_end = _total(state, state.depths)
        state.outer_log.append(
            {
                "iter": outer,
                "total": bd_end.total,
                "Lu": sum(bd_end.unary.values()),
                "Ls": sum(bd_end.smoothness.values()),
                "Lm": sum(bd_end.image_consistency.values()),
                "Ld": sum(bd_end.depth_consistency.values()),
                "Lb": sum(bd_end.brightness.values()),
                "mask_valid": sum(m.valid_count for m in state.masks.values()),
            }
        )

        rel_decrease = (f_phase_start - f_cur) / max(abs(f_phase_start), 1e-300)
        if not accepted_any:
            # Line search exhausted for the whole inner cycle. A flat stall
            # is a stationary point; a steep increase at the smallest
            # admissible step means the search genuinely failed.
            jump_cap = f_cur + max(_STALL_REL_JUMP * abs(f_cur), 1e-9)
            if smallest_trial is None or (
                np.isfinite(smallest_trial) and smallest_trial <= jump_cap
            ):
                state.converged = True
            else:
                state.diverged = True
            break
        if rel_decrease < config.convergence_tol:
            state.converged = True
            break
    else:
        state.converged = True
    return state


def run_pipeline(views, config: SolverConfig) -> SceneState:
    """Initialize every view's depth from its cost volume, then refine.

    Deterministic for fixed inputs and configuration.
    """
    depths = init_depths(views, config.hypotheses, config.temperature,
                         config.feature_mode, config.smooth_radius)
    state = SceneState(views=list(views), depths=depths, masks={},
                       weights=config.weights)
    return refine(state, config)
