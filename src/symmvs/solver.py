"""End-to-end symmetric pipeline: per-view plane-sweep initialization at
the coarsest level of an image pyramid, read out at each pixel's cost
minimum and upsampled to the input grid, then alternating occlusion-mask
re-estimation and joint gradient refinement of all depth maps against the
full multi-view objective. How far the sweep halves a grid
(`_sweep_levels`), when a view is swept a level finer (`MIN_PARALLAX_PX`)
and how many rows one band of its cost volume holds (`SWEEP_BAND_BYTES`)
are fixed rules, stated where they are defined.

Refinement runs projected gradient descent with a backtracking (Armijo)
line search on the total loss, masks frozen within each inner phase, so
the recorded loss history is non-increasing between mask updates. Depths
stay clamped to the hypothesis range. The state being refined is the one
`consistency.SceneState` that every loss evaluation reads (`SolverState` is
an alias of it); `refine` records why it stopped in its ``stop_reason``,
one of `STOP_REASONS`.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import consistency, geometry, volume
from .consistency import SceneState
from .errors import EmptySweep, MinimumAtRangeEnd, NoParallax
from .geometry import DepthHypotheses, DepthMap
from .photometry import LossWeights

logger = logging.getLogger(__name__)

__all__ = [
    "STOP_REASONS",
    "SolverConfig",
    "SolverState",
    "init_depths",
    "loss_gradient",
    "refine",
    "run_pipeline",
]

ARMIJO_C = 1e-4
# The line search's first trial step, in hypothesis spacings; a rejected
# step is halved, at most MAX_HALVINGS times per descent step.
INITIAL_STEP = 2.0
MAX_HALVINGS = 8
# A stalled line search counts as failure (not convergence) only when the
# smallest admissible step still increases the loss by more than this
# relative amount; flat stalls are stationary points.
_STALL_REL_JUMP = 1e-2

# Why `refine` stopped: the relative decrease over a mask phase fell below
# the tolerance; the outer-iteration cap ran out (also a cap of zero); a
# phase began at a zero gradient; a phase's line search could not move but
# its smallest step barely raised the loss (a stationary point); or it
# raised the loss steeply (the state is flagged diverged).
STOP_REASONS = ("tol_reached", "max_iters", "zero_gradient", "stationary_stall",
                "line_search_failed")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the refinement driver.

    ``weights`` carries every loss weight, including the occlusion
    threshold used at mask updates; `refine` requires the state's weights
    to equal them. Each setting is checked by `check` when the config is
    built, and the config is frozen, so no later assignment skips it.

    ``temperature`` is accepted and never read; the benchmark's harness
    still passes it.
    """

    hypotheses: DepthHypotheses
    max_outer_iters: int = 30
    inner_steps_per_mask_update: int = 4
    convergence_tol: float = 1e-5
    temperature: float | None = None
    weights: LossWeights = field(default_factory=LossWeights)

    # the least value of each integer setting; the others must be positive
    _LEAST = {"max_outer_iters": 0, "inner_steps_per_mask_update": 1}

    @classmethod
    def check(cls, name: str, value):
        """Raise ValueError naming ``name`` unless ``value`` suits that
        setting: an integer count at or above its least value, or a
        positive ``convergence_tol`` (NaN fails)."""
        least = cls._LEAST.get(name)
        if least is not None:
            geometry.check_integer(name, value, least)
        # written as `not x > 0` so that NaN fails
        elif not value > 0:
            raise ValueError(f"{name} must be positive")

    def __post_init__(self):
        for name in ("max_outer_iters", "inner_steps_per_mask_update",
                     "convergence_tol"):
            self.check(name, getattr(self, name))


# `refine` updates the progress fields of the one scene state in place;
# `SolverState` names the same class.
SolverState = SceneState


# Byte budget of one band's float cost volume in `init_depths`: a band
# holds as many reference rows as fit D x rows x W float64 entries in it
# (64 rows at W = 256, D = 64), plus the smoothing window's halo row on
# either side. An image whose whole volume fits is swept in one band.
# Smaller bands repeat a build's per-hypothesis Python work more often
# (2 MiB bands sweep about 20% slower at 256x192, D = 64), larger ones hold
# more memory (16 MiB bands: 1.8x the sweep's peak with 8 MiB bands).
SWEEP_BAND_BYTES = 8 * 2**20

# The sweep's image pyramid: `init_depths` halves every view while both
# sides of the grid are even and the halved grid is still at least this
# (width, height), sweeps each reference at the coarsest level where it
# has parallax, and upsamples its depths back level by level. A grid of
# this size or smaller is swept as it is.
SWEEP_MIN_GRID = (64, 48)

# A reference view needs a source camera that moves at least one of its
# pixels this far, in source pixels of the level it is swept at, between
# the ends of the hypothesis range. Below it every hypothesis samples nearly
# the same texture, and the costs barely tell the depths apart.
MIN_PARALLAX_PX = 0.5


def _sweep_levels(height: int, width: int) -> int:
    """How many times `init_depths` may halve a (height, width) grid before
    it sweeps: 2 at 256x192, 1 at 128x96, 0 at 64x48 or at an odd side."""
    min_w, min_h = SWEEP_MIN_GRID
    levels = 0
    while (height % 2 == 0 and width % 2 == 0
           and width // 2 >= min_w and height // 2 >= min_h):
        height, width, levels = height // 2, width // 2, levels + 1
    return levels


def _swept_level(pyramid, ref: int, hypotheses: DepthHypotheses):
    """The level of ``pyramid`` (a list of view lists, input grid first) that
    reference ``ref`` is swept at, and its whole-grid `geometry.ViewPair`
    records there: the coarsest level where some source camera moves one of
    its pixels by `MIN_PARALLAX_PX` of that level's pixels or more.

    A displacement in pixels halves with every level, so a reference short
    of it at the coarsest level is tried one level finer, up to the input
    grid; short of it there, it raises NoParallax naming the reference and
    its largest displacement on the input grid.
    """
    for level in range(len(pyramid) - 1, -1, -1):
        views = pyramid[level]
        h, w = views[ref].image.shape[:2]
        pairs = {(ref, s): geometry.pair_coefficients(views[ref], source, h, w)
                 for s, source in enumerate(views) if s != ref}
        moved = max(_largest_parallax(pair, hypotheses) for pair in pairs.values())
        if moved >= MIN_PARALLAX_PX:
            return level, pairs
    raise NoParallax(
        f"view {ref}: no other camera moves any of its pixels by "
        f"{MIN_PARALLAX_PX:g} px over the depth range "
        f"[{hypotheses.d_min:g}, {hypotheses.d_max:g}]; the largest "
        f"displacement is {moved:.3g} px, so its depth cannot be estimated")


def _sweep_reference(pairs, feats, ref: int, hypotheses: DepthHypotheses):
    """The depth map of reference view ``ref``, swept in bands of rows on
    the grid of ``feats``, the pyramid level `_swept_level` picked for it,
    and the number of its pixels whose cost minimum sits at a range end.

    Its whole-grid `geometry.ViewPair` records ``pairs`` of that level serve,
    as row views, every band.
    Cost, smoothing and regression are independent per row apart from the
    3x3x3 smoothing window, so each band's volume carries one halo row on
    either side (clipped at the image edges) and keeps only its own rows:
    the depths equal the whole-image sweep's bit for bit.
    """
    h, w = feats[ref].shape[1:]
    band = max(1, SWEEP_BAND_BYTES // (hypotheses.count * w * 8))
    values = np.empty((h, w))
    valid = np.empty((h, w), dtype=bool)
    at_end = 0
    for top in range(0, h, band):
        bottom = min(top + band, h)
        lo, hi = max(0, top - 1), min(h, bottom + 1)
        band_pairs = {key: pair.band(lo, hi) for key, pair in pairs.items()}
        vol = volume.build_cost_volume(band_pairs, feats, ref, hypotheses)
        vol = volume.smooth_cost_volume(vol)
        depth, ends = volume.regress_depth(vol)
        del vol  # the next band's sweep holds no volume of this one
        values[top:bottom] = depth.values[top - lo:bottom - lo]
        valid[top:bottom] = depth.valid[top - lo:bottom - lo]
        at_end += int(ends[top - lo:bottom - lo].sum())
    return DepthMap(values, valid), at_end


def _largest_parallax(pair: geometry.ViewPair, hypotheses: DepthHypotheses) -> float:
    """The largest distance, in source pixels, between where a target pixel
    lands at ``d_min`` and at ``d_max``, over the pixels in front of the
    source camera at both depths; 0 for a source at the target's centre."""
    x0, y0, front0 = geometry.sampling_chain(pair, hypotheses.d_min)
    x1, y1, front1 = geometry.sampling_chain(pair, hypotheses.d_max)
    return float(np.hypot(x1 - x0, y1 - y0)[front0 & front1].max(initial=0.0))


def init_depths(views, hypotheses: DepthHypotheses, temperature=None):
    """Initial depth map for every view from its own smoothed cost volume,
    swept once at the coarsest level of an image pyramid where it has
    parallax and read out at each pixel's cost minimum
    (`volume.regress_depth`).

    The pyramid halves every view (`geometry.halve_view`) while both sides
    of the grid are even and the halved grid is at least `SWEEP_MIN_GRID`,
    so 256x192 and 128x96 both sweep at 64x48, and a grid of 64x48 or
    smaller, or with an odd side, is swept as it is. A reference view
    whose largest displacement (below) falls short at that level is swept
    one level finer, and so on up to the input grid. Its swept depths are
    upsampled back to the input grid one level at a time
    (`geometry.upsample_depth`); there is no per-level refinement or
    re-sweep. Every view serves as reference exactly once, so the
    initialization is symmetric under view relabeling. The features are
    `volume`'s fixed grad3 stack and the smoothing its 3x3x3 window. Each
    reference is swept in bands of rows whose float cost fits
    `SWEEP_BAND_BYTES`, one band after the other, so no whole-image volume
    is built unless it fits; the depths are those of the whole-image sweep
    of the swept level. A pixel whose minimum sits at a range end is
    invalid, as is every pixel upsampled from it.

    ``temperature`` is accepted and never read, as `SolverConfig`'s.

    The views are checked first, as a loss evaluation checks them: at least
    two, each with an image of one shape at least 2 by 2, errors naming the
    view at fault. Just before its sweep, a reference view raises
    NoParallax naming it and its largest displacement when no source camera
    moves any of its pixels by `MIN_PARALLAX_PX` or more over the
    hypothesis range, even on the input grid (a source at its centre moves
    none): its costs barely change with the hypothesis. The first reference
    view without a single valid depth on the input grid raises
    MinimumAtRangeEnd naming it and its count of such pixels when some of
    its pixels have their minimum at a range end (the range does not
    bracket the scene), and EmptySweep otherwise: no second view sees any
    of its pixels at any hypothesis, so the range misses the scene.
    """
    consistency._check_views(views, "initialization")
    pyramid = [list(views)]
    for _ in range(_sweep_levels(*views[0].image.shape[:2])):
        pyramid.append([geometry.halve_view(v) for v in pyramid[-1]])
    feats = {}
    depths = []
    for ref in range(len(views)):
        level, pairs = _swept_level(pyramid, ref, hypotheses)
        if level not in feats:
            feats[level] = [volume.extract_features(v.image) for v in pyramid[level]]
        depth, at_end = _sweep_reference(pairs, feats[level], ref, hypotheses)
        for _ in range(level):
            depth = geometry.upsample_depth(depth)
        if not depth.valid.any():
            if at_end:
                raise MinimumAtRangeEnd(
                    f"view {ref}: no valid depth; {at_end} of its pixels have "
                    f"their cost minimum at an end of [{hypotheses.d_min:g}, "
                    f"{hypotheses.d_max:g}], so the hypothesis range does not "
                    "bracket the scene")
            raise EmptySweep(
                f"view {ref}: no pixel sees a second view at any depth in "
                f"[{hypotheses.d_min:g}, {hypotheses.d_max:g}], so the "
                "hypothesis range misses the scene")
        depths.append(depth)
    return depths


def loss_gradient(state: SceneState, context=None, breakdown: bool = False):
    """Analytic gradient of the total loss w.r.t. every depth pixel.

    Masks are held fixed; the census term is locally constant and
    contributes nothing; invalid pixels get exactly zero. ``context`` is
    the run's `consistency.ViewContext` over ``state.views``, if any. The
    gradient is what the evaluation leaves in its depth leaves' ``.grad``:
    it pushes each group of terms back with their weights in the objective
    as soon as the group is done, so no tape outlives its group, and every
    leaf enters its view's smoothness term. With ``breakdown``, returns
    (the evaluation's `consistency.LossBreakdown`, the gradients): the
    evaluation computes every term's value on the way, with the bits of a
    value-only evaluation.
    """
    bd, leaves = consistency._evaluate(
        state.views, state.depths, state.masks, state.weights, True, context
    )
    grads = [np.where(depth.valid, leaf.grad, 0.0)
             for leaf, depth in zip(leaves, state.depths)]
    return (bd, grads) if breakdown else grads


def _total(state: SceneState, depths, context, skipped: Counter):
    bd, _ = consistency._evaluate(
        state.views, depths, state.masks, state.weights, False, context
    )
    skipped.update(bd.skipped)
    return bd


def _warn_skipped(outer: int, skipped: Counter):
    """One warning per mask phase: each term skipped for an empty mask,
    with the number of the phase's loss evaluations that skipped it."""
    if skipped:
        logger.warning(
            "mask phase %d: loss terms skipped for an empty mask: %s", outer,
            ", ".join(f"{key} x{skipped[key]}" for key in sorted(skipped)),
        )


def refine(state: SceneState, config: SolverConfig) -> SceneState:
    """Alternate occlusion-mask updates with mask-frozen gradient descent.

    Each outer iteration recomputes every occlusion mask at the current
    depths, then takes up to ``inner_steps_per_mask_update`` projected
    gradient steps, each guarded by a backtracking line search that only
    accepts a step when the masked loss decreases by the Armijo margin.
    Stops when the relative loss decrease over an outer iteration falls
    below ``convergence_tol``; if the line search cannot move at all while
    a significant gradient remains, the state is flagged diverged and the
    best depths found so far are returned. ``state.stop_reason`` says which
    of `STOP_REASONS` ended the run.

    Camera- and image-only data is computed once per run, in one
    `consistency.ViewContext` that is dropped on return; a run with
    ``max_outer_iters == 0`` only updates the masks and builds none, so
    its one mask pass holds one unordered pair's camera records at a
    time. Loss terms skipped for an empty mask are logged once per mask
    phase, with counts. Every mask and loss reads ``state.weights``, so
    weights that differ from ``config.weights`` raise ValueError naming
    the fields.
    """
    if state.weights != config.weights:
        fields = [f for f in vars(config.weights)
                  if getattr(state.weights, f) != getattr(config.weights, f)]
        raise ValueError(f"the state's loss weights differ from the config's in "
                         f"{', '.join(fields)}; refine would read the state's")
    hyp = config.hypotheses
    step0 = INITIAL_STEP * hyp.spacing
    if config.max_outer_iters == 0:
        state.masks = consistency.compute_all_masks(state.views, state.depths,
                                                    state.weights)
        state.stop_reason = "max_iters"
        return state
    context = consistency.ViewContext(state.views, state.weights)

    for outer in range(config.max_outer_iters):
        state.masks = consistency.compute_all_masks(state.views, state.depths,
                                                    state.weights, context)
        # the phase's first gradient evaluation also gives its start value;
        # every later state was value-evaluated as the trial that got
        # accepted, so each state is evaluated once
        bd_end, grads = loss_gradient(state, context, breakdown=True)
        skipped = Counter(bd_end.skipped)
        f_cur = f_phase_start = bd_end.total
        state.history.append((state.iteration, f_cur))

        alpha = step0
        accepted_any = False
        smallest_trial = None
        for step in range(config.inner_steps_per_mask_update):
            if step:
                grads = loss_gradient(state, context)
            ginf = max(float(np.abs(g).max()) for g in grads)
            if ginf == 0.0:
                break
            dirs = [g / ginf for g in grads]

            a = min(alpha * 2.0, step0)
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
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
                bd_new = _total(state, cand, context, skipped)
                f_new = smallest_trial = bd_new.total
                if np.isfinite(f_new) and f_new <= f_cur - (ARMIJO_C / a) * move_sq:
                    accepted = True
                    break
                a *= 0.5
            if not accepted:
                break
            state.depths = cand
            f_cur, bd_end = f_new, bd_new
            alpha = a
            state.iteration += 1
            state.history.append((state.iteration, f_cur))
            accepted_any = True

        _warn_skipped(outer, skipped)
        state.outer_log.append({
            "iter": outer, "total": bd_end.total, **bd_end.term_sums(),
            "mask_valid": sum(m.valid_count for m in state.masks.values())})

        rel_decrease = (f_phase_start - f_cur) / max(abs(f_phase_start), 1e-300)
        if not accepted_any:
            # Line search exhausted for the whole inner cycle. A flat stall
            # is a stationary point; a steep increase at the smallest
            # admissible step means the search genuinely failed.
            # No trial at all means the phase began at a zero gradient.
            jump_cap = f_cur + max(_STALL_REL_JUMP * abs(f_cur), 1e-9)
            if smallest_trial is None:
                state.stop_reason = "zero_gradient"
            elif np.isfinite(smallest_trial) and smallest_trial <= jump_cap:
                state.stop_reason = "stationary_stall"
            else:
                state.stop_reason = "line_search_failed"
            break
        if rel_decrease < config.convergence_tol:
            state.stop_reason = "tol_reached"
            break
    else:
        state.stop_reason = "max_iters"
    return state


def run_pipeline(views, config: SolverConfig) -> SceneState:
    """Initialize every view's depth from its cost volume, then refine.

    Deterministic for fixed inputs and configuration.
    """
    depths = init_depths(views, config.hypotheses)
    state = SceneState(views=list(views), depths=depths, masks={},
                       weights=config.weights)
    return refine(state, config)
