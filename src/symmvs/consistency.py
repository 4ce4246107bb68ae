"""Cross-view consistency: the multi-view scene state, occlusion masks, and
the total multi-view objective.

The occlusion mask for an ordered pair (i, j) compares view i's depth with
its double-warped version (i -> j -> i); pixels whose round trip moves by
more than the threshold, or whose warps leave bounds or go behind a
camera, are excluded from every loss term of that pair.

The total objective combines, per unordered view pair, both unary
synthesis losses plus the pair's smoothness; and per pair/triple, image
consistency (second-order synthesis against the real image), depth
consistency (robust penalty on warped-depth disagreement), and brightness
consistency between two second-order synthesized images sharing a
reference view. Terms whose mask is empty contribute zero and are
reported, never silently dropped.

One evaluator computes every term; `total_loss` returns them itemized in a
`LossBreakdown`, so a single term is read from there (for example
``total_loss(state).depth_consistency[(i, j)]``).

Data that depends only on the cameras and images lives in a `ViewContext`:
each ordered pair's `geometry.ViewPair` record, each view's comparator
reference statistics (census bits, gradients, SSIM mean and variance) and
smoothness edge weights, and the SSIM window normalizer, all computed when
it is built. `solver.refine` builds one per run that evaluates a loss and
hands it to every mask update and evaluation; an evaluation without one
(`total_loss`) builds a fresh one, and a mask update without one
(`compute_all_masks`, `occlusion_mask`) builds the pair records it reads.

Data that depends on the depths is computed once per mask update or
evaluation. Each ordered pair's `geometry.pair_sampling` serves every warp
of the pair: the first warp of one mask and the second of its reverse, or
the pair's first- and second-order synthesis and its depth warp. Each
synthesized image's `photometry.reference_stats` serves every term that
compares it: its unary or image-consistency term and, for a second-order
image, the brightness terms on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry, photometry
from .autodiff import Var, value_of
from .errors import EmptyMask, ShapeMismatch, TooFewViews
from .photometry import LossWeights, charbonnier

__all__ = [
    "OcclusionMask",
    "LossBreakdown",
    "SceneState",
    "ViewContext",
    "occlusion_mask",
    "compute_all_masks",
    "total_loss",
]


@dataclass
class OcclusionMask:
    """Mutual-visibility flags for an ordered view pair, in the first
    view's pixel grid."""

    pair: tuple | None
    valid: np.ndarray
    valid_count: int = field(init=False)

    def __post_init__(self):
        self.valid = np.asarray(self.valid, dtype=bool)
        self.valid_count = int(self.valid.sum())


@dataclass
class SceneState:
    """The multi-view state: views, their current depth maps, occlusion
    masks for every ordered pair, and the loss weights, followed by the
    refinement progress (accepted steps, accepted-loss history, per-outer-
    iteration log, stop flags)."""

    views: list
    depths: list
    masks: dict
    weights: LossWeights
    iteration: int = 0
    history: list = field(default_factory=list)
    outer_log: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False


@dataclass
class LossBreakdown:
    """Every loss term itemized, plus aggregates and the total.

    Keys: ``unary``/``image_consistency``/``depth_consistency`` by ordered
    pair, ``smoothness`` by view, ``brightness`` by (reference, j, k) with
    j < k, ``synthesis``/``pair_consistency`` by unordered pair. ``skipped``
    lists term keys whose mask was empty (those contribute exactly zero).
    """

    unary: dict = field(default_factory=dict)
    smoothness: dict = field(default_factory=dict)
    image_consistency: dict = field(default_factory=dict)
    depth_consistency: dict = field(default_factory=dict)
    brightness: dict = field(default_factory=dict)
    synthesis: dict = field(default_factory=dict)
    pair_consistency: dict = field(default_factory=dict)
    consistency_total: float = 0.0
    total: float = 0.0
    skipped: set = field(default_factory=set)

    def recomputed_total(self) -> float:
        return sum(self.synthesis.values()) + self.consistency_total

    def report_lines(self) -> list:
        """Flat key-value report, one term per line, deterministic order."""
        lines = []
        for (i, j), v in sorted(self.unary.items()):
            lines.append(f"Lu_{i}_{j} = {v:.17g}")
        for i, v in sorted(self.smoothness.items()):
            lines.append(f"Ls_{i} = {v:.17g}")
        for (i, j), v in sorted(self.image_consistency.items()):
            lines.append(f"Lm_{i}_{j} = {v:.17g}")
        for (i, j), v in sorted(self.depth_consistency.items()):
            lines.append(f"Ld_{i}_{j} = {v:.17g}")
        for (i, j, k), v in sorted(self.brightness.items()):
            lines.append(f"Lb_{i}_{j}_{k} = {v:.17g}")
        for (i, j), v in sorted(self.synthesis.items()):
            lines.append(f"Lsynth_{i}_{j} = {v:.17g}")
        for (i, j), v in sorted(self.pair_consistency.items()):
            lines.append(f"Lc_{i}_{j} = {v:.17g}")
        lines.append(f"Lconsistency = {self.consistency_total:.17g}")
        lines.append(f"total = {self.total:.17g}")
        if self.skipped:
            lines.append("skipped = " + ",".join(sorted(self.skipped)))
        return lines


class ViewContext:
    """What one refinement run derives from its views' cameras and images
    alone, all computed when it is built.

    ``norm`` is the SSIM window normalizer of the views' shared ``grid``;
    ``pairs[t, s]`` the `geometry.ViewPair` of every ordered pair (target
    t, source s); ``refs[i]`` view i's
    `photometry.reference_stats` and ``edges[i]`` its
    `photometry.edge_weights` for ``alphas``, the weights' (alpha1,
    alpha2). Building one checks the views: at least two (TooFewViews),
    each with an image (ValueError) of one shape (ShapeMismatch), each
    error naming the view at fault. Nothing outlives the context, so a run
    that creates one and drops it on return leaves no state behind.
    """

    def __init__(self, views, weights: LossWeights):
        if len(views) < 2:
            raise TooFewViews("the objective needs at least two views")
        for i, v in enumerate(views):
            if v.image is None:
                raise ValueError(f"view {i} has no image; loss evaluation "
                                 "needs one for every view")
            if v.image.shape != views[0].image.shape:
                raise ShapeMismatch(f"view {i} image is {v.image.shape}, "
                                    f"view 0's is {views[0].image.shape}")
        n = len(views)
        self.alphas = (weights.alpha1, weights.alpha2)
        self.grid = views[0].image.shape[:2]
        self.norm = photometry.box_norm(*self.grid)
        self.pairs = {(t, s): geometry.pair_coefficients(views[t], views[s], *self.grid)
                      for t in range(n) for s in range(n) if t != s}
        self.refs = [photometry.reference_stats(v.image, self.norm) for v in views]
        self.edges = [photometry.edge_weights(v.image, *self.alphas) for v in views]

    def check_depths(self, depths):
        """Raise ShapeMismatch naming the first depth map off the grid."""
        for i, d in enumerate(depths):
            if d.values.shape != self.grid:
                raise ShapeMismatch(f"view {i} depth map is {d.values.shape}, "
                                    f"the views' grid is {self.grid}")


# -- occlusion reasoning -------------------------------------------------------


def _round_trips(pairs, depths, keys, tau) -> dict:
    """Validity of mask (i, j) for each (i, j) in ``keys``, from ``pairs``,
    the `geometry.ViewPair` records of every (i, j) and (j, i) they need;
    each record is sampled once, at its target's depth."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    samplings = {(t, s): geometry.pair_sampling(p, depths[t].values, depths[t].valid)
                 for (t, s), p in pairs.items()}
    valid = {}
    for i, j in keys:
        first_vals, first_ok = geometry.warp_depth_values(
            pairs[j, i], samplings[j, i], depths[i].values, depths[i].valid)
        second_vals, second_ok = geometry.warp_depth_values(
            pairs[i, j], samplings[i, j], value_of(first_vals), first_ok)
        valid[i, j] = (
            second_ok
            & depths[i].valid
            & (np.abs(depths[i].values - value_of(second_vals)) <= tau)
        )
    return valid


def occlusion_mask(depth_i: geometry.DepthMap, depth_j: geometry.DepthMap,
                   cam_i: geometry.CameraView, cam_j: geometry.CameraView,
                   tau: float, pair: tuple | None = None) -> OcclusionMask:
    """Cross-view depth-consistency mask for the ordered pair (i, j).

    View i's depth is warped into view j and back; a pixel stays valid iff
    the round-tripped depth agrees within ``tau`` and every intermediate
    warp was in-bounds with positive depth.
    """
    depths, cams = [depth_i, depth_j], [cam_i, cam_j]
    pairs = {(t, 1 - t): geometry.pair_coefficients(cams[t], cams[1 - t],
                                                    *depths[t].values.shape)
             for t in (0, 1)}
    return OcclusionMask(pair, _round_trips(pairs, depths, [(0, 1)], tau)[0, 1])


def compute_all_masks(views, depths, weights: LossWeights,
                      context: ViewContext | None = None) -> dict:
    """Occlusion masks for every ordered view pair at the current depths.

    ``context`` is the run's `ViewContext` over ``views``, if it has one;
    a depth map off its grid then raises ShapeMismatch. Each ordered pair
    is sampled once: (i, j) serves the second warp of mask (i, j) and the
    first of mask (j, i), which are computed together, one unordered pair
    at a time, so only that pair's two samplings are held at once.
    """
    n = len(views)
    keys = [(i, j) for i in range(n) for j in range(n) if i != j]
    if context is None:
        pairs = {(t, s): geometry.pair_coefficients(views[t], views[s],
                                                    *depths[t].values.shape)
                 for t, s in keys}
    else:
        context.check_depths(depths)
        pairs = context.pairs
    valid = {}
    for i, j in keys:
        if i < j:
            both = {(i, j): pairs[i, j], (j, i): pairs[j, i]}
            valid.update(_round_trips(both, depths, both, weights.tau_occ))
    return {key: OcclusionMask(key, valid[key]) for key in keys}


# -- term evaluation -----------------------------------------------------------


class _Evaluator:
    """Shared-subexpression evaluator for all loss terms of one state.

    Every pair sampling, warp, synthesized image and image statistic is
    computed on first use and cached for the rest of the evaluation. With
    ``with_grad`` the depth grids become autodiff leaves and every term
    (except the locally constant census part) is differentiable with
    respect to them; a shared node then collects the gradient of all its
    consumers before passing it on. Camera- and image-only data comes from
    ``context``, the run's `ViewContext`; without one, a fresh context
    serves this evaluation alone. A context built for other alphas raises
    ValueError, a depth map off its grid ShapeMismatch.
    """

    def __init__(self, views, depths, masks, weights, with_grad=False, context=None):
        ctx = context if context is not None else ViewContext(views, weights)
        if ctx.alphas != (weights.alpha1, weights.alpha2):
            raise ValueError(f"the view context's edge weights are for (alpha1, "
                             f"alpha2) = {ctx.alphas}, the loss weights give "
                             f"{(weights.alpha1, weights.alpha2)}")
        ctx.check_depths(depths)
        self.views = views
        self.depths = depths
        self.masks = masks
        self.weights = weights
        self.ctx = ctx
        self.leaves = [Var(d.values) if with_grad else d.values for d in depths]
        self._cache = {}

    def _sampling(self, t, s):
        """Where view t's pixels at its depth sample view s: the one
        `geometry.pair_sampling` of the pair that both of its syntheses
        and its depth warp read."""
        key = ("sampling", t, s)
        if key not in self._cache:
            self._cache[key] = geometry.pair_sampling(
                self.ctx.pairs[t, s], self.leaves[t], self.depths[t].valid)
        return self._cache[key]

    def _synth(self, t, s):
        """First-order synthesis of view s's image into view t's frame."""
        key = ("synth", t, s)
        if key not in self._cache:
            self._cache[key] = geometry.synth_values(self._sampling(t, s),
                                                     self.views[s].image)
        return self._cache[key]

    def _second(self, i, j):
        """Second-order image: view j's first-order synthesis of view i,
        pulled back onto view i's grid with view i's depth."""
        key = ("second", i, j)
        if key not in self._cache:
            self._cache[key] = geometry.synth_values(self._sampling(i, j),
                                                     *self._synth(j, i))
        return self._cache[key]

    def _dwarp(self, i, j):
        """View j's depth re-expressed on view i's grid."""
        key = ("dwarp", i, j)
        if key not in self._cache:
            self._cache[key] = geometry.warp_depth_values(
                self.ctx.pairs[i, j], self._sampling(i, j),
                self.leaves[j], self.depths[j].valid)
        return self._cache[key]

    def _stats(self, order, t, s):
        """`photometry.reference_stats` of the first- (``order`` 1) or
        second-order (2) synthesized image of (t, s), computed once however
        many terms compare it."""
        key = ("stats", order, t, s)
        if key not in self._cache:
            img, _ = self._synth(t, s) if order == 1 else self._second(t, s)
            self._cache[key] = photometry.reference_stats(img, self.ctx.norm)
        return self._cache[key]

    def term_unary(self, i, j):
        _, ok = self._synth(i, j)
        m = self.masks[(i, j)].valid & ok
        if not m.any():
            raise EmptyMask(f"Lu_{i}_{j}")
        return photometry.unary_comparator(self.ctx.refs[i],
                                           self._stats(1, i, j), m,
                                           self.weights)

    def term_smoothness(self, i):
        key = ("smooth", i)
        if key not in self._cache:
            self._cache[key] = photometry.smoothness_term(
                self.leaves[i], self.depths[i].valid, self.ctx.edges[i]
            )
        return self._cache[key]

    def term_image_consistency(self, i, j):
        _, ok = self._second(j, i)
        m = self.masks[(j, i)].valid & ok
        if not m.any():
            raise EmptyMask(f"Lm_{i}_{j}")
        return photometry.unary_comparator(self.ctx.refs[j],
                                           self._stats(2, j, i), m,
                                           self.weights)

    def term_depth_consistency(self, i, j):
        vals, ok = self._dwarp(i, j)
        m = self.masks[(i, j)].valid & self.depths[i].valid & ok
        count = int(m.sum())
        if count == 0:
            raise EmptyMask(f"Ld_{i}_{j}")
        resid = charbonnier(self.leaves[i] - vals)
        return ad.sum_all(resid * m.astype(np.float64)) / count

    def term_brightness(self, i, j, k):
        _, ok_a = self._second(i, j)
        _, ok_b = self._second(i, k)
        m = self.masks[(i, j)].valid & self.masks[(i, k)].valid & ok_a & ok_b
        if not m.any():
            raise EmptyMask(f"Lb_{i}_{j}_{k}")
        return photometry.unary_comparator(self._stats(2, i, j),
                                           self._stats(2, i, k), m,
                                           self.weights)

    # -- assembly ---------------------------------------------------------

    def run(self):
        """Evaluate every term; returns (breakdown, total) where total is a
        Var when gradients were requested."""
        w = self.weights
        bd = LossBreakdown()
        n = len(self.views)

        def attempt(fn, record, key, store_key):
            try:
                term = fn()
            except EmptyMask:
                bd.skipped.add(key)
                record[store_key] = 0.0
                return 0.0
            record[store_key] = float(value_of(term))
            return term

        synth_sum = 0.0
        cons_sum = 0.0
        for i in range(n):
            bd.smoothness[i] = float(value_of(self.term_smoothness(i)))
        for i in range(n):
            for j in range(i + 1, n):
                lu_ij = attempt(lambda: self.term_unary(i, j), bd.unary,
                                f"Lu_{i}_{j}", (i, j))
                lu_ji = attempt(lambda: self.term_unary(j, i), bd.unary,
                                f"Lu_{j}_{i}", (j, i))
                smooth = 0.5 * (self.term_smoothness(i) + self.term_smoothness(j))
                pair_synth = w.omega_u * (lu_ij + lu_ji) + w.omega_s * smooth
                bd.synthesis[(i, j)] = float(value_of(pair_synth))
                synth_sum = synth_sum + pair_synth

                lm_ij = attempt(lambda: self.term_image_consistency(i, j),
                                bd.image_consistency, f"Lm_{i}_{j}", (i, j))
                lm_ji = attempt(lambda: self.term_image_consistency(j, i),
                                bd.image_consistency, f"Lm_{j}_{i}", (j, i))
                ld_ij = attempt(lambda: self.term_depth_consistency(i, j),
                                bd.depth_consistency, f"Ld_{i}_{j}", (i, j))
                ld_ji = attempt(lambda: self.term_depth_consistency(j, i),
                                bd.depth_consistency, f"Ld_{j}_{i}", (j, i))
                pair_cons = w.lambda5 * (lm_ij + lm_ji) + w.lambda6 * (ld_ij + ld_ji)
                bd.pair_consistency[(i, j)] = float(value_of(pair_cons))
                cons_sum = cons_sum + pair_cons

        for ref in range(n):
            others = [o for o in range(n) if o != ref]
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    j, k = others[a], others[b]
                    lb = attempt(lambda: self.term_brightness(ref, j, k),
                                 bd.brightness, f"Lb_{ref}_{j}_{k}", (ref, j, k))
                    cons_sum = cons_sum + lb

        total = synth_sum + cons_sum
        bd.consistency_total = float(value_of(cons_sum))
        bd.total = float(value_of(total))
        return bd, total


def _evaluate(views, depths, masks, weights, with_grad=False, context=None):
    ev = _Evaluator(views, depths, masks, weights, with_grad, context)
    bd, total = ev.run()
    return bd, total, ev.leaves


# -- public operations ----------------------------------------------------------


def total_loss(state: SceneState) -> LossBreakdown:
    """Evaluate the full objective; every term lands in the breakdown.

    The grand total is the sum of the per-pair synthesis terms plus the
    consistency total, and stays recomputable from the recorded parts.
    """
    bd, _, _ = _evaluate(state.views, state.depths, state.masks, state.weights)
    return bd
