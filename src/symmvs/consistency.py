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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry, photometry
from .autodiff import Var, value_of
from .errors import EmptyMask, ShapeMismatch, TooFewViews
from .photometry import LossWeights, charbonnier

logger = logging.getLogger(__name__)

__all__ = [
    "OcclusionMask",
    "LossBreakdown",
    "SceneState",
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


# -- occlusion reasoning -------------------------------------------------------


def occlusion_mask(depth_i: geometry.DepthMap, depth_j: geometry.DepthMap,
                   cam_i: geometry.CameraView, cam_j: geometry.CameraView,
                   tau: float, pair: tuple | None = None) -> OcclusionMask:
    """Cross-view depth-consistency mask for the ordered pair (i, j).

    View i's depth is warped into view j and back; a pixel stays valid iff
    the round-tripped depth agrees within ``tau`` and every intermediate
    warp was in-bounds with positive depth.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    first_vals, first_ok = geometry.warp_depth_values(
        depth_i.values, depth_i.valid, depth_j.values, depth_j.valid, cam_i, cam_j
    )
    second_vals, second_ok = geometry.warp_depth_values(
        value_of(first_vals), first_ok, depth_i.values, depth_i.valid, cam_j, cam_i
    )
    ok = (
        second_ok
        & depth_i.valid
        & (np.abs(depth_i.values - value_of(second_vals)) <= tau)
    )
    return OcclusionMask(pair, ok)


def compute_all_masks(views, depths, weights: LossWeights) -> dict:
    """Occlusion masks for every ordered view pair at the current depths."""
    masks = {}
    n = len(views)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            masks[(i, j)] = occlusion_mask(
                depths[i], depths[j], views[i], views[j], weights.tau_occ, (i, j)
            )
    return masks


# -- term evaluation -----------------------------------------------------------


class _Evaluator:
    """Shared-subexpression evaluator for all loss terms of one state.

    With ``with_grad`` the depth grids become autodiff leaves and every
    term (except the locally constant census part) is differentiable with
    respect to them.
    """

    def __init__(self, views, depths, masks, weights, with_grad=False):
        if len(views) < 2:
            raise TooFewViews("the objective needs at least two views")
        if any(v.image is None for v in views):
            raise ValueError("every view needs an image for loss evaluation")
        channels = views[0].image.shape[2]
        shapes = {v.image.shape for v in views}
        shapes |= {d.values.shape + (channels,) for d in depths}
        if len(shapes) != 1:
            raise ShapeMismatch("all views and depth maps must share one grid")
        self.views = views
        self.depths = depths
        self.masks = masks
        self.weights = weights
        self.leaves = [Var(d.values) if with_grad else d.values for d in depths]
        self._cache = {}

    def _synth(self, t, s):
        """First-order synthesis of view s's image into view t's frame."""
        key = ("synth", t, s)
        if key not in self._cache:
            self._cache[key] = geometry.synth_values(
                self.views[t], self.views[s], self.leaves[t], self.depths[t].valid
            )
        return self._cache[key]

    def _second(self, i, j):
        """Second-order image: view j's first-order synthesis of view i,
        pulled back onto view i's grid with view i's depth."""
        key = ("second", i, j)
        if key not in self._cache:
            inner_img, inner_ok = self._synth(j, i)
            self._cache[key] = geometry.synth_values(
                self.views[i], self.views[j], self.leaves[i],
                self.depths[i].valid, source_image=inner_img,
                source_valid=inner_ok,
            )
        return self._cache[key]

    def _dwarp(self, i, j):
        """View j's depth re-expressed on view i's grid."""
        key = ("dwarp", i, j)
        if key not in self._cache:
            self._cache[key] = geometry.warp_depth_values(
                self.leaves[j], self.depths[j].valid,
                self.leaves[i], self.depths[i].valid,
                self.views[j], self.views[i],
            )
        return self._cache[key]

    def term_unary(self, i, j):
        img, ok = self._synth(i, j)
        m = self.masks[(i, j)].valid & ok
        if not m.any():
            raise EmptyMask(f"Lu_{i}_{j}")
        return photometry.unary_comparator(self.views[i].image, img, m, self.weights)

    def term_smoothness(self, i):
        key = ("smooth", i)
        if key not in self._cache:
            self._cache[key] = photometry.smoothness_term(
                self.views[i].image, self.leaves[i], self.depths[i].valid,
                self.weights.alpha1, self.weights.alpha2,
            )
        return self._cache[key]

    def term_image_consistency(self, i, j):
        img, ok = self._second(j, i)
        m = self.masks[(j, i)].valid & ok
        if not m.any():
            raise EmptyMask(f"Lm_{i}_{j}")
        return photometry.unary_comparator(self.views[j].image, img, m, self.weights)

    def term_depth_consistency(self, i, j):
        vals, ok = self._dwarp(i, j)
        m = self.masks[(i, j)].valid & self.depths[i].valid & ok
        count = int(m.sum())
        if count == 0:
            raise EmptyMask(f"Ld_{i}_{j}")
        resid = charbonnier(self.leaves[i] - vals)
        return ad.sum_all(resid * m.astype(np.float64)) / count

    def term_brightness(self, i, j, k):
        a, ok_a = self._second(i, j)
        b, ok_b = self._second(i, k)
        m = self.masks[(i, j)].valid & self.masks[(i, k)].valid & ok_a & ok_b
        if not m.any():
            raise EmptyMask(f"Lb_{i}_{j}_{k}")
        return photometry.unary_comparator(a, b, m, self.weights)

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
                logger.warning("loss term %s skipped: empty mask", key)
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


def _evaluate(views, depths, masks, weights, with_grad=False):
    ev = _Evaluator(views, depths, masks, weights, with_grad)
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
