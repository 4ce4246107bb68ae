"""Cross-view consistency: the multi-view scene state, occlusion masks, and
the total multi-view objective.

The occlusion mask for an ordered pair (i, j) compares view i's depth with
its double-warped version (i -> j -> i); pixels whose round trip moves by
more than the threshold, or whose warps leave bounds or go behind a
camera, are excluded from every loss term of that pair.

The objective is a fixed weighted sum of five kinds of term, each with one
entry in the table `TERMS`: its short name in reports, skip keys and logs,
its `LossBreakdown` record, and its weight in the total, which the sums
and the gradient's seeds both read. Per unordered view pair, both unary
synthesis losses and the pair's smoothness; per pair and triple, image
consistency (second-order synthesis against the real image), depth
consistency (robust penalty on warped-depth disagreement), and brightness
consistency between two second-order synthesized images sharing a
reference view. Terms whose mask is empty contribute zero and are
reported, never silently dropped.

One evaluation streams its terms, in one order for values and gradients:
- per unordered pair (i, j), i < j: it samples (i, j) and (j, i)
  (`_pair_samplings`), synthesizes both first-order images, then both
  second-order images, warps both depths and takes the two
  depth-consistency terms, then each first-order image's statistics and
  its unary term. Only the second-order images outlive the pair.
- per reference view r: it takes the statistics of every second-order
  image (r, s), the image-consistency terms that compare them with view
  r's image and the brightness terms (r, j, k), and drops the statistics
  and the images.
- last, every view's smoothness term.

Each term's float goes into its `LossBreakdown` record when the term is
taken. The records are keyed, and the sums taken, in a fixed order that
the streaming does not change: (i, j) then (j, i) for each i < j, and the
brightness terms by reference view r, then j < k.
The peak of a value evaluation grows with the number of views, not with
the number of pairs.

A gradient evaluation needs no tape over the whole of these stages: the
gradient reaching each term is its weight (n - 1 times it for a view's
smoothness, which enters n - 1 pairs), known before the term exists. So
each group of terms is pushed back with `autodiff.backprop` as soon as it
is done, and its graph dies there (reverse accumulation with
checkpointing: Griewank and Walther, *Evaluating Derivatives*, 2008,
ch. 12):
- a pair's depth-consistency and unary terms, through its samplings,
  first-order images and depth warps, to the depth leaves. Its
  second-order images are computed as plain values.
- a reference view's image-consistency and brightness terms, onto its
  second-order images, held as fresh leaves. Once both reference views of
  a pair are done, the pair's second-order images are rebuilt on a small
  tape (`_second_orders`: both samplings again, and both syntheses) and
  pushed on to the depth leaves, seeded with those gradients; an image
  whose terms were all skipped is not rebuilt.
- last, the smoothness terms.

The leaves add the passes up in their ``.grad``. A gradient evaluation
samples each ordered pair twice, and its peak is about twice a value
evaluation's.

Data that depends only on the cameras and images lives in a `ViewContext`,
which `solver.refine` builds once per run and hands to every mask update
and evaluation: its n(n - 1) camera records (`geometry.ViewPair`) are
built once per run and live as long as it does. A one-shot pass, one
given no context (`total_loss`, a `compute_all_masks` or a
`solver.loss_gradient` without one), holds one unordered pair's two
records at a time: it builds them when it reaches the pair and drops them
after it, and a gradient's second-order replay of the pair builds them
again. Such an evaluation builds the image-only data for itself. Data
that depends on the depths is computed once per mask update or
evaluation, but for the gradient's rebuilt second-order images: each
ordered pair's sampling serves every warp of the pair, and each
synthesized image's `photometry.reference_stats` every term that compares
it, also when all of them are skipped.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import autodiff as ad
from . import geometry, photometry
from .autodiff import Var, value_of
from .errors import EmptyMask, ShapeMismatch, TooFewViews
from .photometry import LossWeights, charbonnier

__all__ = [
    "TERMS",
    "TermKind",
    "OcclusionMask",
    "LossBreakdown",
    "SceneState",
    "ViewContext",
    "check_depths",
    "compute_all_masks",
    "total_loss",
]


@dataclass(frozen=True)
class TermKind:
    """One kind of loss term: its short ``name`` in reports, skip keys and
    logs, the `LossBreakdown` ``record`` that holds its values, and
    ``weight``, its weight in the total given the `LossWeights`."""

    name: str
    record: str
    weight: Callable[[LossWeights], float]

    def label(self, key) -> str:
        """The term at ``key``, a view or a tuple of views: ``Lu_0_1``."""
        return "_".join([self.name, *map(str, key if isinstance(key, tuple) else (key,))])


# Every kind of loss term, in report order. A view's smoothness enters the
# synthesis loss of each pair it is in, averaged over the pair's two
# views, so each pair weighs it by half its weight; halving is exact.
UNARY = TermKind("Lu", "unary", lambda w: w.omega_u)
SMOOTHNESS = TermKind("Ls", "smoothness", lambda w: 0.5 * w.omega_s)
IMAGE = TermKind("Lm", "image_consistency", lambda w: w.lambda5)
DEPTH = TermKind("Ld", "depth_consistency", lambda w: w.lambda6)
BRIGHTNESS = TermKind("Lb", "brightness", lambda w: 1.0)
TERMS = (UNARY, SMOOTHNESS, IMAGE, DEPTH, BRIGHTNESS)


@dataclass
class OcclusionMask:
    """Mutual-visibility flags for an ordered view pair, in the first
    view's pixel grid."""

    pair: tuple
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
    iteration log and the reason `solver.refine` stopped). The flags
    ``converged`` and ``diverged`` are read from that reason."""

    views: list
    depths: list
    masks: dict
    weights: LossWeights
    iteration: int = 0
    history: list = field(default_factory=list)
    outer_log: list = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def converged(self) -> bool:
        """Refinement stopped at a stationary point or within tolerance."""
        return self.stop_reason in ("tol_reached", "zero_gradient", "stationary_stall")

    @property
    def diverged(self) -> bool:
        """Refinement stopped because a line search failed."""
        return self.stop_reason == "line_search_failed"


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

    def term_sums(self) -> dict:
        """The sum of each kind's terms, in record order, by short name."""
        return {kind.name: sum(getattr(self, kind.record).values()) for kind in TERMS}

    def report_lines(self) -> list:
        """Flat key-value report, one term per line, deterministic order."""
        lines = [f"{kind.label(key)} = {v:.17g}" for kind in TERMS
                 for key, v in sorted(getattr(self, kind.record).items())]
        for name, record in (("Lsynth", self.synthesis), ("Lc", self.pair_consistency)):
            lines += [f"{name}_{i}_{j} = {v:.17g}" for (i, j), v in sorted(record.items())]
        lines += [f"Lconsistency = {self.consistency_total:.17g}",
                  f"total = {self.total:.17g}"]
        if self.skipped:
            lines.append("skipped = " + ",".join(sorted(self.skipped)))
        return lines


class _ImageContext:
    """The image-only part of a `ViewContext`, which a one-shot evaluation
    builds for itself. It holds no records (``pairs`` is None):
    `_pair_records` builds the two records of each unordered pair when the
    pass reaches it, and the pass drops them after it."""

    pairs = None

    def __init__(self, views, weights: LossWeights):
        _check_views(views, "the objective")
        self.alphas = (weights.alpha1, weights.alpha2)
        self.grid = views[0].image.shape[:2]
        self.refs = [photometry.reference_stats(v.image) for v in views]
        self.edges = [photometry.edge_weights(v.image, *self.alphas) for v in views]


class ViewContext(_ImageContext):
    """What one refinement run derives from its views' cameras and images
    alone, all computed when it is built.

    ``grid`` is the views' shared image grid; ``pairs[t, s]`` the
    `geometry.ViewPair` of every ordered pair (target t, source s);
    ``refs[i]`` view i's `photometry.reference_stats` and ``edges[i]`` its
    `photometry.edge_weights` for ``alphas``, the weights' (alpha1,
    alpha2). Building one checks the views: at least two (TooFewViews),
    each with an image (ValueError) of one shape, at least 2 by 2
    (ShapeMismatch), each error naming the view at fault. Nothing but the
    read-only per-grid caches (`photometry.box_norm`, the pixel grid of
    `geometry.view_rays`) outlives the context, so a run that creates one
    and drops it on return leaves no state of its views behind.

    A context holds all n(n - 1) records for as long as it lives, which
    `solver.refine` pays once per run so that no evaluation rebuilds one.
    A pass given no context holds one unordered pair's two records at a
    time.
    """

    def __init__(self, views, weights: LossWeights):
        super().__init__(views, weights)
        self.pairs = geometry.pair_records(views, self.grid)


def _check_views(views, user: str):
    """Raise, naming the view at fault, unless there are at least two views
    (TooFewViews), each with an image (ValueError) of one shape, at least 2
    rows and 2 columns (ShapeMismatch), the least grid a bilinear tap's
    four corners fit on; ``user`` names what needs them in the messages."""
    if len(views) < 2:
        raise TooFewViews(f"{user} needs at least two views")
    for i, v in enumerate(views):
        if v.image is None:
            raise ValueError(f"view {i} has no image; {user} needs one for "
                             "every view")
        if v.image.shape != views[0].image.shape:
            raise ShapeMismatch(f"view {i} image is {v.image.shape}, "
                                f"view 0's is {views[0].image.shape}")
        if min(v.image.shape[:2]) < 2:
            raise ShapeMismatch(f"view {i} image is {v.image.shape}; {user} "
                                "needs at least 2 rows and 2 columns")


def check_depths(depths, views, grid=None):
    """Raise ShapeMismatch unless there is one depth map per view, each on
    its view's image grid (if it has an image) and, given ``grid``, on it:
    checked in that order, the message names both counts or the first view
    whose depth map is off a grid."""
    if len(depths) != len(views):
        raise ShapeMismatch(f"{len(depths)} depth maps for {len(views)} views")
    image_grids = [None if v.image is None else v.image.shape[:2] for v in views]
    for grids in (image_grids, [grid] * len(depths)):
        for k, (d, g) in enumerate(zip(depths, grids)):
            if g is not None and d.values.shape != g:
                raise ShapeMismatch(f"view {k} depth map is {d.values.shape}, "
                                    f"the views' grid is {g}")


def _check_masks(masks, n, grid):
    """Raise ShapeMismatch naming the first ordered pair of the ``n`` views
    whose mask ``masks`` lacks or holds off ``grid``."""
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (i, j) not in masks:
                raise ShapeMismatch(f"no occlusion mask for pair ({i}, {j})")
            shape = np.shape(masks[i, j].valid)
            if shape != grid:
                raise ShapeMismatch(f"pair ({i}, {j}) mask is {shape}, the "
                                    f"views' grid is {grid}")


# -- occlusion reasoning -------------------------------------------------------


def compute_all_masks(views, depths, weights: LossWeights,
                      context: ViewContext | None = None) -> dict:
    """Occlusion masks for every ordered view pair at the current depths.

    Mask (t, s) warps view t's depth onto view s and back; a pixel stays
    valid iff both warps were in bounds with positive depth and the round
    trip moves its depth by at most ``weights.tau_occ``, which
    `LossWeights` has checked to be positive.

    ``context`` is the run's `ViewContext` over ``views``, if it has one.
    A depth map count other than the view count raises ShapeMismatch, and
    so does a depth map off its view's image grid, off the context's grid,
    or off view 0's depth grid, naming its view. Each ordered pair is
    sampled once, at its target's depth: (t, s) serves the second warp of
    mask (t, s) and the first of mask (s, t), which are computed together,
    one unordered pair at a time, so only that pair's two samplings are
    held at once. Without a context, that pair's two records are built
    there and dropped with its samplings, so the pass holds one unordered
    pair's records at a time; with one, it reads the context's.
    """
    grid = (context.grid if context is not None
            else depths[0].values.shape if depths else None)
    check_depths(depths, views, grid)
    n = len(views)
    pairs = None if context is None else context.pairs
    valid = {}
    for i in range(n):
        for j in range(i + 1, n):
            valid.update(_pair_masks(views, grid, pairs, depths, weights.tau_occ, i, j))
    return {(i, j): OcclusionMask((i, j), valid[i, j])
            for i in range(n) for j in range(n) if i != j}


def _pair_masks(views, grid, pairs, depths, tau_occ, i, j) -> dict:
    """The round-trip flags of masks (i, j) and (j, i), keyed by them: see
    `compute_all_masks`. The pair's records and samplings die on return."""
    records = _pair_records(views, grid, pairs, i, j)
    values = [d.values for d in depths]
    samplings = _pair_samplings(records, values, depths, i, j)
    valid = {}
    for t, s in samplings:
        there, there_ok = geometry.warp_depth_values(
            records[s, t], samplings[s, t], depths[t].values, depths[t].valid)
        back, back_ok = geometry.warp_depth_values(
            records[t, s], samplings[t, s], value_of(there), there_ok)
        valid[t, s] = (back_ok & depths[t].valid
                       & (np.abs(depths[t].values - value_of(back)) <= tau_occ))
    return valid


def _pair_records(views, grid, pairs, i, j) -> dict:
    """The `geometry.ViewPair` records of (i, j) and (j, i), keyed by them
    in that order: read from ``pairs``, a `ViewContext`'s records of every
    ordered pair, or, when it is None, built now on ``grid``."""
    keys = ((i, j), (j, i))
    if pairs is None:
        return {(t, s): geometry.pair_coefficients(views[t], views[s], *grid)
                for t, s in keys}
    return {key: pairs[key] for key in keys}


def _pair_samplings(records, values, depths, i, j) -> dict:
    """The `geometry.pair_sampling` of the records ``records[t, s]`` of (i, j)
    and (j, i), keyed by them in that order, each at its target view t's
    depths ``values[t]`` (plain or a leaf) and ``depths[t].valid``."""
    return {(t, s): geometry.pair_sampling(records[t, s], values[t], depths[t].valid)
            for t, s in ((i, j), (j, i))}


# -- term evaluation -----------------------------------------------------------


def _pair_warps(ctx, views, leaves, depths, i, j):
    """Every warp of the unordered pair (i, j), keyed by its ordered pairs
    (t, s), (i, j) and (j, i), each a (values, valid) pair read from the
    one `geometry.pair_sampling` of (t, s) at view t's depth:
    ``first[t, s]`` is view s's image synthesized on view t's grid,
    ``second[t, s]`` view s's ``first`` of view t pulled back onto view t's
    grid, and ``dwarp[t, s]`` view s's depth re-expressed on view t's
    grid. The second-order images are plain values, whatever the leaves
    (`_second_orders` rebuilds them on a tape). The two samplings, and the
    two records when ``ctx`` holds none (`_pair_records`), die on
    return."""
    records = _pair_records(views, ctx.grid, ctx.pairs, i, j)
    samplings = _pair_samplings(records, leaves, depths, i, j)
    keys = tuple(samplings)
    first = {(t, s): geometry.synth_values(samplings[t, s], views[s].image)
             for t, s in keys}
    second = {}
    for t, s in keys:
        x, y, ok, taps = samplings[t, s]
        image, valid = first[s, t]
        second[t, s] = geometry.synth_values((value_of(x), value_of(y), ok, taps),
                                             value_of(image), valid)
    dwarp = {(t, s): geometry.warp_depth_values(records[t, s], samplings[t, s],
                                                leaves[s], depths[s].valid)
             for t, s in keys}
    return first, second, dwarp


def _second_orders(ctx, views, leaves, depths, i, j, keys):
    """The images ``second[t, s]`` of `_pair_warps` for the ordered pairs
    ``keys`` of the unordered pair (i, j), with the same bits, rebuilt on
    the depth leaves of views i and j: (i, j) and (j, i) are sampled once
    each, and each image is view t's own, synthesized on view s's grid and
    pulled back onto view t's. When ``ctx`` holds no records, the pair's
    two are built again here (`_pair_records`)."""
    samplings = _pair_samplings(_pair_records(views, ctx.grid, ctx.pairs, i, j),
                                leaves, depths, i, j)
    return [geometry.synth_values(
                samplings[t, s], *geometry.synth_values(samplings[s, t], views[t].image))[0]
            for t, s in keys]


def _depth_consistency(leaf, warped, mask):
    """Mean Charbonnier disagreement of a view's depth and another view's
    depth warped onto its grid, over ``mask``; EmptyMask if it is empty."""
    count, m = photometry._mask_weights(mask, "depth consistency")
    lv, wv = value_of(leaf), value_of(warped)

    def vjp(g):
        r = lv - wv
        d = m * (g / count) * (r / charbonnier(r))
        return d, -d

    return ad.fused((charbonnier(lv - wv) * m).sum() / count, (leaf, warped), vjp)


def _evaluate(views, depths, masks, weights, with_grad=False, context=None):
    """Evaluate every loss term of one state.

    Returns (breakdown, leaves), ``leaves`` the depth grids. When
    ``with_grad``, the leaves are autodiff leaves and hold in ``.grad`` the
    gradient of ``breakdown.total``: every term (except the locally
    constant census part) is differentiated with respect to them, pushed
    back with its weight from `TERMS` as soon as its group is done (see
    the module docstring); the breakdown's sums read the same weights.
    Camera- and image-only data comes from ``context``, the run's
    `ViewContext`. Without one, this evaluation builds the image-only part
    for itself and each unordered pair's two records at that pair's
    stage, dropped after it; a gradient's second-order replay of the pair
    builds them again. A context built for other alphas raises ValueError;
    a depth map count other than the view count, a depth map off its grid,
    or a missing ordered pair's mask or one off the grid raises
    ShapeMismatch. A term whose mask is empty records zero and lands in
    ``skipped`` under its `TermKind.label`.
    """
    ctx = context if context is not None else _ImageContext(views, weights)
    if ctx.alphas != (weights.alpha1, weights.alpha2):
        raise ValueError(f"the view context's edge weights are for (alpha1, "
                         f"alpha2) = {ctx.alphas}, the loss weights give "
                         f"{(weights.alpha1, weights.alpha2)}")
    check_depths(depths, views, ctx.grid)
    _check_masks(masks, len(views), ctx.grid)
    w = weights
    n = len(views)
    leaves = [Var(d.values) if with_grad else d.values for d in depths]
    bd = LossBreakdown()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # (i, j) then (j, i) for each i < j: the order every per-pair record
    # is keyed in, whatever order its terms are taken in, which
    # order-sensitive sums of a record rely on.
    for kind in (UNARY, IMAGE, DEPTH):
        setattr(bd, kind.record, {key: None for i, j in pairs for key in ((i, j), (j, i))})

    taken = []  # (term, seed) of each term since the last push with a gradient

    def term(kind, key, fn, *args, times=1):
        """Take one term and record its float; one that carries a gradient
        waits in ``taken``, seeded with its weight ``times`` over."""
        try:
            value = fn(*args)
        except EmptyMask:
            bd.skipped.add(kind.label(key))
            value = 0.0
        getattr(bd, kind.record)[key] = float(value_of(value))
        if isinstance(value, Var):
            taken.append((value, kind.weight(w) * times))

    def push():
        """Push the waiting terms back together (`ad.backprop`)."""
        if taken:
            ad.backprop(*zip(*taken))
            taken.clear()

    # One unordered pair at a time: its depth-consistency and unary terms,
    # pushed back to the depths together, keeping only its second-order
    # images.
    second, adjoint = {}, {}
    for i, j in pairs:
        keys = ((i, j), (j, i))
        first, second_ij, dwarp = _pair_warps(ctx, views, leaves, depths, i, j)
        second.update(second_ij)
        for t, s in keys:
            term(DEPTH, (t, s), _depth_consistency, leaves[t], dwarp[t, s][0],
                 masks[t, s].valid & depths[t].valid & dwarp[t, s][1])
        for t, s in keys:
            term(UNARY, (t, s), photometry.unary_comparator, ctx.refs[t],
                 photometry.reference_stats(first[t, s][0]),
                 masks[t, s].valid & first[t, s][1], w)
        del first, dwarp
        push()
    # One reference view r at a time: the statistics of its second-order
    # images, and the image-consistency and brightness terms that read
    # them. With gradients the images are fresh leaves, whose gradients
    # wait until both reference views of their pair are done and are then
    # pushed on to the depths through `_second_orders`.
    for r in range(n):
        images, valid = {}, {}
        for s in range(n):
            if s != r:
                image, valid[s] = second.pop((r, s))
                images[s] = Var(image) if with_grad else image
        second_stats = {s: photometry.reference_stats(image)
                        for s, image in images.items()}
        for s in second_stats:
            term(IMAGE, (s, r), photometry.unary_comparator, ctx.refs[r],
                 second_stats[s], masks[r, s].valid & valid[s], w)
        for j, k in combinations(second_stats, 2):
            term(BRIGHTNESS, (r, j, k), photometry.unary_comparator,
                 second_stats[j], second_stats[k],
                 masks[r, j].valid & masks[r, k].valid & valid[j] & valid[k], w)
        del second_stats
        push()
        if with_grad:
            adjoint.update(((r, s), image.grad) for s, image in images.items()
                           if image.grad is not None)
            # both reference views of each pair (i, r), i < r, are done
            for i in range(r):
                keys = [key for key in ((i, r), (r, i)) if key in adjoint]
                if keys:
                    ad.backprop(_second_orders(ctx, views, leaves, depths, i, r, keys),
                                [adjoint.pop(key) for key in keys])
    # Last, each view's smoothness, weighted once for every pair it enters.
    for i in range(n):
        term(SMOOTHNESS, i, photometry.smoothness_term, leaves[i], depths[i].valid,
             ctx.edges[i], times=n - 1)
    push()

    # The objective is a fixed weighted sum of the terms, taken on the
    # recorded floats: a kind's weight times the sum of its two terms in
    # the unordered pair (i, j), a smoothness term's by view.
    def weighted(kind, i, j):
        a, b = (i, j) if kind is SMOOTHNESS else ((i, j), (j, i))
        record = getattr(bd, kind.record)
        return kind.weight(w) * (record[a] + record[b])

    synth_sum = cons_sum = 0.0
    for i, j in pairs:
        bd.synthesis[i, j] = weighted(UNARY, i, j) + weighted(SMOOTHNESS, i, j)
        bd.pair_consistency[i, j] = weighted(IMAGE, i, j) + weighted(DEPTH, i, j)
        synth_sum = synth_sum + bd.synthesis[i, j]
        cons_sum = cons_sum + bd.pair_consistency[i, j]
    for value in bd.brightness.values():
        cons_sum = cons_sum + BRIGHTNESS.weight(w) * value

    bd.consistency_total = cons_sum
    bd.total = synth_sum + cons_sum
    return bd, leaves


# -- public operations ----------------------------------------------------------


def total_loss(state: SceneState) -> LossBreakdown:
    """Evaluate the full objective; every term lands in the breakdown.

    The grand total is the sum of the per-pair synthesis terms plus the
    consistency total. This is a one-shot pass: it gets no `ViewContext`,
    so it builds the image-only data for itself and holds one unordered
    pair's two camera records at a time, built when the evaluation
    reaches the pair and dropped after it.
    """
    return _evaluate(state.views, state.depths, state.masks, state.weights)[0]
