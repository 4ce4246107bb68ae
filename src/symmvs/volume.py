"""Plane-sweep cost volumes and depth regression.

Features are fixed (non-learned) image statistics. For every depth
hypothesis, all non-reference feature maps are warped into the reference
view by the refinement's sampling of the caller's `geometry.ViewPair`
records; this module reads no camera. The reference's own features join
the group, and the per-pixel matching cost is the channel-averaged
population variance across the contributing views. A validity-aware
3x3x3 box filter stands in for learned regularization, and the depth is
read out as the softmax-weighted expectation over hypotheses.

`build_cost_volume` sweeps the reference rows its records cover, on the
grid of the features it is handed. `solver.init_depths` hands it the
coarsest level of an image pyramid: it halves the views while both sides
are even and the halved grid is at least 64x48, so a 256x192 or 128x96
image is swept at 64x48 and upsampled afterwards, with no per-level
refinement or re-sweep. It sweeps each reference view of that level in
horizontal bands of rows, so a volume here is a band's (D, rows, W) unless
the whole level's volume fits the band budget.

What each stage holds at the size (D, rows, W) of its volume, beyond its
input:
- `build_cost_volume`: the float cost and the boolean validity, 9 bytes
  per entry. Every view's channel-first (F, H, W) features, as
  `extract_features` returns them, are checked for finite values once per
  call and reshaped to (F, H*W), a view of such contiguous arrays, not a
  copy. Per hypothesis and source view, the pair's sampling flags the
  samples in front of the source camera and in bounds, and each of its
  four bilinear corners is one gather along the whole source image's
  pixel axis; the gathers, the pairwise variance and the count of
  contributing views (as ``np.min_scalar_type(n_views)``, one byte up to
  255 views) write into (F, rows, W) and (rows, W) buffers allocated once
  per call. A source's sampling is dropped before the next source samples.
- `smooth_cost_volume`: its output cost and validity. It streams over
  depth slices, adds each slice's two depth neighbours to it and sums its
  3x3 windows with `autodiff.box_sum3`, so an output carries only the
  rounding of its own terms. Its row window is clipped to the volume's
  rows, so a band needs one halo row on each side, clipped at the image
  edges, for its own rows to match the whole-image volume's.
- `regress_depth`: one float buffer, in which the logits become the
  returned probabilities in place.

`solver.init_depths` drops each band's volumes before it builds the next,
so a sweep holds at most two float volumes of one band at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry, photometry
from .errors import NonFiniteValue, ShapeMismatch, TooFewViews

__all__ = [
    "DEFAULT_TEMPERATURE",
    "CostVolume",
    "extract_features",
    "build_cost_volume",
    "smooth_cost_volume",
    "regress_depth",
]

# Softmax temperature of `regress_depth`, and the default of
# `solver.SolverConfig` and ``symmvs sweep``. Matching costs are feature
# variances near 1e-3 on desk-scale scenes; a temperature of 1.0 flattens
# the softmax so that every depth lands near the range's midpoint.
DEFAULT_TEMPERATURE = 3e-6


@dataclass
class CostVolume:
    """Variance-aggregated matching cost per depth hypothesis.

    ``cost`` is (D, rows, W) over the reference rows it was built for (all
    H of them by default), lower is better; ``valid`` flags the entries
    that at least two views, the reference included, contribute to. The
    others carry no information (their cost holds the sentinel 0).
    """

    hypotheses: geometry.DepthHypotheses
    cost: np.ndarray
    valid: np.ndarray


def extract_features(image: np.ndarray) -> np.ndarray:
    """Fixed feature stack, channel-first (3, H, W): luminance and its
    forward-difference gradients, [gray, d/dx, d/dy]."""
    gray = photometry.channel_mean(image)
    return np.stack([gray, photometry._forward_diff(gray, 1),
                     photometry._forward_diff(gray, 0)])


def _resample(flat_src, pair, depth: float, out, tap):
    """Bilinearly sample one source's (F, H*W) features into ``out`` at the
    pair's sampling at ``depth``; return the sampling's flag.

    The sampling's coordinates and taps die with this call, so the next
    source samples without them alive.
    """
    _, _, ok, (idx, wts, _, _) = geometry.pair_sampling(pair, depth, True)
    np.take(flat_src, idx[0], axis=1, out=out)
    out *= wts[0]
    for i, wt in zip(idx[1:], wts[1:]):
        np.take(flat_src, i, axis=1, out=tap)
        tap *= wt
        out += tap
    return ok


def build_cost_volume(pairs, features, ref: int,
                      hyp: geometry.DepthHypotheses) -> CostVolume:
    """Sweep depth hypotheses and score cross-view feature agreement.

    ``pairs[ref, s]`` is the `geometry.ViewPair` record of every source s
    (`geometry.pair_records`), or its row view (`ViewPair.band`): the
    volume covers the records' rows, and each entry has the bits of the
    whole-image volume's entry. Sources are sampled over their whole
    images. The population variance is accumulated from pairwise squared
    differences, so identical contributions give exactly zero cost.
    ``features`` holds one channel-first (F, H, W) array per view, F >= 1,
    as `extract_features` returns them. Raises ShapeMismatch naming the
    first view whose features are not 3-D or differ in shape from the
    reference's or pair whose record is off their grid or the first's rows,
    and NonFiniteValue naming the first view whose features are not finite.
    """
    n_views = len(features)
    if n_views < 2:
        raise TooFewViews("cost volume needs at least two views")
    if not 0 <= ref < n_views:
        raise IndexError(f"reference index {ref} out of range")
    shape = np.shape(features[ref])
    if len(shape) != 3 or shape[0] < 1:
        raise ShapeMismatch(f"features of view {ref} are {shape}, not (F, H, W) "
                            "with F >= 1")
    n_feat, h, w = shape
    flat = []
    for v in range(n_views):
        vals = np.asarray(features[v], dtype=np.float64)
        if vals.shape != shape:
            raise ShapeMismatch(
                f"features of view {v} are {vals.shape}, reference's are {shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteValue(f"features of view {v} must be finite")
        flat.append(vals.reshape(n_feat, h * w))

    others = [v for v in range(n_views) if v != ref]
    records = {src: pairs[ref, src] for src in others}
    top, bottom = records[others[0]].rows
    for src, pair in records.items():
        if (pair.grid, pair.rows) != ((h, w), (top, bottom)):
            raise ShapeMismatch(f"pair ({ref}, {src}) record covers rows {pair.rows} "
                                f"of {pair.grid}, not {(top, bottom)} of {(h, w)}")
    ref_vals = flat[ref].reshape(n_feat, h, w)[:, top:bottom]
    band = (bottom - top, w)

    d_count = hyp.count
    cost = np.zeros((d_count, *band))
    valid = np.empty((d_count, *band), dtype=bool)
    # per-call buffers: one resampled (F, rows, W) map per source, one
    # gather, one difference, one channel sum, the sum over pairs and the
    # count of contributing views
    warped = {src: np.empty((n_feat, *band)) for src in others}
    tap = np.empty((n_feat, *band))
    diff = np.empty((n_feat, *band))
    chan = np.empty(band)
    pair_sq = np.empty(band)
    count = np.empty(band, dtype=np.min_scalar_type(n_views))
    for k, depth in enumerate(hyp.samples):
        # the reference is valid everywhere; its mask stays implicit (None)
        group = [(ref_vals, None)]
        for src in others:
            ok = _resample(flat[src], records[src], float(depth), warped[src], tap)
            group.append((warped[src], ok))

        count.fill(1)
        for _, ok in group[1:]:
            count += ok
        pair_sq.fill(0.0)
        for a in range(len(group)):
            va, oka = group[a]
            for b in range(a + 1, len(group)):
                vb, okb = group[b]
                both = okb if oka is None else oka & okb
                np.subtract(va, vb, out=diff)
                np.copyto(diff, 0.0, where=~both)
                diff *= diff
                np.copyto(chan, diff[0])
                for c in range(1, n_feat):
                    chan += diff[c]
                chan /= n_feat
                pair_sq += chan
        ok2 = np.greater_equal(count, 2, out=valid[k])
        denom = np.where(ok2, count, 1).astype(np.float64)
        cost[k] = np.where(ok2, pair_sq / (denom * denom), 0.0)

    return CostVolume(hyp, cost, valid)


def smooth_cost_volume(vol: CostVolume) -> CostVolume:
    """3x3x3 box smoothing over valid cost entries.

    Each output is the mean of the valid entries inside its 3x3x3 window,
    clipped to the volume (0 where the window holds none).

    One depth slice at a time: a slice's numerator and count add the slice
    before it and then the one after it, then each is summed over its 3x3
    windows by `autodiff.box_sum3`, whose zero padding gives the clipped
    window's sum. Only the output cost and validity are allocated at
    volume size.
    """
    d_count = vol.cost.shape[0]
    cost = np.zeros(vol.cost.shape)
    ok = np.empty(vol.valid.shape, dtype=bool)
    for k in range(d_count):
        num = np.where(vol.valid[k], vol.cost[k], 0.0)
        den = vol.valid[k].astype(np.float64)
        for n in (k - 1, k + 1):
            if 0 <= n < d_count:
                num += np.where(vol.valid[n], vol.cost[n], 0.0)
                den += vol.valid[n]
        num, den = ad.box_sum3(num), ad.box_sum3(den)
        np.greater(den, 0.5, out=ok[k])
        np.divide(num, den, out=cost[k], where=ok[k])
    return CostVolume(vol.hypotheses, cost, ok)


def regress_depth(vol: CostVolume, temperature: float = DEFAULT_TEMPERATURE):
    """Softmax expected depth over the hypotheses.

    Per pixel, logits are -cost / temperature over the valid hypotheses;
    the depth is the probability-weighted mean sample. Returns the depth
    map and the (D, H, W) probabilities, which sum to 1 along D. Pixels
    without any valid hypothesis are marked invalid (their distribution is
    left uniform so the volume still normalizes).

    The logits, their exponentials and the probabilities are computed in
    place in the one (D, H, W) buffer that is returned; the depth adds one
    hypothesis at a time, in `sum(axis=0)`'s order.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    d_count = vol.cost.shape[0]
    prob = np.negative(vol.cost)
    prob /= temperature
    np.copyto(prob, -np.inf, where=~vol.valid)
    any_valid = vol.valid.any(axis=0)
    peak = np.where(any_valid, prob.max(axis=0), 0.0)
    prob -= peak
    np.exp(prob, out=prob)
    norm = prob.sum(axis=0)
    prob /= np.where(any_valid, norm, 1.0)
    np.copyto(prob, 1.0 / d_count, where=~any_valid)
    samples = vol.hypotheses.samples
    depth = samples[0] * prob[0]
    term = np.empty_like(depth)
    for k in range(1, d_count):
        np.multiply(samples[k], prob[k], out=term)
        depth += term
    depth = np.clip(depth, vol.hypotheses.d_min, vol.hypotheses.d_max)
    depth = np.where(any_valid, depth, 0.0)
    return geometry.DepthMap(depth, any_valid), prob
