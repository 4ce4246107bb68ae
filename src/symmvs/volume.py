"""Plane-sweep cost volumes and depth regression.

Features are fixed (non-learned) image statistics. For every depth
hypothesis, all non-reference feature maps are warped into the reference
view through the refinement's sampling: one `geometry.pair_coefficients`
record per source view, read by `geometry.pair_sampling` at each constant
hypothesis depth. The reference's own features join the group, and the
per-pixel matching cost is the channel-averaged population variance across
the contributing views. A separable, validity-aware box filter stands in
for learned regularization, and the depth is read out as the
softmax-weighted expectation over hypotheses. The filter sums each window
directly, one offset at a time in place, so an output carries only the
rounding of its own terms and smoothing needs no buffer beyond its output.

The sweep works channel-first: once per call, every view's (H, W, F)
features become one contiguous (F, H*W) array, checked for finite values
there and nowhere else. Per hypothesis and source view, the pair's
sampling flags the samples in front of the source camera and in bounds,
and each of its four bilinear corners is one gather along the pixel axis.
The pairwise variance then runs on (F, H, W) arrays, summing channels
as whole planes. The loop over hypotheses stays: stacking
all D hypotheses into one (D, H, W) pass produces large temporaries that
cost more in memory traffic than the Python loop costs in dispatch, and was
measured slower at 256x192 even in chunks of 4 hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, photometry
from .errors import NonFiniteValue, ShapeMismatch, TooFewViews, UnknownMode

__all__ = [
    "FeatureMap",
    "CostVolume",
    "extract_features",
    "build_cost_volume",
    "smooth_cost_volume",
    "regress_depth",
]

FEATURE_MODES = ("intensity", "grad3")


@dataclass
class FeatureMap:
    """Per-pixel feature vectors, (H, W, F)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] < 1:
            raise ValueError("feature map must be H x W x F with F >= 1")
        self.values = v


@dataclass
class CostVolume:
    """Variance-aggregated matching cost per depth hypothesis.

    ``cost`` is (D, H, W), lower is better; ``support`` counts contributing
    views; entries with support < 2 carry no information and are flagged
    False in ``valid`` (their cost holds the sentinel 0).
    """

    ref_view: int
    hypotheses: geometry.DepthHypotheses
    cost: np.ndarray
    support: np.ndarray
    valid: np.ndarray


def extract_features(image: np.ndarray, mode: str = "grad3") -> FeatureMap:
    """Fixed feature stack: luminance, optionally with forward-difference
    gradients (mode "grad3" gives channels [gray, d/dx, d/dy])."""
    gray = photometry.grayscale(image)
    if mode == "intensity":
        return FeatureMap(gray[:, :, None])
    if mode == "grad3":
        gx, gy = photometry._grad_x(gray), photometry._grad_y(gray)
        return FeatureMap(np.stack([gray, gx, gy], axis=2))
    raise UnknownMode(f"unknown feature mode {mode!r}")


def build_cost_volume(views, features, ref: int,
                      hyp: geometry.DepthHypotheses) -> CostVolume:
    """Sweep depth hypotheses and score cross-view feature agreement.

    The population variance is accumulated from pairwise squared
    differences, so identical contributions give exactly zero cost.
    Raises ShapeMismatch if a view's features differ in shape from the
    reference's, and NonFiniteValue naming the first view whose features
    are not finite.
    """
    n_views = len(views)
    if n_views < 2:
        raise TooFewViews("cost volume needs at least two views")
    if not 0 <= ref < n_views:
        raise IndexError(f"reference index {ref} out of range")
    shape = features[ref].values.shape
    h, w, n_feat = shape
    flat = []
    for v in range(n_views):
        vals = features[v].values
        if vals.shape != shape:
            raise ShapeMismatch(
                f"features of view {v} are {vals.shape}, reference's are {shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteValue(f"features of view {v} must be finite")
        chan_first = np.ascontiguousarray(np.moveaxis(vals, 2, 0))
        flat.append(chan_first.reshape(n_feat, h * w))
    ref_vals = flat[ref].reshape(n_feat, h, w)

    d_count = hyp.count
    cost = np.zeros((d_count, h, w))
    support = np.zeros((d_count, h, w), dtype=np.int64)

    others = [v for v in range(n_views) if v != ref]
    pairs = {src: geometry.pair_coefficients(views[ref], views[src], h, w)
             for src in others}
    for k, depth in enumerate(hyp.samples):
        # the reference is valid everywhere; its mask stays implicit (None)
        group = [(ref_vals, None)]
        for src in others:
            _, _, ok, (idx, wts, _, _) = geometry.pair_sampling(
                pairs[src], float(depth), True)
            taps = [np.take(flat[src], i, axis=1) * wt for i, wt in zip(idx, wts)]
            group.append((taps[0] + taps[1] + taps[2] + taps[3], ok))

        count = np.ones((h, w), dtype=np.int64)
        for _, ok in group[1:]:
            count += ok
        pair_sq = np.zeros((h, w))
        for a in range(len(group)):
            va, oka = group[a]
            for b in range(a + 1, len(group)):
                vb, okb = group[b]
                both = okb if oka is None else oka & okb
                diff = np.where(both, va - vb, 0.0)
                sq = diff * diff
                chan = sq[0]
                for c in range(1, n_feat):
                    chan = chan + sq[c]
                pair_sq += chan / n_feat
        ok2 = count >= 2
        denom = np.where(ok2, count, 1).astype(np.float64)
        cost[k] = np.where(ok2, pair_sq / (denom * denom), 0.0)
        support[k] = count

    return CostVolume(ref, hyp, cost, support, support >= 2)


def _box_sum_axis(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Sum of ``a`` over the window [i - radius, i + radius], clipped to the
    array, at every index i along ``axis``.

    Direct window sums: a copy of ``a`` adds ``a[i - k]`` and then
    ``a[i + k]`` for k = 1 ... radius, in place, wherever they exist.
    """
    out = a.copy()
    src = np.moveaxis(a, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    for k in range(1, min(radius, src.shape[0] - 1) + 1):
        dst[k:] += src[:-k]
        dst[:-k] += src[k:]
    return out


def smooth_cost_volume(vol: CostVolume, radius=(1, 1, 1)) -> CostVolume:
    """Separable box smoothing over valid cost entries.

    Each output is the mean of the valid entries inside the
    (2r_d+1, 2r_h+1, 2r_w+1) window; support is passed through unchanged.
    """
    rd, rh, rw = (int(r) for r in radius)
    if min(rd, rh, rw) < 0:
        raise ValueError("radii must be non-negative")
    num = np.where(vol.valid, vol.cost, 0.0)
    den = vol.valid.astype(np.float64)
    for axis, r in ((0, rd), (1, rh), (2, rw)):
        if r == 0:
            continue
        num = _box_sum_axis(num, r, axis)
        den = _box_sum_axis(den, r, axis)
    ok = den > 0.5
    cost = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    return CostVolume(vol.ref_view, vol.hypotheses, cost, vol.support.copy(), ok)


def regress_depth(vol: CostVolume, temperature: float = 1.0):
    """Softmax expected depth over the hypotheses.

    Per pixel, logits are -cost / temperature over the valid hypotheses;
    the depth is the probability-weighted mean sample. Returns the depth
    map and the (D, H, W) probabilities, which sum to 1 along D. Pixels
    without any valid hypothesis are marked invalid (their distribution is
    left uniform so the volume still normalizes).
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    d_count = vol.cost.shape[0]
    logits = np.where(vol.valid, -vol.cost / temperature, -np.inf)
    any_valid = vol.valid.any(axis=0)
    peak = np.where(any_valid, logits.max(axis=0), 0.0)
    expo = np.where(vol.valid, np.exp(logits - peak), 0.0)
    norm = expo.sum(axis=0)
    prob = expo / np.where(any_valid, norm, 1.0)
    prob = np.where(any_valid, prob, 1.0 / d_count)
    samples = vol.hypotheses.samples
    depth = (samples[:, None, None] * prob).sum(axis=0)
    depth = np.clip(depth, vol.hypotheses.d_min, vol.hypotheses.d_max)
    depth = np.where(any_valid, depth, 0.0)
    return geometry.DepthMap(depth, any_valid), prob
