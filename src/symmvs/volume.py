"""Plane-sweep cost volumes and depth regression.

Features are fixed (non-learned) image statistics. For every depth
hypothesis, all non-reference feature maps are warped into the reference
view through the plane-induced homography; the reference's own features
join the group, and the per-pixel matching cost is the channel-averaged
population variance across the contributing views. A separable,
validity-aware box filter stands in for learned regularization, and the
depth is read out as the softmax-weighted expectation over hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import TooFewViews, UnknownMode

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
    gray = np.asarray(image, dtype=np.float64)
    if gray.ndim == 3:
        gray = gray.mean(axis=2)
    if mode == "intensity":
        return FeatureMap(gray[:, :, None])
    if mode == "grad3":
        gx = np.zeros_like(gray)
        gy = np.zeros_like(gray)
        gx[:, :-1] = gray[:, 1:] - gray[:, :-1]
        gy[:-1, :] = gray[1:, :] - gray[:-1, :]
        return FeatureMap(np.stack([gray, gx, gy], axis=2))
    raise UnknownMode(f"unknown feature mode {mode!r}")


def build_cost_volume(views, features, ref: int,
                      hyp: geometry.DepthHypotheses) -> CostVolume:
    """Sweep depth hypotheses and score cross-view feature agreement.

    The population variance is accumulated from pairwise squared
    differences, so identical contributions give exactly zero cost.
    """
    n_views = len(views)
    if n_views < 2:
        raise TooFewViews("cost volume needs at least two views")
    if not 0 <= ref < n_views:
        raise IndexError(f"reference index {ref} out of range")
    h, w, _ = features[ref].values.shape
    d_count = hyp.count

    cost = np.zeros((d_count, h, w))
    support = np.zeros((d_count, h, w), dtype=np.int64)

    others = [v for v in range(n_views) if v != ref]
    for k, depth in enumerate(hyp.samples):
        group = [(features[ref].values, np.ones((h, w), dtype=bool))]
        for src in others:
            hom = geometry.plane_homography(views[ref], views[src], float(depth))
            fld = geometry.warp_field_from_homography(hom, h, w)
            vals, ok = geometry.bilinear_sample(features[src].values, fld)
            group.append((vals, ok))

        count = np.zeros((h, w), dtype=np.int64)
        for _, ok in group:
            count += ok
        pair_sq = np.zeros((h, w))
        for a in range(len(group)):
            va, oka = group[a]
            for b in range(a + 1, len(group)):
                vb, okb = group[b]
                both = (oka & okb)[..., None]
                diff = np.where(both, va - vb, 0.0)
                pair_sq += (diff * diff).mean(axis=2)
        ok2 = count >= 2
        denom = np.where(ok2, count, 1).astype(np.float64)
        cost[k] = np.where(ok2, pair_sq / (denom * denom), 0.0)
        support[k] = count

    return CostVolume(ref, hyp, cost, support, support >= 2)


def _box_sum_axis(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    n = a.shape[axis]
    c = np.cumsum(a, axis=axis)
    c = np.concatenate([np.zeros_like(np.take(c, [0], axis=axis)), c], axis=axis)
    hi = np.minimum(np.arange(n) + radius + 1, n)
    lo = np.maximum(np.arange(n) - radius, 0)
    return np.take(c, hi, axis=axis) - np.take(c, lo, axis=axis)


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
    if temperature <= 0:
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
