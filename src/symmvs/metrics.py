"""Depth-map and point-cloud evaluation metrics.

Depth metrics reduce over jointly valid pixels; the inlier ratios use the
strict max-ratio test ``max(p/g, g/p) < 1.25**i``, so boundary cases fail.
Cloud metrics use exact nearest neighbors in both directions; ``overall``
is the mean of the accuracy and completeness means, and the percentage
metrics count distances strictly below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyCloud, EmptyOverlap, NonPositiveGT
from .fusion import PointCloud
from .geometry import DepthMap

__all__ = [
    "DepthMetrics",
    "CloudMetrics",
    "depth_metrics",
    "cloud_metrics",
    "overall_from_means",
]


class _Report:
    """``report_lines``: every field in order as ``name = value`` with 17
    significant digits, each ``*_var`` line followed by its ``*_std`` line."""

    def report_lines(self):
        lines = []
        for field in fields(self):
            value = getattr(self, field.name)
            lines.append(f"{field.name} = {value:.17g}")
            if field.name.endswith("_var"):
                lines.append(f"{field.name[:-4]}_std = {np.sqrt(value):.17g}")
        return lines


@dataclass
class DepthMetrics(_Report):
    """Standard depth error statistics plus the three inlier ratios."""

    abs_rel: float
    abs_diff: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float
    n_evaluated: int


@dataclass
class CloudMetrics(_Report):
    """Accuracy / completeness distance statistics and threshold percentages.

    Variance fields are population variances; the matching standard
    deviations are also emitted in reports. ``f_score`` is the harmonic
    mean of the two percentages.
    """

    acc_mean: float
    acc_median: float
    acc_var: float
    comp_mean: float
    comp_median: float
    comp_var: float
    overall: float
    acc_pct: float
    comp_pct: float
    f_score: float
    threshold: float


def depth_metrics(pred: DepthMap, gt: DepthMap) -> DepthMetrics:
    """Error statistics of a predicted depth map against ground truth.

    Raises EmptyOverlap when no pixel is valid in both maps and
    NonPositiveGT when the ground truth is not strictly positive there.
    """
    both = pred.valid & gt.valid
    n = int(both.sum())
    if n == 0:
        raise EmptyOverlap("no jointly valid pixels")
    p = pred.values[both]
    g = gt.values[both]
    if (g <= 0).any():
        raise NonPositiveGT("ground-truth depth must be positive")
    diff = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        abs_diff=float(np.mean(np.abs(diff))),
        sq_rel=float(np.mean(diff * diff / g)),
        rmse=float(np.sqrt(np.mean(diff * diff))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
        n_evaluated=n,
    )


def overall_from_means(acc_mean: float, comp_mean: float) -> float:
    """Combined distance score: the mean of the two distance means."""
    return 0.5 * (acc_mean + comp_mean)


def cloud_metrics(pred: PointCloud, gt: PointCloud, threshold: float) -> CloudMetrics:
    """Accuracy/completeness statistics between two point clouds.

    Accuracy reduces nearest-ground-truth distances of predicted points;
    completeness reduces nearest-prediction distances of ground-truth
    points. Nearest neighbors are exact; both k-d trees split at the
    midpoint of each cell (``balanced_tree=False``), which builds faster
    than median splits and finds the same distances.
    """
    # imported here, not at module level: it takes most of `import symmvs`
    from scipy.spatial import cKDTree

    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("cloud metrics need non-empty clouds")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    d_acc, _ = cKDTree(gt.points, balanced_tree=False).query(pred.points, k=1)
    d_comp, _ = cKDTree(pred.points, balanced_tree=False).query(gt.points, k=1)
    acc_pct = 100.0 * float(np.mean(d_acc < threshold))
    comp_pct = 100.0 * float(np.mean(d_comp < threshold))
    denom = acc_pct + comp_pct
    f_score = 2.0 * acc_pct * comp_pct / denom if denom > 0 else 0.0
    return CloudMetrics(
        acc_mean=float(np.mean(d_acc)),
        acc_median=float(np.median(d_acc)),
        acc_var=float(np.var(d_acc)),
        comp_mean=float(np.mean(d_comp)),
        comp_median=float(np.median(d_comp)),
        comp_var=float(np.var(d_comp)),
        overall=overall_from_means(float(np.mean(d_acc)), float(np.mean(d_comp))),
        acc_pct=acc_pct,
        comp_pct=comp_pct,
        f_score=f_score,
        threshold=float(threshold),
    )
