"""Multi-view consistent depth fusion into a unified point cloud.

A pixel of one view survives filtering when enough other views, warped
onto it, agree with its depth within a threshold; survivors are averaged
over the agreeing set and back-projected to world coordinates, colors
sampled from the source images. Assembly order is deterministic: view
order, then row-major pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .consistency import check_depths

__all__ = ["PointCloud", "filter_consistent", "depths_to_cloud"]


@dataclass
class PointCloud:
    """World-frame points with optional per-point RGB colors in [0, 1]."""

    points: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(p).all():
            raise ValueError("point coordinates must be finite")
        c = self.colors
        if c is not None:
            c = np.asarray(c, dtype=np.float64).reshape(-1, 3)
            if len(c) != len(p):
                raise ValueError("colors must match points")
        self.points = p
        self.colors = c

    def __len__(self) -> int:
        return len(self.points)


def filter_consistent(depths, views, tau_fuse: float, min_views: int = 2):
    """Keep pixels confirmed by at least ``min_views`` other views.

    A view j confirms pixel p of view i when j's depth, warped onto view i,
    lands within ``tau_fuse`` of view i's depth there. Surviving depths are
    replaced by the mean over the agreeing set (the pixel's own value plus
    every confirming warped value). A depth map count other than the view
    count raises ShapeMismatch, and so does a depth map off its view's
    image grid or off view 0's depth grid, naming its view. A
    ``min_views`` below 1 or above the number of other views raises
    ValueError.
    """
    check_depths(depths, views, depths[0].values.shape if depths else None)
    if min_views < 1:
        raise ValueError("min_views must be >= 1")
    if depths and min_views > len(depths) - 1:
        raise ValueError(f"min_views = {min_views} exceeds the "
                         f"{len(depths) - 1} other views")
    if not tau_fuse > 0:
        raise ValueError("tau_fuse must be positive")
    out = []
    for i, di in enumerate(depths):
        agree_count = np.zeros(di.values.shape, dtype=np.int64)
        agree_sum = np.where(di.valid, di.values, 0.0)
        for j, dj in enumerate(depths):
            if j == i:
                continue
            warped = geometry.warp_depth(dj, di, views[j], views[i])
            ok = (
                warped.valid
                & di.valid
                & (np.abs(di.values - warped.values) <= tau_fuse)
            )
            agree_count += ok
            agree_sum += np.where(ok, warped.values, 0.0)
        keep = di.valid & (agree_count >= min_views)
        mean = agree_sum / (agree_count + 1)
        out.append(geometry.DepthMap(np.where(keep, mean, 0.0), keep))
    return out


def depths_to_cloud(filtered, views) -> PointCloud:
    """Back-project every surviving pixel to world coordinates.

    Colors come from the owning view's image; grayscale images are
    replicated across RGB. A depth map count other than the view count
    raises ShapeMismatch, and so does a depth map off its view's image
    grid, naming its view.
    """
    check_depths(filtered, views)
    points = []
    colors = []
    for depth, view in zip(filtered, views):
        ys, xs = np.nonzero(depth.valid)
        if len(ys) == 0:
            continue
        z = depth.values[ys, xs]
        pts = geometry.backproject_pixels(view, xs.astype(np.float64),
                                          ys.astype(np.float64), z)
        points.append(pts)
        if view.image is not None:
            px = view.image[ys, xs]
            if px.shape[1] == 3:
                colors.append(px)
            else:
                colors.append(np.repeat(px.mean(axis=1, keepdims=True), 3, axis=1))
    if not points:
        return PointCloud(np.zeros((0, 3)), None)
    all_colors = np.concatenate(colors) if len(colors) == len(points) else None
    return PointCloud(np.concatenate(points), all_colors)
