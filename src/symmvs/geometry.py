"""Pinhole camera geometry: homographies, warping, and view synthesis.

Conventions
-----------
- Integer pixel coordinates sit at pixel centers; ``x`` runs along columns
  and ``y`` along rows.
- Extrinsics are world-to-camera: ``X_cam = R @ X_world + t``.
- Projection is ``p = K @ X_cam / X_cam[2]``; depth is the camera-frame z.
- Out-of-bounds samples return 0 and are flagged invalid instead of being
  clamped, so masked reductions stay unbiased.
- Points that land behind a camera after a rigid transform are invalid.

The value-level warping helpers (`synth_values`, `warp_depth_values`)
accept either plain arrays or autodiff ``Var`` depths, so the loss stack
can reuse the exact same warping chain with gradient tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import value_of, where_mask
from .errors import NonFiniteResult, NonFiniteValue, ShapeMismatch

__all__ = [
    "CameraView",
    "DepthMap",
    "DepthHypotheses",
    "WarpField",
    "intrinsics_inverse",
    "same_camera",
    "relative_motion",
    "plane_homography",
    "warp_field_from_homography",
    "bilinear_sample",
    "synthesize_view",
    "warp_depth",
    "backproject_pixels",
    "project_points",
]


# -- domain types ----------------------------------------------------------


@dataclass
class CameraView:
    """One calibrated view: intrinsics, world-to-camera pose, and an image.

    ``image`` is (H, W, C) with values in [0, 1]; it may be None for a pose
    that has not been rendered or loaded yet.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image: np.ndarray | None = None

    def __post_init__(self):
        K = np.asarray(self.intrinsics, dtype=np.float64)
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if K.shape != (3, 3) or R.shape != (3, 3):
            raise ShapeMismatch("intrinsics and rotation must be 3x3")
        if not (np.isfinite(K).all() and np.isfinite(R).all() and np.isfinite(t).all()):
            raise NonFiniteValue("camera parameters must be finite")
        if max(abs(K[1, 0]), abs(K[2, 0]), abs(K[2, 1])) > 1e-12:
            raise ValueError("intrinsics must be upper triangular")
        if K[0, 0] <= 0.0 or K[1, 1] <= 0.0 or abs(K[2, 2] - 1.0) > 1e-12:
            raise ValueError("intrinsics need positive focals and K[2,2] == 1")
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be proper (det = +1)")
        img = self.image
        if img is not None:
            img = np.asarray(img, dtype=np.float64)
            if img.ndim == 2:
                img = img[:, :, None]
            if img.ndim != 3:
                raise ShapeMismatch("image must be H x W x C")
            if not np.isfinite(img).all():
                raise NonFiniteValue("image must be finite")
        self.intrinsics = K
        self.rotation = R
        self.translation = t
        self.image = img


@dataclass
class DepthMap:
    """Per-pixel metric depth with validity tracking.

    Valid entries are strictly positive and finite; invalid entries are
    excluded from every reduction downstream.
    """

    values: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeMismatch("depth values must be H x W")
        if self.valid is None:
            ok = np.isfinite(v) & (v > 0)
        else:
            ok = np.asarray(self.valid, dtype=bool)
            if ok.shape != v.shape:
                raise ShapeMismatch("valid mask must match depth shape")
            if (ok & ~(np.isfinite(v) & (v > 0))).any():
                raise ValueError("valid depth entries must be positive and finite")
        self.values = v
        self.valid = ok

    def copy(self) -> "DepthMap":
        return DepthMap(self.values.copy(), self.valid.copy())


@dataclass(frozen=True)
class DepthHypotheses:
    """Uniform depth samples swept between d_min and d_max (inclusive)."""

    d_min: float
    d_max: float
    count: int
    samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.d_min < self.d_max):
            raise ValueError("need 0 < d_min < d_max")
        if self.count < 2:
            raise ValueError("need at least two depth samples")
        object.__setattr__(
            self, "samples", np.linspace(self.d_min, self.d_max, self.count)
        )

    @property
    def spacing(self) -> float:
        return (self.d_max - self.d_min) / (self.count - 1)


@dataclass
class WarpField:
    """Continuous source coordinates for every target pixel.

    ``in_bounds`` is True exactly where coords lie inside
    [0, W-1] x [0, H-1]; out-of-bounds entries hold the marker -1.
    """

    coords: np.ndarray
    in_bounds: np.ndarray


# -- small helpers ----------------------------------------------------------


def intrinsics_inverse(K: np.ndarray) -> np.ndarray:
    """Closed-form inverse of an upper-triangular K with K[2,2] = 1.

    The bottom row of the result is exactly [0, 0, 1], which keeps
    backprojected ray z-components exactly 1.
    """
    fx, skew, cx = K[0, 0], K[0, 1], K[0, 2]
    fy, cy = K[1, 1], K[1, 2]
    return np.array(
        [
            [1.0 / fx, -skew / (fx * fy), (skew * cy - cx * fy) / (fx * fy)],
            [0.0, 1.0 / fy, -cy / fy],
            [0.0, 0.0, 1.0],
        ]
    )


def same_camera(a: CameraView, b: CameraView) -> bool:
    return (
        a is b
        or (
            np.array_equal(a.intrinsics, b.intrinsics)
            and np.array_equal(a.rotation, b.rotation)
            and np.array_equal(a.translation, b.translation)
        )
    )


def relative_motion(src: CameraView, dst: CameraView):
    """Rigid motion taking src-camera points to dst-camera points.

    Identical cameras short-circuit to an exact identity so that self-warps
    are bit-exact.
    """
    if same_camera(src, dst):
        return np.eye(3), np.zeros(3)
    r_rel = dst.rotation @ src.rotation.T
    t_rel = dst.translation - r_rel @ src.translation
    return r_rel, t_rel


@lru_cache(maxsize=32)
def _pixel_grid(height: int, width: int):
    gy, gx = np.mgrid[0:height, 0:width]
    return gx.astype(np.float64), gy.astype(np.float64)


def view_rays(cam: CameraView, height: int, width: int) -> np.ndarray:
    """Backprojected ray per pixel, K^-1 @ (x, y, 1); z-component exactly 1."""
    gx, gy = _pixel_grid(height, width)
    kinv = intrinsics_inverse(cam.intrinsics)
    rays = np.empty((height, width, 3))
    for i in range(3):
        rays[..., i] = kinv[i, 0] * gx + kinv[i, 1] * gy + kinv[i, 2]
    return rays


# Tolerance band on the bounds test: coordinates that land on an image
# border up to rounding (e.g. (H-1)*d/d) must not flicker in and out of
# bounds under infinitesimal depth changes.
_BOUNDS_EPS = 1e-9


def _in_bounds(xv: np.ndarray, yv: np.ndarray, width: int, height: int) -> np.ndarray:
    return (
        (xv >= -_BOUNDS_EPS)
        & (xv <= width - 1.0 + _BOUNDS_EPS)
        & (yv >= -_BOUNDS_EPS)
        & (yv <= height - 1.0 + _BOUNDS_EPS)
    )


def _sample_validity(valid: np.ndarray, xv: np.ndarray, yv: np.ndarray, inb: np.ndarray):
    """True where every bilinear corner carrying weight is a valid pixel."""
    h, w = valid.shape
    xs = np.where(inb, xv, 0.0)
    ys = np.where(inb, yv, 0.0)
    x0 = np.clip(np.floor(xs), 0, w - 2).astype(np.intp)
    y0 = np.clip(np.floor(ys), 0, h - 2).astype(np.intp)
    wx = xs - x0
    wy = ys - y0
    tol = 1e-12
    ok = np.ones_like(inb)
    ok &= valid[y0, x0] | ((1 - wx) * (1 - wy) <= tol)
    ok &= valid[y0, x0 + 1] | (wx * (1 - wy) <= tol)
    ok &= valid[y0 + 1, x0] | ((1 - wx) * wy <= tol)
    ok &= valid[y0 + 1, x0 + 1] | (wx * wy <= tol)
    return ok & inb


# -- plane-induced homography ------------------------------------------------


def plane_homography(src: CameraView, dst: CameraView, depth: float) -> np.ndarray:
    """Homography mapping src pixels on the fronto-parallel plane at ``depth``
    (z = depth in src's camera frame) to dst pixels.

    Scale-normalized so the bottom-right entry is 1. Raises NonFiniteResult
    for non-positive depth or a degenerate configuration.
    """
    if not np.isfinite(depth) or depth <= 0.0:
        raise NonFiniteResult(f"plane depth must be positive, got {depth}")
    if same_camera(src, dst):
        return np.eye(3)
    r_rel, t_rel = relative_motion(src, dst)
    mid = r_rel.copy()
    mid[:, 2] += t_rel / depth
    h = dst.intrinsics @ mid @ intrinsics_inverse(src.intrinsics)
    if not np.isfinite(h).all() or abs(h[2, 2]) < 1e-15:
        raise NonFiniteResult("degenerate plane homography")
    return h / h[2, 2]


def warp_field_from_homography(hmat: np.ndarray, height: int, width: int) -> WarpField:
    """Apply a homography to the full pixel grid and flag usable samples."""
    gx, gy = _pixel_grid(height, width)
    den = hmat[2, 0] * gx + hmat[2, 1] * gy + hmat[2, 2]
    front = den > 1e-12
    den_safe = np.where(front, den, 1.0)
    x = (hmat[0, 0] * gx + hmat[0, 1] * gy + hmat[0, 2]) / den_safe
    y = (hmat[1, 0] * gx + hmat[1, 1] * gy + hmat[1, 2]) / den_safe
    inb = front & _in_bounds(x, y, width, height)
    coords = np.stack([np.where(inb, x, -1.0), np.where(inb, y, -1.0)], axis=-1)
    return WarpField(coords, inb)


def bilinear_sample(image: np.ndarray, fld: WarpField):
    """Sample ``image`` at the warp field's coordinates.

    Returns (values, valid). Out-of-bounds outputs are 0 and flagged
    invalid. The sampled grid must match the image grid.
    """
    img = np.asarray(image, dtype=np.float64)
    if not np.isfinite(img).all():
        raise NonFiniteValue("image must be finite")
    if fld.coords.shape[:2] != img.shape[:2]:
        raise ShapeMismatch(
            f"warp field grid {fld.coords.shape[:2]} != image grid {img.shape[:2]}"
        )
    out = ad.bilinear(img, fld.coords[..., 0], fld.coords[..., 1], fld.in_bounds)
    return out, fld.in_bounds.copy()


# -- generic warping chain ---------------------------------------------------


def sampling_chain(target: CameraView, source: CameraView, target_depth_values, height, width):
    """Source-image coordinates of the scene seen by ``target`` at the given
    depth values.

    Returns (x, y, z_src, front): continuous source-pixel coordinates, the
    depth of the transformed point in the source camera, and a boolean mask
    where that depth is positive. ``target_depth_values`` may be a Var; the
    outputs then track gradients. Identical cameras short-circuit to the
    exact pixel grid.
    """
    if same_camera(target, source):
        gx, gy = _pixel_grid(height, width)
        front = value_of(target_depth_values) > 0.0
        return gx, gy, target_depth_values, front

    r_rel, t_rel = relative_motion(target, source)
    rays = view_rays(target, height, width)
    a = rays @ (source.intrinsics @ r_rel).T
    b = source.intrinsics @ t_rel
    d = target_depth_values
    qx = a[..., 0] * d + b[0]
    qy = a[..., 1] * d + b[1]
    # K's bottom row is (0, 0, 1), so the projective divisor is the source-
    # camera z directly.
    z = a[..., 2] * d + b[2]
    front = value_of(z) > 1e-12
    z_safe = where_mask(front, z, 1.0)
    x = where_mask(front, qx / z_safe, -1.0)
    y = where_mask(front, qy / z_safe, -1.0)
    return x, y, z, front


def synth_values(target: CameraView, source: CameraView, target_depth_values,
                 target_depth_valid, source_image=None, source_valid=None):
    """Inverse-warp ``source``'s image content onto ``target``'s grid.

    ``source_image`` defaults to the source view's own image; passing an
    already-synthesized image (possibly a Var) with its validity grid builds
    second-order synthesis. Returns (image, valid).
    """
    h, w = value_of(target_depth_values).shape
    if source_image is None:
        source_image = source.image
    x, y, _, front = sampling_chain(target, source, target_depth_values, h, w)
    xv, yv = value_of(x), value_of(y)
    ok = front & _in_bounds(xv, yv, w, h) & target_depth_valid
    if source_valid is not None:
        ok = ok & _sample_validity(source_valid, xv, yv, ok)
    img = ad.bilinear(source_image, x, y, ok)
    return img, ok


def warp_depth_values(source_depth_values, source_depth_valid,
                      target_depth_values, target_depth_valid,
                      source: CameraView, target: CameraView):
    """Source depth re-expressed in the target camera (see `warp_depth`).

    Either depth grid may be a Var. Returns (values, valid).
    """
    h, w = value_of(target_depth_values).shape
    x, y, _, front = sampling_chain(target, source, target_depth_values, h, w)
    xv, yv = value_of(x), value_of(y)
    ok = front & _in_bounds(xv, yv, w, h) & target_depth_valid
    ok = ok & _sample_validity(source_depth_valid, xv, yv, ok)
    d_src = ad.bilinear(source_depth_values, x, y, ok)
    r_st, t_st = relative_motion(source, target)
    # z in the target frame of the source-frame point K_s^-1 (x, y, 1) d_src:
    # an affine form in (x, y) times the sampled depth.
    coeff = r_st[2] @ intrinsics_inverse(source.intrinsics)
    z = (coeff[0] * x + coeff[1] * y + coeff[2]) * d_src + t_st[2]
    ok = ok & (value_of(z) > 0.0)
    return where_mask(ok, z, 0.0), ok


# -- public warping operations ------------------------------------------------


def synthesize_view(target_depth: DepthMap, source: CameraView, target: CameraView):
    """Synthesize the target view's image from the source view's pixels.

    Each target pixel is backprojected with the target depth, transformed
    into the source camera, projected, and bilinearly sampled. Returns
    (image, valid); valid requires in-bounds sampling, a valid target
    depth, and a positive transformed depth.
    """
    if source.image is None:
        raise ValueError("source view has no image")
    img, ok = synth_values(target, source, target_depth.values, target_depth.valid)
    return img, ok


def warp_depth(source_depth: DepthMap, target_depth: DepthMap,
               source: CameraView, target: CameraView) -> DepthMap:
    """Re-express the source view's depth map in the target camera.

    Each target pixel is backprojected via the target depth, projected into
    the source view, the source depth is bilinearly sampled there, and the
    sampled source-frame point is rigid-transformed into the target camera;
    its z-component is the output. Validity follows `synthesize_view`.
    """
    vals, ok = warp_depth_values(
        source_depth.values, source_depth.valid,
        target_depth.values, target_depth.valid,
        source, target,
    )
    return DepthMap(np.where(ok, value_of(vals), 0.0), ok)


# -- point helpers (fusion and tests) -----------------------------------------


def backproject_pixels(cam: CameraView, xs, ys, depths) -> np.ndarray:
    """World-frame points for pixels (xs, ys) at the given depths."""
    kinv = intrinsics_inverse(cam.intrinsics)
    ones = np.ones_like(np.asarray(xs, dtype=np.float64))
    p = np.stack([np.asarray(xs, dtype=np.float64),
                  np.asarray(ys, dtype=np.float64), ones], axis=-1)
    x_cam = (p @ kinv.T) * np.asarray(depths, dtype=np.float64)[..., None]
    return (x_cam - cam.translation) @ cam.rotation


def project_points(cam: CameraView, points_world: np.ndarray):
    """Pixel coordinates and camera depth of world points. Returns (x, y, z)."""
    x_cam = points_world @ cam.rotation.T + cam.translation
    z = x_cam[..., 2]
    q = x_cam @ cam.intrinsics.T
    with np.errstate(divide="ignore", invalid="ignore"):
        x = q[..., 0] / z
        y = q[..., 1] / z
    return x, y, z
