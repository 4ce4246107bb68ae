"""Pinhole camera geometry: the sampling chain, warping, view synthesis,
and the two steps of the sweep's image pyramid (`halve_view`,
`upsample_depth`).

Conventions
-----------
- Integer pixel coordinates sit at pixel centers; ``x`` runs along columns
  and ``y`` along rows.
- Extrinsics are world-to-camera: ``X_cam = R @ X_world + t``.
- Projection is ``p = K @ X_cam / X_cam[2]``; depth is the camera-frame z.
- Out-of-bounds samples return 0 and are flagged invalid instead of being
  clamped, so masked reductions stay unbiased.
- Points that land behind a camera after a rigid transform are invalid.

One camera model serves every stage, and only this module turns cameras
into records. `pair_coefficients` builds the `ViewPair` record of an
ordered (target, source) pair, a 3x3 matrix and a few numbers, from the
two cameras and the grid alone, and `pair_records` those of a view list; a
record costs microseconds, so every pass builds its own. The per-depth
functions read a record and no camera. `sampling_chain` sends the target
pixel (x, y) at depth d to the homogeneous source pixel
``m (x, y, 1) d + b``; `pair_sampling`, at per-pixel depths or one
constant sweep depth, bundles what every warp of the pair reads: the
chain's coordinates, the flag of samples in front, in bounds and at a
valid target depth, and the `autodiff.bilinear_taps` at that flag. It
reads no source data, so the sweep's feature gathers, both syntheses of a
pair and its depth warp share one (`synth_values`, `warp_depth_values`).
Where a warp checks the validity of the sampled grid, the check and the
sampler read those taps, computed at the flag before the check narrows it
(`autodiff.bilinear` explains why the result is the same as with taps at
the narrowed mask).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import NonFiniteResult, NonFiniteValue, ShapeMismatch

__all__ = [
    "CameraView",
    "DepthMap",
    "DepthHypotheses",
    "WarpField",
    "ViewPair",
    "intrinsics_inverse",
    "same_camera",
    "relative_motion",
    "plane_homography",
    "warp_field_from_homography",
    "pair_coefficients",
    "pair_records",
    "bilinear_sample",
    "halve_view",
    "upsample_depth",
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
        if not (0.0 < self.d_min < self.d_max < np.inf):
            raise ValueError("need 0 < d_min < d_max, both finite")
        self.check_count(self.count)
        object.__setattr__(
            self, "samples", np.linspace(self.d_min, self.d_max, self.count)
        )

    @staticmethod
    def check_count(count, name="count"):
        """`check_integer` of a hypothesis count: at least 2."""
        check_integer(name, count, 2)

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


def check_integer(name: str, value, least: int):
    """Raise ValueError naming ``name`` unless ``value`` is an integer of at
    least ``least``: the one rule of every integer setting. A `bool` is not
    a count, though Python calls it an int."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
def _pixel_grid(height: int, width: int) -> np.ndarray:
    """The homogeneous coordinates (x, y, 1) of every pixel, (3, H, W);
    shared by every caller, so read-only."""
    grid = np.ones((3, height, width))
    grid[1::-1] = np.mgrid[0:height, 0:width]
    grid.flags.writeable = False
    return grid


def _rays(cam: CameraView, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """K^-1 @ (x, y, 1) at float pixel coordinates (xs, ys), one component
    at a time, on a new last axis; z-component exactly 1."""
    kinv = intrinsics_inverse(cam.intrinsics)
    rays = np.empty(np.shape(xs) + (3,))
    for i in range(3):
        rays[..., i] = kinv[i, 0] * xs + kinv[i, 1] * ys + kinv[i, 2]
    return rays


def view_rays(cam: CameraView, height: int, width: int) -> np.ndarray:
    """Backprojected ray per pixel, K^-1 @ (x, y, 1); z-component exactly 1."""
    return _rays(cam, *_pixel_grid(height, width)[:2])


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


def _sample_validity(valid: np.ndarray, inb: np.ndarray, taps):
    """True where every bilinear corner carrying weight is a valid pixel.

    ``taps`` are the `autodiff.bilinear_taps` of the sampling coordinates
    at ``inb``, the ones the sampler reads next.
    """
    idx, wts, _, _ = taps
    flat = valid.ravel()
    tol = 1e-12
    ok = inb.copy()
    for i, wt in zip(idx, wts):
        ok &= flat[i] | (wt <= tol)
    return ok


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
    """Apply a homography to the full pixel grid and flag usable samples:
    in front of the camera and inside the grid."""
    gx, gy, _ = _pixel_grid(height, width)
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


@dataclass(frozen=True, eq=False)
class ViewPair:
    """Camera-only data of an ordered (target, source) pair on a grid.

    ``grid`` is the (H, W) image grid of both views. The record covers the
    target rows ``rows`` = (top, bottom) of it, so every per-depth result
    has ``bottom - top`` rows, while bounds and bilinear taps address the
    whole source grid. ``same`` flags identical cameras, whose chain is the
    exact pixel grid of those rows. ``m`` = ``K_s R_ts K_t^-1`` (the
    infinite homography) and ``b`` = ``K_s t_ts`` map the target pixel
    (x, y) at depth d to the homogeneous source pixel
    ``m (x, y, 1) d + b``, for the motion from target to source. The
    source-frame point ``K_s^-1 (x, y, 1) d`` has the target-frame z
    ``(z_row @ (x, y, 1)) * d + z_off``: ``z_row = R_st[2] @ K_s^-1`` and
    ``z_off = t_st[2]``.
    """

    grid: tuple
    rows: tuple
    same: bool
    m: np.ndarray
    b: np.ndarray
    z_row: np.ndarray
    z_off: float

    def band(self, top: int, bottom: int) -> "ViewPair":
        """The record over the grid's target rows [top, bottom), which lie
        within this record's rows (else ValueError)."""
        first, last = self.rows
        if not first <= top < bottom <= last:
            raise ValueError(f"rows ({top}, {bottom}) lie outside the record's "
                             f"rows {self.rows}")
        return replace(self, rows=(top, bottom))


def pair_coefficients(target: CameraView, source: CameraView, height: int,
                      width: int) -> ViewPair:
    """The `ViewPair` record of (target, source) over every row of a
    (height, width) grid."""
    r_ts, t_ts = relative_motion(target, source)
    r_st, t_st = relative_motion(source, target)
    return ViewPair(
        grid=(height, width),
        rows=(0, height),
        same=same_camera(target, source),
        m=source.intrinsics @ r_ts @ intrinsics_inverse(target.intrinsics),
        b=source.intrinsics @ t_ts,
        z_row=r_st[2] @ intrinsics_inverse(source.intrinsics),
        z_off=t_st[2],
    )


def pair_records(cams, grid) -> dict:
    """The `ViewPair` record of every ordered pair (t, s) of ``cams`` on ``grid``."""
    return {(t, s): pair_coefficients(cams[t], cams[s], *grid)
            for t in range(len(cams)) for s in range(len(cams)) if t != s}


def sampling_chain(pair: ViewPair, target_depth_values):
    """Source-image coordinates of the scene the pair's target sees at the
    given depth values, per pixel or one constant.

    Returns (x, y, front): continuous source-pixel coordinates and a
    boolean mask where the depth of the transformed point in the source
    camera is positive. ``x`` and ``y`` mean nothing outside ``front``;
    `pair_sampling` masks them with ``front & _in_bounds(...)``.
    ``target_depth_values`` may be a Var; ``x`` and ``y`` are then one
    tape node each over it. Identical cameras short-circuit to the
    exact pixel grid of the pair's rows.
    """
    top, bottom = pair.rows
    grid = _pixel_grid(*pair.grid)[:, top:bottom]
    d = target_depth_values
    dv = value_of(d)
    if pair.same:
        return grid[0], grid[1], dv > 0.0

    # the homogeneous source pixels q = m (x, y, 1) d + b, each m[i] @
    # (x, y, 1) summed in that order
    m, b = pair.m, pair.b
    if np.ndim(dv) == 0:
        # one depth for every pixel, as a sweep hypothesis, folds into the
        # matrix, q = (d m + b e_3^T) (x, y, 1); a constant is no Var, so
        # no VJP reads ``a``
        c = m * dv
        c[:, 2] += b
        a, q = None, np.einsum("ij,jhw->ihw", c, grid)
    else:
        a = np.einsum("ij,jhw->ihw", m, grid)
        q = a * dv + b[:, None, None]
    # K's bottom row is (0, 0, 1), so the projective divisor is the source-
    # camera z directly.
    z = q[2]
    front = z > 1e-12
    z_safe = np.where(front, z, 1.0)

    def coordinate(i):
        # d(q / z)/dd = (a_q - (q / z) a_z) / z where z is not clamped to 1
        p = q[i] / z_safe
        return ad.fused(p, (d,), lambda g: (
            g / z_safe * (a[i] - np.where(front, p, 0.0) * a[2]),))

    return coordinate(0), coordinate(1), front


def pair_sampling(pair: ViewPair, target_depth_values, target_depth_valid):
    """Where the pair's target pixels at the given depths sample its source.

    Returns (x, y, ok, taps): the `sampling_chain` coordinates; ``ok``,
    true where the point is in front of the source camera, inside its grid
    and at a valid target depth; and the `autodiff.bilinear_taps` of the
    coordinates at ``ok``. The depths may be one constant (a sweep
    hypothesis, with ``target_depth_valid`` True). Nothing here reads a
    source image or depth, so one result serves every warp of the pair at
    these depths: the ``sampling`` of `synth_values` and
    `warp_depth_values`.
    """
    h, w = pair.grid
    x, y, front = sampling_chain(pair, target_depth_values)
    xv, yv = value_of(x), value_of(y)
    ok = front & _in_bounds(xv, yv, w, h) & target_depth_valid
    return x, y, ok, ad.bilinear_taps(xv, yv, ok, h, w)


def synth_values(sampling, source_image, source_valid=None):
    """Inverse-warp ``source_image`` onto the target's grid at a pair's
    `pair_sampling`.

    ``source_image`` is the source view's image, or an already-synthesized
    image (possibly a Var) with its validity grid ``source_valid`` for
    second-order synthesis. Returns (image, valid).
    """
    x, y, ok, taps = sampling
    if source_valid is not None:
        ok = ok & _sample_validity(source_valid, ok, taps)
    return ad.bilinear(source_image, x, y, ok, taps), ok


def warp_depth_values(pair: ViewPair, sampling, source_depth_values,
                      source_depth_valid):
    """The source depth re-expressed in the target camera (see `warp_depth`)
    at the pair's `pair_sampling`.

    Either depth grid may be a Var. Returns (values, valid).
    """
    x, y, ok, taps = sampling
    ok = ok & _sample_validity(source_depth_valid, ok, taps)
    d_src = ad.bilinear(source_depth_values, x, y, ok, taps)
    c = pair.z_row
    dv = value_of(d_src)
    scale = c[0] * value_of(x) + c[1] * value_of(y) + c[2]
    z = scale * dv + pair.z_off
    ok = ok & (z > 0.0)

    def vjp(g):
        gz = np.where(ok, g, 0.0)
        gs = gz * dv
        return gs * c[0], gs * c[1], gz * scale

    return ad.fused(np.where(ok, z, 0.0), (x, y, d_src), vjp), ok


# -- image pyramid -------------------------------------------------------------


def halve_view(view: CameraView) -> CameraView:
    """The view on a grid of half the width and height (both must be even).

    Each pixel is the mean of a 2x2 block of the image, so the coarse pixel
    centre x_c sits at (x + 1/2) / 2 - 1/2 of the fine pixel centres x it
    averages. The intrinsics follow: K' = diag(1/2, 1/2, 1) K, with the
    principal point moved to c / 2 - 1/4, so a world point projects to
    (x + 1/2) / 2 - 1/2 of its fine projection x. The pose is unchanged.
    """
    img = view.image
    if img is None:
        raise ValueError("the view has no image to halve")
    h, w = img.shape[:2]
    if h % 2 or w % 2:
        raise ShapeMismatch(f"a {w}x{h} image has an odd side and cannot be halved")
    K = np.diag([0.5, 0.5, 1.0]) @ view.intrinsics
    K[:2, 2] -= 0.25
    coarse = (img[0::2, 0::2] + img[0::2, 1::2] + img[1::2, 0::2]
              + img[1::2, 1::2]) * 0.25
    return CameraView(K, view.rotation, view.translation, coarse)


def _upsample_taps(coarse: int):
    """Per fine index of a grid twice ``coarse`` long: the lower coarse tap
    and the weight of the upper one, at x_c = (x_f + 1/2) / 2 - 1/2 clamped
    to [0, coarse - 1]."""
    x = np.clip((np.arange(2 * coarse) + 0.5) / 2.0 - 0.5, 0.0, coarse - 1.0)
    lo = np.minimum(x.astype(np.intp), coarse - 2)
    return lo, x - lo


def upsample_depth(depth: DepthMap) -> DepthMap:
    """The depth map on a grid of twice its width and height, the inverse
    of `halve_view`'s grid: bilinear in the coarse depths at
    x_c = (x_f + 1/2) / 2 - 1/2 (and alike in y), clamped at the edges.

    A fine pixel is valid iff all four of its coarse taps are, zero weights
    included; invalid pixels hold 0. Needs a coarse grid of at least 2x2.
    """
    h, w = depth.values.shape
    if h < 2 or w < 2:
        raise ShapeMismatch(f"a {w}x{h} depth map has no 2x2 taps to upsample")
    (r0, fy), (c0, fx) = _upsample_taps(h), _upsample_taps(w)
    vals = np.where(depth.valid, depth.values, 0.0)
    rows = vals[r0] * (1.0 - fy)[:, None] + vals[r0 + 1] * fy[:, None]
    vals = rows[:, c0] * (1.0 - fx) + rows[:, c0 + 1] * fx
    ok = depth.valid[r0] & depth.valid[r0 + 1]
    ok = ok[:, c0] & ok[:, c0 + 1]
    return DepthMap(np.where(ok, vals, 0.0), ok)


# -- public warping operations ------------------------------------------------


def warp_depth(source_depth: DepthMap, target_depth: DepthMap,
               source: CameraView, target: CameraView) -> DepthMap:
    """Re-express the source view's depth map in the target camera.

    Each target pixel is backprojected via the target depth, projected into
    the source view, the source depth is bilinearly sampled there, and the
    sampled source-frame point is rigid-transformed into the target camera;
    its z-component is the output. A target pixel is valid where its depth
    is, its sample lands in front of the source camera and inside its grid,
    every bilinear corner carrying weight is a valid source depth, and the
    transformed depth is positive.
    """
    pair = pair_coefficients(target, source, *target_depth.values.shape)
    vals, ok = warp_depth_values(
        pair, pair_sampling(pair, target_depth.values, target_depth.valid),
        source_depth.values, source_depth.valid,
    )
    return DepthMap(np.where(ok, value_of(vals), 0.0), ok)


# -- point helpers (fusion and tests) -----------------------------------------


def backproject_pixels(cam: CameraView, xs, ys, depths) -> np.ndarray:
    """World-frame points for pixels (xs, ys) at the given depths; a pixel's
    ray has the bits of its `view_rays` ray."""
    rays = _rays(cam, np.asarray(xs, dtype=np.float64),
                 np.asarray(ys, dtype=np.float64))
    x_cam = rays * np.asarray(depths, dtype=np.float64)[..., None]
    return (x_cam - cam.translation) @ cam.rotation


def project_points(cam: CameraView, points_world: np.ndarray):
    """Pixel coordinates and camera depth of world points. Returns (x, y, z).

    The library projects no points itself: its warps read `ViewPair`
    records. This stays public as the inverse of `backproject_pixels`,
    the independent check that the fusion, geometry and acceptance tests
    hold fused points and warps against."""
    x_cam = points_world @ cam.rotation.T + cam.translation
    z = x_cam[..., 2]
    q = x_cam @ cam.intrinsics.T
    with np.errstate(divide="ignore", invalid="ignore"):
        x = q[..., 0] / z
        y = q[..., 1] / z
    return x, y, z
