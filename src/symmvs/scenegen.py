"""Deterministic synthetic scenes with analytic ground truth.

Scenes are textured planes (optionally bounded rectangles) ray-cast from
pinhole cameras, so depth, visibility, and every geometric quantity has a
closed form. Textures are seeded multi-octave value noise, band-limited so
bilinear resampling error stays small. The same seed always reproduces the
same images bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraView, DepthMap, view_rays

__all__ = ["PlanePrimitive", "SceneSpec", "render_scene", "plane_axes"]

_RAY_EPS = 1e-9


@dataclass
class PlanePrimitive:
    """A textured plane ``normal . X = offset`` in world coordinates.

    ``bounds`` restricts the plane to a rectangle (u_min, u_max, v_min,
    v_max) in its deterministic in-plane frame (see `plane_axes`); None
    means unbounded. Earlier primitives win exact intersection ties.
    """

    normal: np.ndarray
    offset: float
    texture_id: int = 0
    texture_scale: float = 1.0
    bounds: tuple | None = None

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError("plane normal must be non-zero")
        self.normal = n / norm
        self.offset = float(self.offset)
        if self.bounds is not None:
            self.bounds = tuple(float(b) for b in self.bounds)
            if len(self.bounds) != 4:
                raise ValueError("bounds must be (u_min, u_max, v_min, v_max)")


@dataclass
class SceneSpec:
    """Scene description: primitives in precedence order plus cameras.

    Camera images are filled in by `render_scene`; the seed fixes every
    texture exactly.
    """

    primitives: list
    cameras: list
    width: int
    height: int
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.primitives) < 1:
            raise ValueError("a scene needs at least one primitive")
        self._check(self.width, self.height, self.channels)

    @staticmethod
    def _check(width=1, height=1, channels=1):
        """Raise ValueError unless ``channels`` is 1 or 3 and ``width`` and
        ``height`` are at least 1; the scene-config reader checks each
        line by it."""
        if channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if not (width >= 1 and height >= 1):
            raise ValueError("width and height must be at least 1")


def plane_axes(normal: np.ndarray):
    """Deterministic orthonormal in-plane axes for a unit normal."""
    n = np.asarray(normal, dtype=np.float64)
    helper = np.array([0.0, 1.0, 0.0])
    if abs(n @ helper) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    u = np.cross(n, helper)
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


# -- seeded value noise -------------------------------------------------------


def _hash_unit(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Lattice hash to [0, 1); integer mixing, platform independent."""
    seed_mix = np.uint64((int(seed) * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
    h = (
        ix.astype(np.int64).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + iy.astype(np.int64).astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        + seed_mix
    )
    h ^= h >> np.uint64(32)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return h.astype(np.float64) / float(2 ** 64)


def _smooth01(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _value_noise(u: np.ndarray, v: np.ndarray, seed: int) -> np.ndarray:
    iu = np.floor(u)
    iv = np.floor(v)
    fu = _smooth01(u - iu)
    fv = _smooth01(v - iv)
    c00 = _hash_unit(iu, iv, seed)
    c10 = _hash_unit(iu + 1, iv, seed)
    c01 = _hash_unit(iu, iv + 1, seed)
    c11 = _hash_unit(iu + 1, iv + 1, seed)
    top = c00 + (c10 - c00) * fu
    bot = c01 + (c11 - c01) * fu
    return top + (bot - top) * fv


_OCTAVE_AMPS = (0.72, 0.28)


def texture_value(u: np.ndarray, v: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """Band-limited procedural texture in [0.06, 0.94]."""
    acc = np.zeros_like(np.asarray(u, dtype=np.float64))
    for octave, amp in enumerate(_OCTAVE_AMPS):
        f = scale * (2.0 ** octave)
        # decorrelate octaves with a fixed lattice shift
        shift = 13.7 * (octave + 1)
        acc = acc + amp * _value_noise(u * f + shift, v * f - shift,
                                       seed + 101 * octave)
    return 0.06 + 0.88 * acc


# -- rendering ----------------------------------------------------------------


def _camera_rays_world(cam: CameraView, height: int, width: int):
    rays_world = view_rays(cam, height, width) @ cam.rotation
    origin = -cam.rotation.T @ cam.translation
    return rays_world, origin


def _plane_hit(prim: PlanePrimitive, origin: np.ndarray, dirs: np.ndarray):
    """Ray parameters and hit mask for one primitive; t is camera depth when
    dirs has unit camera-frame z."""
    denom = dirs @ prim.normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (prim.offset - origin @ prim.normal) / denom
    hit = np.isfinite(t) & (t > _RAY_EPS)
    if prim.bounds is not None:
        u_axis, v_axis = plane_axes(prim.normal)
        p0 = prim.normal * prim.offset
        pts = origin + t[..., None] * dirs
        rel = pts - p0
        uu = rel @ u_axis
        vv = rel @ v_axis
        u_min, u_max, v_min, v_max = prim.bounds
        hit &= (uu >= u_min) & (uu <= u_max) & (vv >= v_min) & (vv <= v_max)
    return t, hit


def _shade(spec: SceneSpec, prim_idx: int, points: np.ndarray) -> np.ndarray:
    prim = spec.primitives[prim_idx]
    u_axis, v_axis = plane_axes(prim.normal)
    p0 = prim.normal * prim.offset
    rel = points - p0
    uu = rel @ u_axis
    vv = rel @ v_axis
    base_seed = spec.seed * 1009 + prim.texture_id * 7919
    if spec.channels == 1:
        return texture_value(uu, vv, prim.texture_scale, base_seed)[..., None]
    chans = [
        texture_value(uu, vv, prim.texture_scale, base_seed + 31 * c)
        for c in range(3)
    ]
    return np.stack(chans, axis=-1)


def render_scene(spec: SceneSpec):
    """Ray-cast the scene for every camera.

    Returns (views, gt_depths, visibility): cameras with images filled in,
    analytic depth maps, and for every ordered pair (i, j) a boolean grid
    that is True where the point seen by view i is also the nearest surface
    along view j's ray to it. Raises ValueError if a camera sees primitives
    over less than half of its pixels.
    """
    h, w = spec.height, spec.width
    views = []
    depths = []
    hit_points = []
    hit_index = []

    for cam in spec.cameras:
        dirs, origin = _camera_rays_world(cam, h, w)
        best_t = np.full((h, w), np.inf)
        best_idx = np.full((h, w), -1, dtype=np.int64)
        for idx, prim in enumerate(spec.primitives):
            t, hit = _plane_hit(prim, origin, dirs)
            closer = hit & (t < best_t)
            best_t[closer] = t[closer]
            best_idx[closer] = idx
        covered = best_idx >= 0
        if covered.mean() < 0.5:
            raise ValueError("camera sees primitives on fewer than half its pixels")

        image = np.zeros((h, w, spec.channels))
        pts = origin + np.where(covered, best_t, 0.0)[..., None] * dirs
        for idx in range(len(spec.primitives)):
            sel = best_idx == idx
            if not sel.any():
                continue
            image[sel] = _shade(spec, idx, pts[sel])

        views.append(CameraView(cam.intrinsics, cam.rotation, cam.translation, image))
        depths.append(DepthMap(np.where(covered, best_t, 0.0), covered))
        hit_points.append(pts)
        hit_index.append(best_idx)

    visibility = {}
    n = len(spec.cameras)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            visibility[(i, j)] = _visible_from(spec, views[j], hit_points[i],
                                               hit_index[i])
    return views, depths, visibility


def _visible_from(spec: SceneSpec, cam: CameraView, points: np.ndarray,
                  hit_idx: np.ndarray) -> np.ndarray:
    """True where each point is the nearest surface along cam's ray to it."""
    origin = -cam.rotation.T @ cam.translation
    dirs = points - origin
    z_cam = (points @ cam.rotation.T + cam.translation)[..., 2]
    visible = (hit_idx >= 0) & (z_cam > _RAY_EPS)
    for prim in spec.primitives:
        t, hit = _plane_hit(prim, origin, dirs)
        # the surface containing the point itself sits at t = 1 on this ray
        blocking = hit & (t < 1.0 - 1e-9)
        visible &= ~blocking
    return visible
