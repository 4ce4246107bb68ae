import numpy as np
import pytest

from symmvs import (
    CameraView,
    DepthHypotheses,
    DepthMap,
    LossWeights,
    PlanePrimitive,
    SceneSpec,
    compute_all_masks,
    pair_records,
    render_scene,
)
from symmvs.consistency import SceneState


def records(views, rows=None):
    """Every ordered pair's `geometry.ViewPair` record of ``views`` on their
    image grid, or its row view over ``rows`` = (top, bottom)."""
    pairs = pair_records(views, views[0].image.shape[:2])
    return pairs if rows is None else {k: p.band(*rows) for k, p in pairs.items()}


def make_camera(center_x, f=55.0, width=64, height=48, center=None):
    K = np.array(
        [[f, 0.0, (width - 1) / 2.0], [0.0, f, (height - 1) / 2.0], [0.0, 0.0, 1.0]]
    )
    c = np.array([center_x, 0.0, 0.0]) if center is None else np.asarray(center, float)
    return CameraView(K, np.eye(3), -c, None)


@pytest.fixture(scope="session")
def plane_scene():
    """Three-camera rig viewing one textured fronto-parallel plane whose
    depth sits exactly on a hypothesis sample."""
    hyp = DepthHypotheses(1.8, 1.8 + 63 * 0.05, 64)
    z0 = float(hyp.samples[24])
    spec = SceneSpec(
        primitives=[
            PlanePrimitive(normal=[0, 0, 1], offset=z0, texture_id=0, texture_scale=1.3)
        ],
        cameras=[make_camera(-0.55), make_camera(0.0), make_camera(0.55)],
        width=64,
        height=48,
        channels=1,
        seed=7,
    )
    views, gt_depths, visibility = render_scene(spec)
    return {
        "spec": spec,
        "views": views,
        "gt": gt_depths,
        "visibility": visibility,
        "hyp": hyp,
        "z0": z0,
        "weights": LossWeights(tau_occ=1.0),
    }


@pytest.fixture(scope="session")
def occluder_scene():
    """Background plane plus a nearer half-covering patch, wide baselines:
    view 2's content is heavily occluded in view 0."""
    # the patch covers world x <= -0.6 (its in-plane u axis is -x)
    patch = PlanePrimitive(
        normal=[0, 0, 1], offset=1.7, texture_id=1, texture_scale=1.6,
        bounds=(0.6, 50.0, -50.0, 50.0),
    )
    background = PlanePrimitive(normal=[0, 0, 1], offset=3.6, texture_id=0,
                                texture_scale=1.2)
    spec = SceneSpec(
        primitives=[patch, background],
        cameras=[
            make_camera(-1.1, f=110.0, width=128, height=96),
            make_camera(0.0, f=110.0, width=128, height=96),
            make_camera(1.1, f=110.0, width=128, height=96),
        ],
        width=128,
        height=96,
        channels=1,
        seed=3,
    )
    views, gt_depths, visibility = render_scene(spec)
    return {
        "spec": spec,
        "views": views,
        "gt": gt_depths,
        "visibility": visibility,
        "d_occ": 1.7,
        "d_bg": 3.6,
    }


@pytest.fixture(scope="session")
def occluder4_scene():
    """Four cameras in a row at 64x48 over a near patch and a background
    plane: every view pair sees occlusion, and there are 12 view triples."""
    patch = PlanePrimitive(
        normal=[0, 0, 1], offset=1.7, texture_id=1, texture_scale=1.6,
        bounds=(0.6, 50.0, -50.0, 50.0),
    )
    background = PlanePrimitive(normal=[0, 0, 1], offset=3.6, texture_id=0,
                                texture_scale=1.2)
    spec = SceneSpec(
        primitives=[patch, background],
        cameras=[make_camera(x) for x in np.linspace(-1.1, 1.1, 4)],
        width=64,
        height=48,
        channels=1,
        seed=7,
    )
    views, gt_depths, visibility = render_scene(spec)
    return {
        "spec": spec,
        "views": views,
        "gt": gt_depths,
        "visibility": visibility,
        "hyp": DepthHypotheses(1.2, 4.95, 64),
        "weights": LossWeights(tau_occ=1.0),
    }


def same_bytes(a, b):
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, this tells
    -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scene_state(views, depths, weights):
    masks = compute_all_masks(views, depths, weights)
    return SceneState(views, depths, masks, weights)


def noisy_depths(gt_depths, sigma, hyp, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for d in gt_depths:
        vals = np.clip(
            d.values + rng.normal(0.0, sigma, d.values.shape), hyp.d_min, hyp.d_max
        )
        out.append(DepthMap(np.where(d.valid, vals, 0.0), d.valid.copy()))
    return out


def median_abs_error(depths, gt_depths):
    errs = []
    for d, g in zip(depths, gt_depths):
        both = d.valid & g.valid
        errs.append(np.abs(d.values - g.values)[both])
    return float(np.median(np.concatenate(errs)))
