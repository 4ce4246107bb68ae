"""Every loss formula that is one tape node against its op-by-op
composition (`_oracles`): the same forward bits, with Vars on any side and
without, and gradients that agree to 1e-14 of their largest entry."""

import numpy as np
import pytest

from symmvs import autodiff as ad
from symmvs import geometry
from symmvs.autodiff import Var, value_of
from symmvs.consistency import _depth_consistency
from symmvs.geometry import CameraView
from symmvs.photometry import (
    LossWeights,
    _forward_diff,
    box_norm,
    charbonnier,
    edge_weights,
    reference_stats,
    smoothness_term,
    ssim_map,
    unary_comparator,
)

from _oracles import (
    charbonnier_chain,
    depth_consistency_chain,
    grad_x_chain,
    grad_y_chain,
    lift,
    sampling_chain_ops,
    smoothness_chain,
    ssim_map_chain,
    unary_comparator_chain,
    warped_z_chain,
)
from conftest import make_camera, same_bytes

REL = 1e-14
# Which inputs of a two-input formula are Vars: as in the Lu and Lm terms
# (the synthesized side), in Lb (both sides), and the reference side alone.
SIDES = [(False, True), (True, False), (True, True)]


def run(fn, arrays, as_var, weight=None):
    """Value of ``fn`` on ``arrays`` (those flagged in ``as_var`` as Var
    leaves) and, if any is a Var, the gradients of its weighted sum."""
    leaves = [Var(a) if v else a for a, v in zip(arrays, as_var)]
    out = fn(*leaves)
    if isinstance(out, tuple):
        out, rest = out[0], out[1:]
    else:
        rest = ()
    value = np.array(value_of(out))
    if any(as_var):
        loss = out if weight is None else (lift(out) * weight).sum()
        loss.backward()
    return value, rest, [leaf.grad for leaf in leaves if isinstance(leaf, Var)]


def assert_same_node(fused, chain, arrays, as_var, weight=None):
    v_f, rest_f, g_f = run(fused, arrays, as_var, weight)
    v_c, rest_c, g_c = run(chain, arrays, as_var, weight)
    assert same_bytes(v_f, v_c)
    for a, b in zip(rest_f, rest_c):
        assert same_bytes(a, b)
    for a, b in zip(g_f, g_c):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= REL * np.abs(b).max()


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def smooth_image(rng, shape):
    """A textured image in [0, 1]: a random field blurred by two box sums,
    so neighbouring pixels correlate as in a rendered view."""
    x = rng.uniform(size=shape)
    for _ in range(2):
        x = ad.box_sum3(x) / 9.0
    return (x - x.min()) / (x.max() - x.min())


def test_charbonnier(rng):
    # a plain kernel: the formulas that differentiate it carry its slope
    x = rng.normal(size=(12, 15, 3)) * 1e-2
    x[0, 0, 0] = 0.0
    assert_same_node(charbonnier, charbonnier_chain, [x], (False,))


# The difference along columns (axis 1) is the x gradient, along rows
# (axis 0) the y gradient; the ids name the two directions.
AXES = [pytest.param(1, grad_x_chain, id="_grad_x-grad_x_chain"),
        pytest.param(0, grad_y_chain, id="_grad_y-grad_y_chain")]


@pytest.mark.parametrize("shape", [(12, 15, 1), (12, 15, 3), (1, 4, 3), (5, 1, 1)])
@pytest.mark.parametrize("axis, chain", AXES)
def test_forward_differences(rng, shape, axis, chain):
    x = rng.uniform(size=shape)
    w = rng.normal(size=shape)
    for as_var in ((False,), (True,)):
        assert_same_node(lambda v: _forward_diff(v, axis), chain, [x], as_var, w)


@pytest.mark.parametrize("axis, chain", AXES)
def test_forward_differences_of_plain_gray_image(rng, axis, chain):
    # the 2-D input that volume.extract_features passes
    gray = rng.uniform(size=(9, 13))
    out = _forward_diff(gray, axis)
    assert isinstance(out, np.ndarray)
    assert same_bytes(out, chain(gray))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("as_var", SIDES)
def test_ssim_map(rng, channels, as_var):
    shape = (14, 17, channels)
    a, b = smooth_image(rng, shape), smooth_image(rng, shape)
    norm = box_norm(*shape[:2])
    w = rng.normal(size=shape[:2])

    def fused(x, y):
        return ssim_map(reference_stats(x), reference_stats(y))

    assert_same_node(fused, lambda x, y: ssim_map_chain(x, y, norm), [a, b],
                     as_var, w)
    assert same_bytes(fused(a, b), ssim_map_chain(a, b, norm))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("as_var", SIDES)
def test_unary_comparator(rng, channels, as_var):
    shape = (14, 17, channels)
    a = smooth_image(rng, shape)
    b = np.clip(a + 0.05 * rng.normal(size=shape), 0.0, 1.0)
    norm = box_norm(*shape[:2])
    mask = rng.uniform(size=shape[:2]) > 0.3
    weights = LossWeights()

    def fused(x, y):
        return unary_comparator(reference_stats(x), reference_stats(y), mask, weights)

    def chain(x, y):
        return unary_comparator_chain(x, y, mask, weights, norm)

    assert_same_node(fused, chain, [a, b], as_var)
    assert same_bytes(fused(a, b), chain(a, b))


def rotated_pair(rng, h=24, w=32):
    """A pair whose source camera is turned about two axes, so that every
    coefficient of the chain and of the depth warp is non-zero, with target
    depths around 2.5."""
    K = make_camera(0.0, f=30.0, width=w, height=h).intrinsics
    cy, sy, cx, sx = np.cos(0.1), np.sin(0.1), np.cos(0.05), np.sin(0.05)
    rot = (np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
           @ np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]))
    target = CameraView(K, np.eye(3), np.zeros(3))
    source = CameraView(K, rot, -rot @ np.array([0.4, 0.1, 0.05]))
    pair = geometry.pair_coefficients(target, source, h, w)
    assert np.abs(pair.z_row[:2]).min() > 1e-3
    return pair, 2.5 + rng.normal(0.0, 0.05, (h, w)), (h, w)


def test_sampling_chain(rng):
    pair, depth, (h, w) = rotated_pair(rng)
    # a band behind the source camera, where the divisor is clamped to 1
    depth[:, :5] = -depth[:, :5]
    ws = [rng.normal(size=(h, w)) for _ in range(2)]

    def weighted(chain):
        def fn(d):
            x, y, front = chain(pair, d)
            assert not front.all()
            return (lift(x) * ws[0] + lift(y) * ws[1], value_of(x), value_of(y),
                    front)
        return fn

    for as_var in ((False,), (True,)):
        assert_same_node(weighted(geometry.sampling_chain),
                         weighted(sampling_chain_ops), [depth], as_var,
                         np.ones((h, w)))


def test_warped_depth(rng):
    # both depth grids as Vars: the sampling chain, the bilinear sample of
    # the source depth and the z formula
    pair, depth, (h, w) = rotated_pair(rng)
    source = 2.4 + rng.normal(0.0, 0.05, (h, w))
    # rows that warp to a negative depth, which the warp flags invalid
    source[:4] = -source[:4]
    valid = rng.uniform(size=(h, w)) > 0.05
    source_valid = rng.uniform(size=(h, w)) > 0.05
    weight = rng.normal(size=(h, w))

    def fused(t, s):
        sampling = geometry.pair_sampling(pair, t, valid)
        return geometry.warp_depth_values(pair, sampling, s, source_valid)

    def chain(t, s):
        x, y, front = sampling_chain_ops(pair, t)
        xv, yv = value_of(x), value_of(y)
        ok = front & geometry._in_bounds(xv, yv, w, h) & valid
        taps = ad.bilinear_taps(xv, yv, ok, h, w)
        ok = ok & geometry._sample_validity(source_valid, ok, taps)
        vals, ok_z = warped_z_chain(pair, x, y, ad.bilinear(s, x, y, ok, taps), ok)
        assert (ok & ~ok_z).sum() > 10
        return vals, ok_z

    for as_var in ((False, False), (True, False), (False, True), (True, True)):
        assert_same_node(fused, chain, [depth, source], as_var, weight)


@pytest.mark.parametrize("as_var", SIDES)
def test_depth_consistency(rng, as_var):
    leaf = rng.uniform(2.0, 3.0, (12, 15))
    warped = leaf + rng.normal(0.0, 0.02, leaf.shape)
    mask = rng.uniform(size=leaf.shape) > 0.2
    assert_same_node(lambda a, b: _depth_consistency(a, b, mask),
                     lambda a, b: depth_consistency_chain(a, b, mask),
                     [leaf, warped], as_var)


@pytest.mark.parametrize("shape", [(12, 15), (2, 5), (1, 4)])
def test_smoothness_term(rng, shape):
    depth = rng.uniform(2.0, 3.0, shape)
    valid = rng.uniform(size=shape) > 0.1
    edges = edge_weights(smooth_image(rng, shape + (3,)), 0.5, 0.5)
    fused = lambda d: smoothness_term(d, valid, edges)  # noqa: E731
    chain = lambda d: smoothness_chain(d, valid, edges)  # noqa: E731
    assert same_bytes(fused(depth), chain(depth))
    if edges[0] is not None:
        assert_same_node(fused, chain, [depth], (True,))
