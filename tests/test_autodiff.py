"""Gradient correctness of the reverse-mode core, and of the `OpVar`
arithmetic the op-by-op oracles build on, checked against central finite
differences on random inputs."""

import itertools

import numpy as np
import pytest

from symmvs import autodiff as ad
from symmvs.autodiff import Var

from _oracles import (OpVar, absolute, bilinear_image_grad_add_at, box_sum3_padded,
                      lift, pad_zero, pad_zero_np, sqrt, where_mask)
from conftest import same_bytes


def fd_grad(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += h
        minus = x.copy()
        minus[idx] -= h
        grad[idx] = (fn(plus) - fn(minus)) / (2 * h)
        it.iternext()
    return grad


def check_against_fd(build, x, rtol=1e-6, atol=1e-9):
    leaf = OpVar(x)
    out = build(leaf)
    out.backward()
    numeric = fd_grad(lambda v: float(ad.value_of(build(OpVar(v)))), x)
    np.testing.assert_allclose(leaf.grad, numeric, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_arithmetic_chain(rng):
    x = rng.uniform(0.5, 2.0, (5, 6))
    c = rng.uniform(0.5, 2.0, (5, 6))
    check_against_fd(lambda v: ((v * c + 1.5) / (v + 3.0) - v * v * 0.25).sum(), x)


def test_broadcast_scalar_and_row(rng):
    x = rng.uniform(0.5, 2.0, (4, 5))
    row = rng.uniform(0.5, 1.5, (1, 5))
    check_against_fd(lambda v: ((v + row) * (2.0 - v) / 3.0).sum(), x)


def test_sqrt_abs(rng):
    x = rng.uniform(-2.0, 2.0, (4, 4)) + 0.1  # stay away from |x| = 0
    check_against_fd(lambda v: (sqrt(v * v + 1.0) + absolute(v)).sum(), x)


def test_getitem_and_pad(rng):
    x = rng.uniform(0.0, 1.0, (6, 7))

    def build(v):
        d = v[:, 1:] - v[:, :-1]
        return (pad_zero(d, ((0, 0), (0, 1))) * 2.0).sum()

    check_against_fd(build, x)


def test_where_mask_blocks_gradient(rng):
    x = rng.uniform(0.0, 1.0, (5, 5))
    mask = rng.uniform(size=(5, 5)) > 0.4
    leaf = Var(x)
    out = (where_mask(mask, leaf, 7.0) * 1.0).sum()
    out.backward()
    np.testing.assert_array_equal(leaf.grad, mask.astype(float))


def test_box_sum3_matches_explicit_window(rng):
    x = rng.uniform(0.0, 1.0, (6, 8))
    out = ad.value_of(ad.box_sum3(x))
    for y in range(6):
        for xx in range(8):
            ys = slice(max(0, y - 1), min(6, y + 2))
            xs = slice(max(0, xx - 1), min(8, xx + 2))
            assert out[y, xx] == pytest.approx(x[ys, xs].sum(), rel=1e-12)


def test_box_sum3_is_self_adjoint(rng):
    a = rng.uniform(size=(7, 5))
    b = rng.uniform(size=(7, 5))
    lhs = (ad.value_of(ad.box_sum3(a)) * b).sum()
    rhs = (a * ad.value_of(ad.box_sum3(b))).sum()
    assert lhs == pytest.approx(rhs, rel=1e-12)


# Shapes with one or two rows or columns put every pixel on a border.
EXACT_SHAPES = [(1, 1), (1, 6), (2, 2), (2, 7), (5, 1), (6, 2), (6, 8),
                (1, 1, 3), (2, 5, 3), (6, 8, 3), (6, 8, 1)]
# The refinement grids, and their 2x and 4x upsamplings.
GRID_SHAPES = [(48, 64), (96, 128), (192, 256), (48, 64, 1)]


def _wide_range(rng, shape):
    """Values over 16 decades with both signs and some exact zeros of
    either sign, so any reordering of a sum, or a sum that starts from
    -0.0, shows in the bytes."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    zero = rng.uniform(size=shape)
    x = np.where(zero < 0.05, 0.0, x)
    return np.where(zero > 0.95, -0.0, x)


@pytest.mark.parametrize("shape", EXACT_SHAPES + GRID_SHAPES)
def test_box_sum3_bit_identical_to_padded_form(rng, shape):
    # a block of -0.0 fills whole windows: their sums must read +0.0
    x = _wide_range(rng, shape)
    x[:4, :4] = -0.0
    assert same_bytes(ad.box_sum3(x), box_sum3_padded(x))
    # the backward pass of a box sum (`ssim_map`'s VJP) is the box sum of
    # the gradient
    g = _wide_range(rng, shape)
    g[-4:, -4:] = -0.0
    assert same_bytes(ad.box_sum3(g), box_sum3_padded(g))


@pytest.mark.parametrize("shape", EXACT_SHAPES)
def test_pad_zero_bit_identical_to_np_pad(rng, shape):
    x = _wide_range(rng, shape)
    pads = ((1, 0), (0, 2)) + ((0, 1),) * (len(shape) - 2)
    padded = pad_zero_np(x, pads)
    assert same_bytes(pad_zero(x, pads), padded)
    g = _wide_range(rng, padded.shape)
    leaf = Var(x)
    out = pad_zero(leaf, pads)
    assert same_bytes(out.value, padded)
    (out * g).sum().backward()
    inner = tuple(slice(b, b + n) for (b, _), n in zip(pads, shape))
    assert same_bytes(leaf.grad, g[inner])


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_accumulation_never_writes_into_returned_arrays(order):
    # x gets three contributions: its consumer's own g (``x + 0.0`` passes
    # g through), an array its VJP keeps from the forward pass, and a fresh
    # one. Whichever comes first, only a buffer backward made is written.
    x = OpVar(np.ones((2, 3)))
    kept = np.arange(6.0).reshape(2, 3)
    consumers = [lambda: x + 0.0,
                 lambda: ad.fused(x.value * 2.0, (x,), lambda g: (kept,)),
                 lambda: x * 3.0]
    made = [consumers[k]() for k in order]
    s = made[0] + made[1] + made[2]
    s.sum().backward()
    np.testing.assert_array_equal(kept, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(s.grad, np.ones((2, 3)))
    for node in made:
        np.testing.assert_array_equal(node.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, 4.0 + kept)


def test_backward_consumes_the_graph():
    # x reaches the root directly and through a; a's VJP runs only after
    # both of x's consumers have handed it their share, and every node
    # that ran its VJP lets go of it and of its parents
    x = Var(np.ones(3))
    a = ad.fused(2.0 * x.value, (x,), lambda g: (2.0 * g,))
    root = ad.fused(a.value + x.value, (a, x), lambda g: (g, g))
    root.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))
    for node in (root, a):
        assert node._vjp is None and node._parents == ()


def test_fused_without_vars_is_the_plain_value():
    value = np.arange(3.0)
    assert ad.fused(value, (np.ones(3), 2.0), None) is value


def test_fused_drops_gradients_of_plain_inputs(rng):
    a, b = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4))
    leaf = Var(b)
    out = ad.fused(a * b, (a, leaf), lambda g: (None, g * a))
    (lift(out) * 2.0).sum().backward()
    np.testing.assert_array_equal(leaf.grad, 2.0 * a)


def test_shared_subexpression_accumulates(rng):
    x = rng.uniform(0.5, 1.5, (4, 4))

    def build(v):
        s = v * 2.0
        return (s * s + s).sum()

    check_against_fd(build, x)


class TestBilinear:
    def test_plain_arrays_pass_through(self, rng):
        img = rng.uniform(size=(6, 7))
        x = rng.uniform(0.5, 5.5, (6, 7))
        y = rng.uniform(0.5, 4.5, (6, 7))
        out = ad.bilinear(img, x, y, np.ones((6, 7), bool))
        assert isinstance(out, np.ndarray)

    def test_gradient_wrt_coords(self, rng):
        img = rng.uniform(size=(8, 9))
        xv = rng.uniform(1.3, 7.2, (4, 5))
        yv = rng.uniform(1.3, 6.2, (4, 5))
        mask = np.ones((4, 5), bool)
        w = rng.uniform(size=(4, 5))

        leaf = Var(xv)
        out = (lift(ad.bilinear(img, leaf, yv, mask)) * w).sum()
        out.backward()
        numeric = fd_grad(
            lambda v: float((ad.bilinear(img, v, yv, mask) * w).sum()), xv
        )
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_wrt_image(self, rng):
        img = rng.uniform(size=(6, 6))
        xv = rng.uniform(0.8, 4.7, (5, 5))
        yv = rng.uniform(0.8, 4.7, (5, 5))
        mask = np.ones((5, 5), bool)
        w = rng.uniform(size=(5, 5))

        leaf = Var(img)
        out = (lift(ad.bilinear(leaf, xv, yv, mask)) * w).sum()
        out.backward()
        numeric = fd_grad(
            lambda v: float((ad.bilinear(v, xv, yv, mask) * w).sum()), img
        )
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-9)

    def test_channels_and_mask(self, rng):
        img = rng.uniform(size=(6, 7, 3))
        xv = rng.uniform(0.5, 5.5, (6, 7))
        yv = rng.uniform(0.5, 4.5, (6, 7))
        mask = rng.uniform(size=(6, 7)) > 0.3
        out = ad.bilinear(img, xv, yv, mask)
        assert out.shape == (6, 7, 3)
        assert (out[~mask] == 0.0).all()

    @pytest.mark.parametrize("shape", [(6, 7), (6, 7, 3)])
    def test_image_gradient_matches_sequential_scatter(self, rng, shape):
        # coordinates crowd into a few cells and past the border, so many
        # samples share corners; the bincount scatter must add them in the
        # same order as one np.add.at per corner, bit for bit
        img = rng.uniform(size=shape)
        xv = rng.uniform(2.2, 3.8, (9, 10))
        yv = rng.uniform(1.1, 2.9, (9, 10))
        xv[0, :] = 8.5
        yv[:, 0] = -0.7
        mask = rng.uniform(size=(9, 10)) > 0.2
        g = rng.normal(size=(9, 10) + shape[2:])

        leaf = Var(img)
        (lift(ad.bilinear(leaf, xv, yv, mask)) * g).sum().backward()
        expected = bilinear_image_grad_add_at(shape, xv, yv, mask, g)
        np.testing.assert_array_equal(leaf.grad, expected)

