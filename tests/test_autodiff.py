"""Gradient correctness of the reverse-mode core, checked against central
finite differences on random inputs."""

import numpy as np
import pytest

from symmvs import autodiff as ad
from symmvs.autodiff import Var


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
    leaf = Var(x)
    out = build(leaf)
    out.backward()
    numeric = fd_grad(lambda v: float(ad.value_of(build(Var(v)))), x)
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


def test_sqrt_exp_abs(rng):
    x = rng.uniform(-2.0, 2.0, (4, 4)) + 0.1  # stay away from |x| = 0
    check_against_fd(
        lambda v: (ad.sqrt(v * v + 1.0) + ad.exp(v * 0.3) + ad.absolute(v)).sum(), x
    )


def test_getitem_and_pad(rng):
    x = rng.uniform(0.0, 1.0, (6, 7))

    def build(v):
        d = v[:, 1:] - v[:, :-1]
        return (ad.pad_zero(d, ((0, 0), (0, 1))) * 2.0).sum()

    check_against_fd(build, x)


def test_where_mask_blocks_gradient(rng):
    x = rng.uniform(0.0, 1.0, (5, 5))
    mask = rng.uniform(size=(5, 5)) > 0.4
    leaf = Var(x)
    out = (ad.where_mask(mask, leaf, 7.0) * 1.0).sum()
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


def test_box_sum3_gradient(rng):
    x = rng.uniform(size=(5, 6))
    w = rng.uniform(size=(5, 6))
    check_against_fd(lambda v: (ad.box_sum3(v * v) * w).sum(), x)


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
        out = (ad.bilinear(img, leaf, yv, mask) * w).sum()
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
        out = (ad.bilinear(leaf, xv, yv, mask) * w).sum()
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
