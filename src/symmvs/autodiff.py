"""Reverse-mode automatic differentiation on numpy arrays.

A small tape with exactly the operations the loss terms need: arithmetic,
sqrt/exp/abs, full reductions, basic slicing, zero padding, 3x3 box sums,
and bilinear sampling with gradients to both the sampled image and the
sampling coordinates.

Every module-level helper falls back to plain numpy when no ``Var`` is
involved, so the photometric formulas can be written once and evaluated
either with or without gradient tracking.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "value_of",
    "sqrt",
    "exp",
    "absolute",
    "where_mask",
    "pad_zero",
    "box_sum3",
    "bilinear",
    "sum_all",
]


def _unbroadcast(grad, shape):
    """Sum a gradient down to the shape of the operand it belongs to."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """Array node of a reverse-mode graph."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    # Keep numpy from absorbing Var operands into object arrays; binary ops
    # with ndarrays then dispatch to the reflected Var operators.
    __array_ufunc__ = None

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    # -- graph ----------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` across the graph."""
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(node.grad)):
                if contrib is None:
                    continue
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            sa, sb = self.value.shape, other.value.shape
            return Var(
                self.value + other.value,
                (self, other),
                lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
            )
        c = np.asarray(other, dtype=np.float64)
        s = self.value.shape
        return Var(self.value + c, (self,), lambda g: (_unbroadcast(g, s),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            sa, sb = self.value.shape, other.value.shape
            return Var(
                self.value - other.value,
                (self, other),
                lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
            )
        c = np.asarray(other, dtype=np.float64)
        s = self.value.shape
        return Var(self.value - c, (self,), lambda g: (_unbroadcast(g, s),))

    def __rsub__(self, other):
        c = np.asarray(other, dtype=np.float64)
        s = self.value.shape
        return Var(c - self.value, (self,), lambda g: (_unbroadcast(-g, s),))

    def __mul__(self, other):
        if isinstance(other, Var):
            va, vb = self.value, other.value
            sa, sb = va.shape, vb.shape
            return Var(
                va * vb,
                (self, other),
                lambda g: (_unbroadcast(g * vb, sa), _unbroadcast(g * va, sb)),
            )
        c = np.asarray(other, dtype=np.float64)
        s = self.value.shape
        return Var(self.value * c, (self,), lambda g: (_unbroadcast(g * c, s),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            va, vb = self.value, other.value
            sa, sb = va.shape, vb.shape
            return Var(
                va / vb,
                (self, other),
                lambda g: (
                    _unbroadcast(g / vb, sa),
                    _unbroadcast(-g * va / (vb * vb), sb),
                ),
            )
        c = np.asarray(other, dtype=np.float64)
        s = self.value.shape
        return Var(self.value / c, (self,), lambda g: (_unbroadcast(g / c, s),))

    def __rtruediv__(self, other):
        c = np.asarray(other, dtype=np.float64)
        v = self.value
        s = v.shape
        return Var(c / v, (self,), lambda g: (_unbroadcast(-g * c / (v * v), s),))

    def __neg__(self):
        s = self.value.shape
        return Var(-self.value, (self,), lambda g: (_unbroadcast(-g, s),))

    # -- shape / reductions ----------------------------------------------

    def __getitem__(self, idx):
        shape = self.value.shape

        def vjp(g):
            buf = np.zeros(shape, dtype=np.float64)
            buf[idx] = g
            return (buf,)

        return Var(self.value[idx], (self,), vjp)

    def sum(self):
        shape = self.value.shape
        return Var(
            np.asarray(self.value.sum()),
            (self,),
            lambda g: (np.full(shape, float(g)),),
        )


# -- dual-dispatch helpers ------------------------------------------------


def value_of(x) -> np.ndarray:
    """The plain array behind ``x``, whether or not it is a Var."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x)


def sqrt(x):
    if isinstance(x, Var):
        out = np.sqrt(x.value)
        return Var(out, (x,), lambda g: (g * (0.5 / out),))
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Var):
        out = np.exp(x.value)
        return Var(out, (x,), lambda g: (g * out,))
    return np.exp(x)


def absolute(x):
    if isinstance(x, Var):
        s = np.sign(x.value)
        return Var(np.abs(x.value), (x,), lambda g: (g * s,))
    return np.abs(x)


def where_mask(mask, x, fill):
    """``x`` where ``mask`` else ``fill``; gradient passes only inside the mask."""
    m = np.asarray(mask, dtype=bool)
    if isinstance(x, Var):
        out = np.where(m, x.value, fill)
        return Var(out, (x,), lambda g: (np.where(m, g, 0.0),))
    return np.where(m, x, fill)


def sum_all(x):
    if isinstance(x, Var):
        return x.sum()
    return np.asarray(x).sum()


def pad_zero(x, pads):
    """Zero-pad with a full per-axis ``np.pad`` width spec."""
    if isinstance(x, Var):
        out = np.pad(x.value, pads)
        slc = tuple(slice(b, b + n) for (b, _), n in zip(pads, x.value.shape))
        return Var(out, (x,), lambda g: (g[slc],))
    return np.pad(x, pads)


def _box_sum3_raw(a):
    h, w = a.shape[:2]
    pads = ((1, 1), (1, 1)) + ((0, 0),) * (a.ndim - 2)
    p = np.pad(a, pads)
    out = np.zeros_like(a)
    for dy in range(3):
        for dx in range(3):
            out += p[dy : dy + h, dx : dx + w]
    return out


def box_sum3(x):
    """3x3 zero-padded box sum over the two leading axes.

    The operator is self-adjoint, so its backward pass is itself.
    """
    if isinstance(x, Var):
        return Var(_box_sum3_raw(x.value), (x,), lambda g: (_box_sum3_raw(g),))
    return _box_sum3_raw(np.asarray(x, dtype=np.float64))


def bilinear(image, x, y, mask):
    """Bilinearly sample ``image`` at coordinates ``(x, y)``.

    ``image`` is (H, W) or (H, W, C); ``x``/``y`` are (H, W) pixel
    coordinates (column, row). ``mask`` is a plain boolean (H, W) array;
    samples outside it are exactly 0 and propagate no gradient. Any of
    ``image``, ``x``, ``y`` may be a Var; gradients flow to the Var inputs
    (coordinate gradients use the corner-difference form, so they are
    exact away from the integer pixel lattice).
    """
    img_v = np.asarray(value_of(image), dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    h, w = img_v.shape[:2]
    xv = np.where(m, value_of(x), 0.0).astype(np.float64)
    yv = np.where(m, value_of(y), 0.0).astype(np.float64)

    x0f = np.clip(np.floor(xv), 0.0, w - 2.0)
    y0f = np.clip(np.floor(yv), 0.0, h - 2.0)
    wx = xv - x0f
    wy = yv - y0f
    x0 = x0f.astype(np.intp)
    y0 = y0f.astype(np.intp)
    x1 = x0 + 1
    y1 = y0 + 1

    w00 = (1.0 - wx) * (1.0 - wy)
    w01 = wx * (1.0 - wy)
    w10 = (1.0 - wx) * wy
    w11 = wx * wy

    c00 = img_v[y0, x0]
    c01 = img_v[y0, x1]
    c10 = img_v[y1, x0]
    c11 = img_v[y1, x1]

    has_channels = img_v.ndim == 3
    if has_channels:
        mexp = m[..., None]
        out = (
            c00 * w00[..., None]
            + c01 * w01[..., None]
            + c10 * w10[..., None]
            + c11 * w11[..., None]
        )
    else:
        mexp = m
        out = c00 * w00 + c01 * w01 + c10 * w10 + c11 * w11
    out = np.where(mexp, out, 0.0)

    parents = []
    want_img = isinstance(image, Var)
    want_x = isinstance(x, Var)
    want_y = isinstance(y, Var)
    if want_img:
        parents.append(image)
    if want_x:
        parents.append(x)
    if want_y:
        parents.append(y)
    if not parents:
        return out

    def vjp(g):
        g = np.where(mexp, g, 0.0)
        grads = []
        if want_img:
            gi = np.zeros_like(img_v)
            if has_channels:
                np.add.at(gi, (y0, x0), g * w00[..., None])
                np.add.at(gi, (y0, x1), g * w01[..., None])
                np.add.at(gi, (y1, x0), g * w10[..., None])
                np.add.at(gi, (y1, x1), g * w11[..., None])
            else:
                np.add.at(gi, (y0, x0), g * w00)
                np.add.at(gi, (y0, x1), g * w01)
                np.add.at(gi, (y1, x0), g * w10)
                np.add.at(gi, (y1, x1), g * w11)
            grads.append(gi)
        if want_x or want_y:
            if has_channels:
                dx = (c01 - c00) * (1.0 - wy)[..., None] + (c11 - c10) * wy[..., None]
                dy = (c10 - c00) * (1.0 - wx)[..., None] + (c11 - c01) * wx[..., None]
                gx = (g * dx).sum(axis=2)
                gy = (g * dy).sum(axis=2)
            else:
                gx = g * ((c01 - c00) * (1.0 - wy) + (c11 - c10) * wy)
                gy = g * ((c10 - c00) * (1.0 - wx) + (c11 - c01) * wx)
            if want_x:
                grads.append(np.where(m, gx, 0.0))
            if want_y:
                grads.append(np.where(m, gy, 0.0))
        return tuple(grads)

    return Var(out, tuple(parents), vjp)
