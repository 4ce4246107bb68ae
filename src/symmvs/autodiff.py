"""Reverse-mode automatic differentiation on numpy arrays.

A tape of two kinds of node: leaves, the depth maps a gradient is taken
with respect to, and `fused` nodes, each a whole formula recorded as one
node. Its forward pass is the plain numpy expression, the same code and
order as without a `Var`, so a loss value has the same bits with and
without gradients; its VJP is derived by hand. `bilinear`, bilinear
sampling with gradients to both the sampled image and the sampling
coordinates, is a `fused` node too. A `Var` has no arithmetic: a formula
combines plain arrays and wraps the result in `fused`.

`Var.backward` consumes a graph in one walk, newest node first: a node is
created after its parents, so all its consumers have run when its VJP
runs, and once that VJP has run the node drops it and its parents, with
what they kept. A graph is therefore differentiated once. A node's second
gradient contribution goes into a fresh buffer that the node then owns,
and later ones into it in place; the first is never written, as a VJP may
return its ``g`` or an array it keeps. A leaf keeps its ``.grad`` from one
pass to the next and adds to it.

`backprop` runs one such pass from several outputs at once, each seeded
with an adjoint the caller already knows. The loss is a fixed weighted sum
of its terms, so `consistency._evaluate` pushes each group of terms back
with their weights as soon as the group exists, and no tape outlives it
(see `consistency`).

The small-grid kernels under every loss evaluation keep the arithmetic of
their plain forms, bit for bit, with less memory traffic and fewer calls:

- `box_sum3`, the 3x3 box sum, a plain kernel and no tape node (its
  callers, `ssim_map`'s VJP among them, hand it plain arrays), writes the
  input once into a zero-bordered flat buffer and adds the nine windows
  as contiguous 1-D slices of it, in the order of the zero-padded form,
  onto a sum that starts at +0.0.
- `bilinear_taps` floors and clips in place and forms each complementary
  weight once; `bilinear` reads the corners with ``np.take`` and takes
  precomputed taps from a caller that already needed them.

`fused` and `bilinear` return plain numpy when no ``Var`` is involved, so
the formulas are written once for both paths.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

__all__ = [
    "Var",
    "value_of",
    "fused",
    "backprop",
    "box_sum3",
    "bilinear_taps",
    "bilinear",
]

# Creation order of every Var; `Var.backward` walks a graph in reverse. Only
# the order within one graph is read, so one process-wide count serves all.
_created = itertools.count()


class Var:
    """Node of a reverse-mode graph: a leaf, or a `fused` formula."""

    __slots__ = ("value", "grad", "_parents", "_vjp", "_seq")

    # Keep numpy from absorbing a Var into an object array: arithmetic
    # with a Var operand raises TypeError instead.
    __array_ufunc__ = None

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self._seq = next(_created)

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad``, consuming the graph."""
        self.grad = np.ones_like(self.value)
        heap = [(-self._seq, self)]
        owned = set()
        while heap:
            _, node = heapq.heappop(heap)
            if node._vjp is not None:
                for parent, contrib in zip(node._parents, node._vjp(node.grad)):
                    if parent.grad is None:
                        parent.grad = contrib
                        heapq.heappush(heap, (-parent._seq, parent))
                    elif id(parent) in owned:
                        parent.grad += contrib
                    else:
                        parent.grad = parent.grad + contrib
                        owned.add(id(parent))
            node._parents = ()
            node._vjp = None


# -- dual-dispatch helpers ------------------------------------------------


def value_of(x) -> np.ndarray:
    """The plain array behind ``x``, whether or not it is a Var."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x)


def fused(value, inputs, vjp):
    """``value``, computed from ``inputs`` on plain arrays, as one tape node.

    Returns ``value`` itself when no input is a Var, so a formula written
    once serves both paths. Otherwise the node's parents are the Var
    inputs, and ``vjp(g)`` returns one gradient per input, in order, each
    shaped like its input; the entries of plain inputs are dropped, so the
    VJP may skip them (for example, return None).
    """
    want = [isinstance(x, Var) for x in inputs]
    if not any(want):
        return value
    return Var(value, tuple(x for x, w in zip(inputs, want) if w),
               lambda g: tuple(gr for gr, w in zip(vjp(g), want) if w))


def backprop(outputs, seeds):
    """Add ``seeds[k]`` times the derivative of ``outputs[k]``, summed over
    k, into the ``.grad`` of every leaf the outputs depend on.

    Each seed is shaped like its output, a float for a scalar. A plain
    output (a term skipped for an empty mask, or any value of a path
    without a Var) is dropped, and with no Var output nothing runs. One
    `Var.backward` pass, from a root whose VJP hands each output its seed,
    consumes the outputs' graphs.
    """
    root = fused(0.0, outputs, lambda g: seeds)
    if isinstance(root, Var):
        root.backward()


def box_sum3(a):
    """3x3 zero-padded box sum of a plain array over its two leading axes.

    The operator is self-adjoint, so it is also its own VJP.
    """
    # One buffer holds the zero-bordered input, rows of W + 2 cells of C
    # values flattened, followed by the sum in the same row layout. Window
    # (dy, dx) of an output cell sits (dy * (W + 2) + dx) * C values after it
    # in the padded part, so each window is one contiguous 1-D slice; the
    # two border columns of every output row collect junk and are cut off
    # by the returned view. The nine windows are added in the order of the
    # zero-padded form (row offsets, then column offsets, each -1, 0, 1)
    # onto a sum that starts at +0.0, so every sum is bit-identical to it.
    a = np.asarray(a, dtype=np.float64)
    h, w = a.shape[:2]
    rest = a.shape[2:]
    c = math.prod(rest)
    row = (w + 2) * c
    n_pad = (h + 2) * row
    # up to the last in-image cell of the last row
    span = max(h * row - 2 * c, 0)
    buf = np.zeros(n_pad + h * row)
    buf[:n_pad].reshape((h + 2, w + 2) + rest)[1:-1, 1:-1] = a
    acc = buf[n_pad : n_pad + span]
    for dy in range(3):
        for dx in range(3):
            start = (dy * (w + 2) + dx) * c
            acc += buf[start : start + span]
    return buf[n_pad:].reshape((h, w + 2) + rest)[:, :w]


def bilinear_taps(x, y, mask, height: int, width: int):
    """Flat corner indices and weights of bilinear sampling on a grid.

    ``x``/``y`` are plain (H, W) coordinates (column, row) into a
    (height, width) grid; outside ``mask`` they are read as 0. The top-left
    corner is clipped so all four corners lie on the grid. Returns
    ``(idx, wts, wx, wy)``: ``idx`` and ``wts`` hold the row-major flat
    index and the weight of the corners (y0, x0), (y0, x1), (y1, x0),
    (y1, x1), in that order; ``wx``/``wy`` are the fractional offsets.
    """
    m = np.asarray(mask, dtype=bool)
    # fresh arrays, which become the fractional offsets in place
    wx = np.asarray(np.where(m, x, 0.0), dtype=np.float64)
    wy = np.asarray(np.where(m, y, 0.0), dtype=np.float64)

    # np.clip's order (lower bound, then upper), in place on the floors
    x0f = np.floor(wx)
    np.minimum(np.maximum(x0f, 0.0, out=x0f), width - 2.0, out=x0f)
    y0f = np.floor(wy)
    np.minimum(np.maximum(y0f, 0.0, out=y0f), height - 2.0, out=y0f)
    wx -= x0f
    wy -= y0f
    i00 = y0f.astype(np.intp)
    i00 *= width
    i00 += x0f.astype(np.intp)
    i10 = i00 + width
    idx = (i00, i00 + 1, i10, i10 + 1)
    ux = 1.0 - wx
    uy = 1.0 - wy
    wts = (ux * uy, wx * uy, ux * wy, wx * wy)
    return idx, wts, wx, wy


def bilinear(image, x, y, mask, taps=None):
    """Bilinearly sample ``image`` at coordinates ``(x, y)``.

    ``image`` is (H, W) or (H, W, C); ``x``/``y`` are (H, W) pixel
    coordinates (column, row). ``mask`` is a plain boolean (H, W) array;
    samples outside it are exactly 0 and propagate no gradient. Any of
    ``image``, ``x``, ``y`` may be a Var; gradients flow to the Var inputs
    (coordinate gradients use the corner-difference form, so they are
    exact away from the integer pixel lattice).

    ``taps`` are the `bilinear_taps` of these coordinates if the caller
    already holds them, computed at ``mask`` or at any mask that contains
    it; they are computed here at ``mask`` when not given. Both give the
    same bits: a pixel outside ``mask`` is 0 in the output, and its
    gradient factor is 0, so its corners only add zeros to the image
    gradient, whatever they are.
    """
    img_v = np.asarray(value_of(image), dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    h, w = img_v.shape[:2]
    if taps is None:
        taps = bilinear_taps(value_of(x), value_of(y), m, h, w)
    idx, wts, wx, wy = taps

    flat = img_v.reshape((h * w,) + img_v.shape[2:])
    c00, c01, c10, c11 = (np.take(flat, i, axis=0) for i in idx)

    has_channels = img_v.ndim == 3
    if has_channels:
        mexp = m[..., None]
        wts = tuple(wt[..., None] for wt in wts)
    else:
        mexp = m
    w00, w01, w10, w11 = wts
    out = c00 * w00 + c01 * w01 + c10 * w10 + c11 * w11
    out = np.where(mexp, out, 0.0)

    want_img = isinstance(image, Var)
    want_x = isinstance(x, Var)
    want_y = isinstance(y, Var)
    if want_x or want_y:
        # d(out)/dx and d(out)/dy, in place of the corners they read
        if has_channels:
            fx = (c01 - c00) * (1.0 - wy)[..., None] + (c11 - c10) * wy[..., None]
            fy = (c10 - c00) * (1.0 - wx)[..., None] + (c11 - c01) * wx[..., None]
        else:
            fx = (c01 - c00) * (1.0 - wy) + (c11 - c10) * wy
            fy = (c10 - c00) * (1.0 - wx) + (c11 - c01) * wx

    def vjp(g):
        g = np.where(mexp, g, 0.0)
        gi = gx = gy = None
        if want_img:
            # One scatter over all four corners, concatenated in corner
            # order: each cell accumulates its contributions in the same
            # sequence as one sequential scatter per corner would.
            n_ch = img_v.size // (h * w)
            cells = np.concatenate(idx).ravel()
            if n_ch > 1:
                cells = (cells[:, None] * n_ch + np.arange(n_ch)).ravel()
            contrib = np.concatenate([g * wt for wt in wts]).ravel()
            gi = np.bincount(cells, weights=contrib, minlength=img_v.size)
            gi = gi.reshape(img_v.shape)
        if want_x or want_y:
            if has_channels:
                gx = (g * fx).sum(axis=2)
                gy = (g * fy).sum(axis=2)
            else:
                gx = g * fx
                gy = g * fy
            gx = np.where(m, gx, 0.0) if want_x else None
            gy = np.where(m, gy, 0.0) if want_y else None
        return gi, gx, gy

    return fused(out, (image, x, y), vjp)
