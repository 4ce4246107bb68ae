"""Photometric comparators and regularizers.

The unary comparator blends four residuals between a reference image and a
synthesized counterpart, all averaged over a shared validity mask:

- robust L1 on intensities,
- robust L1 on forward-difference image gradients,
- a structural-dissimilarity term (1 - SSIM) / 2 with a 3x3 uniform window,
- the Charbonnier-penalized normalized Hamming distance between the 3x3
  census bits of the two images (illumination-order invariant; treated as
  locally constant by the gradient path).

Edge-aware first- and second-order smoothness penalizes depth variation
where the image is flat. The pieces a gradient flows through accept
autodiff Vars where gradients are needed and plain arrays otherwise;
images are (H, W, C).

These are building blocks: the pairwise synthesis loss and every other term
of the objective are assembled from them by the one loss evaluation in
`consistency` (`consistency._evaluate`) and read from
`consistency.total_loss`.

What depends on one image alone is split out and passed in: its gradients,
census bits and SSIM window statistics (`reference_stats`) and the
smoothness edge weights (`edge_weights`). `ssim_map` and
`unary_comparator` take the `reference_stats` of both images they compare,
and `smoothness_term` the edge weights, so an image compared many times is
processed once: a view image once per run (`consistency.ViewContext`), a
synthesized image once per loss evaluation, whichever side of each
comparison it is on. What depends on the grid alone, the SSIM window
normalizer `box_norm`, is made once per grid and cached read-only.

Each formula a gradient flows through is one `autodiff.fused` tape node:
the forward difference `_forward_diff` along either axis, `ssim_map`,
`unary_comparator` and `smoothness_term`. Their forward passes are the
plain expressions, with the same values bit for bit; their VJPs are
derived by hand. `ssim_map`'s VJP carries the gradient through the plain
window statistics of `reference_stats` and the covariance to both images,
recomputing the few products it needs. The comparator's node takes both
images, their gradients and the `ssim_map` node as inputs, and recomputes
its residuals in the VJP. `charbonnier` is a plain kernel: its callers
apply it to plain residuals and write its slope ``x / charbonnier(x)``
into their VJPs. A term's masked mean, and the `EmptyMask` of an empty
mask, come from `_mask_weights`.

The census of an image is its eight bit planes: an (8, H, W) boolean array,
one plane per neighbor of the 3x3 window. The transform writes each
comparison straight into its plane, and the distance counts the differing
planes one after another; both give exactly the bits and distances of the
per-pixel formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import EmptyMask, ShapeMismatch

__all__ = [
    "LossWeights",
    "charbonnier",
    "channel_mean",
    "census_transform",
    "census_distance",
    "ssim_map",
    "box_norm",
    "ReferenceStats",
    "reference_stats",
    "unary_comparator",
    "edge_weights",
    "smoothness_term",
]

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class LossWeights:
    """Weights of every loss term, with the stock defaults.

    ``tau_occ`` is the cross-view depth-consistency threshold used for
    occlusion masks, in the same units as depth. Every weight is checked
    here, where it enters, and nowhere else: one that is negative or NaN,
    or a ``tau_occ`` that is not positive, raises ValueError naming it.
    The weights are frozen, so no later assignment skips the check; vary
    one with `dataclasses.replace`.
    """

    omega_u: float = 0.8
    omega_s: float = 0.1
    lambda1: float = 0.5
    lambda2: float = 0.8
    lambda3: float = 0.5
    lambda4: float = 0.2
    lambda5: float = 0.3
    lambda6: float = 0.3
    alpha1: float = 0.5
    alpha2: float = 0.5
    tau_occ: float = 5.0

    def __post_init__(self):
        if not self.tau_occ > 0:
            raise ValueError("loss weight tau_occ must be positive")
        for name in self.__dataclass_fields__:
            if not getattr(self, name) >= 0:
                raise ValueError(f"loss weight {name} must be non-negative")


def charbonnier(x):
    """Smooth robust penalty sqrt(x^2 + 1e-6) of a plain array; even, with
    floor 1e-3 at 0.

    Its derivative is ``x / charbonnier(x)``.
    """
    return np.sqrt(x * x + 1.0e-6)


def _mask_weights(mask, what: str):
    """(count, weights) of a loss term's mask, its masked mean being
    ``(term * weights).sum() / count``; EmptyMask naming ``what`` if empty."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptyMask(f"no valid pixels for {what}")
    return count, mask.astype(np.float64)


def channel_mean(a):
    """Mean over the channel axis of a plain (H, W, C) array, the channels
    added one after another from the first; (H, W) arrays pass through."""
    if a.ndim == 2:
        return a
    channels = a.shape[2]
    acc = a[:, :, 0]
    if channels == 1:
        return acc
    for c in range(1, channels):
        acc = acc + a[:, :, c]
    return acc / channels


def _forward_diff(x, axis: int):
    """Forward difference along ``axis`` (1: columns, 0: rows), zero in the
    last column or row."""
    v = value_of(x)
    head = (slice(None),) * axis + (slice(1, None),)
    tail = (slice(None),) * axis + (slice(None, -1),)
    out = np.zeros(v.shape)
    np.subtract(v[head], v[tail], out=out[tail])

    def vjp(g):
        gd = g[tail]
        gv = np.zeros(g.shape)
        gv[head] = gd
        gv[tail] -= gd
        return (gv,)

    return ad.fused(out, (x,), vjp)


# -- census ------------------------------------------------------------------


def census_transform(image: np.ndarray) -> np.ndarray:
    """The 3x3 census bits of a grayscale image, as (8, H, W) planes.

    Plane k holds, at every pixel, the bit of neighbor k in row-major
    window order: set where the neighbor is strictly darker than the
    center. Neighbors outside the image compare as equal (bit 0), so every
    pixel has eight bits.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeMismatch("census expects a grayscale H x W image")
    h, w = img.shape
    planes = np.zeros((8, h, w), dtype=bool)
    offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    for k, (dy, dx) in enumerate(offsets):
        y_lo, y_hi = max(0, -dy), h - max(0, dy)
        x_lo, x_hi = max(0, -dx), w - max(0, dx)
        np.less(
            img[y_lo + dy : y_hi + dy, x_lo + dx : x_hi + dx],
            img[y_lo:y_hi, x_lo:x_hi],
            out=planes[k, y_lo:y_hi, x_lo:x_hi],
        )
    return planes


def census_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel Hamming distance between census planes, normalized to [0, 1]."""
    if a.shape != b.shape:
        raise ShapeMismatch("census planes must share shape")
    # The differing planes are counted one after another. The counts are
    # exact, so dividing by the bit count gives the mean over the bits to
    # the last bit.
    return np.not_equal(a, b).sum(axis=0, dtype=np.float64) / a.shape[0]


# -- SSIM ----------------------------------------------------------------------


@lru_cache(maxsize=32)
def box_norm(height: int, width: int) -> np.ndarray:
    """In-image pixel count of every 3x3 window: the SSIM normalizer, made
    once per grid and shared by every caller, so it is read-only."""
    norm = ad.box_sum3(np.ones((height, width)))
    norm.flags.writeable = False
    return norm


def ssim_map(ref, syn):
    """Structural similarity with a 3x3 uniform window, channel-averaged.

    ``ref`` and ``syn`` are the two images' `reference_stats`, either image
    a Var. Local statistics are normalized by the in-image window size, so
    the map is defined up to the border and equals 1 wherever the inputs
    agree. The map is one tape node over the two images: its VJP runs the
    gradient through the windowed means, variances and covariance itself.
    """
    if value_of(ref.image).shape != value_of(syn.image).shape:
        raise ShapeMismatch("ssim inputs must share shape")
    a, b = value_of(ref.image), value_of(syn.image)
    mu_a, var_a, mu_b, var_b = ref.mu, ref.var, syn.mu, syn.var
    norm = box_norm(*a.shape[:2])[:, :, None]
    cov = ad.box_sum3(a * b) / norm - mu_a * mu_b

    def parts():
        # the factors of S = a1 a2 / den, den = b1 b2, per channel; the VJP
        # makes them again, so the tape keeps only ``cov`` of them
        a1 = 2.0 * mu_a * mu_b + _SSIM_C1
        b1 = mu_a * mu_a + mu_b * mu_b + _SSIM_C1
        b2 = var_a + var_b + _SSIM_C2
        return a1, 2.0 * cov + _SSIM_C2, b1, b2, b1 * b2

    a1, a2, _, _, den = parts()
    channels = a.shape[2]
    sides = ((ref.image, a, b, mu_a, mu_b), (syn.image, b, a, mu_b, mu_a))

    def vjp(g):
        # With var_x = E[x^2] - mu_x^2 and cov = E[ab] - mu_a mu_b for the
        # window mean E: dS/dE[ab] = 2 a1 / den, dS/dE[x^2] = -S / b2 and,
        # with the variance and covariance chains folded in, dS/dmu_x =
        # 2 (mu_y (a2 - a1) - mu_x S (b2 - b1)) / den. E is a box sum over
        # the window size, so its adjoint is box_sum3(. / norm); u carries
        # the 2 / (den norm) of every term, and one box sum serves them all.
        a1, a2, b1, b2, den = parts()
        u = g[:, :, None] * (2.0 / channels) / (den * norm)
        e_ab = u * a1
        e_sq = e_ab * a2 / b2
        c_mu = u * (a2 - a1)
        s_mu = e_sq * (b2 - b1) / b1
        want = [isinstance(inp, ad.Var) for inp, *_ in sides]
        terms = [e_ab, e_sq] + [mu_y * c_mu - mu_x * s_mu
                                for (_, _, _, mu_x, mu_y), w in zip(sides, want) if w]
        box_ab, box_sq, *box_mu = np.split(
            ad.box_sum3(np.concatenate(terms, axis=2)), len(terms), axis=2)
        box_mu = iter(box_mu)
        return tuple(next(box_mu) - x * box_sq + y * box_ab if w else None
                     for (_, x, y, _, _), w in zip(sides, want))

    return ad.fused(channel_mean(a1 * a2 / den), (ref.image, syn.image), vjp)


# -- the unary comparator --------------------------------------------------------


@dataclass
class ReferenceStats:
    """The image-only parts of the unary comparator, for either of its
    images: the image itself, its forward-difference gradients, the
    (8, H, W) census planes of its `census_transform`, and the SSIM
    windowed mean ``mu`` and variance ``var`` per pixel and channel. Only
    the image and its gradients are Vars when the image is one: `ssim_map`
    differentiates through the window statistics itself. A run keeps one
    per view image; a loss evaluation makes one per synthesized image it
    compares, whichever side that image is on."""

    image: object
    grad_x: object
    grad_y: object
    census: np.ndarray
    mu: np.ndarray
    var: np.ndarray


def reference_stats(image) -> ReferenceStats:
    """Image-only comparator statistics of ``image`` (Var-aware); the window
    statistics are normalized by the `box_norm` of the image's grid."""
    v = value_of(image)
    n = box_norm(*v.shape[:2])[:, :, None]
    mu = ad.box_sum3(v) / n
    return ReferenceStats(
        image, _forward_diff(image, 1), _forward_diff(image, 0),
        census_transform(channel_mean(v)),
        mu, ad.box_sum3(v * v) / n - mu * mu,
    )


def unary_comparator(ref, syn, mask, weights: LossWeights):
    """Masked mean of the four-term photometric residual (scalar; Var-aware).

    ``ref`` and ``syn`` are the `reference_stats` of the reference and the
    synthesized image. The mask must already include the synthesized
    image's validity; with no valid pixel it raises EmptyMask, and the
    caller skips the term. The census term is computed on plain values and
    enters as a constant, so it shapes evaluations but contributes zero
    gradient. The sum is one tape node over both images, their gradients
    and the `ssim_map` node.
    """
    if value_of(ref.image).shape != value_of(syn.image).shape:
        raise ShapeMismatch("comparator images must share shape")
    count, m = _mask_weights(mask, "the unary comparator")

    def masked_mean(term):
        return (term * m).sum() / count

    operands = ((ref.image, syn.image), (ref.grad_x, syn.grad_x),
                (ref.grad_y, syn.grad_y))
    pen = [charbonnier(value_of(a) - value_of(b)) for a, b in operands]
    ssim = ssim_map(ref, syn)
    t_l1 = channel_mean(pen[0])
    t_grad = (channel_mean(pen[1]) + channel_mean(pen[2])) / 2.0
    t_ssim = (1.0 - value_of(ssim)) * 0.5
    dist = census_distance(ref.census, syn.census)
    t_census = float((charbonnier(dist) * m).sum() / count)
    value = (
        weights.lambda1 * masked_mean(t_l1)
        + weights.lambda2 * masked_mean(t_grad)
        + weights.lambda3 * masked_mean(t_ssim)
        + weights.lambda4 * t_census
    )
    channels = value_of(ref.image).shape[2]

    def vjp(g):
        dm = m * (g / count)
        scales = (weights.lambda1, weights.lambda2 / 2.0, weights.lambda2 / 2.0)
        grads = [None] * 6
        for k, ((a, b), lam) in enumerate(zip(operands, scales)):
            if isinstance(a, ad.Var) or isinstance(b, ad.Var):
                r = value_of(a) - value_of(b)
                d = (dm * (-lam / channels))[:, :, None] * (r / charbonnier(r))
                grads[k], grads[3 + k] = -d if isinstance(a, ad.Var) else None, d
        return tuple(grads) + (dm * (-0.5 * weights.lambda3),)

    inputs = [a for a, _ in operands] + [b for _, b in operands] + [ssim]
    return ad.fused(value, inputs, vjp)


# -- smoothness -------------------------------------------------------------------


def _first_differences(a):
    """The first-order smoothness stencils of a grid (a depth map, or an
    image with channels last): the differences along x and along y from
    every pixel but those of the last row and column."""
    return a[:-1, 1:] - a[:-1, :-1], a[1:, :-1] - a[:-1, :-1]


def _laplacian(a):
    """The second-order smoothness stencil of a grid: the 5-point
    Laplacian at every pixel off the border."""
    return (a[1:-1, 2:] + a[1:-1, :-2] + a[2:, 1:-1] + a[:-2, 1:-1]
            - 4.0 * a[1:-1, 1:-1])


def edge_weights(image, alpha1: float, alpha2: float):
    """The image-only factors of `smoothness_term`: ``exp(-alpha1 |grad I|)``
    on the first-order stencils and ``exp(-alpha2 |lap I|)`` on the
    second-order ones, each None where the image is too small for it."""
    img = np.asarray(value_of(image), dtype=np.float64)
    h, w = img.shape[:2]
    first = second = None
    if h >= 2 and w >= 2:
        dx, dy = _first_differences(img)
        first = np.exp(-alpha1 * (channel_mean(np.abs(dx)) + channel_mean(np.abs(dy))))
    if h >= 3 and w >= 3:
        second = np.exp(-alpha2 * channel_mean(np.abs(_laplacian(img))))
    return first, second


def smoothness_term(depth_values, depth_valid, edges):
    """Edge-aware first+second order depth smoothness (scalar; Var-aware).

    Each order is averaged over the pixels whose full stencil lies in the
    image; stencils touching an invalid depth contribute zero. ``edges``
    are the view image's `edge_weights`. The sum is one tape node over the
    depth grid.
    """
    first, second = edges
    d = value_of(depth_values)
    h, w = d.shape
    total = 0.0

    if first is not None:
        dx, dy = _first_differences(d)
        grad_d = np.abs(dx) + np.abs(dy)
        ok = depth_valid[:-1, :-1] & depth_valid[:-1, 1:] & depth_valid[1:, :-1]
        w1 = first * ok
        n1 = (h - 1) * (w - 1)
        total = total + (grad_d * w1).sum() / n1

    if second is not None:
        lap_d = _laplacian(d)
        ok = (
            depth_valid[1:-1, 1:-1]
            & depth_valid[1:-1, 2:]
            & depth_valid[1:-1, :-2]
            & depth_valid[2:, 1:-1]
            & depth_valid[:-2, 1:-1]
        )
        w2 = second * ok
        n2 = (h - 2) * (w - 2)
        total = total + (np.abs(lap_d) * w2).sum() / n2

    def vjp(g):
        gd = np.zeros((h, w))
        if first is not None:
            t = w1 * (g / n1)
            tx, ty = np.sign(dx) * t, np.sign(dy) * t
            gd[:-1, 1:] += tx
            gd[1:, :-1] += ty
            gd[:-1, :-1] -= tx + ty
        if second is not None:
            t = np.sign(lap_d) * (w2 * (g / n2))
            gd[1:-1, 2:] += t
            gd[1:-1, :-2] += t
            gd[2:, 1:-1] += t
            gd[:-2, 1:-1] += t
            gd[1:-1, 1:-1] -= 4.0 * t
        return (gd,)

    return ad.fused(total, (depth_values,), vjp)
