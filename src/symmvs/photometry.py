"""Photometric comparators and regularizers.

The unary comparator blends four residuals between a reference image and a
synthesized counterpart, all averaged over a shared validity mask:

- robust L1 on intensities,
- robust L1 on forward-difference image gradients,
- a structural-dissimilarity term (1 - SSIM) / 2 with a 3x3 uniform window,
- the Charbonnier-penalized normalized Hamming distance between census
  descriptors (illumination-order invariant; treated as locally constant
  by the gradient path).

Edge-aware first- and second-order smoothness penalizes depth variation
where the image is flat. All pieces accept autodiff Vars where gradients
are needed and plain arrays otherwise.

These are building blocks: the pairwise synthesis loss and every other term
of the objective are assembled from them by the one evaluator in
`consistency` and read from `consistency.total_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .errors import BadWindow, EmptyMask, ShapeMismatch

__all__ = [
    "LossWeights",
    "CensusDescriptor",
    "charbonnier",
    "grayscale",
    "census_transform",
    "census_distance",
    "ssim_map",
    "unary_comparator",
    "smoothness_term",
]

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
DEFAULT_CENSUS_WINDOW = 3


@dataclass
class LossWeights:
    """Weights of every loss term, with the stock defaults.

    ``tau_occ`` is the cross-view depth-consistency threshold used for
    occlusion masks, in the same units as depth.
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
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ValueError(f"loss weight {name} must be non-negative")


@dataclass
class CensusDescriptor:
    """Per-pixel census bit vectors; bits[y, x, k] compares neighbor k to
    the center (1 where the neighbor is darker). Out-of-image neighbors
    compare as equal."""

    bits: np.ndarray
    window: int


def charbonnier(x):
    """Smooth robust penalty sqrt(x^2 + 1e-6); even, with floor 1e-3 at 0."""
    return ad.sqrt(x * x + 1.0e-6)


def grayscale(image: np.ndarray) -> np.ndarray:
    """Channel-mean luminance; (H, W) images pass through."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        return img
    return img.mean(axis=2)


def _channel_mean(x):
    v = value_of(x)
    if v.ndim == 2:
        return x
    channels = v.shape[2]
    acc = x[:, :, 0]
    for c in range(1, channels):
        acc = acc + x[:, :, c]
    return acc / channels


def _grad_x(x):
    v = value_of(x)
    d = x[:, 1:] - x[:, :-1]
    pads = ((0, 0), (0, 1)) + ((0, 0),) * (v.ndim - 2)
    return ad.pad_zero(d, pads)


def _grad_y(x):
    v = value_of(x)
    d = x[1:, :] - x[:-1, :]
    pads = ((0, 1), (0, 0)) + ((0, 0),) * (v.ndim - 2)
    return ad.pad_zero(d, pads)


# -- census ------------------------------------------------------------------


def census_transform(image: np.ndarray, window: int = DEFAULT_CENSUS_WINDOW) -> CensusDescriptor:
    """Census descriptor of a grayscale image.

    One bit per non-center neighbor in the window, set where the neighbor
    is strictly darker than the center. Neighbors outside the image compare
    as equal (bit 0), so the bit length is constant everywhere.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeMismatch("census expects a grayscale H x W image")
    if window < 3 or window % 2 == 0:
        raise BadWindow(f"census window must be odd and >= 3, got {window}")
    h, w = img.shape
    r = window // 2
    bits = np.zeros((h, w, window * window - 1), dtype=bool)
    k = 0
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            y_lo, y_hi = max(0, -dy), h - max(0, dy)
            x_lo, x_hi = max(0, -dx), w - max(0, dx)
            bits[y_lo:y_hi, x_lo:x_hi, k] = (
                img[y_lo + dy : y_hi + dy, x_lo + dx : x_hi + dx]
                < img[y_lo:y_hi, x_lo:x_hi]
            )
            k += 1
    return CensusDescriptor(bits, window)


def census_distance(a: CensusDescriptor, b: CensusDescriptor) -> np.ndarray:
    """Per-pixel Hamming distance between descriptors, normalized to [0, 1]."""
    if a.bits.shape != b.bits.shape:
        raise ShapeMismatch("census descriptors must share shape")
    return (a.bits != b.bits).mean(axis=2)


# -- SSIM ----------------------------------------------------------------------


def ssim_map(a, b):
    """Structural similarity with a 3x3 uniform window, channel-averaged.

    Local statistics are normalized by the in-image window size, so the map
    is defined up to the border and equals 1 wherever the inputs agree.
    Accepts Vars for either input.
    """
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ShapeMismatch("ssim inputs must share shape")
    n = ad.box_sum3(np.ones(av.shape[:2]))

    def one_channel(ac, bc):
        mu_a = ad.box_sum3(ac) / n
        mu_b = ad.box_sum3(bc) / n
        var_a = ad.box_sum3(ac * ac) / n - mu_a * mu_a
        var_b = ad.box_sum3(bc * bc) / n - mu_b * mu_b
        cov = ad.box_sum3(ac * bc) / n - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
        den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
        return num / den

    if av.ndim == 2:
        return one_channel(a, b)
    channels = av.shape[2]
    acc = one_channel(a[:, :, 0], b[:, :, 0])
    for c in range(1, channels):
        acc = acc + one_channel(a[:, :, c], b[:, :, c])
    return acc / channels


# -- the unary comparator --------------------------------------------------------


def unary_comparator(image_ref, image_syn, mask, weights: LossWeights):
    """Masked mean of the four-term photometric residual (scalar; Var-aware).

    The mask must already include the synthesized image's validity; with no
    valid pixel it raises EmptyMask, and the caller skips the term. The
    census term is computed on plain values and enters as a constant, so it
    shapes evaluations but contributes zero gradient.
    """
    ref_v, syn_v = value_of(image_ref), value_of(image_syn)
    if ref_v.shape != syn_v.shape:
        raise ShapeMismatch("comparator images must share shape")
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptyMask("no valid pixels for the unary comparator")
    m = mask.astype(np.float64)

    def masked_mean(term):
        return ad.sum_all(term * m) / count

    t_l1 = _channel_mean(charbonnier(image_ref - image_syn))
    t_grad = (
        _channel_mean(charbonnier(_grad_x(image_ref) - _grad_x(image_syn)))
        + _channel_mean(charbonnier(_grad_y(image_ref) - _grad_y(image_syn)))
    ) / 2.0
    t_ssim = (1.0 - ssim_map(image_ref, image_syn)) * 0.5
    dist = census_distance(
        census_transform(grayscale(ref_v)),
        census_transform(grayscale(syn_v)),
    )
    t_census = float((charbonnier(dist) * m).sum() / count)

    return (
        weights.lambda1 * masked_mean(t_l1)
        + weights.lambda2 * masked_mean(t_grad)
        + weights.lambda3 * masked_mean(t_ssim)
        + weights.lambda4 * t_census
    )


# -- smoothness -------------------------------------------------------------------


def smoothness_term(image, depth_values, depth_valid, alpha1: float, alpha2: float):
    """Edge-aware first+second order depth smoothness (scalar; Var-aware).

    Each order is averaged over the pixels whose full stencil lies in the
    image; stencils touching an invalid depth contribute zero.
    """
    img = np.asarray(value_of(image), dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    d = depth_values
    dv = value_of(d)
    h, w = dv.shape
    total = 0.0

    if h >= 2 and w >= 2:
        dx = d[:-1, 1:] - d[:-1, :-1]
        dy = d[1:, :-1] - d[:-1, :-1]
        grad_d = ad.absolute(dx) + ad.absolute(dy)
        gi = (
            np.abs(img[:-1, 1:] - img[:-1, :-1]).mean(axis=2)
            + np.abs(img[1:, :-1] - img[:-1, :-1]).mean(axis=2)
        )
        ok = depth_valid[:-1, :-1] & depth_valid[:-1, 1:] & depth_valid[1:, :-1]
        weight = np.exp(-alpha1 * gi) * ok
        total = total + ad.sum_all(grad_d * weight) / ((h - 1) * (w - 1))

    if h >= 3 and w >= 3:
        lap_d = (
            d[1:-1, 2:] + d[1:-1, :-2] + d[2:, 1:-1] + d[:-2, 1:-1]
            - 4.0 * d[1:-1, 1:-1]
        )
        lap_i = np.abs(
            img[1:-1, 2:] + img[1:-1, :-2] + img[2:, 1:-1] + img[:-2, 1:-1]
            - 4.0 * img[1:-1, 1:-1]
        ).mean(axis=2)
        ok = (
            depth_valid[1:-1, 1:-1]
            & depth_valid[1:-1, 2:]
            & depth_valid[1:-1, :-2]
            & depth_valid[2:, 1:-1]
            & depth_valid[:-2, 1:-1]
        )
        weight = np.exp(-alpha2 * lap_i) * ok
        total = total + ad.sum_all(ad.absolute(lap_d) * weight) / ((h - 2) * (w - 2))

    return total
