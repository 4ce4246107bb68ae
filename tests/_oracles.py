"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (loops,
direct formulas) and never calls the code paths it checks. The earlier
forms of several vectorized routines are kept as references the current
ones must match bit for bit (`cost_volume_loop`,
`smooth_cost_volume_whole`, `regress_depth_whole`,
`camera_rays_world_int_grid`, `box_sum3_padded`, `pad_zero_np`,
`sample_validity_direct`, `census_distance_mean`, `synth_values_unshared`,
`warp_depth_values_unshared`); `synthesize_view` composes the sampling
chain into one view synthesis on a fresh pair record; `round_trip_mask`
builds an occlusion mask from two whole-map depth warps;
`box_sum_axis_loop` fixes the order in which the cost-volume smoothing adds
each slice's depth neighbours. The loss formulas that the
library records as single tape nodes are kept here in their op-by-op form,
one node per array operation (`charbonnier_chain` to `smoothness_chain`,
built on `OpVar` arithmetic and the helpers `sqrt`, `absolute`,
`where_mask`, `sum_all` and `pad_zero`).
"""

import numpy as np

from symmvs.autodiff import Var, value_of


def project_reproject(K_src, R_src, t_src, K_dst, R_dst, t_dst, px, py, depth):
    """Where a src pixel on the fronto-parallel plane at ``depth`` lands in dst.

    Backproject, rigid-transform through world space, project. Returns
    (x_dst, y_dst, z_dst).
    """
    p = np.array([px, py, 1.0])
    x_src = np.linalg.solve(K_src, p) * depth
    x_world = R_src.T @ (x_src - t_src)
    x_dst = R_dst @ x_world + t_dst
    q = K_dst @ x_dst
    return q[0] / q[2], q[1] / q[2], x_dst[2]


def bilinear_at(image, x, y):
    """Direct bilinear interpolation of a (H, W) or (H, W, C) image."""
    h, w = image.shape[:2]
    x0 = int(np.clip(np.floor(x), 0, w - 2))
    y0 = int(np.clip(np.floor(y), 0, h - 2))
    wx, wy = x - x0, y - y0
    return (
        image[y0, x0] * (1 - wx) * (1 - wy)
        + image[y0, x0 + 1] * wx * (1 - wy)
        + image[y0 + 1, x0] * (1 - wx) * wy
        + image[y0 + 1, x0 + 1] * wx * wy
    )


def census_bits_brute(image):
    """3x3 census bits by explicit per-pixel neighbor loops, as (8, H, W)
    planes in row-major neighbor order."""
    h, w = image.shape
    bits = np.zeros((8, h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            k = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        bits[k, y, x] = image[yy, xx] < image[y, x]
                    k += 1
    return bits


def census_distance_mean(bits_a, bits_b):
    """Normalized Hamming distance of (8, H, W) census bits as the mean of
    the differing bits over the bit axis (the library's earlier form)."""
    return (bits_a != bits_b).mean(axis=0)


def ssim_direct(a, b, window=3, c1=0.01 ** 2, c2=0.03 ** 2):
    """SSIM map by direct per-pixel window statistics (count-normalized)."""
    h, w = a.shape
    r = window // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            ys = slice(max(0, y - r), min(h, y + r + 1))
            xs = slice(max(0, x - r), min(w, x + r + 1))
            pa = a[ys, xs].ravel()
            pb = b[ys, xs].ravel()
            mu_a, mu_b = pa.mean(), pb.mean()
            va = (pa * pa).mean() - mu_a ** 2
            vb = (pb * pb).mean() - mu_b ** 2
            cab = (pa * pb).mean() - mu_a * mu_b
            out[y, x] = ((2 * mu_a * mu_b + c1) * (2 * cab + c2)) / (
                (mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)
            )
    return out


def box_filter_valid_brute(cost, valid, radius):
    """Mean over valid entries in the box window, by explicit loops."""
    rd, rh, rw = radius
    d, h, w = cost.shape
    out = np.zeros_like(cost)
    ok = np.zeros_like(valid)
    for k in range(d):
        for y in range(h):
            for x in range(w):
                ks = slice(max(0, k - rd), min(d, k + rd + 1))
                ys = slice(max(0, y - rh), min(h, y + rh + 1))
                xs = slice(max(0, x - rw), min(w, x + rw + 1))
                m = valid[ks, ys, xs]
                n = m.sum()
                if n > 0:
                    out[k, y, x] = cost[ks, ys, xs][m].sum() / n
                    ok[k, y, x] = True
    return out, ok


def cost_volume_loop(views, features, ref, hyp):
    """Plane-sweep variance volume, one warp field and one resampled
    (H, W, F) feature map per hypothesis and source view, from the
    channel-first (F, H, W) ``features`` that ``build_cost_volume`` takes.

    This is the library's earlier per-hypothesis loop. Each warp field
    holds the sampling chain's coordinates at the hypothesis depth, flagged
    by the chain's front test and the bounds test, so it checks the gathers
    and the variance; the chain's agreement with the plane homography has
    its own test. Returns (cost, valid) as ``build_cost_volume`` does.
    """
    from symmvs import geometry

    n_views = len(views)
    maps = [np.moveaxis(f, 0, -1) for f in features]
    h, w, _ = maps[ref].shape
    cost = np.zeros((hyp.count, h, w))
    valid = np.zeros((hyp.count, h, w), dtype=bool)
    others = [v for v in range(n_views) if v != ref]
    for k, depth in enumerate(hyp.samples):
        group = [(maps[ref], np.ones((h, w), dtype=bool))]
        for src in others:
            x, y, front = geometry.sampling_chain(
                geometry.pair_coefficients(views[ref], views[src], h, w),
                float(depth))
            inb = front & geometry._in_bounds(x, y, w, h)
            coords = np.stack([np.where(inb, x, -1.0), np.where(inb, y, -1.0)], -1)
            fld = geometry.WarpField(coords, inb)
            group.append(geometry.bilinear_sample(maps[src], fld))
        count = np.zeros((h, w), dtype=np.int64)
        for _, ok in group:
            count += ok
        pair_sq = np.zeros((h, w))
        for a in range(len(group)):
            va, oka = group[a]
            for b in range(a + 1, len(group)):
                vb, okb = group[b]
                both = (oka & okb)[..., None]
                diff = np.where(both, va - vb, 0.0)
                pair_sq += (diff * diff).mean(axis=2)
        ok2 = count >= 2
        denom = np.where(ok2, count, 1).astype(np.float64)
        cost[k] = np.where(ok2, pair_sq / (denom * denom), 0.0)
        valid[k] = ok2
    return cost, valid


def smooth_cost_volume_whole(vol):
    """Validity-aware 3x3x3 box smoothing of a whole (D, H, W) volume at
    once: the masked numerator and the count are summed along depth by
    `box_sum_axis_loop`, then over each slice's 3x3 windows by
    `box_sum3_padded`, each a whole-volume temporary. Returns (cost, valid)."""
    def box3(a):
        a = np.moveaxis(box_sum_axis_loop(a, 1, 0), 0, -1)  # (H, W, D)
        return np.moveaxis(box_sum3_padded(a), -1, 0)

    num = box3(np.where(vol.valid, vol.cost, 0.0))
    den = box3(vol.valid.astype(np.float64))
    ok = den > 0.5
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0), ok


def regress_depth_whole(vol, temperature):
    """Softmax expected depth with one whole-volume temporary per step
    (the library's earlier form). Returns (depth values, depth valid,
    probabilities)."""
    d_count = vol.cost.shape[0]
    logits = np.where(vol.valid, -vol.cost / temperature, -np.inf)
    any_valid = vol.valid.any(axis=0)
    peak = np.where(any_valid, logits.max(axis=0), 0.0)
    expo = np.where(vol.valid, np.exp(logits - peak), 0.0)
    norm = expo.sum(axis=0)
    prob = expo / np.where(any_valid, norm, 1.0)
    prob = np.where(any_valid, prob, 1.0 / d_count)
    samples = vol.hypotheses.samples
    depth = (samples[:, None, None] * prob).sum(axis=0)
    depth = np.clip(depth, vol.hypotheses.d_min, vol.hypotheses.d_max)
    return np.where(any_valid, depth, 0.0), any_valid, prob


def camera_rays_world_int_grid(cam, height, width):
    """World-frame ray directions (unit camera-frame z) and the camera
    centre, from an integer ``np.mgrid`` pixel grid and the closed-form
    K^-1 (the renderer's earlier form)."""
    from symmvs import geometry

    gy, gx = np.mgrid[0:height, 0:width]
    kinv = geometry.intrinsics_inverse(cam.intrinsics)
    rays_cam = np.empty((height, width, 3))
    for i in range(3):
        rays_cam[..., i] = kinv[i, 0] * gx + kinv[i, 1] * gy + kinv[i, 2]
    return rays_cam @ cam.rotation, -cam.rotation.T @ cam.translation


def box_sum_axis_loop(a, radius, axis):
    """Clipped-window sums along one axis, one index at a time: the centre,
    then ``a[i - k]`` and ``a[i + k]`` for k = 1 ... radius where they
    exist, added in that order."""
    src = np.moveaxis(a, axis, 0)
    n = src.shape[0]
    out = np.empty_like(src)
    for i in range(n):
        acc = src[i].copy()
        for k in range(1, radius + 1):
            if i - k >= 0:
                acc = acc + src[i - k]
            if i + k < n:
                acc = acc + src[i + k]
        out[i] = acc
    return np.moveaxis(out, 0, axis)


def box_sum3_padded(a):
    """3x3 zero-padded box sum over the two leading axes, summed over nine
    windows of an ``np.pad`` copy, rows then columns (the library's earlier
    form)."""
    h, w = a.shape[:2]
    p = np.pad(a, ((1, 1), (1, 1)) + ((0, 0),) * (a.ndim - 2))
    out = np.zeros_like(a)
    for dy in range(3):
        for dx in range(3):
            out += p[dy : dy + h, dx : dx + w]
    return out


def pad_zero_np(a, pads):
    """Zero padding by ``np.pad`` (the library's earlier form)."""
    return np.pad(a, pads)


def sample_validity_direct(valid, xv, yv, inb):
    """True where every bilinear corner carrying weight is a valid pixel,
    with its own floor, clip and corner weights (the library's earlier
    form)."""
    h, w = valid.shape
    xs = np.where(inb, xv, 0.0)
    ys = np.where(inb, yv, 0.0)
    x0 = np.clip(np.floor(xs), 0, w - 2).astype(np.intp)
    y0 = np.clip(np.floor(ys), 0, h - 2).astype(np.intp)
    wx = xs - x0
    wy = ys - y0
    tol = 1e-12
    ok = np.ones_like(inb)
    ok &= valid[y0, x0] | ((1 - wx) * (1 - wy) <= tol)
    ok &= valid[y0, x0 + 1] | (wx * (1 - wy) <= tol)
    ok &= valid[y0 + 1, x0] | ((1 - wx) * wy <= tol)
    ok &= valid[y0 + 1, x0 + 1] | (wx * wy <= tol)
    return ok & inb


def synthesize_view(target_depth, source, target):
    """The target view's image synthesized from the source view's pixels:
    (image, valid) of the library's sampling chain on a fresh pair record,
    as one loss term sees it. Valid requires in-bounds sampling, a valid
    target depth and a positive transformed depth."""
    from symmvs import geometry

    if source.image is None:
        raise ValueError("source view has no image")
    pair = geometry.pair_coefficients(target, source, *target_depth.values.shape)
    return geometry.synth_values(
        geometry.pair_sampling(pair, target_depth.values, target_depth.valid),
        source.image)


def synth_values_unshared(target, source, depth_values, depth_valid,
                          source_image, source_valid):
    """Second-order view synthesis with the bilinear taps computed twice:
    once for the sample validity at the unnarrowed mask, once more inside
    the sampler at the narrowed one (the library's earlier form)."""
    from symmvs import autodiff as ad
    from symmvs import geometry

    h, w = ad.value_of(depth_values).shape
    x, y, front = geometry.sampling_chain(
        geometry.pair_coefficients(target, source, h, w), depth_values)
    xv, yv = ad.value_of(x), ad.value_of(y)
    ok = front & geometry._in_bounds(xv, yv, w, h) & depth_valid
    ok = ok & geometry._sample_validity(
        source_valid, ok, ad.bilinear_taps(xv, yv, ok, h, w))
    return ad.bilinear(source_image, x, y, ok), ok


def warp_depth_values_unshared(source_values, source_valid, target_values,
                               target_valid, source, target):
    """`geometry.warp_depth_values` with the bilinear taps computed twice,
    as `synth_values_unshared` does (the library's earlier form)."""
    from symmvs import autodiff as ad
    from symmvs import geometry

    h, w = ad.value_of(target_values).shape
    x, y, front = geometry.sampling_chain(
        geometry.pair_coefficients(target, source, h, w), target_values)
    xv, yv = ad.value_of(x), ad.value_of(y)
    ok = front & geometry._in_bounds(xv, yv, w, h) & target_valid
    ok = ok & geometry._sample_validity(
        source_valid, ok, ad.bilinear_taps(xv, yv, ok, h, w))
    d_src = lift(ad.bilinear(source_values, x, y, ok))
    x, y = lift(x), lift(y)
    r_st, t_st = geometry.relative_motion(source, target)
    coeff = r_st[2] @ geometry.intrinsics_inverse(source.intrinsics)
    z = (coeff[0] * x + coeff[1] * y + coeff[2]) * d_src + t_st[2]
    ok = ok & (ad.value_of(z) > 0.0)
    return where_mask(ok, z, 0.0), ok


def round_trip_mask(views, depths, t, s, tau):
    """Occlusion mask (t, s) from two `geometry.warp_depth` calls, each on a
    fresh camera pair: view t's depth warped onto view s, then back onto
    view t, kept where both warps and view t's depth are valid and the
    round trip moves the depth by at most ``tau``."""
    from symmvs import geometry

    there = geometry.warp_depth(depths[t], depths[s], views[t], views[s])
    back = geometry.warp_depth(there, depths[t], views[s], views[t])
    return (back.valid & depths[t].valid
            & (np.abs(depths[t].values - back.values) <= tau))


def bilinear_image_grad_add_at(image_shape, x, y, mask, g):
    """Gradient of bilinear sampling with respect to the sampled image:
    one sequential ``np.add.at`` scatter per corner, corners in the order
    (y0, x0), (y0, x1), (y1, x0), (y1, x1)."""
    h, w = image_shape[:2]
    xv = np.where(mask, x, 0.0)
    yv = np.where(mask, y, 0.0)
    x0f = np.clip(np.floor(xv), 0.0, w - 2.0)
    y0f = np.clip(np.floor(yv), 0.0, h - 2.0)
    wx = xv - x0f
    wy = yv - y0f
    x0 = x0f.astype(np.intp)
    y0 = y0f.astype(np.intp)
    corners = [
        ((y0, x0), (1.0 - wx) * (1.0 - wy)),
        ((y0, x0 + 1), wx * (1.0 - wy)),
        ((y0 + 1, x0), (1.0 - wx) * wy),
        ((y0 + 1, x0 + 1), wx * wy),
    ]
    channels = len(image_shape) == 3
    g = np.where(mask[..., None] if channels else mask, g, 0.0)
    out = np.zeros(image_shape)
    for at, wt in corners:
        np.add.at(out, at, g * (wt[..., None] if channels else wt))
    return out


def population_variance_brute(samples):
    """Population variance of a 1-d sample list via the direct formula."""
    arr = np.asarray(samples, dtype=np.float64)
    mu = arr.mean()
    return ((arr - mu) ** 2).mean()


def nearest_distances_brute(query, reference):
    """Exact nearest-neighbor distances by the all-pairs formula."""
    diff = query[:, None, :] - reference[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)


def _crosses_lattice(a, b):
    width = np.abs(b - a)
    lo = np.minimum(a, b) - 0.25 * width
    hi = np.maximum(a, b) + 0.25 * width
    return (np.floor(lo) != np.floor(hi)) & (width > 1e-9)


def fd_smooth_region(views, depths, v, step, diff_guard=0.01):
    """Pixels of view ``v`` where the multi-view loss is differentiable
    across a central-difference stencil of the given step.

    Excludes pixels whose depth-driven sampling coordinates cross the
    bilinear pixel lattice inside the stencil and pixels whose depth
    differences sit on the L1 kink. Finite differences are only a valid
    derivative estimator at the surviving pixels.
    """
    from symmvs import geometry
    from symmvs.autodiff import value_of

    d = depths[v]
    h, w = d.values.shape
    ok = d.valid.copy()
    for s in range(len(views)):
        if s == v:
            continue
        ends = []
        for delta in (-step, +step):
            cx, cy, front = geometry.sampling_chain(
                geometry.pair_coefficients(views[v], views[s], h, w),
                d.values + delta)
            ends.append((value_of(cx), value_of(cy), front))
        (x0, y0, f0), (x1, y1, f1) = ends
        ok &= f0 & f1
        ok &= ~_crosses_lattice(x0, x1)
        ok &= ~_crosses_lattice(y0, y1)
    vals = d.values
    dx = np.abs(np.diff(vals, axis=1)) > diff_guard
    dy = np.abs(np.diff(vals, axis=0)) > diff_guard
    ok[:, :-1] &= dx
    ok[:, 1:] &= dx
    ok[:-1, :] &= dy
    ok[1:, :] &= dy
    lap_ok = np.ones_like(ok)
    lap_ok[1:-1, 1:-1] = (
        np.abs(
            vals[1:-1, 2:] + vals[1:-1, :-2] + vals[2:, 1:-1] + vals[:-2, 1:-1]
            - 4 * vals[1:-1, 1:-1]
        )
        > diff_guard
    )
    grown = lap_ok.copy()
    grown[1:, :] &= lap_ok[:-1, :]
    grown[:-1, :] &= lap_ok[1:, :]
    grown[:, 1:] &= lap_ok[:, :-1]
    grown[:, :-1] &= lap_ok[:, 1:]
    ok &= grown
    ok[:2, :] = ok[-2:, :] = False
    ok[:, :2] = ok[:, -2:] = False
    return ok


def smoothness_gradient_flat_image(depth_values, h_step=1e-6):
    """Gradient of the first-order smoothness term for a constant image,
    by central finite differences of the direct formula."""
    h, w = depth_values.shape

    def term(vals):
        dx = vals[:-1, 1:] - vals[:-1, :-1]
        dy = vals[1:, :-1] - vals[:-1, :-1]
        first = (np.abs(dx) + np.abs(dy)).sum() / ((h - 1) * (w - 1))
        lap = (
            vals[1:-1, 2:] + vals[1:-1, :-2] + vals[2:, 1:-1] + vals[:-2, 1:-1]
            - 4 * vals[1:-1, 1:-1]
        )
        second = np.abs(lap).sum() / ((h - 2) * (w - 2))
        return first + second

    grad = np.zeros_like(depth_values)
    for y in range(h):
        for x in range(w):
            plus = depth_values.copy()
            plus[y, x] += h_step
            minus = depth_values.copy()
            minus[y, x] -= h_step
            grad[y, x] = (term(plus) - term(minus)) / (2 * h_step)
    return grad


# -- op-by-op arithmetic --------------------------------------------------------
#
# The library's tape records whole formulas only (`autodiff.fused`). These
# oracles compose the same formulas one array operation at a time, so they
# carry their own node arithmetic: every operator, slice and sum of an
# `OpVar` records one node with its own VJP, and ``lift`` turns a node the
# library made into an `OpVar` through one identity node.


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


def _operand(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _node(value, operands, grads):
    """An `OpVar` of ``value``, computed from ``operands`` by broadcasting;
    ``grads[k](g)`` is operand k's gradient before it is summed down to
    the operand's shape. Plain operands get none."""
    shapes = [_operand(x).shape for x in operands]
    parents = tuple(x for x in operands if isinstance(x, Var))

    def vjp(g):
        return tuple(_unbroadcast(d(g), s)
                     for x, d, s in zip(operands, grads, shapes) if isinstance(x, Var))

    return OpVar(value, parents, vjp)


def _same(g):
    return g


def _negated(g):
    return -g


class OpVar(Var):
    """A Var whose arithmetic, slicing and sum each record one node; either
    operand of a binary operator may be any Var or a plain array."""

    __slots__ = ()

    def __add__(self, other):
        return _node(self.value + _operand(other), (self, other), (_same, _same))

    def __radd__(self, other):
        return _node(_operand(other) + self.value, (other, self), (_same, _same))

    def __sub__(self, other):
        return _node(self.value - _operand(other), (self, other), (_same, _negated))

    def __rsub__(self, other):
        return _node(_operand(other) - self.value, (other, self), (_same, _negated))

    def __mul__(self, other):
        a, b = self.value, _operand(other)
        return _node(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    def __rmul__(self, other):
        a, b = _operand(other), self.value
        return _node(a * b, (other, self), (lambda g: g * b, lambda g: g * a))

    def __truediv__(self, other):
        a, b = self.value, _operand(other)
        return _node(a / b, (self, other),
                     (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __rtruediv__(self, other):
        a, b = _operand(other), self.value
        return _node(a / b, (other, self),
                     (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __neg__(self):
        return _node(-self.value, (self,), (_negated,))

    def __getitem__(self, idx):
        shape = self.value.shape

        def vjp(g):
            buf = np.zeros(shape, dtype=np.float64)
            buf[idx] = g
            return (buf,)

        return OpVar(self.value[idx], (self,), vjp)

    def sum(self):
        shape = self.value.shape
        return OpVar(np.asarray(self.value.sum()), (self,),
                     lambda g: (np.full(shape, float(g)),))


def lift(x):
    """``x`` as an `OpVar` if it is a Var, else ``x`` itself."""
    if isinstance(x, Var) and not isinstance(x, OpVar):
        return OpVar(x.value, (x,), lambda g: (g,))
    return x


def box_sum3(x):
    """`box_sum3_padded` as one node: the box sum is self-adjoint, so its
    VJP is the box sum of the gradient."""
    if isinstance(x, Var):
        return OpVar(box_sum3_padded(x.value), (x,), lambda g: (box_sum3_padded(g),))
    return box_sum3_padded(np.asarray(x, dtype=np.float64))


# -- op-by-op compositions of the fused tape nodes ----------------------------
#
# The loss formulas as the library wrote them before each became one tape
# node: every elementary operation is its own node, with its own VJP. A
# fused node must give the same forward bits and, to rounding, the same
# gradients. The elementwise helpers fall back to plain numpy without a Var,
# and every composition lifts the Vars it is given.


def sqrt(x):
    if isinstance(x, Var):
        out = np.sqrt(x.value)
        return OpVar(out, (x,), lambda g: (g * (0.5 / out),))
    return np.sqrt(x)


def absolute(x):
    if isinstance(x, Var):
        s = np.sign(x.value)
        return OpVar(np.abs(x.value), (x,), lambda g: (g * s,))
    return np.abs(x)


def where_mask(mask, x, fill):
    """``x`` where ``mask`` else ``fill``; gradient passes only inside it."""
    m = np.asarray(mask, dtype=bool)
    if isinstance(x, Var):
        out = np.where(m, x.value, fill)
        return OpVar(out, (x,), lambda g: (np.where(m, g, 0.0),))
    return np.where(m, x, fill)


def sum_all(x):
    if isinstance(x, Var):
        return lift(x).sum()
    return np.asarray(x).sum()


def pad_zero(x, pads):
    """Zero-pad with a full per-axis ``np.pad`` width spec, by writing the
    input into a slice of one zeroed output."""
    def raw(a):
        out = np.zeros(tuple(n + b + e for n, (b, e) in zip(a.shape, pads)), a.dtype)
        slc = tuple(slice(b, b + n) for (b, _), n in zip(pads, a.shape))
        out[slc] = a
        return out, slc

    if isinstance(x, Var):
        out, slc = raw(x.value)
        return OpVar(out, (x,), lambda g: (g[slc],))
    return raw(np.asarray(x))[0]


def charbonnier_chain(x):
    x = lift(x)
    return sqrt(x * x + 1.0e-6)


def channel_mean_chain(x):
    x = lift(x)
    channels = value_of(x).shape[2]
    acc = x[:, :, 0]
    if channels == 1:
        return acc
    for c in range(1, channels):
        acc = acc + x[:, :, c]
    return acc / channels


def grad_x_chain(x):
    x = lift(x)
    d = x[:, 1:] - x[:, :-1]
    return pad_zero(d, ((0, 0), (0, 1)) + ((0, 0),) * (value_of(x).ndim - 2))


def grad_y_chain(x):
    x = lift(x)
    d = x[1:, :] - x[:-1, :]
    return pad_zero(d, ((0, 1), (0, 0)) + ((0, 0),) * (value_of(x).ndim - 2))


def ssim_reference_chain(a, norm):
    """Per-channel (channel, windowed mean, windowed variance)."""
    a = lift(a)
    out = []
    for c in range(value_of(a).shape[2]):
        ac = a[:, :, c]
        mu = box_sum3(ac) / norm
        out.append((ac, mu, box_sum3(ac * ac) / norm - mu * mu))
    return out


def ssim_map_chain(a, b, norm):
    """SSIM map of two (H, W, C) images, either a Var, one channel at a
    time."""
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    sa, sb = ssim_reference_chain(a, norm), ssim_reference_chain(b, norm)

    def one_channel(x, y):
        (xc, mu_x, var_x), (yc, mu_y, var_y) = x, y
        cov = box_sum3(xc * yc) / norm - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        return num / den

    acc = one_channel(sa[0], sb[0])
    for c in range(1, len(sa)):
        acc = acc + one_channel(sa[c], sb[c])
    return acc / len(sa)


def unary_comparator_chain(a, b, mask, weights, norm):
    """The unary comparator of reference image ``a`` and synthesized image
    ``b``, either a Var; the census term enters as a constant."""
    from symmvs import autodiff as ad
    from symmvs import photometry

    a, b = lift(a), lift(b)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    m = mask.astype(np.float64)

    def masked_mean(term):
        return sum_all(term * m) / count

    t_l1 = channel_mean_chain(charbonnier_chain(a - b))
    t_grad = (
        channel_mean_chain(charbonnier_chain(grad_x_chain(a) - grad_x_chain(b)))
        + channel_mean_chain(charbonnier_chain(grad_y_chain(a) - grad_y_chain(b)))
    ) / 2.0
    t_ssim = (1.0 - ssim_map_chain(a, b, norm)) * 0.5
    census = [photometry.census_transform(photometry.channel_mean(ad.value_of(x)))
              for x in (a, b)]
    dist = photometry.census_distance(*census)
    t_census = float((np.sqrt(dist * dist + 1.0e-6) * m).sum() / count)
    return (
        weights.lambda1 * masked_mean(t_l1)
        + weights.lambda2 * masked_mean(t_grad)
        + weights.lambda3 * masked_mean(t_ssim)
        + weights.lambda4 * t_census
    )


def sampling_chain_ops(pair, d):
    """`geometry.sampling_chain` of a distinct-camera pair at depths ``d``
    (a Var or plain)."""
    a, b = pair.a, pair.b
    d = lift(d)
    qx = a[0] * d + b[0]
    qy = a[1] * d + b[1]
    z = a[2] * d + b[2]
    front = value_of(z) > 1e-12
    z_safe = where_mask(front, z, 1.0)
    return qx / z_safe, qy / z_safe, front


def warped_z_chain(pair, x, y, d_src, ok):
    """The z formula of `geometry.warp_depth_values`: the sampled source
    depth re-expressed in the target camera, zero outside ``ok`` and where
    it is not positive. Returns (values, ok)."""
    x, y, d_src = lift(x), lift(y), lift(d_src)
    c = pair.z_row
    z = (c[0] * x + c[1] * y + c[2]) * d_src + pair.z_off
    ok = ok & (value_of(z) > 0.0)
    return where_mask(ok, z, 0.0), ok


def depth_consistency_chain(leaf, warped, mask):
    count = int(mask.sum())
    leaf, warped = lift(leaf), lift(warped)
    return sum_all(charbonnier_chain(leaf - warped) * mask.astype(np.float64)) / count


def smoothness_chain(d, depth_valid, edges):
    """`photometry.smoothness_term` of depths ``d`` (a Var or plain)."""
    first, second = edges
    d = lift(d)
    h, w = value_of(d).shape
    total = 0.0
    if first is not None:
        dx = d[:-1, 1:] - d[:-1, :-1]
        dy = d[1:, :-1] - d[:-1, :-1]
        grad_d = absolute(dx) + absolute(dy)
        ok = depth_valid[:-1, :-1] & depth_valid[:-1, 1:] & depth_valid[1:, :-1]
        total = total + sum_all(grad_d * (first * ok)) / ((h - 1) * (w - 1))
    if second is not None:
        lap_d = (
            d[1:-1, 2:] + d[1:-1, :-2] + d[2:, 1:-1] + d[:-2, 1:-1]
            - 4.0 * d[1:-1, 1:-1]
        )
        ok = (
            depth_valid[1:-1, 1:-1]
            & depth_valid[1:-1, 2:]
            & depth_valid[1:-1, :-2]
            & depth_valid[2:, 1:-1]
            & depth_valid[:-2, 1:-1]
        )
        total = total + sum_all(absolute(lap_d) * (second * ok)) / ((h - 2) * (w - 2))
    return total
