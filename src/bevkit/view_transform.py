"""Dual-stream 2D-to-BEV transformation for the camera branch.

Two routes from image features to the BEV plane:

  ray stream    every feature pixel predicts a depth distribution over bins;
                its context feature is scattered along the pixel ray, one
                bin-center sample per bin, weighted by that distribution,
                and summed per BEV cell. Supervising the distribution toward
                one-hot (depth_loss_multi) concentrates each pixel's mass
                near a single cell.

  point stream  LiDAR points are grouped into BEV-cell bins; each point
                gathers the high-resolution pixel feature it projects onto
                (averaged over the cameras that see it) and each bin's cell
                takes the mean over its valid points.

Both streams are exactly linear in their feature inputs, which the loop
oracles in the check suite exploit.

Each stream records one tape node with a hand-written VJP, as conv2d does,
so no intermediate is wrapped in backward. Both forwards sum in the order of
the equivalent composition of gather_rows, row scaling and scatter_add
(samples in index order per cell, cameras in list order), so their outputs
are bit-identical to it. point_stream's VJP is too. ray_stream works one
context channel at a time in both directions, so it never holds an array of
samples x channels: its forward sums each channel's products per cell
(numerics._column_sums), and its VJP contracts each channel's gathered
gradient over the (pixel, bin) grid, which matches the chain to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import (
    BEVConfig,
    CameraParams,
    DepthBins,
    bev_indices,
    depth_to_bins,
    project_points,
    unproject_points,
)
from .layers import ConvBlockParams, LinearParams, binary_log_loss, conv_block
from .numerics import DimensionError, Tensor


@dataclass(frozen=True)
class DepthGroundTruth:
    """One-hot depth targets per feature pixel plus a validity mask.

    onehot: [H', W', D]; mask: [H', W'] with 1 where at least one LiDAR
    point landed on the pixel and its depth fell inside the bin range.
    """

    onehot: np.ndarray
    mask: np.ndarray


CameraEncoderParams = ConvBlockParams  # conv1 at stride s, conv2 at stride 1


def camera_encode(image, params: CameraEncoderParams) -> Tensor:
    """Image [H, W, C] -> low-resolution feature [H/s, W/s, C_f].

    An image array is a constant to conv2d (no tape input, no gradient); a
    non-finite one raises NumericError.
    """
    s = params.conv1.stride
    if image.shape[0] % s or image.shape[1] % s:
        raise DimensionError(
            f"camera_encode: {image.shape[:2]} not divisible by stride {s}"
        )
    if not isinstance(image, Tensor) and not np.isfinite(image).all():
        raise nm.NumericError(f"camera_encode: image {image.shape} contains NaN or Inf")
    return conv_block(image, params.conv1, params.conv2)


def upsample_hr(lr_feat: Tensor, params: LinearParams, factor: int = 2) -> Tensor:
    """LR feature back to image resolution with fewer channels.

    A learned per-pixel affine map to factor^2 sub-pixels, then a pixel
    shuffle: with kernel == stride there is no overlap, so this is the exact
    transposed-convolution equivalent.
    """
    if lr_feat.ndim != 3:
        raise DimensionError(f"upsample_hr: LR feature {lr_feat.shape} is not [H, W, C]")
    h, w, c = lr_feat.shape
    cout = params.out_dim // (factor * factor)
    if cout * factor * factor != params.out_dim:
        raise DimensionError("upsample_hr: out dim not divisible by factor^2")
    y = nm.linear(nm.reshape(lr_feat, (h * w, c)), params)
    y = nm.reshape(y, (h, w, factor, factor, cout))
    y = nm.permute(y, (0, 2, 1, 3, 4))
    return nm.reshape(y, (h * factor, w * factor, cout))


@dataclass(frozen=True)
class DepthNetParams:
    cam_embed: LinearParams  # 4 -> C_e
    context: LinearParams  # C_f + C_e -> C_t
    depth: LinearParams  # C_f + C_e -> D


def depth_net(lr_feat: Tensor, cam: CameraParams, params: DepthNetParams):
    """Per-pixel context feature and depth distribution for one camera.

    The camera intrinsics (focal lengths and principal point, normalized by
    the image size) are embedded and concatenated onto every pixel before
    the two heads. The depth head ends in a per-pixel softmax, so each
    (pixel, :) slice of the distribution sums to one.
    """
    if lr_feat.ndim != 3:
        raise DimensionError(
            f"depth_net: camera {cam.name}: LR feature {lr_feat.shape} is not [H, W, C]"
        )
    hp, wp, cf = lr_feat.shape
    intr = np.array(
        [cam.fx / cam.width, cam.fy / cam.height, cam.cx / cam.width, cam.cy / cam.height]
    )
    emb = nm.linear(intr.reshape(1, 4), params.cam_embed)
    tiled = nm.gather_rows(emb, np.zeros(hp * wp, dtype=np.int64))
    rows = nm.concat([nm.reshape(lr_feat, (hp * wp, cf)), tiled], axis=1)
    context = nm.reshape(nm.linear(rows, params.context), (hp, wp, params.context.out_dim))
    logits = nm.linear(rows, params.depth)
    dist = nm.reshape(nm.softmax(logits, axis=1), (hp, wp, params.depth.out_dim))
    return context, dist


def depth_ground_truth(pc, cam: CameraParams, bins: DepthBins, stride: int) -> DepthGroundTruth:
    """Project the cloud into one camera and bin the nearest depth per pixel."""
    if stride < 1 or cam.height % stride or cam.width % stride:
        raise DimensionError(
            f"depth_ground_truth: camera {cam.name}: image {cam.height}x{cam.width} is not "
            f"divisible by stride {stride}"
        )
    hp, wp = cam.height // stride, cam.width // stride
    onehot = np.zeros((hp, wp, bins.count))
    mask = np.zeros((hp, wp))
    uv, depth, ok = project_points(pc.points[:, :3], cam)
    px, py = np.floor(uv[ok] / stride).astype(np.int64).T
    flat, depth = py * wp + px, depth[ok]
    # Nearest projecting point wins each feature pixel.
    order = np.lexsort((depth, flat))
    flat, depth = flat[order], depth[order]
    first = np.diff(flat, prepend=-1) != 0
    flat, depth = flat[first], depth[first]
    bin_idx, in_range = depth_to_bins(depth, bins)
    flat, bin_idx = flat[in_range], bin_idx[in_range]
    onehot.reshape(hp * wp, bins.count)[flat, bin_idx] = 1.0
    mask.reshape(hp * wp)[flat] = 1.0
    return DepthGroundTruth(onehot=onehot, mask=mask)


def depth_loss_multi(dists: list[Tensor], gts: list[DepthGroundTruth]) -> Tensor:
    """Bin-wise binary cross entropy pooled over cameras, averaged over valid pixels (at
    least 1). Only the supervised pixels' rows (mask nonzero) are gathered into it: the
    others weigh 0, so they would add exactly 0.0 and get zero gradients."""
    _check_camera_lists("depth_loss_multi", distributions=dists, targets=gts)
    for dist, gt in zip(dists, gts):
        if gt.onehot.shape != dist.shape or gt.mask.shape != dist.shape[:2]:
            raise DimensionError(
                f"depth_loss_multi: distribution {dist.shape} vs target {gt.onehot.shape}"
                f" with mask {gt.mask.shape}"
            )
    flat = [nm.reshape(d, (d.shape[0] * d.shape[1], d.shape[2])) for d in dists]
    mask = np.concatenate([g.mask.ravel() for g in gts], axis=0)
    supervised = np.flatnonzero(mask)
    rows = nm.gather_rows(nm.concat(flat, axis=0), supervised)
    target = np.concatenate([g.onehot[g.mask != 0] for g in gts], axis=0)
    weight = mask[supervised, None]
    valid = max(1.0, float(mask.sum()))
    return binary_log_loss(rows, target * weight / valid, (1.0 - target) * weight / valid, 0.0)


def _feature_pixel_rays(hp: int, wp: int, stride: int):
    """Image-plane (u, v) sampled at the center of each feature pixel's patch."""
    us = (np.arange(wp) + 0.5) * stride - 0.5
    vs = (np.arange(hp) + 0.5) * stride - 0.5
    u, v = np.meshgrid(us, vs)
    return np.stack([u.ravel(), v.ravel()], axis=1)


def _check_camera_lists(op: str, **lists) -> None:
    """Raise unless the per-camera lists are non-empty and equally long."""
    lengths = [len(items) for items in lists.values()]
    counts = ", ".join(f"{length} {name}" for name, length in zip(lists, lengths))
    if 0 in lengths:
        raise DimensionError(f"{op}: no cameras ({counts})")
    if len(set(lengths)) != 1:
        raise DimensionError(f"{op}: one entry per camera needed, got {counts}")


def _check_channels(op: str, what: str, feats: list[Tensor], cams: list[CameraParams]) -> None:
    """Raise unless every camera's feature is [H, W, C] with the first camera's C."""
    for feat, cam in zip(feats, cams):
        if feat.ndim != 3:
            raise DimensionError(f"{op}: camera {cam.name}: {what} {feat.shape} is not [H, W, C]")
    c = feats[0].shape[2]
    for feat, cam in zip(feats[1:], cams[1:]):
        if feat.shape[2] != c:
            raise DimensionError(
                f"{op}: camera {cam.name}: {what} has {feat.shape[2]} channels, "
                f"camera {cams[0].name}'s has {c}"
            )


def ray_stream(
    contexts: list[Tensor],
    dists: list[Tensor],
    cams: list[CameraParams],
    bins: DepthBins,
    bev_cfg: BEVConfig,
) -> Tensor:
    """Scatter depth-weighted context features into BEV cells, summed over cameras.

    For every (feature pixel, depth bin) the bin-center point along the
    pixel ray lands in at most one BEV cell; the pixel's context feature
    times its probability for that bin is added there. Out-of-range samples
    drop their mass.

    One tape node; its inputs are (context, distribution) per camera. For
    each context channel the kept samples' products sum per cell in sample
    order, and the cameras add in list order, so the output is bit-identical
    to the op chain (see the module docstring). Per camera the node keeps the
    context, the distribution and each sample's cell (n*n, a zero gradient,
    for a dropped one), transposed to [C, P], [D, P] and [D, P]. Per channel
    the VJP gathers the output gradient at the cells, [D, P], and contracts it
    with the distribution into that channel's context gradient and with the
    channel's context into the distribution gradient, so the gradients match
    the chain to rounding.
    """
    _check_camera_lists("ray_stream", contexts=contexts, distributions=dists, cameras=cams)
    _check_channels("ray_stream", "context", contexts, cams)
    for ctx, dist, cam in zip(contexts, dists, cams):
        hp, wp, _ = ctx.shape
        s = cam.width // wp
        if dist.shape != (hp, wp, bins.count):
            raise DimensionError(
                f"ray_stream: camera {cam.name}: context {ctx.shape} vs distribution "
                f"{dist.shape} over {bins.count} bins"
            )
        if s < 1 or (cam.height, cam.width) != (hp * s, wp * s):
            raise DimensionError(
                f"ray_stream: camera {cam.name}: image {cam.height}x{cam.width} is no "
                f"integer multiple of feature {hp}x{wp}"
            )
    n = bev_cfg.n
    c_t = contexts[0].shape[2]
    centers = bins.centers()
    maps = []  # per camera, transposed for contiguous per-channel passes: [C, P], [D, P], [D, P]
    total = None
    for ctx, dist, cam in zip(contexts, dists, cams):
        hp, wp, d = dist.shape
        uv = _feature_pixel_rays(hp, wp, cam.width // wp)
        world = unproject_points(np.repeat(uv, d, axis=0), np.tile(centers, hp * wp), cam)
        gx, gy, ok = bev_indices(world[:, :2], bev_cfg)
        cells = np.where(ok, gx * n + gy, n * n)  # n * n: the discard row
        keep = np.flatnonzero(ok)
        rows_t = np.ascontiguousarray(ctx.data.reshape(hp * wp, c_t).T)
        pix, wk = keep // d, np.take(dist.data, keep)
        products = (np.take(rows_t[j], pix) * wk for j in range(c_t))
        contrib = nm._column_sums(np.take(cells, keep), products, n * n)
        total = contrib if total is None else total + contrib
        w_t, cells_t = (a.reshape(hp * wp, d).T.copy() for a in (dist.data, cells))
        maps.append((rows_t, w_t, cells_t))

    def vjp(g):
        g_t = np.zeros((c_t, n * n + 1))  # column n * n: the discard row's zero gradient
        g_t[:, : n * n] = g.reshape(n * n, c_t).T
        grads = []
        for (rows_t, w_t, cells_t), ctx, dist in zip(maps, contexts, dists):
            g_ctx, g_dist = np.empty(rows_t.shape), np.zeros(w_t.shape)
            for j in range(c_t):
                gj = np.take(g_t[j], cells_t)  # [D, P]
                np.einsum("dp,dp->p", w_t, gj, out=g_ctx[j])
                gj *= rows_t[j]
                g_dist += gj
            grads += [g_ctx.T.reshape(ctx.shape), g_dist.T.reshape(dist.shape)]
        return tuple(grads)

    inputs = tuple(t for pair in zip(contexts, dists) for t in pair)
    saved = tuple(a for m in maps for a in m)
    return nm._emit("ray_stream", inputs, total.reshape(n, n, c_t), saved, vjp)


def point_stream(
    pc,
    hr_feats: list[Tensor],
    cams: list[CameraParams],
    bev_cfg: BEVConfig,
) -> Tensor:
    """Gather HR pixel features at LiDAR points, mean-pool per BEV cell.

    A (point, camera) pair is valid when the point projects in front of the
    camera and its nearest integer pixel lies inside the image. Each point
    averages its valid pixel features; each cell averages its valid points;
    cells with none stay zero.

    Points outside the BEV range are dropped first, so only in-range points
    are projected and gathered. A dropped point reaches no cell, and in
    backward it would only add +0.0 to pixel gradients that start at +0.0, so
    no output or gradient bit changes.

    One tape node; its inputs are the HR features. The cameras add per
    point in list order and the valid points sum per cell in point order,
    which keeps the results bit-identical (see the module docstring). A
    camera that sees no point gets no gradient.
    """
    _check_camera_lists("point_stream", features=hr_feats, cameras=cams)
    _check_channels("point_stream", "HR feature", hr_feats, cams)
    for feat, cam in zip(hr_feats, cams):
        if feat.shape[:2] != (cam.height, cam.width):
            raise DimensionError(
                f"point_stream: camera {cam.name}: HR feature {feat.shape[:2]} vs camera "
                f"{cam.height, cam.width}"
            )
    n = bev_cfg.n
    c = hr_feats[0].shape[2]
    gx, gy, in_range = bev_indices(pc.points[:, :2], bev_cfg)
    kept = np.flatnonzero(in_range)  # only these can reach a cell
    xyz = np.take(pc.points, kept, axis=0)[:, :3]  # take: ~3x faster than fancy indexing
    placements = []  # per seeing camera: (its index, seen kept points, their pixels)
    acc = np.zeros((len(kept), c))
    views = np.zeros(len(kept))
    for k, (feat, cam) in enumerate(zip(hr_feats, cams)):
        h, w, _ = feat.shape
        uv, depth, _ = project_points(xyz, cam)
        # Range-checked as floats; only the kept pixels are cast, so far points stay out of int64.
        u, v = np.rint(uv[:, 0]), np.rint(uv[:, 1])
        ok = (depth > 1e-6) & (u >= 0) & (u < w) & (v >= 0) & (v < h)
        if not ok.any():
            continue
        seen = np.flatnonzero(ok)
        pix = v[ok].astype(np.int64) * w + u[ok].astype(np.int64)
        acc[seen] += np.take(feat.data.reshape(h * w, c), pix, axis=0)
        views += ok
        placements.append((k, seen, pix))

    valid = np.flatnonzero(views > 0)
    inv_views = 1.0 / views[valid]
    cells = gx[kept[valid]] * n + gy[kept[valid]]
    counts = np.bincount(cells, minlength=n * n).astype(np.float64)
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    per_point = np.take(acc, valid, axis=0) * inv_views[:, None]
    meaned = nm._segment_sum(per_point, cells, n * n) * inv_counts[:, None]

    def vjp(g):
        g_acc = np.zeros((len(kept), c))  # rows no camera sees stay zero and are never read
        g_acc[valid] = (g.reshape(n * n, c) * inv_counts[:, None])[cells] * inv_views[:, None]
        grads = [None] * len(hr_feats)
        for k, seen, pix in placements:
            shape = hr_feats[k].shape
            grads[k] = nm._segment_sum(g_acc[seen], pix, shape[0] * shape[1]).reshape(shape)
        return tuple(grads)

    saved = (inv_views, valid, cells, inv_counts) + tuple(a for _, *m in placements for a in m)
    return nm._emit("point_stream", tuple(hr_feats), meaned.reshape(n, n, c), saved, vjp)


BevFuseParams = ConvBlockParams


def fuse_camera_bev(ray_bev: Tensor, point_bev: Tensor, params: BevFuseParams) -> Tensor:
    """Concatenate the two stream BEVs channel-wise and encode."""
    if ray_bev.shape[:2] != point_bev.shape[:2]:
        raise DimensionError(
            f"fuse_camera_bev: spatial shapes differ {ray_bev.shape} vs {point_bev.shape}"
        )
    merged = nm.concat([ray_bev, point_bev], axis=2)
    return conv_block(merged, params.conv1, params.conv2)
