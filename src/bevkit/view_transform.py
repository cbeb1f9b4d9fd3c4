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
from .layers import ConvBlockParams, LinearParams, conv_block, row_scale, upsample_shuffle
from .losses import PROB_FLOOR
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
    """Image [H, W, C] -> low-resolution feature [H/s, W/s, C_f]."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    s = params.conv1.stride
    if img.shape[0] % s or img.shape[1] % s:
        raise DimensionError(
            f"camera_encode: {img.shape[:2]} not divisible by stride {s}"
        )
    return conv_block(img, params.conv1, params.conv2)


def upsample_hr(lr_feat: Tensor, params: LinearParams, factor: int = 2) -> Tensor:
    """LR feature back to image resolution with fewer channels."""
    return upsample_shuffle(lr_feat, params, factor)


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
    hp, wp, cf = lr_feat.shape
    intr = np.array(
        [cam.fx / cam.width, cam.fy / cam.height, cam.cx / cam.width, cam.cy / cam.height]
    )
    emb = nm.linear(Tensor(intr.reshape(1, 4)), params.cam_embed)
    ones = Tensor(np.ones((hp * wp, 1)))
    tiled = nm.matmul(ones, emb)
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
    if len(pc) == 0:
        return DepthGroundTruth(onehot=onehot, mask=mask)
    uv, depth, ok = project_points(pc.points[:, :3], cam)
    if not ok.any():
        return DepthGroundTruth(onehot=onehot, mask=mask)
    uv, depth = uv[ok], depth[ok]
    px = np.floor(uv[:, 0] / stride).astype(np.int64)
    py = np.floor(uv[:, 1] / stride).astype(np.int64)
    flat = py * wp + px
    # Nearest projecting point wins each feature pixel.
    order = np.lexsort((depth, flat))
    flat, depth = flat[order], depth[order]
    first = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    flat, depth = flat[first], depth[first]
    bin_idx, in_range = depth_to_bins(depth, bins)
    flat, bin_idx = flat[in_range], bin_idx[in_range]
    onehot.reshape(hp * wp, bins.count)[flat, bin_idx] = 1.0
    mask.reshape(hp * wp)[flat] = 1.0
    return DepthGroundTruth(onehot=onehot, mask=mask)


def depth_loss_multi(dists: list[Tensor], gts: list[DepthGroundTruth]) -> Tensor:
    """Bin-wise binary cross entropy pooled over cameras, averaged over valid pixels."""
    for dist, gt in zip(dists, gts, strict=True):
        if gt.onehot.shape != dist.shape or gt.mask.shape != dist.shape[:2]:
            raise DimensionError(
                f"depth_loss_multi: distribution {dist.shape} vs target {gt.onehot.shape}"
                f" with mask {gt.mask.shape}"
            )
    rows = nm.concat(
        [nm.reshape(d, (d.shape[0] * d.shape[1], d.shape[2])) for d in dists], axis=0
    )
    target = np.concatenate([g.onehot.reshape(-1, g.onehot.shape[2]) for g in gts], axis=0)
    mask = np.concatenate([g.mask.ravel() for g in gts], axis=0)
    p = nm.clamp(rows, PROB_FLOOR, 1.0 - PROB_FLOOR)
    t = Tensor(target)
    pos = nm.mul(t, nm.log(p))
    neg = nm.mul(nm.sub(Tensor(np.ones_like(target)), t), nm.log(nm.sub(Tensor(np.ones_like(target)), p)))
    per_bin = nm.mul(nm.add(pos, neg), -1.0)
    per_pixel = nm.sum(per_bin, axis=1)
    masked = nm.mul(per_pixel, Tensor(mask))
    valid = max(1.0, float(mask.sum()))
    return nm.mul(nm.sum(masked), 1.0 / valid)


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
    """
    _check_camera_lists("ray_stream", contexts=contexts, distributions=dists, cameras=cams)
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
    total = None
    for ctx, dist, cam in zip(contexts, dists, cams):
        hp, wp, _ = ctx.shape
        d = dist.shape[2]
        stride = cam.width // wp
        uv = _feature_pixel_rays(hp, wp, stride)
        centers = bins.centers()
        uv_rep = np.repeat(uv, d, axis=0)
        depth_rep = np.tile(centers, hp * wp)
        world = unproject_points(uv_rep, depth_rep, cam)
        gx, gy, ok = bev_indices(world[:, :2], bev_cfg)
        cell = gx * n + gy

        feat_rows = nm.gather_rows(
            nm.reshape(ctx, (hp * wp, c_t)), np.repeat(np.arange(hp * wp), d)
        )
        weights = nm.reshape(dist, (hp * wp * d,))
        weighted = row_scale(feat_rows, weights)
        keep = np.flatnonzero(ok)
        contrib = nm.scatter_add(nm.gather_rows(weighted, keep), cell[keep], n * n)
        total = contrib if total is None else nm.add(total, contrib)
    return nm.reshape(total, (n, n, c_t))


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
    """
    _check_camera_lists("point_stream", features=hr_feats, cameras=cams)
    n = bev_cfg.n
    c = hr_feats[0].shape[2]
    n_pts = len(pc)
    if n_pts == 0:
        return Tensor(np.zeros((n, n, c)))
    acc = None
    views = np.zeros(n_pts)
    for feat, cam in zip(hr_feats, cams):
        h, w, _ = feat.shape
        if (h, w) != (cam.height, cam.width):
            raise DimensionError(
                f"point_stream: HR feature {feat.shape[:2]} vs camera {cam.height, cam.width}"
            )
        uv, depth, _ = project_points(pc.points[:, :3], cam)
        px = np.rint(uv[:, 0]).astype(np.int64)
        py = np.rint(uv[:, 1]).astype(np.int64)
        ok = (depth > 1e-6) & (px >= 0) & (px < w) & (py >= 0) & (py < h)
        if not ok.any():
            continue
        rows = nm.gather_rows(nm.reshape(feat, (h * w, c)), (py[ok] * w + px[ok]))
        gathered = nm.scatter_add(rows, np.flatnonzero(ok), n_pts)
        acc = gathered if acc is None else nm.add(acc, gathered)
        views += ok
    if acc is None:
        return Tensor(np.zeros((n, n, c)))
    inv_views = np.where(views > 0, 1.0 / np.maximum(views, 1), 0.0)
    per_point = row_scale(acc, Tensor(inv_views))

    gx, gy, in_range = bev_indices(pc.points[:, :2], bev_cfg)
    valid = np.flatnonzero((views > 0) & in_range)
    if valid.size == 0:
        return Tensor(np.zeros((n, n, c)))
    cells = gx[valid] * n + gy[valid]
    summed = nm.scatter_add(nm.gather_rows(per_point, valid), cells, n * n)
    counts = np.bincount(cells, minlength=n * n).astype(np.float64)
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    meaned = row_scale(summed, Tensor(inv_counts))
    return nm.reshape(meaned, (n, n, c))


BevFuseParams = ConvBlockParams


def fuse_camera_bev(ray_bev: Tensor, point_bev: Tensor, params: BevFuseParams) -> Tensor:
    """Concatenate the two stream BEVs channel-wise and encode."""
    if ray_bev.shape[:2] != point_bev.shape[:2]:
        raise DimensionError(
            f"fuse_camera_bev: spatial shapes differ {ray_bev.shape} vs {point_bev.shape}"
        )
    merged = nm.concat([ray_bev, point_bev], axis=2)
    return conv_block(merged, params.conv1, params.conv2)
