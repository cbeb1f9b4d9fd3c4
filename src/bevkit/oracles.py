"""Brute-force reference implementations for the check suite.

Everything here trades speed for obviousness: explicit loops, exhaustive
enumeration, no shared code with the production paths it validates. The
check runner and the test suite both compare against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import BEVConfig, CameraParams, DepthBins


def bev_index(x: float, y: float, cfg: BEVConfig):
    """(gx, gy) owner cell of a ground point, or None outside the half-open BEV range."""
    if not (cfg.x_min <= x < cfg.x_max and cfg.y_min <= y < cfg.y_max):
        return None
    gx = int((x - cfg.x_min) * cfg.n / (cfg.x_max - cfg.x_min))
    gy = int((y - cfg.y_min) * cfg.n / (cfg.y_max - cfg.y_min))
    return min(gx, cfg.n - 1), min(gy, cfg.n - 1)


def _pinhole_inverse(u: float, v: float, depth: float, cam: CameraParams) -> np.ndarray:
    """World point seen at pixel (u, v) at camera depth, inverting the pinhole by hand."""
    x = (u - cam.cx) / cam.fx * depth
    y = (v - cam.cy) / cam.fy * depth
    return ((np.array([[x, y, depth]]) - cam.translation) @ cam.rotation)[0]


def _ray_sample_cells(dist: np.ndarray, cam: CameraParams, bins: DepthBins, bev_cfg: BEVConfig):
    """(row, col, bin, cell) for every (feature pixel, depth bin) sample of one camera;
    cell is None where the bin-centre point falls off the grid."""
    hp, wp, d_count = dist.shape
    stride = cam.width // wp
    for row in range(hp):
        for col in range(wp):
            u = (col + 0.5) * stride - 0.5
            v = (row + 0.5) * stride - 0.5
            for d in range(d_count):
                world = _pinhole_inverse(u, v, bins.d_min + (d + 0.5) * bins.delta, cam)
                yield row, col, d, bev_index(world[0], world[1], bev_cfg)


def ray_stream_oracle(
    contexts: list[np.ndarray],
    dists: list[np.ndarray],
    cams: list[CameraParams],
    bins: DepthBins,
    bev_cfg: BEVConfig,
) -> np.ndarray:
    """Triple loop over (camera, pixel, depth bin), materializing every sample."""
    n = bev_cfg.n
    out = np.zeros((n, n, contexts[0].shape[2]))
    for ctx, dist, cam in zip(contexts, dists, cams):
        for row, col, d, cell in _ray_sample_cells(dist, cam, bins, bev_cfg):
            if cell is not None:
                out[cell] += ctx[row, col] * dist[row, col, d]
    return out


def ray_pixel_cell_counts(
    dists: list[np.ndarray],
    cams: list[CameraParams],
    bins: DepthBins,
    bev_cfg: BEVConfig,
) -> list[int]:
    """Per (camera, pixel): how many distinct BEV cells receive nonzero mass."""
    touched: dict[tuple, set] = {}
    for k, (dist, cam) in enumerate(zip(dists, cams)):
        for row, col, d, cell in _ray_sample_cells(dist, cam, bins, bev_cfg):
            cells = touched.setdefault((k, row, col), set())
            if cell is not None and dist[row, col, d] != 0.0:
                cells.add(cell)
    return [len(cells) for cells in touched.values()]


def point_stream_oracle(
    points: np.ndarray,
    hr_feats: list[np.ndarray],
    cams: list[CameraParams],
    bev_cfg: BEVConfig,
) -> np.ndarray:
    """Per-point loop: project into each camera, read one pixel, average."""
    n = bev_cfg.n
    c = hr_feats[0].shape[2]
    sums = np.zeros((n, n, c))
    counts = np.zeros((n, n))
    for p in points:
        feats = []
        for feat, cam in zip(hr_feats, cams):
            p_cam = cam.rotation @ p[:3] + cam.translation
            if p_cam[2] <= 1e-6:
                continue
            u = cam.fx * p_cam[0] / p_cam[2] + cam.cx
            v = cam.fy * p_cam[1] / p_cam[2] + cam.cy
            px, py = int(np.rint(u)), int(np.rint(v))
            if 0 <= px < cam.width and 0 <= py < cam.height:
                feats.append(feat[py, px])
        if not feats:
            continue
        cell = bev_index(p[0], p[1], bev_cfg)
        if cell is None:
            continue
        sums[cell[0], cell[1]] += np.mean(feats, axis=0)
        counts[cell[0], cell[1]] += 1
    nz = counts > 0
    sums[nz] /= counts[nz][:, None]
    return sums


def voxel_means_oracle(points: np.ndarray, cfg):
    """(occupied [V, 3], means [V, 5], counts [V]) in ascending voxel order, for any config
    with size, the six range fields and counts. Each point is floored in plain floats; each
    voxel adds its rows one at a time from 0.0 in sorted (lexicographic) row order."""
    lows = (cfg.x_min, cfg.y_min, cfg.z_min)
    highs = (cfg.x_max, cfg.y_max, cfg.z_max)
    groups: dict[tuple, list] = {}
    for row in np.asarray(points, dtype=np.float64).tolist():
        key = tuple(math.floor((row[a] - lows[a]) / cfg.size[a]) for a in range(3))
        if all(lows[a] <= row[a] < highs[a] and key[a] < cfg.counts[a] for a in range(3)):
            groups.setdefault(key, []).append(row)
    keys = sorted(groups)
    means = []
    for key in keys:
        acc = [0.0] * 5
        for row in sorted(groups[key]):
            acc = [a + r for a, r in zip(acc, row)]
        means.append([a / len(groups[key]) for a in acc])
    return (
        np.array(keys, dtype=np.int64).reshape(-1, 3),
        np.array(means, dtype=np.float64).reshape(-1, 5),
        np.array([len(groups[key]) for key in keys], dtype=np.int64),
    )


def dense_lidar_bev_oracle(occupied, means, counts, weights, g):
    """(bev [X, Y, C_l], gradients) of the LiDAR branch through a dense middle tensor.

    occupied [V, 3] and means [V, 5] are the grid's voxels, counts its (X, Y, Z);
    weights is (w1, b1, w2, b2, wp, bp): the encoder's hidden and output layers, then
    the z projection. Every voxel is encoded and written into a zero [X, Y, Z, C_m]
    middle, whose z slices are concatenated and projected. The gradients, of
    sum(bev * g) with respect to the six weights in order, are derived by hand.
    """
    w1, b1, w2, b2, wp, bp = weights
    X, Y, Z = counts
    voxels = [tuple(key) for key in np.asarray(occupied).tolist()]
    pre = means @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    encoded = hidden @ w2.T + b2
    middle = np.zeros((X, Y, Z, w2.shape[0]))
    for key, row in zip(voxels, encoded):
        middle[key] += row
    stacked = middle.reshape(X * Y, -1)
    bev = stacked @ wp.T + bp
    g2 = np.asarray(g).reshape(X * Y, -1)
    d_middle = (g2 @ wp).reshape(middle.shape)
    d_encoded = np.array([d_middle[key] for key in voxels]).reshape(encoded.shape)
    d_pre = (d_encoded @ w2) * (pre > 0)
    grads = (
        d_pre.T @ means, d_pre.sum(axis=0),
        d_encoded.T @ hidden, d_encoded.sum(axis=0),
        g2.T @ stacked, g2.sum(axis=0),
    )
    return bev.reshape(X, Y, -1), grads


def convex_overlap_area(a, b) -> float:
    """Area shared by two convex polygons [k, 2] of either winding: Sutherland-Hodgman
    clips a by each edge of b in turn, and the shoelace formula measures what is left."""

    def signed_area(poly):
        return 0.5 * sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1]))

    subject = [(float(x), float(y)) for x, y in a]
    clip = [(float(x), float(y)) for x, y in b]
    # Inside an edge is to its left on a counter-clockwise b, to its right otherwise.
    sign = 1.0 if signed_area(clip) > 0 else -1.0
    for c0, c1 in zip(clip, clip[1:] + clip[:1]):
        ex, ey = c1[0] - c0[0], c1[1] - c0[1]
        kept = []
        for p, q in zip(subject, subject[1:] + subject[:1]):
            sp = sign * (ex * (p[1] - c0[1]) - ey * (p[0] - c0[0]))
            sq = sign * (ex * (q[1] - c0[1]) - ey * (q[0] - c0[0]))
            if sp >= 0:
                kept.append(p)
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                kept.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        subject = kept
        if not subject:
            return 0.0
    return abs(signed_area(subject))


def conv2d_oracle(image: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  kernel: int, stride: int, pad: int) -> np.ndarray:
    """Direct sliding-window convolution; weight is [out_c, k*k*in_c]."""
    h, w, cin = image.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    padded[pad : pad + h, pad : pad + w] = image
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    cout = weight.shape[0]
    out = np.zeros((oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            patch = padded[oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel]
            out[oy, ox] = weight @ patch.ravel() + bias
    return out


def upsample_oracle(feat: np.ndarray, weight: np.ndarray, bias: np.ndarray, factor: int) -> np.ndarray:
    """Transposed convolution with kernel == stride: per-pixel block expansion."""
    h, w, cin = feat.shape
    cout = weight.shape[0] // (factor * factor)
    out = np.zeros((h * factor, w * factor, cout))
    for y in range(h):
        for x in range(w):
            block = (weight @ feat[y, x] + bias).reshape(factor, factor, cout)
            out[y * factor : (y + 1) * factor, x * factor : (x + 1) * factor] = block
    return out


def select_candidates_oracle(heatmap: np.ndarray, k: int):
    """O(XY) scan: eligibility by explicit neighbor comparison, then sort."""
    X, Y, _ = heatmap.shape
    entries = []
    for gx in range(X):
        for gy in range(Y):
            score = heatmap[gx, gy].max()
            cls = int(heatmap[gx, gy].argmax())
            ok = True
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    nx, ny = gx + dx, gy + dy
                    if 0 <= nx < X and 0 <= ny < Y and score < heatmap[nx, ny].max():
                        ok = False
            if ok:
                entries.append((-score, gx, gy, cls))
    entries.sort()
    return [(gx, gy, cls) for _, gx, gy, cls in entries[:k]]


def hungarian_oracle(cost: np.ndarray):
    """Exhaustive enumeration over injections; feasible for min(m, n) <= 7.

    Returns (best total, lexicographically smallest optimal pair list).
    """
    m, n = cost.shape
    k = min(m, n)
    best_total = math.inf
    best_pairs = None
    for row_subset in itertools.combinations(range(m), k):
        for perm in itertools.permutations(range(n), k):
            pairs = sorted(zip(row_subset, perm))
            total = math.fsum(cost[i, j] for i, j in pairs)
            if total < best_total or (total == best_total and pairs < best_pairs):
                best_total, best_pairs = total, pairs
    return best_total, best_pairs or []


def greedy_match_oracle(det_centers, det_classes, det_scores, gt_centers, gt_classes, threshold):
    """All-pairs distance table plus an explicit greedy scan in score order."""
    order = sorted(range(len(det_scores)), key=lambda i: -det_scores[i])
    taken = set()
    tp = [False] * len(det_scores)
    for di in order:
        best, best_dist = None, threshold
        for gi in range(len(gt_centers)):
            if gi in taken or gt_classes[gi] != det_classes[di]:
                continue
            dist = math.hypot(
                det_centers[di][0] - gt_centers[gi][0],
                det_centers[di][1] - gt_centers[gi][1],
            )
            if dist < best_dist:
                best, best_dist = gi, dist
        if best is not None:
            taken.add(best)
            tp[di] = True
    return tp


def average_precision_oracle(tp_flags, num_gt: int) -> float:
    """Hand integration of the 101-point rule with explicit interpolation.

    Queries hitting a repeated recall value take the last sample there
    (the lowest precision reached at that recall), matching interpolation
    over the accumulated curve.
    """
    if num_gt == 0:
        return math.nan if not tp_flags else 0.0
    if not tp_flags:
        return 0.0
    rec, prec = [], []
    tp = fp = 0
    for flag in tp_flags:
        tp += flag
        fp += not flag
        rec.append(tp / num_gt)
        prec.append(tp / (tp + fp))
    total = 0.0
    for step in range(11, 101):
        r = step / 100.0
        if r < rec[0]:
            p = prec[0]
        elif r > rec[-1]:
            p = 0.0
        else:
            j = max(i for i in range(len(rec)) if rec[i] <= r)
            if rec[j] == r or j == len(rec) - 1:
                p = prec[j]
            else:
                w = (r - rec[j]) / (rec[j + 1] - rec[j])
                p = prec[j] + w * (prec[j + 1] - prec[j])
        total += max(0.0, p - 0.1)
    return total / 90.0 / (1.0 - 0.1)
