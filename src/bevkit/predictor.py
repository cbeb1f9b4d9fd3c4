"""Candidate selection and the two-branch prediction head.

Flow: the fused BEV feeds a class-aware heatmap; its top local maxima become
candidates. A one-layer cross-attention decoder turns candidate cells into
general features. Separately, unshared encoders over the camera and LiDAR
BEVs produce per-candidate class and box features (joint self-attention over
both modality token sets); the encoders are evaluated only on the
candidates' receptive field, never on the whole grid. A per-row modulation
fuser combines general and task-specific features into the query each sub-task
head consumes, so the classification and regression heads stop competing for
one shared feature. The heads return raw arrays (HeadOutput), which is all
the losses read; decode_detections turns them into metrics.BoxRecord rows
for the evaluator, only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics as nm
from .geometry import BEVConfig
from .layers import (
    AttentionParams,
    Conv2dParams,
    ConvBlockParams,
    FfnParams,
    attention,
    conv_block,
    conv_block_at,
    ffn,
    sinusoidal_encoding,
)
from .metrics import BoxRecord
from .numerics import DimensionError, LinearParams, NumericError, Tensor

BOX_DIM = 10  # dx, dy, z, log l, log w, log h, sin yaw, cos yaw, vx, vy


@dataclass(frozen=True)
class CandidateSet:
    """Selected heatmap peaks: K cells with their argmax class and score."""

    cells: np.ndarray  # [K, 2] (gx, gy)
    classes: np.ndarray  # [K]
    scores: np.ndarray  # [K], non-increasing

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[1] != 2 or not np.issubdtype(cells.dtype, np.integer):
            raise DimensionError(f"candidate cells must be integer [K, 2], got {cells.dtype} "
                                 f"{cells.shape}")
        if not np.shape(self.classes) == np.shape(self.scores) == cells.shape[:1]:
            raise DimensionError(
                f"candidate classes {np.shape(self.classes)} and scores {np.shape(self.scores)} "
                f"must be [K] for cells {cells.shape}"
            )
        classes = np.asarray(self.classes)
        if not np.issubdtype(classes.dtype, np.integer):
            raise DimensionError(f"candidate classes must be integer, got {classes.dtype}")
        if len(self.scores) > 1 and np.any(np.diff(self.scores) > 0):
            raise ValueError("candidate scores must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.scores)

    def flat_cells(self, grid_n: int) -> np.ndarray:
        return self.cells[:, 0] * grid_n + self.cells[:, 1]


HeatmapParams = ConvBlockParams  # conv2 out channels = class count


def heatmap_head(b_f: Tensor, params: HeatmapParams) -> Tensor:
    """Per-cell, per-class scores in (0, 1): conv, relu, conv, sigmoid."""
    return nm.sigmoid(conv_block(b_f, params.conv1, params.conv2))


def select_candidates(heatmap, k: int) -> CandidateSet:
    """Top-k cells whose best class score is a local maximum.

    A cell is eligible when its score is the maximum of its 3x3 window, so
    >= every in-grid neighbor (border windows are padded with -inf; a
    constant plateau makes every cell eligible). Ties in score break by
    (gx, gy, class), lexicographically smallest first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = heatmap.data if isinstance(heatmap, Tensor) else np.asarray(heatmap)
    if h.ndim != 3 or 0 in h.shape:
        raise DimensionError(
            f"select_candidates: heatmap must be [X, Y, N] with extents >= 1, got {h.shape}"
        )
    if not isinstance(heatmap, Tensor) and not np.isfinite(h).all():  # a Tensor is finite
        raise NumericError("select_candidates: heatmap contains NaN or Inf")
    X, Y, _ = h.shape
    score = h.max(axis=2)
    cls = h.argmax(axis=2)
    padded = np.full((X + 2, Y + 2), -np.inf)
    padded[1:-1, 1:-1] = score
    eligible = score >= sliding_window_view(padded, (3, 3)).max(axis=(2, 3))
    gx, gy = np.nonzero(eligible)
    sc = score[gx, gy]
    cl = cls[gx, gy]
    order = np.lexsort((cl, gy, gx, -sc))
    take = order[:k]
    return CandidateSet(
        cells=np.stack([gx[take], gy[take]], axis=1),
        classes=cl[take],
        scores=sc[take],
    )


@dataclass(frozen=True)
class DecoderParams:
    class_embed: Tensor  # [N, C]
    attn: AttentionParams
    ffn: FfnParams


def decode_general(b_f: Tensor, cands: CandidateSet, params: DecoderParams) -> Tensor:
    """General per-candidate features via one cross-attention layer.

    Query init: the candidate's fused-BEV cell feature plus a learned class
    embedding plus a fixed sinusoidal code of the cell coordinates. Keys and
    values are all BEV cells. The feed-forward refinement is residual, so a
    zeroed FFN leaves the attended values untouched.
    """
    X, Y, C = b_f.shape
    rows = nm.reshape(b_f, (X * Y, C))
    q = nm.gather_rows(rows, cands.flat_cells(Y))
    q = nm.add(q, nm.gather_rows(params.class_embed, cands.classes))
    q = nm.add(q, sinusoidal_encoding(cands.cells[:, 0], cands.cells[:, 1], C))
    decoded, _ = attention(q, rows, params.attn)
    return nm.add(decoded, ffn(decoded, params.ffn))


@dataclass(frozen=True)
class TaskFeatureParams:
    cam_conv1: Conv2dParams
    cam_conv2: Conv2dParams
    lidar_conv1: Conv2dParams
    lidar_conv2: Conv2dParams
    attn: AttentionParams
    ffn_class: FfnParams  # 2C -> C
    ffn_box: FfnParams  # 2C -> C


def task_specific_features(
    b_c: Tensor, b_l: Tensor, cands: CandidateSet, params: TaskFeatureParams
):
    """Class and box features per candidate from unshared modality encoders.

    Camera and LiDAR BEVs each pass an unshared conv-relu-conv encoder read
    at the shared candidate cells (layers.conv_block_at: evaluated only on
    the candidates' receptive field), are fused across modalities by
    self-attention over the 2K-token sequence, and are finally split
    through two unshared FFNs.
    """
    if b_c.shape[:2] != b_l.shape[:2]:
        raise DimensionError(
            f"task features: camera and LiDAR BEV shapes differ {b_c.shape} vs {b_l.shape}"
        )
    q_c = conv_block_at(b_c, params.cam_conv1, params.cam_conv2, cands.cells)
    q_l = conv_block_at(b_l, params.lidar_conv1, params.lidar_conv2, cands.cells)
    tokens = nm.concat([q_c, q_l], axis=0)
    attended, _ = attention(tokens, tokens, params.attn)
    updated = nm.add(tokens, attended)
    # Token i and token K + i, side by side: [2K, C] -> [2, K, C] -> [K, 2, C] -> [K, 2C].
    k, c = cands.k, updated.shape[1]
    paired = nm.reshape(nm.permute(nm.reshape(updated, (2, k, c)), (1, 0, 2)), (k, 2 * c))
    return ffn(paired, params.ffn_class), ffn(paired, params.ffn_box)


@dataclass(frozen=True)
class FuserParams:
    """Modulation fuser: four map heads over [general, specific] plus output."""

    gamma_s: LinearParams
    beta_s: LinearParams
    gamma_g: LinearParams
    beta_g: LinearParams
    out: LinearParams

    def __post_init__(self):
        dims = {p.in_dim for p in (self.gamma_s, self.beta_s, self.gamma_g, self.beta_g)}
        if len(dims) != 1:
            raise DimensionError("fuser heads must share one concatenated input dim")
        if self.gamma_s.out_dim != self.beta_s.out_dim or self.gamma_g.out_dim != self.beta_g.out_dim:
            raise DimensionError("gamma/beta pairs must match the feature they modulate")


def task_specific_fuse(f_g: Tensor, f_s: Tensor, p: FuserParams) -> Tensor:
    """Per-row gated blend of general and task-specific features.

    joint = [f_g, f_s]; each of the four heads predicts a per-channel gain
    or shift; the output map mixes [gain_s * f_s + shift_s,
    gain_g * f_g + shift_g] into the task query.
    """
    if f_g.shape[0] != f_s.shape[0]:
        raise DimensionError("fuser: row counts differ")
    joint = nm.concat([f_g, f_s], axis=1)
    if joint.shape[1] != p.gamma_s.in_dim:
        raise DimensionError(
            f"fuser: joint dim {joint.shape[1]} vs heads expecting {p.gamma_s.in_dim}"
        )
    mod_s = nm.add(nm.mul(nm.linear(joint, p.gamma_s), f_s), nm.linear(joint, p.beta_s))
    mod_g = nm.add(nm.mul(nm.linear(joint, p.gamma_g), f_g), nm.linear(joint, p.beta_g))
    return nm.linear(nm.concat([mod_s, mod_g], axis=1), p.out)


def decode_box(cell, box: np.ndarray, bev_cfg: BEVConfig):
    """Encoded box -> (center, size, yaw, velocity), at one cell (gx, gy) with
    box [BOX_DIM] or at cells [K, 2] with boxes [K, BOX_DIM], as encode_box_for_cell.

    Positional offsets are in cell units relative to the cell's center;
    sizes come back through exp; the yaw (sin, cos) pair is normalized
    before atan2 (a zero-norm pair decodes to yaw 0 and is not divided by).
    """
    cell = np.asarray(cell, dtype=np.int64)
    cx, cy = bev_cfg.cell_center(cell[..., 0], cell[..., 1])
    x, y = cx + box[..., 0] * bev_cfg.cell_w, cy + box[..., 1] * bev_cfg.cell_h
    s, c = box[..., 6], box[..., 7]
    norm = np.hypot(s, c)
    safe = np.where(norm > 1e-12, norm, 1.0)
    yaw = np.where(norm > 1e-12, np.arctan2(s / safe, c / safe), 0.0)
    return np.stack([x, y, box[..., 2]], axis=-1), np.exp(box[..., 3:6]), yaw, box[..., 8:10].copy()


def encode_box_for_cell(gt_box, cell, bev_cfg: BEVConfig) -> np.ndarray:
    """Ground-truth box in the head's 10-dim parameterization at one cell
    (gx, gy) -> [BOX_DIM], or at each of the cells [K, 2] -> [K, BOX_DIM]."""
    cell = np.asarray(cell, dtype=np.int64)
    cx, cy = bev_cfg.cell_center(cell[..., 0], cell[..., 1])
    out = np.empty(cell.shape[:-1] + (BOX_DIM,))
    out[..., 0] = (gt_box.center[0] - cx) / bev_cfg.cell_w
    out[..., 1] = (gt_box.center[1] - cy) / bev_cfg.cell_h
    yaw = gt_box.yaw
    out[..., 2:] = [gt_box.center[2], *np.log(gt_box.size), np.sin(yaw), np.cos(yaw), *gt_box.velocity]
    return out


@dataclass(frozen=True)
class HeadParams:
    classifier: FfnParams  # C -> N
    box: FfnParams  # C -> BOX_DIM


@dataclass(frozen=True)
class HeadOutput:
    """Raw head outputs, one row per candidate; decode_detections decodes them."""

    class_logits: Tensor  # [K, N]
    boxes: Tensor  # [K, BOX_DIM]


def subtask_heads(
    q_cls: Tensor, q_box: Tensor, params: HeadParams, cands: CandidateSet, bev_cfg: BEVConfig
) -> HeadOutput:
    """Main heads: class FFN on the class query, box FFN on the box query, one
    row per candidate. bev_cfg is unused until the benchmark stops passing it."""
    if not q_cls.shape[0] == q_box.shape[0] == cands.k:
        raise DimensionError(
            f"subtask heads: {q_cls.shape[0]} class and {q_box.shape[0]} box query rows "
            f"for {cands.k} candidates"
        )
    return HeadOutput(ffn(q_cls, params.classifier), ffn(q_box, params.box))


def check_head_output(op: str, output: HeadOutput, cands: CandidateSet) -> None:
    """Raise DimensionError unless the heads give one row per candidate and boxes
    BOX_DIM wide."""
    rows, boxes = output.class_logits.shape[0], output.boxes.shape
    if not rows == boxes[0] == cands.k:
        raise DimensionError(
            f"{op}: {rows} class logit and {boxes[0]} box rows for {cands.k} candidates"
        )
    if boxes[1:] != (BOX_DIM,):
        raise DimensionError(f"{op}: boxes have shape {boxes}, not [K, BOX_DIM = {BOX_DIM}]")


def decode_detections(output: HeadOutput, cands: CandidateSet, bev_cfg: BEVConfig) -> list[BoxRecord]:
    """One BoxRecord per candidate, in candidate order: the argmax class, the
    sigmoid of its logit as the score, and the decoded box."""
    check_head_output("decode_detections", output, cands)
    logits = output.class_logits.data
    classes = logits.argmax(axis=1)
    scores = nm._sigmoid(logits[np.arange(cands.k), classes])
    center, size, yaw, velocity = decode_box(cands.cells, output.boxes.data, bev_cfg)
    return [
        BoxRecord(int(k), float(p), c, s, float(y), v)
        for k, p, c, s, y, v in zip(classes, scores, center, size, yaw, velocity)
    ]


BevFuserParams = ConvBlockParams


def fuse_bev(b_c: Tensor, b_l: Tensor, params: BevFuserParams) -> Tensor:
    """Camera BEV + LiDAR BEV -> fused BEV for the heatmap and decoder."""
    if b_c.shape[:2] != b_l.shape[:2]:
        raise DimensionError(f"fuse_bev: spatial shapes differ {b_c.shape} vs {b_l.shape}")
    merged = nm.concat([b_c, b_l], axis=2)
    return conv_block(merged, params.conv1, params.conv2)
