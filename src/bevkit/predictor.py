"""Candidate selection and the two-branch prediction head.

Flow: the fused BEV feeds a class-aware heatmap; its top local maxima become
candidates. A one-layer cross-attention decoder turns candidate cells into
general features. Separately, unshared encoders over the camera and LiDAR
BEVs produce per-candidate class and box features (joint self-attention over
both modality token sets). A per-row modulation fuser combines general and
task-specific features into the query each sub-task head consumes, so the
classification and regression heads stop competing for one shared feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import BEVConfig
from .layers import (
    AttentionParams,
    Conv2dParams,
    ConvBlockParams,
    FfnParams,
    attention,
    conv_block,
    ffn,
    sinusoidal_encoding,
)
from .numerics import DimensionError, LinearParams, Tensor

BOX_DIM = 10  # dx, dy, z, log l, log w, log h, sin yaw, cos yaw, vx, vy


@dataclass(frozen=True)
class CandidateSet:
    """Selected heatmap peaks: K cells with their argmax class and score."""

    cells: np.ndarray  # [K, 2] (gx, gy)
    classes: np.ndarray  # [K]
    scores: np.ndarray  # [K], non-increasing

    def __post_init__(self):
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

    A cell is eligible when its score is >= every in-grid neighbor of the
    8-ring (border cells compare only existing neighbors; a constant
    plateau makes every cell eligible). Ties in score break by
    (gx, gy, class), lexicographically smallest first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = heatmap.data if isinstance(heatmap, Tensor) else np.asarray(heatmap)
    X, Y, _ = h.shape
    score = h.max(axis=2)
    cls = h.argmax(axis=2)
    padded = np.full((X + 2, Y + 2), -np.inf)
    padded[1:-1, 1:-1] = score
    eligible = np.ones((X, Y), dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbor = padded[1 + dx : 1 + dx + X, 1 + dy : 1 + dy + Y]
            eligible &= score >= neighbor
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
    q = nm.add(q, Tensor(sinusoidal_encoding(cands.cells[:, 0], cands.cells[:, 1], C)))
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

    Camera and LiDAR BEVs are re-encoded separately, sampled at the shared
    candidate cells, fused across modalities by self-attention over the
    2K-token sequence, and finally split through two unshared FFNs.
    """
    if b_c.shape[:2] != b_l.shape[:2]:
        raise DimensionError("task features: camera and LiDAR BEV shapes differ")
    enc_c = conv_block(b_c, params.cam_conv1, params.cam_conv2)
    enc_l = conv_block(b_l, params.lidar_conv1, params.lidar_conv2)
    X, Y, C = enc_c.shape
    flat = cands.flat_cells(Y)
    q_c = nm.gather_rows(nm.reshape(enc_c, (X * Y, C)), flat)
    q_l = nm.gather_rows(nm.reshape(enc_l, (X * Y, C)), flat)
    tokens = nm.concat([q_c, q_l], axis=0)
    attended, _ = attention(tokens, tokens, params.attn)
    updated = nm.add(tokens, attended)
    k = cands.k
    paired = nm.concat(
        [
            nm.gather_rows(updated, np.arange(k)),
            nm.gather_rows(updated, np.arange(k, 2 * k)),
        ],
        axis=1,
    )
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


@dataclass(frozen=True)
class Detection:
    """One predicted object: raw head outputs plus decoded world-frame box."""

    cell: tuple[int, int]
    class_id: int
    score: float
    class_logits: np.ndarray  # [N]
    box_encoded: np.ndarray  # [BOX_DIM]
    center: np.ndarray  # [3] world meters
    size: np.ndarray  # [3] (l, w, h)
    yaw: float
    velocity: np.ndarray  # [2]


def decode_box(cell, box: np.ndarray, bev_cfg: BEVConfig):
    """Encoded 10-vector -> (center, size, yaw, velocity).

    Positional offsets are in cell units relative to the candidate cell's
    center; sizes come back through exp; the yaw (sin, cos) pair is
    normalized before atan2 (zero-norm decodes to yaw 0).
    """
    cx, cy = bev_cfg.cell_center(int(cell[0]), int(cell[1]))
    center = np.array(
        [cx + box[0] * bev_cfg.cell_w, cy + box[1] * bev_cfg.cell_h, box[2]]
    )
    size = np.exp(box[3:6])
    s, c = box[6], box[7]
    norm = np.hypot(s, c)
    yaw = float(np.arctan2(s / norm, c / norm)) if norm > 1e-12 else 0.0
    return center, size, yaw, np.array(box[8:10])


def encode_box_for_cell(gt_box, cell, bev_cfg: BEVConfig) -> np.ndarray:
    """Ground-truth box in the head's 10-dim parameterization at a cell."""
    cx, cy = bev_cfg.cell_center(int(cell[0]), int(cell[1]))
    return np.array(
        [
            (gt_box.center[0] - cx) / bev_cfg.cell_w,
            (gt_box.center[1] - cy) / bev_cfg.cell_h,
            gt_box.center[2],
            np.log(gt_box.size[0]),
            np.log(gt_box.size[1]),
            np.log(gt_box.size[2]),
            np.sin(gt_box.yaw),
            np.cos(gt_box.yaw),
            gt_box.velocity[0],
            gt_box.velocity[1],
        ]
    )


@dataclass(frozen=True)
class HeadParams:
    classifier: FfnParams  # C -> N
    box: FfnParams  # C -> BOX_DIM


@dataclass(frozen=True)
class HeadOutput:
    """Tape tensors for the losses plus decoded detections for everything else."""

    class_logits: Tensor  # [K, N]
    boxes: Tensor  # [K, BOX_DIM]
    detections: list[Detection]


def _sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def _build_output(logits: Tensor, boxes: Tensor, cands: CandidateSet, bev_cfg: BEVConfig) -> HeadOutput:
    dets = []
    ld, bd = logits.data, boxes.data
    for i in range(cands.k):
        cls = int(np.argmax(ld[i]))
        center, size, yaw, vel = decode_box(cands.cells[i], bd[i], bev_cfg)
        dets.append(
            Detection(
                cell=(int(cands.cells[i, 0]), int(cands.cells[i, 1])),
                class_id=cls,
                score=float(_sigmoid_np(ld[i, cls])),
                class_logits=ld[i].copy(),
                box_encoded=bd[i].copy(),
                center=center,
                size=size,
                yaw=yaw,
                velocity=vel,
            )
        )
    return HeadOutput(class_logits=logits, boxes=boxes, detections=dets)


def subtask_heads(
    q_cls: Tensor, q_box: Tensor, params: HeadParams, cands: CandidateSet, bev_cfg: BEVConfig
) -> HeadOutput:
    """Main heads: class FFN on the class query, box FFN on the box query."""
    if q_cls.shape[0] != q_box.shape[0]:
        raise DimensionError("subtask heads: query row counts differ")
    logits = ffn(q_cls, params.classifier)
    boxes = ffn(q_box, params.box)
    return _build_output(logits, boxes, cands, bev_cfg)


BevFuserParams = ConvBlockParams


def fuse_bev(b_c: Tensor, b_l: Tensor, params: BevFuserParams) -> Tensor:
    """Camera BEV + LiDAR BEV -> fused BEV for the heatmap and decoder."""
    if b_c.shape[:2] != b_l.shape[:2]:
        raise DimensionError("fuse_bev: spatial shapes differ")
    merged = nm.concat([b_c, b_l], axis=2)
    return conv_block(merged, params.conv1, params.conv2)
