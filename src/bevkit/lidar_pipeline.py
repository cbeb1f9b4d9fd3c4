"""Point cloud to LiDAR BEV: voxelize, encode per voxel, compress along z.

Voxelization returns only the occupied voxels, as three row-aligned arrays
in ascending flat-index order: integer coordinates, mean point feature and
point count. One segment sum over the sorted points gives every mean. The
voxel encoder is layers.ffn, a shared two-layer perceptron applied to each
occupied voxel's mean point feature; empty voxels stay zero. Compression
concatenates the z slices channel-wise and applies one affine projection.
Aggregation runs in ascending voxel-index order with content tiebreaks, so the
result is bit-identical under any input point permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import require_finite
from .layers import FfnParams, ffn
from .numerics import DimensionError, LinearParams, Tensor

MAX_CELLS = 1 << 27  # largest voxel grid a VoxelConfig accepts


@dataclass(frozen=True)
class VoxelConfig:
    size: tuple[float, float, float]  # (sx, sy, sz) meters
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        require_finite(self)
        if any(s <= 0 for s in self.size):
            raise ValueError("voxel sizes must be positive")
        if self.x_max <= self.x_min or self.y_max <= self.y_min or self.z_max <= self.z_min:
            raise ValueError("voxel range must be non-empty on every axis")
        if self.counts[0] * self.counts[1] * self.counts[2] > MAX_CELLS:
            raise ValueError(f"voxel grid {self.counts} exceeds the cap of {MAX_CELLS} cells")

    @property
    def counts(self) -> tuple[int, int, int]:
        spans = (self.x_max - self.x_min, self.y_max - self.y_min, self.z_max - self.z_min)
        return tuple(int(np.ceil(span / size - 1e-9)) for span, size in zip(spans, self.size))


def desk_voxel_config() -> VoxelConfig:
    return VoxelConfig(size=(0.5, 0.5, 0.4), x_min=-8, x_max=8, y_min=-8, y_max=8, z_min=-0.4, z_max=2.8)


def full_scale_voxel_config() -> VoxelConfig:
    """Production-scale grid: 7.5 cm ground cells over a 108 m square."""
    return VoxelConfig(
        size=(0.075, 0.075, 0.2),
        x_min=-54.0,
        x_max=54.0,
        y_min=-54.0,
        y_max=54.0,
        z_min=-5.0,
        z_max=3.0,
    )


@dataclass(frozen=True)
class VoxelGrid:
    """Occupied voxels in ascending flat-index order, as row-aligned arrays.

    occupied: [V, 3] int64 voxel coordinates (ix, iy, iz); means: [V, 5] mean
    point feature; counts: [V] int64 points per voxel. An empty grid has V = 0.
    """

    cfg: VoxelConfig
    occupied: np.ndarray
    means: np.ndarray
    counts: np.ndarray


def voxelize(pc, cfg: VoxelConfig) -> VoxelGrid:
    """Mean-pool point 5-vectors into their owner voxels; drop out-of-range."""
    pts = pc.points
    X, Y, Z = cfg.counts
    # Range-checked as floats; only the kept rows are cast, so far points stay out of int64.
    gx = np.floor((pts[:, 0] - cfg.x_min) / cfg.size[0])
    gy = np.floor((pts[:, 1] - cfg.y_min) / cfg.size[1])
    gz = np.floor((pts[:, 2] - cfg.z_min) / cfg.size[2])
    ok = (
        (pts[:, 0] >= cfg.x_min) & (pts[:, 0] < cfg.x_max)
        & (pts[:, 1] >= cfg.y_min) & (pts[:, 1] < cfg.y_max)
        & (pts[:, 2] >= cfg.z_min) & (pts[:, 2] < cfg.z_max)
        & (gx < X) & (gy < Y) & (gz < Z)
    )
    pts = pts[ok]
    ix, iy, iz = (g[ok].astype(np.int64) for g in (gx, gy, gz))
    flat = ix * (Y * Z) + iy * Z + iz
    # Canonical accumulation order: by voxel index, then by point content, so
    # the float sums are identical for any input permutation.
    order = np.lexsort((pts[:, 4], pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], flat))
    flat = flat[order]
    starts = np.diff(flat, prepend=-1) != 0
    voxel = np.cumsum(starts) - 1
    counts = np.bincount(voxel)
    # The segment sum adds each voxel's points one at a time in that order.
    sums = nm._segment_sum(pts[order], voxel, len(counts))
    occupied = np.stack(np.unravel_index(flat[starts], (X, Y, Z)), axis=1)
    return VoxelGrid(cfg=cfg, occupied=occupied, means=sums / counts[:, None], counts=counts)


VoxelEncoderParams = FfnParams  # hidden 5 -> h, out h -> C_m


def encode_voxels(vg: VoxelGrid, params: VoxelEncoderParams) -> Tensor:
    """Dense middle feature [X, Y, Z, C_m]; empty voxels are zero."""
    X, Y, Z = vg.cfg.counts
    c_m = params.out.out_dim
    if params.hidden.in_dim != 5:
        raise DimensionError("voxel encoder expects 5 input features")
    if 8 * X * Y * Z * c_m > 1 << 30:
        raise DimensionError(
            f"encode_voxels: dense middle tensor {[X, Y, Z, c_m]} needs {8 * X * Y * Z * c_m:,} "
            "bytes, over the 1 GiB limit"
        )
    flat_idx = np.ravel_multi_index(vg.occupied.T, (X, Y, Z))
    encoded = ffn(vg.means, params)
    dense = nm.scatter_add(encoded, flat_idx, X * Y * Z)
    return nm.reshape(dense, (X, Y, Z, c_m))


def compress_z(m: Tensor, proj: LinearParams) -> Tensor:
    """Concatenate z slices along channels, project to [X, Y, C_l]."""
    if m.ndim != 4:
        raise DimensionError("compress_z expects [X, Y, Z, C]")
    X, Y, Z, C = m.shape
    if proj.in_dim != Z * C:
        raise DimensionError(f"z projection expects {Z * C} inputs, has {proj.in_dim}")
    stacked = nm.reshape(m, (X, Y, Z * C))
    return nm.linear(stacked, proj)
