"""Point cloud to LiDAR BEV: voxelize, encode per voxel, compress along z.

Voxelization returns only the occupied voxels, as three row-aligned arrays
in ascending flat-index order: integer coordinates, mean point feature and
point count. Each voxel's sum starts at 0.0 and adds its points one at a time
in lexicographic (voxel, x, y, z, intensity, time offset) order, so the result
is bit-identical under any input point permutation. Rows that tie in all six
keys can differ only in the sign of a zero, and adding either zero leaves a
sum that started at +0.0 unchanged, so their relative order does not matter.

That order is built without a six-key lexsort. A quicksort puts the points in
ascending x, with equal x in any order. A stable sort by voxel index keeps
that x order inside each voxel, which gives (voxel, x) order; the index is
cast to the narrowest unsigned type that holds the grid, and numpy
radix-sorts keys of 16 bits or fewer. Then y, z, intensity and time offset
in turn order only the runs of rows still tied in every key before them: a
quicksort of those rows by the column, then a stable sort by run number,
which keeps each run in its place. On a LiDAR sweep about 30% of the points
tie in (voxel, x) (vertical box faces) and about 20% also in y (one beam
column on a face); none tie in z. The sums are numerics._column_sums over
the rows in that order, one bincount per column.

The voxel encoder is layers.ffn, a shared two-layer perceptron applied to
each occupied voxel's mean point feature. encode_voxels returns those rows
only, as VoxelFeatures; no dense [X, Y, Z, C] middle is built. Compression
concatenates a cell's z slices channel-wise and applies one affine
projection. An empty voxel is zero, so the projection runs on pillars, as in
PointPillars (Lang et al., 2019): each voxel goes to its z slot in its (x, y)
column's row, only the P occupied columns and one zero row are projected,
and each BEV cell gathers its column's row; an empty cell reads the zero
row's projection, the bias. One GEMM over the pillar rows adds in another
order than a GEMM per grid row would, so the BEV matches a dense
reshape-and-project to rounding.
"""

from __future__ import annotations

import math
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
    keep = np.flatnonzero(ok)
    # Exact in float64 (every index is below MAX_CELLS), so one cast serves all three axes.
    flat = (gx[keep] * (Y * Z) + gy[keep] * Z + gz[keep]).astype(np.int64)
    # Canonical accumulation order (module docstring): a quicksort by x and a stable
    # radix sort by voxel give (voxel, x) order; then each later column sorts only the
    # runs still tied in everything before it.
    order = np.argsort(pts[keep, 0], kind="quicksort")
    key = flat[order].astype(np.min_scalar_type(X * Y * Z - 1))  # 16-bit keys radix-sort
    order = order[np.argsort(key, kind="stable")]
    rows, flat = keep[order], flat[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    at, first = np.arange(len(rows)), starts.copy()  # positions still tied; run starts
    for col in range(1, 5):
        prev = pts[rows[at], col - 1]
        first[1:] |= prev[1:] != prev[:-1]
        tied = ~(first & np.append(first[1:], True))  # in a run of two or more
        at, first = at[tied], first[tied]
        by_col = np.argsort(pts[rows[at], col], kind="quicksort")
        run = np.cumsum(first).astype(np.min_scalar_type(len(at)))[by_col]
        rows[at] = rows[at][by_col[np.argsort(run, kind="stable")]]
    pts = np.take(pts, rows, axis=0)  # take: ~4x faster than fancy row indexing
    voxel = np.cumsum(starts) - 1
    counts = np.bincount(voxel)
    sums = nm._column_sums(voxel, pts.T, len(counts))
    occupied = np.stack(np.unravel_index(flat[starts], (X, Y, Z)), axis=1)
    return VoxelGrid(cfg=cfg, occupied=occupied, means=sums / counts[:, None], counts=counts)


VoxelEncoderParams = FfnParams  # hidden 5 -> h, out h -> C_m


@dataclass(frozen=True)
class VoxelFeatures:
    """Encodings of the occupied voxels: features [V, C_m], row v for grid.occupied[v]."""

    grid: VoxelGrid
    features: Tensor

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] != len(self.grid.occupied):
            raise DimensionError(
                f"VoxelFeatures: features {self.features.shape} must be [V, C] with one row "
                f"for each of the grid's {len(self.grid.occupied)} occupied voxels"
            )


def encode_voxels(vg: VoxelGrid, params: VoxelEncoderParams) -> VoxelFeatures:
    """The encoder on each occupied voxel's mean point feature: [V, C_m] rows."""
    if params.hidden.in_dim != 5:
        raise DimensionError("voxel encoder expects 5 input features")
    return VoxelFeatures(vg, ffn(vg.means, params))


def compress_z(vf: VoxelFeatures, proj: LinearParams) -> Tensor:
    """LiDAR BEV [X, Y, C_l]: each cell's z slices concatenated along channels, projected.

    Only occupied pillars are projected: each voxel goes to z slot iz of its pillar's
    row in [(P + 1) * Z, C_m], rows are [P + 1, Z * C_m] after one reshape, and one
    linear maps them. Every cell gathers its pillar's row, and an empty cell the last
    row, whose slots stay zero, so it reads the bias. Arrays over 1 GiB are rejected
    before they are allocated.
    """
    X, Y, Z = vf.grid.cfg.counts
    c_m = vf.features.shape[1]
    if proj.in_dim != Z * c_m:
        raise DimensionError(f"z projection expects {Z * c_m} inputs, has {proj.in_dim}")
    _check_bytes("output", [X, Y, proj.out_dim])
    ix, iy, iz = vf.grid.occupied.T
    column = ix * Y + iy
    lit = np.zeros(X * Y, dtype=bool)
    lit[column] = True
    pillars = np.flatnonzero(lit)
    p = len(pillars)
    _check_bytes("slot array", [(p + 1) * Z, c_m])
    row = np.full(X * Y, p)  # pillar row of each cell; empty cells read the zero row p
    row[pillars] = np.arange(p)
    slots = nm.scatter_add(vf.features, row[column] * Z + iz, (p + 1) * Z)
    projected = nm.linear(nm.reshape(slots, (p + 1, Z * c_m)), proj)
    return nm.gather_rows(projected, row.reshape(X, Y))


def _check_bytes(what: str, shape: list[int]) -> None:
    size = 8 * math.prod(shape)
    if size > 1 << 30:
        raise DimensionError(
            f"compress_z: {what} {shape} needs {size:,} bytes, over the 1 GiB limit"
        )
