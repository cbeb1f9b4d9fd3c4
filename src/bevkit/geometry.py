"""Pinhole cameras, rigid poses, depth binning, BEV grid indexing, and field checks.

Conventions used throughout the package:
  - camera-from-world pose: p_cam = R @ p_world + t, camera looks along +z,
    x right, y down;
  - all intervals are half-open so every coordinate has a unique owner
    cell or bin;
  - each rule is one vectorized function over arrays of points, and an
    out-of-view or out-of-range entry is flagged False in its boolean mask
    (index -1 where the rule returns one), never an error.

Value types check their fields once, at construction: require_finite and require_int name
the owner and field at fault, and freeze gives each array field a read-only float64 copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_Z_EPS = 1e-6


def require_finite(config) -> None:
    """Raise a ValueError naming the config and its first field holding no finite number."""
    owner = type(config).__name__
    for name, value in vars(config).items():
        try:
            finite = np.isfinite(value).all()
        except TypeError:
            raise ValueError(f"{owner}: {name} must be a number, not {type(value).__name__}") from None
        if not finite:
            raise ValueError(f"{owner}: {name} must be finite, got {value}")


def require_int(owner: str, **fields) -> None:
    """Raise a ValueError naming the owner, field and type of the first non-integer value."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{owner}: {name} must be an integer, not {type(value).__name__}")


def freeze(obj, *names) -> tuple[np.ndarray, ...]:
    """Set each named field of obj to a read-only, C-contiguous float64 copy; return the copies."""
    copies = tuple(np.array(getattr(obj, name), dtype=np.float64, order="C") for name in names)
    for name, arr in zip(names, copies):
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)
    return copies


@dataclass(frozen=True)
class CameraParams:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray  # 3x3 camera-from-world
    translation: np.ndarray  # 3
    name: str = "cam"

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("fx, fy, cx and cy must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        require_int("CameraParams", width=self.width, height=self.height)
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be at least 1x1, got {self.width}x{self.height}")
        R, t = freeze(self, "rotation", "translation")
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("pose must be a 3x3 rotation and a 3-vector")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        # Orthonormal entries lie in [-1, 1]; checking that first also keeps
        # R @ R.T from overflowing on a NaN, infinite or huge entry.
        if (
            not (np.abs(R) <= 1.0 + 1e-9).all()
            or not np.allclose(R @ R.T, np.eye(3), atol=1e-9)
            or abs(np.linalg.det(R) - 1.0) > 1e-9
        ):
            raise ValueError("rotation must be orthonormal with det +1")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


@dataclass(frozen=True)
class DepthBins:
    d_min: float
    d_max: float
    count: int

    def __post_init__(self):
        require_finite(self)
        require_int("DepthBins", count=self.count)
        if self.d_min <= 0 or self.d_max <= self.d_min or self.count < 1:
            raise ValueError("need 0 < d_min < d_max and count >= 1")

    @property
    def delta(self) -> float:
        return (self.d_max - self.d_min) / self.count

    def centers(self) -> np.ndarray:
        return self.d_min + (np.arange(self.count) + 0.5) * self.delta


@dataclass(frozen=True)
class BEVConfig:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n: int  # grid count per edge

    def __post_init__(self):
        require_finite(self)
        require_int("BEVConfig", n=self.n)
        if self.x_max <= self.x_min or self.y_max <= self.y_min or self.n < 1:
            raise ValueError("need x_max > x_min, y_max > y_min, n >= 1")

    @property
    def cell_w(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def cell_h(self) -> float:
        return (self.y_max - self.y_min) / self.n

    def cell_center(self, gx: int, gy: int) -> tuple[float, float]:
        return (
            self.x_min + (gx + 0.5) * self.cell_w,
            self.y_min + (gy + 0.5) * self.cell_h,
        )


# Desk-scale defaults keep full test sweeps under seconds; the production-scale
# grid (108 m edge at 0.6 m cells, 180x180) stays available for spot checks.
def desk_bev_config() -> BEVConfig:
    return BEVConfig(-8.0, 8.0, -8.0, 8.0, 32)


def desk_depth_bins() -> DepthBins:
    return DepthBins(0.5, 8.5, 16)


def full_scale_bev_config() -> BEVConfig:
    return BEVConfig(-54.0, 54.0, -54.0, 54.0, 180)


def project_points(points: np.ndarray, cam: CameraParams):
    """Vectorized projection: returns (uv [N,2], depth [N], in_view [N]).

    in_view requires depth > 1e-6 and (u, v) inside [0, width) x [0, height).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    # A C-ordered copy of R^T: pts @ an F-ordered 3x3 is about 3x slower, with the same bits.
    p_cam = pts @ np.ascontiguousarray(cam.rotation.T) + cam.translation
    z = p_cam[:, 2]
    safe = np.where(np.abs(z) < _Z_EPS, 1.0, z)
    u = cam.fx * p_cam[:, 0] / safe + cam.cx
    v = cam.fy * p_cam[:, 1] / safe + cam.cy
    in_view = (
        (z > _Z_EPS)
        & (u >= 0.0)
        & (u < cam.width)
        & (v >= 0.0)
        & (v < cam.height)
    )
    return np.stack([u, v], axis=1), z, in_view


def unproject_points(uv: np.ndarray, depth: np.ndarray, cam: CameraParams) -> np.ndarray:
    """Inverse of project_points for positive depths; [N,2]+[N] -> [N,3] world."""
    uv = np.atleast_2d(np.asarray(uv, dtype=np.float64))
    depth = np.asarray(depth, dtype=np.float64).ravel()
    if np.any(depth <= 0):
        raise ValueError("unproject requires positive depth")
    x = (uv[:, 0] - cam.cx) / cam.fx * depth
    y = (uv[:, 1] - cam.cy) / cam.fy * depth
    p_cam = np.stack([x, y, depth], axis=1)
    return (p_cam - cam.translation) @ cam.rotation


def depth_to_bins(depth: np.ndarray, bins: DepthBins):
    """(bin [N], in_range [N]): floor((d - d_min) / delta) for d in [d_min, d_max), clipped
    to count - 1 where rounding below d_max reaches count; -1 out of range. The clip comes
    before the int cast, so far depths stay inside int64."""
    depth = np.asarray(depth, dtype=np.float64)
    ok = (depth >= bins.d_min) & (depth < bins.d_max)
    idx = np.clip(np.floor((depth - bins.d_min) / bins.delta), 0, bins.count - 1)
    return np.where(ok, idx.astype(np.int64), -1), ok


def bev_indices(xy: np.ndarray, cfg: BEVConfig):
    """(gx [N], gy [N], in_range [N]) of ground points [N, 2]: gx = floor((x - x_min) * n /
    (x_max - x_min)) for x in [x_min, x_max), gy likewise, clipped to n - 1 where rounding
    below the top edge reaches n (before the int cast, as in depth_to_bins); -1 out of range."""
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    ok = (
        (xy[:, 0] >= cfg.x_min)
        & (xy[:, 0] < cfg.x_max)
        & (xy[:, 1] >= cfg.y_min)
        & (xy[:, 1] < cfg.y_max)
    )
    gx = np.clip(np.floor((xy[:, 0] - cfg.x_min) * cfg.n / (cfg.x_max - cfg.x_min)), 0, cfg.n - 1)
    gy = np.clip(np.floor((xy[:, 1] - cfg.y_min) * cfg.n / (cfg.y_max - cfg.y_min)), 0, cfg.n - 1)
    return np.where(ok, gx.astype(np.int64), -1), np.where(ok, gy.astype(np.int64), -1), ok


def rotation_z(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)):
    """Camera-from-world (R, t) for a camera at eye looking toward target."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    fwd = fwd / norm
    right = np.cross(fwd, np.asarray(up, dtype=np.float64))
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        raise ValueError("view direction parallel to up vector")
    right = right / rn
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd], axis=0)  # world -> camera rows
    t = -R @ eye
    return R, t
