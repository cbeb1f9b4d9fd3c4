"""Pinhole cameras, rigid poses, depth binning, and BEV grid indexing.

Conventions used throughout the package:
  - camera-from-world pose: p_cam = R @ p_world + t, camera looks along +z,
    x right, y down;
  - all intervals are half-open so every coordinate has a unique owner
    cell or bin;
  - out-of-view / out-of-range results are values (None), never errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_Z_EPS = 1e-6


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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be at least 1x1, got {self.width}x{self.height}")
        R = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.translation, dtype=np.float64))
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
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

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
    p_cam = pts @ cam.rotation.T + cam.translation
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


def project(point, cam: CameraParams):
    """(u, v, depth) for an in-view world point, else None."""
    uv, z, ok = project_points(np.asarray(point, dtype=np.float64)[None, :], cam)
    if not ok[0]:
        return None
    return float(uv[0, 0]), float(uv[0, 1]), float(z[0])


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


def unproject(u: float, v: float, depth: float, cam: CameraParams) -> np.ndarray:
    if depth <= 0:
        raise ValueError("unproject requires positive depth")
    return unproject_points(np.array([[u, v]]), np.array([depth]), cam)[0]


def depth_to_bin(depth: float, bins: DepthBins):
    """Half-open bin index, or None outside [d_min, d_max)."""
    if depth < bins.d_min or depth >= bins.d_max:
        return None
    return int((depth - bins.d_min) / bins.delta)


def depth_to_bins(depth: np.ndarray, bins: DepthBins):
    """Vectorized depth_to_bin: (bin index [N], in_range [N])."""
    depth = np.asarray(depth, dtype=np.float64)
    ok = (depth >= bins.d_min) & (depth < bins.d_max)
    idx = np.floor((depth - bins.d_min) / bins.delta).astype(np.int64)
    idx = np.clip(idx, 0, bins.count - 1)
    return np.where(ok, idx, -1), ok


def bev_index(x: float, y: float, cfg: BEVConfig):
    """(gx, gy) owner cell, or None outside the half-open BEV range."""
    if not (cfg.x_min <= x < cfg.x_max and cfg.y_min <= y < cfg.y_max):
        return None
    gx = int((x - cfg.x_min) * cfg.n / (cfg.x_max - cfg.x_min))
    gy = int((y - cfg.y_min) * cfg.n / (cfg.y_max - cfg.y_min))
    return min(gx, cfg.n - 1), min(gy, cfg.n - 1)


def bev_indices(xy: np.ndarray, cfg: BEVConfig):
    """Vectorized bev_index: (gx [N], gy [N], in_range [N])."""
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    ok = (
        (xy[:, 0] >= cfg.x_min)
        & (xy[:, 0] < cfg.x_max)
        & (xy[:, 1] >= cfg.y_min)
        & (xy[:, 1] < cfg.y_max)
    )
    gx = np.floor((xy[:, 0] - cfg.x_min) * cfg.n / (cfg.x_max - cfg.x_min)).astype(np.int64)
    gy = np.floor((xy[:, 1] - cfg.y_min) * cfg.n / (cfg.y_max - cfg.y_min)).astype(np.int64)
    gx = np.clip(gx, 0, cfg.n - 1)
    gy = np.clip(gy, 0, cfg.n - 1)
    return np.where(ok, gx, -1), np.where(ok, gy, -1), ok


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


# --- camera rig description file: "[camera NAME]" sections, key = value ---


def save_rig(path, cameras: list[CameraParams]) -> None:
    lines = []
    for cam in cameras:
        lines.append(f"[camera {cam.name}]")
        lines.append(f"fx = {float(cam.fx)!r}")
        lines.append(f"fy = {float(cam.fy)!r}")
        lines.append(f"cx = {float(cam.cx)!r}")
        lines.append(f"cy = {float(cam.cy)!r}")
        lines.append(f"width = {cam.width}")
        lines.append(f"height = {cam.height}")
        lines.append("rotation = " + " ".join(repr(float(v)) for v in cam.rotation.ravel()))
        lines.append("translation = " + " ".join(repr(float(v)) for v in cam.translation))
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _read_ini(path):
    """Parse an ini file with no interpolation; any parse failure is a ValueError."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None
    if not found:
        raise FileNotFoundError(path)
    return parser


def load_rig(path) -> list[CameraParams]:
    parser = _read_ini(path)
    cams = []
    for section in parser.sections():
        if not section.startswith("camera"):
            raise ValueError(f"{path}: unknown section [{section}] in a camera rig")
        name = section.split(None, 1)[1] if " " in section else section
        sec = parser[section]
        try:
            cams.append(
                CameraParams(
                    fx=float(sec["fx"]),
                    fy=float(sec["fy"]),
                    cx=float(sec["cx"]),
                    cy=float(sec["cy"]),
                    width=int(sec["width"]),
                    height=int(sec["height"]),
                    rotation=np.array([float(v) for v in sec["rotation"].split()]).reshape(3, 3),
                    translation=np.array([float(v) for v in sec["translation"].split()]),
                    name=name,
                )
            )
        except KeyError as err:
            raise ValueError(f"{path}: [{section}] missing key {err}") from None
        except ValueError as err:
            raise ValueError(f"{path}: [{section}] {err}") from None
    if not cams:
        raise ValueError(f"{path}: no [camera ...] section")
    return cams
