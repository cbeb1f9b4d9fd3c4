"""Deterministic synthetic scenes and the two ray-cast sensors.

Scenes are yawed cuboids resting on the ground plane z = 0. The LiDAR and
the camera renderer share one vectorized first-hit ray caster (slab test in
each box frame, plus the ground plane), so the occlusion structure both
sensors observe is identical by construction. The caster works box by box
on component-major [3, N] rows; the box-frame transforms stay [N, 3] @ R
matmuls, so its outputs are bit-identical to the row-major form of the same
test. Everything is a pure function of the seed: same inputs, bit-identical
outputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import BEVConfig, CameraParams, _read_ini, look_at_pose, rotation_z

_RAY_EPS = 1e-9

# Kind codes used by the ray caster.
HIT_NONE = -2
HIT_GROUND = -1

# Boxes never spawn over the ego square so sensors at the origin are always
# in free space.
EGO_CLEARANCE = 1.2


class PlacementError(RuntimeError):
    """Rejection sampling ran out of attempts while placing boxes."""


@dataclass(frozen=True)
class ObjectBox:
    center: np.ndarray  # 3, meters
    size: np.ndarray  # (l, w, h), meters
    yaw: float
    velocity: np.ndarray  # 2, m/s
    class_id: int

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.center, dtype=np.float64))
        s = np.ascontiguousarray(np.asarray(self.size, dtype=np.float64))
        v = np.ascontiguousarray(np.asarray(self.velocity, dtype=np.float64))
        if c.shape != (3,) or s.shape != (3,) or v.shape != (2,):
            raise ValueError("box needs center[3], size[3], velocity[2]")
        if not np.isfinite(np.concatenate((c, s, v, [self.yaw]))).all():
            raise ValueError("box center, size, velocity and yaw must be finite")
        if np.any(s <= 0):
            raise ValueError("box sizes must be positive")
        if self.class_id < 0:
            raise ValueError("class_id must be non-negative")
        for arr in (c, s, v):
            arr.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "size", s)
        object.__setattr__(self, "velocity", v)

    def footprint(self) -> np.ndarray:
        """4 corner points [4,2] of the yawed rectangle on the ground plane."""
        l, w = self.size[0] / 2.0, self.size[1] / 2.0
        corners = np.array([[l, w], [l, -w], [-l, -w], [-l, w]])
        R = rotation_z(self.yaw)[:2, :2]
        return corners @ R.T + self.center[:2]


@dataclass(frozen=True)
class Scene:
    boxes: tuple[ObjectBox, ...]
    seed: int
    class_count: int = 10

    def __post_init__(self):
        if self.class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {self.class_count}")


@dataclass(frozen=True)
class PointCloud:
    """N x 5 returns: x, y, z, intensity, timestamp offset."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 5:
            raise ValueError("point cloud must be N x 5")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def footprints_overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Separating-axis test for two convex quads [4,2]; touching counts as free."""
    for quad in (a, b):
        for i in range(4):
            edge = quad[(i + 1) % 4] - quad[i]
            axis = np.array([-edge[1], edge[0]])
            pa = a @ axis
            pb = b @ axis
            if pa.max() <= pb.min() or pb.max() <= pa.min():
                return False
    return True


def generate_scene(num_boxes: int, bev_cfg: BEVConfig, class_count: int = 10, seed: int = 0) -> Scene:
    """Rejection-sample non-overlapping boxes fully inside the BEV range.

    The total attempt budget is 10 * num_boxes; exhausting it raises
    PlacementError rather than returning a partial scene.
    """
    if num_boxes < 0:
        raise ValueError("num_boxes must be non-negative")
    if class_count < 1:
        raise ValueError(f"class_count must be >= 1, got {class_count}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    boxes: list[ObjectBox] = []
    attempts = 0
    budget = 10 * num_boxes
    ego = np.array(
        [
            [EGO_CLEARANCE, EGO_CLEARANCE],
            [EGO_CLEARANCE, -EGO_CLEARANCE],
            [-EGO_CLEARANCE, -EGO_CLEARANCE],
            [-EGO_CLEARANCE, EGO_CLEARANCE],
        ]
    )
    while len(boxes) < num_boxes:
        if attempts >= budget:
            raise PlacementError(
                f"placed {len(boxes)}/{num_boxes} boxes in {budget} attempts"
            )
        attempts += 1
        size = np.array(
            [rng.uniform(1.0, 2.4), rng.uniform(0.8, 1.6), rng.uniform(0.8, 2.0)]
        )
        yaw = rng.uniform(-np.pi, np.pi)
        x = rng.uniform(bev_cfg.x_min, bev_cfg.x_max)
        y = rng.uniform(bev_cfg.y_min, bev_cfg.y_max)
        velocity = rng.uniform(-2.0, 2.0, size=2)
        class_id = int(rng.integers(0, class_count))
        box = ObjectBox(
            center=np.array([x, y, size[2] / 2.0]),
            size=size,
            yaw=yaw,
            velocity=velocity,
            class_id=class_id,
        )
        fp = box.footprint()
        if (
            fp[:, 0].min() < bev_cfg.x_min
            or fp[:, 0].max() >= bev_cfg.x_max
            or fp[:, 1].min() < bev_cfg.y_min
            or fp[:, 1].max() >= bev_cfg.y_max
        ):
            continue
        if footprints_overlap(fp, ego):
            continue
        if any(footprints_overlap(fp, b.footprint()) for b in boxes):
            continue
        boxes.append(box)
    return Scene(boxes=tuple(boxes), seed=seed, class_count=class_count)


def first_hits(origins: np.ndarray, dirs: np.ndarray, scene: Scene):
    """First intersection of each ray with any box surface or the ground.

    origins and dirs are [N, 3]. Returns (t, kind, normal): the ray
    parameter (inf for misses), the hit kind (box class id, HIT_GROUND, or
    HIT_NONE), and the world-space outward surface normal [N, 3]. dirs need
    not be unit length; t is the parametric multiplier along each dir. A
    box whose slab interval starts at or behind the origin (origin inside
    it) is not hit; on equal t the earlier box in scene.boxes wins.

    Per box, the rays are moved into the box frame with the [N, 3] @ R
    matmuls and then transposed to contiguous [3, N] rows, so every slab op
    and the enter/exit reductions run over long rows. The matmuls are kept,
    not written out per component, so the outputs are bit-identical to the
    [N, 3] form of the same slab test.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    if origins.ndim != 2 or origins.shape[1] != 3:
        raise ValueError(f"origins must be [N, 3], got shape {origins.shape}")
    if dirs.shape != origins.shape:
        raise ValueError(f"dirs must match origins {origins.shape}, got shape {dirs.shape}")
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, HIT_NONE, dtype=np.int64)
    normal = np.zeros((n, 3))

    # Ground plane z = 0, only reachable from above going down.
    dz = dirs[:, 2]
    oz = origins[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < -1e-12, -oz / dz, np.inf)
    hit = (t_ground > _RAY_EPS) & (t_ground < t_best) & (oz > 0)
    t_best[hit] = t_ground[hit]
    kind[hit] = HIT_GROUND
    normal[hit] = (0.0, 0.0, 1.0)

    for box in scene.boxes:
        R = rotation_z(box.yaw)  # box -> world
        o_b = np.ascontiguousarray(((origins - box.center) @ R).T)
        d_b = np.ascontiguousarray((dirs @ R).T)
        half = (box.size / 2.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d_b
            t1 = (-half - o_b) * inv
            t2 = (half - o_b) * inv
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
        # Rays parallel to a slab: inside -> unconstrained, outside -> miss.
        par = np.abs(d_b) < 1e-12
        inside = np.abs(o_b) <= half
        lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
        t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
        t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
        ok = (t_enter <= t_exit) & (t_enter > _RAY_EPS) & (t_enter < t_best)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        axis = np.argmax(lo[:, idx], axis=0)
        n_b = np.zeros((idx.size, 3))
        n_b[np.arange(idx.size), axis] = -np.sign(d_b[axis, idx])
        t_best[idx] = t_enter[idx]
        kind[idx] = box.class_id
        normal[idx] = n_b @ R.T

    return t_best, kind, normal


def lidar_scan(
    scene: Scene,
    sensor_origin,
    azimuth_count: int,
    elevation_angles,
) -> PointCloud:
    """One return per ray at its first surface hit; misses produce nothing.

    Rays sweep azimuth fastest within each elevation ring. Returned points
    carry intensity 1 and timestamp offset 0.
    """
    origin = np.asarray(sensor_origin, dtype=np.float64)
    if origin.shape != (3,) or not np.isfinite(origin).all():
        raise ValueError(
            f"sensor_origin must be 3 finite values, got shape {origin.shape}: {origin}"
        )
    if origin[2] <= 0:
        raise ValueError("LiDAR origin must be above the ground plane")
    if not isinstance(azimuth_count, (int, np.integer)) or azimuth_count < 1:
        raise ValueError(f"azimuth_count must be a positive integer, got {azimuth_count!r}")
    elevations = np.asarray(elevation_angles, dtype=np.float64)
    if not np.isfinite(elevations).all():
        raise ValueError(f"elevation_angles must be finite, got {elevations}")
    azimuths = 2.0 * np.pi * np.arange(azimuth_count) / azimuth_count
    el, az = np.meshgrid(elevations, azimuths, indexing="ij")
    dirs = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1
    ).reshape(-1, 3)
    origins = np.broadcast_to(origin, dirs.shape)
    t, kind, _ = first_hits(origins, dirs, scene)
    ok = kind != HIT_NONE
    hits = origins[ok] + t[ok, None] * dirs[ok]
    pts = np.concatenate(
        [hits, np.ones((len(hits), 1)), np.zeros((len(hits), 1))], axis=1
    )
    return PointCloud(pts)


def render_camera(scene: Scene, cam: CameraParams, channels: int):
    """Per-pixel ray cast through integer pixel coordinates.

    Returns (features [H, W, C], depth [H, W]). Depth is the first-hit
    distance along the optical axis, +inf for sky. Features are a
    deterministic code of what was hit: a constant base everywhere a
    surface exists, plus a class one-hot scaled by how face-on the surface
    normal is (so box faces are distinguishable from each other and from
    ground).
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    h, w = cam.height, cam.width
    u, v = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    d_cam = np.stack(
        [(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones_like(u)], axis=-1
    ).reshape(-1, 3)
    d_world = d_cam @ cam.rotation  # R.T @ d for each row
    center = cam.center
    origins = np.broadcast_to(center, d_world.shape)
    # dir has unit z in the camera frame, so the ray parameter equals the
    # optical-axis depth directly.
    t, kind, normal = first_hits(origins, d_world, scene)

    depth = np.where(kind == HIT_NONE, np.inf, t).reshape(h, w)
    feats = np.zeros((h * w, channels))
    surface = kind != HIT_NONE
    feats[surface] = 0.1
    boxed = kind >= 0
    if boxed.any():
        ch = kind[boxed] % channels
        gain = 0.7 + 0.2 * np.abs(normal[boxed, 2])
        feats[np.nonzero(boxed)[0], ch] += gain
    return feats.reshape(h, w, channels), depth


def default_rig(width: int = 64, height: int = 64) -> list[CameraParams]:
    """Two forward cameras, 60 degrees apart, tilted slightly down."""
    cams = []
    fx = width / 2.0
    fy = fx
    for name, yaw in (("front", 0.0), ("front_left", np.pi / 3.0)):
        eye = np.array([0.0, 0.0, 1.2])
        fwd = np.array([np.cos(yaw), np.sin(yaw), -0.12])
        R, t = look_at_pose(eye, eye + fwd)
        cams.append(
            CameraParams(
                fx=fx,
                fy=fy,
                cx=width / 2.0,
                cy=height / 2.0,
                width=width,
                height=height,
                rotation=R,
                translation=t,
                name=name,
            )
        )
    return cams


def default_lidar_origin() -> np.ndarray:
    return np.array([0.0, 0.0, 1.6])


def default_elevations(count: int = 16) -> np.ndarray:
    return np.deg2rad(np.linspace(-30.0, 2.0, count))


# --- file formats ---

_CLOUD_MAGIC = b"BKP1"


def save_point_cloud(path, pc: PointCloud) -> None:
    with open(path, "wb") as fh:
        fh.write(_CLOUD_MAGIC)
        fh.write(struct.pack("<Q", len(pc)))
        fh.write(pc.points.astype("<f4").tobytes())


def load_point_cloud(path) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CLOUD_MAGIC:
        raise ValueError(f"{path}: bad point cloud magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated point cloud header")
    (count,) = struct.unpack_from("<Q", blob, 4)
    payload = blob[12:]
    if len(payload) != count * 5 * 4:
        raise ValueError(f"{path}: expected {count} records, payload disagrees")
    pts = np.frombuffer(payload, dtype="<f4").reshape(count, 5)
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: point cloud contains non-finite values")
    return PointCloud(pts.astype(np.float64))


def save_scene(path, scene: Scene) -> None:
    lines = ["[scene]", f"seed = {scene.seed}", f"class_count = {scene.class_count}", ""]
    for i, box in enumerate(scene.boxes):
        lines.append(f"[box {i}]")
        lines.append("center = " + " ".join(repr(float(v)) for v in box.center))
        lines.append("size = " + " ".join(repr(float(v)) for v in box.size))
        lines.append(f"yaw = {float(box.yaw)!r}")
        lines.append("velocity = " + " ".join(repr(float(v)) for v in box.velocity))
        lines.append(f"class_id = {box.class_id}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def load_scene(path) -> Scene:
    parser = _read_ini(path)
    if "scene" not in parser:
        raise ValueError(f"{path}: missing [scene] section")
    seed = int(parser["scene"].get("seed", "0"))
    class_count = int(parser["scene"].get("class_count", "10"))
    boxes = []
    for section in parser.sections():
        if not section.startswith("box"):
            continue
        sec = parser[section]
        try:
            box = ObjectBox(
                center=np.array([float(v) for v in sec["center"].split()]),
                size=np.array([float(v) for v in sec["size"].split()]),
                yaw=float(sec["yaw"]),
                velocity=np.array([float(v) for v in sec["velocity"].split()]),
                class_id=int(sec["class_id"]),
            )
        except KeyError as err:
            raise ValueError(f"{path}: [{section}] missing key {err}") from None
        except ValueError as err:
            raise ValueError(f"{path}: [{section}] {err}") from None
        if box.class_id >= class_count:
            raise ValueError(
                f"{path}: [{section}] class_id {box.class_id} >= class_count {class_count}"
            )
        boxes.append(box)
    return Scene(boxes=tuple(boxes), seed=seed, class_count=class_count)
