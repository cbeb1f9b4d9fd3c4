"""Deterministic synthetic scenes and the two ray-cast sensors.

Scenes are yawed cuboids resting on the ground plane z = 0. The LiDAR and
the camera renderer share one vectorized first-hit ray caster (slab test in
each box frame, plus the ground plane), so the occlusion structure both
sensors observe is identical by construction. Each call casts its rays from
one origin, the LiDAR's sensor origin or a camera centre, so every term of
the origin is computed once per box, not once per ray. The caster works box
by box: a bounding-sphere cull (Kay & Kajiya, 1986), in the origin's frame,
keeps only the rays whose line passes within the box's sphere, and the slab
test runs on those, on component-major [3, N] rows against one box-frame
origin column; the box-frame dirs stay [N, 3] @ R matmuls. The cull cannot
change a bit: the sphere contains the box, its margin covers rounding and
the slab test's parallel rule, and a row subset goes through the same
elementwise ops and matmul rows as the full arrays.
Everything is a pure function of the seed: same inputs, bit-identical
outputs, so a point cloud is never stored but re-simulated from its scene.
A scene file is geometry's INI text format under its one section rule: a
[scene] section (seed, class_count) and a [box NAME] section per box
(center, size, yaw, velocity, class_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BEVConfig, CameraParams, look_at_pose, parse_floats, read_ini, rotation_z, write_ini,
)

_RAY_EPS = 1e-9

# Kind codes used by the ray caster.
HIT_NONE = -2
HIT_GROUND = -1

# Boxes never spawn over the ego square so sensors at the origin are always
# in free space.
EGO_CLEARANCE = 1.2

# Bounding circles farther apart than this (meters) hold footprints that are
# certainly disjoint; far above the rounding of a footprint's corners.
_CIRCLE_MARGIN = 1e-9

# The slab test treats a box-frame direction component below this as 0.
_PARALLEL = 1e-12

# Relative widening of the ray-cull bounding spheres (see first_hits); far
# above the rounding of the squared-distance test, ~1e-14 relative.
_SPHERE_MARGIN = 1e-6


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


def circles_apart(center_a, radius_a: float, center_b, radius_b: float) -> bool:
    """Whether two circles are disjoint with _CIRCLE_MARGIN to spare.

    When they hold two footprints, those footprints cannot overlap, so the
    separating-axis test can be skipped.
    """
    gap = math.hypot(center_a[0] - center_b[0], center_a[1] - center_b[1])
    return gap > radius_a + radius_b + _CIRCLE_MARGIN


def generate_scene(num_boxes: int, bev_cfg: BEVConfig, class_count: int = 10, seed: int = 0) -> Scene:
    """Rejection-sample non-overlapping boxes fully inside the BEV range.

    The total attempt budget is 10 * num_boxes; exhausting it raises
    PlacementError rather than returning a partial scene. Each placed box's
    footprint is computed once, and the separating-axis test runs only on
    pairs whose bounding circles meet, which cannot change the outcome.
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
    # The ego square, then each placed box: (center xy, bounding-circle radius, footprint).
    taken = [((0.0, 0.0), EGO_CLEARANCE * math.sqrt(2.0), ego)]
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
        radius = 0.5 * math.hypot(size[0], size[1])
        if any(
            not circles_apart((x, y), radius, c, r) and footprints_overlap(fp, other)
            for c, r, other in taken
        ):
            continue
        boxes.append(box)
        taken.append(((x, y), radius, fp))
    return Scene(boxes=tuple(boxes), seed=seed, class_count=class_count)


def first_hits(origin, dirs: np.ndarray, scene: Scene):
    """First intersection of each ray from one origin with any box surface or the ground.

    origin is one finite 3-vector shared by every ray, dirs a finite [N, 3]
    array (ValueError otherwise). Returns (t, kind, normal): the ray
    parameter (inf for misses), the hit kind (box class id, HIT_GROUND, or
    HIT_NONE), and the world-space outward surface normal [N, 3]. dirs need
    not be unit length; t is the parametric multiplier along each dir. A box
    whose slab interval starts at or behind the origin (origin inside it) is
    not hit; on equal t the earlier box in scene.boxes wins.

    Per box, a bounding-sphere cull first keeps the rays whose line passes
    within the box's sphere (centre c, radius r, half the box diagonal),
    widened per ray by w = _SPHERE_MARGIN * (1 m + A) + 6 * _PARALLEL * A / |d|.
    A = max(|c - origin| + r) over the boxes bounds the distance from the
    origin to any box point. The cull works in the origin's frame: with
    rel = origin - c and u the unit dir, the squared line distance is
    |rel|^2 - (u.rel)^2, so a ray is culled when (u.rel)^2 + s < |rel|^2 - r^2.
    Its s = (2 r_max + w) w, at least (r + w)^2 - r^2, is built once per
    call, so a box costs a matvec, a square, an add and a compare. Every
    point of a box lies in its sphere. The first term of w makes
    s >= 1e-12 (1 + A)^2, far above the rounding of the test (~1e-14 A^2).
    The second covers the slab test's parallel rule, which treats a box-frame
    direction component under _PARALLEL as 0. The box point the test then
    meets at t lies t * sqrt(2) * _PARALLEL off the true line at most, and
    t |d| < 2 A when |d| >= 4 _PARALLEL, so it is 2 sqrt(2) _PARALLEL A / |d|
    off at most; for shorter dirs w > A and no ray is culled. Rays with A or
    |d| past 1e150, whose squares could overflow, are never culled, and
    neither is a ray whose test gives NaN. So a culled ray cannot hit the box.

    The slab test then runs on the candidates only: their dirs go into the
    box frame with an [n, 3] @ R matmul and are transposed to contiguous
    [3, n] rows, so every slab op and the enter/exit reductions run over
    long rows, against one (origin - c) @ R column for all of them. Row
    subsets of that matmul and of the elementwise ops give the same bits as
    the full arrays, so the outputs are bit-identical to the un-culled
    per-ray [N, 3] form of the same slab test.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    if origin.shape != (3,):
        raise ValueError(f"origin must be one 3-vector for all rays, got shape {origin.shape}")
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"dirs must be [N, 3], got shape {dirs.shape}")
    if not np.isfinite(origin).all():
        raise ValueError(f"origin must be finite, got {origin}")
    if not np.isfinite(dirs).all():
        row = np.flatnonzero(~np.isfinite(dirs).all(axis=1))[0]
        raise ValueError(f"dirs must be finite, row {row} is {dirs[row]}")
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, HIT_NONE, dtype=np.int64)
    normal = np.zeros((n, 3))

    # Ground plane z = 0, only reachable from above going down.
    if origin[2] > 0:
        dz = dirs[:, 2]
        with np.errstate(over="ignore", divide="ignore"):
            t_ground = -origin[2] / dz
        hit = (dz < -1e-12) & (t_ground > _RAY_EPS) & (t_ground < np.inf)
        np.copyto(t_best, t_ground, where=hit)
        np.copyto(kind, HIT_GROUND, where=hit)
        np.copyto(normal[:, 2], 1.0, where=hit)

    # Cull set-up: component-major unit dirs and each ray's s, infinite past
    # 1e150; per box, rel = origin - c and the bound |rel|^2 - r^2.
    radii = [0.5 * math.hypot(*box.size) for box in scene.boxes]
    rels = [origin - box.center for box in scene.boxes]
    reach = max((math.hypot(*rel) + r for rel, r in zip(rels, radii)), default=0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dd = np.einsum("ij,ij->i", dirs, dirs)
        length = np.sqrt(dd)
        unit = np.ascontiguousarray(dirs.T) / length
        widen = _SPHERE_MARGIN * (1.0 + reach) + 6.0 * _PARALLEL * reach / length
        slack = (2.0 * max(radii, default=0.0) + widen) * widen
        slack[(dd >= 1e300) | (reach >= 1e150)] = np.inf
        bounds = [rel @ rel - r * r for rel, r in zip(rels, radii)]
    proj = np.empty(n)
    far = np.empty(n, dtype=bool)

    for box, rel, bound in zip(scene.boxes, rels, bounds):
        with np.errstate(over="ignore", invalid="ignore"):
            np.dot(rel, unit, out=proj)
            np.square(proj, out=proj)
            proj += slack
            np.less(proj, bound, out=far)
        cand = np.flatnonzero(~far)
        if cand.size == 0:
            continue
        R = rotation_z(box.yaw)  # box -> world
        o_b = (rel @ R)[:, None]
        d_b = np.ascontiguousarray((dirs.take(cand, axis=0) @ R).T)
        half = (box.size / 2.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d_b
            t1 = (-half - o_b) * inv
            t2 = (half - o_b) * inv
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
        # Rays parallel to a slab: inside -> unconstrained, outside -> miss.
        par = np.abs(d_b) < _PARALLEL
        inside = np.abs(o_b) <= half
        lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
        t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
        t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
        ok = (t_enter <= t_exit) & (t_enter > _RAY_EPS) & (t_enter < t_best[cand])
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        axis = np.argmax(lo[:, idx], axis=0)
        n_b = np.zeros((idx.size, 3))
        n_b[np.arange(idx.size), axis] = -np.sign(d_b[axis, idx])
        rays = cand[idx]
        t_best[rays] = t_enter[idx]
        kind[rays] = box.class_id
        normal[rays] = n_b @ R.T

    return t_best, kind, normal


def lidar_scan(
    scene: Scene,
    sensor_origin,
    azimuth_count: int,
    elevation_angles,
) -> PointCloud:
    """One return per ray at its first surface hit; misses produce nothing.

    Rays sweep azimuth fastest within each elevation ring: ray (i, j) has
    direction (cos e_i cos a_j, cos e_i sin a_j, sin e_i), built as outer
    products of the 1-D cosines and sines, and every ray starts at
    sensor_origin, so the whole sweep is one first_hits call. elevation_angles
    must be 1-D. Returned points are origin + t * d and carry intensity 1
    and timestamp offset 0.
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
    if elevations.ndim != 1:
        raise ValueError(f"elevation_angles must be 1-D, got shape {elevations.shape}")
    if not np.isfinite(elevations).all():
        raise ValueError(f"elevation_angles must be finite, got {elevations}")
    azimuths = 2.0 * np.pi * np.arange(azimuth_count) / azimuth_count
    ring = np.cos(elevations)[:, None]
    dirs = np.empty((elevations.size, azimuth_count, 3))
    dirs[..., 0] = ring * np.cos(azimuths)
    dirs[..., 1] = ring * np.sin(azimuths)
    dirs[..., 2] = np.sin(elevations)[:, None]
    dirs = dirs.reshape(-1, 3)
    t, kind, _ = first_hits(origin, dirs, scene)
    ok = kind != HIT_NONE
    hits = origin + t[ok, None] * dirs[ok]
    pts = np.concatenate(
        [hits, np.ones((len(hits), 1)), np.zeros((len(hits), 1))], axis=1
    )
    return PointCloud(pts)


def render_camera(scene: Scene, cam: CameraParams, channels: int):
    """Per-pixel ray cast from the camera centre through integer pixel coordinates.

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
    # Every pixel ray starts at the camera centre. dir has unit z in the
    # camera frame, so the ray parameter equals the optical-axis depth directly.
    t, kind, normal = first_hits(cam.center, d_world, scene)

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
    eye = np.array([0.0, 0.0, 1.2])
    cams = []
    for name, yaw in (("front", 0.0), ("front_left", np.pi / 3.0)):
        R, t = look_at_pose(eye, eye + np.array([np.cos(yaw), np.sin(yaw), -0.12]))
        cams.append(CameraParams(
            fx=width / 2.0, fy=width / 2.0, cx=width / 2.0, cy=height / 2.0,
            width=width, height=height, rotation=R, translation=t, name=name,
        ))
    return cams


def default_lidar_origin() -> np.ndarray:
    return np.array([0.0, 0.0, 1.6])


def default_elevations(count: int = 16) -> np.ndarray:
    return np.deg2rad(np.linspace(-30.0, 2.0, count))


# The scene header is checked on its own (an empty Scene), before any box meets class_count.
_SCENE_FORMAT = {
    "scene": (lambda _, **fields: Scene((), **fields), {"seed": int, "class_count": int}),
    "box NAME": (lambda _, **fields: ObjectBox(**fields), {
        "center": parse_floats, "size": parse_floats, "yaw": float, "velocity": parse_floats,
        "class_id": int,
    }),
}


def save_scene(path, scene: Scene) -> None:
    write_ini(path, [("scene", {"seed": scene.seed, "class_count": scene.class_count})] + [(
        f"box {i}", {"center": box.center, "size": box.size, "yaw": float(box.yaw),
                     "velocity": box.velocity, "class_id": box.class_id},
    ) for i, box in enumerate(scene.boxes)])


def load_scene(path) -> Scene:
    boxes = read_ini(path, _SCENE_FORMAT)
    head = boxes.pop("scene", None)
    if head is None:
        raise ValueError(f"{path}: missing [scene] section")
    for header, box in boxes.items():
        if box.class_id >= head.class_count:
            raise ValueError(f"{path}: [{header}] class_id {box.class_id} >= class_count "
                             f"{head.class_count}")
    return Scene(tuple(boxes.values()), head.seed, head.class_count)
