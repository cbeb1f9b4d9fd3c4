"""The benchmark's workloads and the seeded synthetic sensor inputs they feed.

A workload fixes the grids, the sensor resolution and whether a step trains
or only infers. Sample i of a run is a pure function of (seed, stream, i),
so the same seed gives the same inputs; warm-up samples come from their own
stream and never repeat a timed sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bevkit import geometry as geo
from bevkit import lidar_pipeline as lp
from bevkit import scene as sc
from pipeline import CLASS_COUNT, IMAGE_CHANNELS

IMAGE_SIZE = 64
JITTER_YAW = np.deg2rad(3.0)
JITTER_FOCAL = 0.05
WARMUP_STREAM, STEP_STREAM = 0, 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: bool
    bev: geo.BEVConfig
    voxel: lp.VoxelConfig
    bins: geo.DepthBins
    beams: int
    azimuths: int
    boxes: int
    k: int
    jitter_rig: bool


def _dense_voxel_config() -> lp.VoxelConfig:
    return lp.VoxelConfig(
        size=(0.25, 0.25, 0.2), x_min=-8, x_max=8, y_min=-8, y_max=8, z_min=-0.4, z_max=2.8
    )


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="train_fixed_rig",
            why=(
                "desk-scale training step on one fixed camera rig: backward is most of it "
                "and the ray geometry repeats every step, so per-rig caches hit"
            ),
            train=True,
            bev=geo.desk_bev_config(),
            voxel=lp.desk_voxel_config(),
            bins=geo.desk_depth_bins(),
            beams=16,
            azimuths=360,
            boxes=8,
            k=20,
            jitter_rig=False,
        ),
        Workload(
            name="train_aug_rig",
            why=(
                "the same training step with a freshly jittered rig each step "
                "(yaw +-3 deg, focal +-5%), so no two steps share ray geometry and per-rig caches miss"
            ),
            train=True,
            bev=geo.desk_bev_config(),
            voxel=lp.desk_voxel_config(),
            bins=geo.desk_depth_bins(),
            beams=16,
            azimuths=360,
            boxes=8,
            k=20,
            jitter_rig=True,
        ),
        Workload(
            name="infer_dense_lidar",
            why=(
                "tape-free inference on a 64x64 BEV with ~31k LiDAR points: the LiDAR branch, "
                "point stream and BEV convs carry the step and nothing runs backward"
            ),
            train=False,
            bev=geo.BEVConfig(-8.0, 8.0, -8.0, 8.0, 64),
            voxel=_dense_voxel_config(),
            bins=geo.desk_depth_bins(),
            beams=32,
            azimuths=1024,
            boxes=16,
            k=40,
            jitter_rig=False,
        ),
    )
}


@dataclass(frozen=True)
class Sample:
    scene: sc.Scene
    cloud: sc.PointCloud
    cams: tuple
    images: tuple  # [H, W, IMAGE_CHANNELS] feature image per camera


def jitter_camera(cam: geo.CameraParams, yaw: float, focal_scale: float) -> geo.CameraParams:
    """cam turned by yaw about the world z axis through its centre, focal scaled."""
    rotation = cam.rotation @ geo.rotation_z(yaw).T
    return geo.CameraParams(
        fx=cam.fx * focal_scale,
        fy=cam.fy * focal_scale,
        cx=cam.cx,
        cy=cam.cy,
        width=cam.width,
        height=cam.height,
        rotation=rotation,
        translation=-rotation @ cam.center,
        name=cam.name,
    )


def simulate(wl: Workload, seed: int, stream: int, index: int) -> Sample:
    """One scene, its LiDAR sweep and one rendered image per camera."""
    rng = np.random.default_rng([seed, stream, index])
    cams = sc.default_rig(IMAGE_SIZE, IMAGE_SIZE)
    if wl.jitter_rig:
        cams = [
            jitter_camera(
                cam,
                rng.uniform(-JITTER_YAW, JITTER_YAW),
                1.0 + rng.uniform(-JITTER_FOCAL, JITTER_FOCAL),
            )
            for cam in cams
        ]
    scene = sc.generate_scene(wl.boxes, wl.bev, CLASS_COUNT, seed=int(rng.integers(2**31)))
    cloud = sc.lidar_scan(
        scene, sc.default_lidar_origin(), wl.azimuths, sc.default_elevations(wl.beams)
    )
    images = tuple(sc.render_camera(scene, cam, IMAGE_CHANNELS)[0] for cam in cams)
    return Sample(scene=scene, cloud=cloud, cams=tuple(cams), images=images)


def rig_key(sample: Sample) -> bytes:
    """Bytes identifying the sample's camera geometry exactly."""
    parts = []
    for cam in sample.cams:
        parts.append(np.array([cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height], float))
        parts.extend((cam.rotation, cam.translation))
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
