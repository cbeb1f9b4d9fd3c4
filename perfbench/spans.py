"""Spans around calls into bevkit, recorded from outside the library.

While a ``Tracer`` is installed, every function named in ``TRACED`` is
replaced, in each bevkit module that binds it, by a wrapper that records a
span (step, name, start, end, parent). VJPs are wrapped per recorded tape
node. Nothing under ``src/`` changes; uninstalling restores the originals.

``LAYER_METRICS`` names every per-layer metric the traced run reports and,
written down before measuring, the end-to-end metric and workload it should
move. BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import bevkit
from bevkit import geometry as geo

TRACED = {
    "scene": ("generate_scene", "lidar_scan", "render_camera"),
    "lidar_pipeline": ("voxelize", "encode_voxels", "compress_z"),
    "view_transform": (
        "camera_encode",
        "depth_net",
        "ray_stream",
        "upsample_hr",
        "point_stream",
        "fuse_camera_bev",
        "depth_ground_truth",
        "depth_loss_multi",
    ),
    "layers": ("conv2d",),
    "predictor": (
        "fuse_bev",
        "heatmap_head",
        "select_candidates",
        "decode_general",
        "task_specific_features",
        "task_specific_fuse",
        "subtask_heads",
    ),
    "losses": ("total_loss", "hungarian_match"),
    "numerics": ("backward",),
}

VJP_OPS = ("gather_rows", "scatter_add", "linear", "concat", "mul")
STEP, SIM = "step", "sim"

_TRAIN = "step_ms_p50 on train_fixed_rig and train_aug_rig; none on infer_dense_lidar"
_TRAIN_MEM = "step_ms_p50 and peak_rss_mb on train_fixed_rig and train_aug_rig"
_ALL = "step_ms_p50 on all three workloads"
_LIDAR = "step_ms_p50 and peak_rss_mb on infer_dense_lidar; little on train_*"
_SIM = "sim_ms_p50 on all three workloads"

# name -> (unit, better, what it should move)
LAYER_METRICS = {
    "numerics.backward_ms": ("ms", "lower", _TRAIN),
    "numerics.backward_self_ms": (
        "ms", "lower", _TRAIN + " (gradient accumulation and wrapping, outside VJPs)"
    ),
    **{f"numerics.vjp.{op}_ms": ("ms", "lower", _TRAIN) for op in VJP_OPS},
    "numerics.tape_nodes": ("count", "lower", _TRAIN_MEM),
    "numerics.tape_saved_mb": ("MB", "lower", _TRAIN_MEM),
    "numerics.grads_wrapped": ("count", "lower", _TRAIN_MEM),
    "layers.conv2d_ms": ("ms", "lower", _ALL + ", most on infer_dense_lidar"),
    "layers.conv2d_calls": ("count", "lower", _ALL + ", most on infer_dense_lidar"),
    "lidar_pipeline.voxelize_ms": ("ms", "lower", _LIDAR),
    "lidar_pipeline.encode_voxels_ms": ("ms", "lower", _LIDAR),
    "lidar_pipeline.compress_z_ms": ("ms", "lower", _LIDAR),
    "lidar_pipeline.occupied_voxels": ("count", "lower", _LIDAR),
    "lidar_pipeline.occupancy": ("fraction", "lower", _LIDAR),
    "view_transform.camera_encode_ms": ("ms", "lower", _ALL),
    "view_transform.camera_encode_self_ms": ("ms", "lower", _ALL),
    "view_transform.depth_net_ms": ("ms", "lower", _ALL),
    "view_transform.ray_stream_ms": (
        "ms", "lower", "step_ms_p50 on train_fixed_rig; train_aug_rig guards the miss path"
    ),
    "view_transform.upsample_hr_ms": ("ms", "lower", _ALL),
    "view_transform.point_stream_ms": ("ms", "lower", "step_ms_p50 on infer_dense_lidar"),
    "view_transform.fuse_camera_bev_ms": ("ms", "lower", _ALL),
    "view_transform.fuse_camera_bev_self_ms": ("ms", "lower", _ALL),
    "view_transform.depth_ground_truth_ms": ("ms", "lower", _TRAIN),
    "view_transform.depth_loss_multi_ms": ("ms", "lower", _TRAIN),
    "view_transform.ray_samples": ("count", "lower", "step_ms_p50 on train_fixed_rig"),
    "view_transform.ray_kept_frac": ("fraction", "higher", "step_ms_p50 on train_fixed_rig"),
    "view_transform.point_valid_frac": ("fraction", "higher", "step_ms_p50 on infer_dense_lidar"),
    "view_transform.depth_mask_coverage": ("fraction", "higher", _TRAIN),
    "predictor.fuse_bev_ms": ("ms", "lower", _ALL),
    "predictor.fuse_bev_self_ms": ("ms", "lower", _ALL),
    "predictor.heatmap_head_ms": ("ms", "lower", _ALL),
    "predictor.heatmap_head_self_ms": ("ms", "lower", _ALL),
    "predictor.select_candidates_ms": ("ms", "lower", _ALL),
    "predictor.decode_general_ms": ("ms", "lower", _ALL),
    "predictor.task_specific_features_ms": ("ms", "lower", _ALL),
    "predictor.task_specific_features_self_ms": ("ms", "lower", _ALL),
    "predictor.task_specific_fuse_ms": ("ms", "lower", _ALL),
    "predictor.subtask_heads_ms": ("ms", "lower", _ALL),
    "predictor.candidates": ("count", "higher", _ALL),
    "losses.total_loss_ms": ("ms", "lower", "step_ms_p50 on train_* only"),
    "losses.total_loss_self_ms": ("ms", "lower", "step_ms_p50 on train_* only"),
    "losses.hungarian_match_ms": ("ms", "lower", "step_ms_p50 on train_* only"),
    "losses.matched_pairs": ("count", "higher", "step_ms_p50 on train_* only"),
    "scene.generate_scene_ms": ("ms", "lower", _SIM),
    "scene.lidar_scan_ms": ("ms", "lower", _SIM),
    "scene.render_camera_ms": ("ms", "lower", _SIM),
    "scene.lidar_points": ("count", "higher", _SIM),
    "trace.step_self_ms": ("ms", "lower", _ALL + " (step time outside every traced call)"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced step_ms_p50"),
}


@dataclass
class Span:
    step: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """In-memory span recorder for one run; install() to trace bevkit calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[tuple] = []  # (step, name, args, result) for counted calls
        self.step = -1
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(self.step, name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def region(self, name: str):
        span = self._begin(name)
        try:
            yield
        finally:
            self._finish(span)

    def _wrap(self, name: str, fn):
        counted = name in _COUNTERS

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if counted:
                self.calls.append((self.step, name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route every TRACED function through a span while the block runs."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("bevkit.")]
        saved = []
        try:
            for mod_name, names in TRACED.items():
                home = getattr(bevkit, mod_name)
                for fn_name in names:
                    fn = getattr(home, fn_name)
                    wrapped = self._wrap(f"{mod_name}.{fn_name}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                saved.append((mod, attr, fn))
                                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def wrap_vjps(self, tape) -> None:
        for node in tape.nodes:
            node.vjp = self._wrap(f"numerics.vjp.{node.op}", node.vjp)


def tape_saved_bytes(tape) -> int:
    """Bytes of distinct arrays the tape keeps alive through saved values and VJP closures."""
    arrays = {}
    for node in tape.nodes:
        held = list(node.saved)
        held.extend(cell.cell_contents for cell in inspect.unwrap(node.vjp).__closure__ or ())
        for obj in held:
            if isinstance(obj, np.ndarray):
                arrays[id(obj)] = obj.nbytes
    return sum(arrays.values())


# --- counts taken from a call's arguments and result, after the step ends ---


def _ray_counts(args, _):
    # The same bin-centre samples ray_stream scatters: one per (feature pixel, bin).
    _, dists, cams, bins, bev_cfg = args[:5]
    samples = kept = 0
    for dist, cam in zip(dists, cams):
        hp, wp, d = dist.shape
        stride = cam.width // wp
        us = (np.arange(wp) + 0.5) * stride - 0.5
        vs = (np.arange(hp) + 0.5) * stride - 0.5
        u, v = np.meshgrid(us, vs)
        uv = np.repeat(np.stack([u.ravel(), v.ravel()], axis=1), d, axis=0)
        world = geo.unproject_points(uv, np.tile(bins.centers(), hp * wp), cam)
        samples += hp * wp * d
        kept += int(geo.bev_indices(world[:, :2], bev_cfg)[2].sum())
    return {"view_transform.ray_samples": samples, "view_transform.ray_kept_frac": kept / samples}


def _point_counts(args, _):
    pc, hr_feats, cams, bev_cfg = args[:4]
    pts = pc.points
    seen = np.zeros(len(pts), dtype=bool)
    for cam in cams:
        uv, depth, _ = geo.project_points(pts[:, :3], cam)
        px, py = np.rint(uv[:, 0]), np.rint(uv[:, 1])
        seen |= (depth > 1e-6) & (px >= 0) & (px < cam.width) & (py >= 0) & (py < cam.height)
    valid = seen & geo.bev_indices(pts[:, :2], bev_cfg)[2]
    return {"view_transform.point_valid_frac": float(valid.mean()) if len(pts) else 0.0}


def _voxel_counts(_, grid):
    x, y, z = grid.cfg.counts
    occupied = len(grid.occupied)
    return {"lidar_pipeline.occupied_voxels": occupied, "lidar_pipeline.occupancy": occupied / (x * y * z)}


_COUNTERS = {
    "view_transform.ray_stream": _ray_counts,
    "view_transform.point_stream": _point_counts,
    "lidar_pipeline.voxelize": _voxel_counts,
    "view_transform.depth_ground_truth": lambda _, gt: {"view_transform.depth_mask_coverage": gt.mask.mean()},
    "predictor.select_candidates": lambda _, cands: {"predictor.candidates": cands.k},
    "losses.hungarian_match": lambda _, match: {"losses.matched_pairs": len(match.pairs)},
    "scene.lidar_scan": lambda _, pc: {"scene.lidar_points": len(pc)},
}


def step_metrics(tracer: Tracer, step: int) -> dict[str, float]:
    """One traced step: inclusive and self ms and calls per span name, plus counts.

    A count is averaged over the step's calls of the function it comes from.
    """
    mine = [(i, s) for i, s in enumerate(tracer.spans) if s.step == step]
    child_ms: dict[int, float] = {}
    for _, s in mine:
        if s.parent >= 0:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + (s.end - s.start) * 1e3
    out: dict[str, float] = {}
    for i, s in mine:
        ms = (s.end - s.start) * 1e3
        out[f"{s.name}_ms"] = out.get(f"{s.name}_ms", 0.0) + ms
        out[f"{s.name}_self_ms"] = out.get(f"{s.name}_self_ms", 0.0) + ms - child_ms.get(i, 0.0)
        out[f"{s.name}_calls"] = out.get(f"{s.name}_calls", 0) + 1
    counts: dict[str, list] = {}
    for call_step, name, args, result in tracer.calls:
        if call_step == step:
            for key, value in _COUNTERS[name](args, result).items():
                counts.setdefault(key, []).append(value)
    out.update({key: statistics.fmean(values) for key, values in counts.items()})
    out["trace.step_self_ms"] = out.get(f"{STEP}_self_ms", 0.0)
    return out


def layer_report(per_step: list[dict], overhead_ms: float) -> dict[str, float]:
    """Median over traced steps of every LAYER_METRICS entry; 0 where the layer never ran."""
    report = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_ms":
            report[name] = overhead_ms
            continue
        report[name] = float(statistics.median(step.get(name, 0.0) for step in per_step))
    return report
