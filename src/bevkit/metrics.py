"""Center-distance detection metrics and the composite detection score.

Matching is greedy in score order against the nearest unmatched same-class
ground truth within a distance threshold. AP integrates an interpolated
101-point precision/recall curve, sampled at recall exactly k/100, with the
low-recall, low-precision corner (below 0.1 each) discarded and the rest
renormalized by 0.9. The composite score weights mAP five times against
four true-positive error terms (translation, scale, orientation, velocity),
each mapped through 1 - min(1, error). Attribute error has no synthetic
counterpart here, so the denominator adapts: scores are comparable only
within this artifact. The detector's heads come in as predictor.decode_detections'
BoxRecord rows; this module imports nothing from bevkit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_ERROR_THRESHOLD = 2.0
ERROR_NAMES = ("mATE", "mASE", "mAOE", "mAVE")


@dataclass(frozen=True)
class BoxRecord:
    """Minimal detection/ground-truth record the evaluator consumes."""

    class_id: int
    score: float  # ground truths carry 1.0
    center: np.ndarray  # [3]
    size: np.ndarray  # [3] (l, w, h)
    yaw: float
    velocity: np.ndarray  # [2]

    @classmethod
    def from_object_box(cls, box):
        return cls(
            class_id=box.class_id,
            score=1.0,
            center=np.asarray(box.center, dtype=np.float64),
            size=np.asarray(box.size, dtype=np.float64),
            yaw=float(box.yaw),
            velocity=np.asarray(box.velocity, dtype=np.float64),
        )


@dataclass(frozen=True)
class EvalResult:
    class_ap: dict[int, dict[float, float]]  # class -> threshold -> AP (NaN undefined)
    mean_ap: float
    tp_errors: dict[str, float]
    nds: float


def match_detections(dets: list[BoxRecord], gts: list[BoxRecord], threshold: float):
    """Greedy matching at one distance threshold.

    dets must already be sorted by descending score. Each detection takes
    the nearest unmatched same-class ground truth within threshold meters
    of 2-D center distance, else it is a false positive.
    Returns (tp flags aligned with dets, matched (det index, gt index) pairs).
    """
    if any(dets[i].score < dets[i + 1].score for i in range(len(dets) - 1)):
        raise ValueError("detections must be sorted by descending score")
    taken = [False] * len(gts)
    tp = np.zeros(len(dets), dtype=bool)
    pairs = []
    for di, det in enumerate(dets):
        best, best_dist = -1, threshold
        for gi, gt in enumerate(gts):
            if taken[gi] or gt.class_id != det.class_id:
                continue
            dist = float(np.hypot(*(det.center[:2] - gt.center[:2])))
            if dist < best_dist:
                best, best_dist = gi, dist
        if best >= 0:
            taken[best] = True
            tp[di] = True
            pairs.append((di, best))
    return tp, pairs


def average_precision(tp_flags, num_gt: int) -> float:
    """101-point interpolated AP with the sub-0.1 corner removed.

    tp_flags are ordered by descending detection score. Returns NaN when
    there is nothing to evaluate (no ground truth and no detections).

    Precision is queried at recall r = k/100 for k = 11..100, each r formed
    as k / 100.0 so that it is the float nearest k/100. A query takes the
    last sample whose recall is at or below r and interpolates linearly to
    the next sample. Where recall repeats (at every false positive) that is
    the last sample at the repeated value, i.e. the lowest precision reached
    there. Below the first recall the query takes precision[0]; above the
    last recall it takes 0. Each query contributes max(0, p - 0.1), and the
    90 contributions are summed with correct rounding and renormalized by
    90 * 0.9: a perfect ranking gives exactly 1.0 and no input gives more.
    """
    tp_flags = np.asarray(tp_flags, dtype=bool)
    if num_gt < 0:
        raise ValueError("num_gt must be non-negative")
    if num_gt == 0:
        return math.nan if len(tp_flags) == 0 else 0.0
    if len(tp_flags) == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / num_gt
    precision = tp_cum / (tp_cum + fp_cum)
    query = np.arange(11, 101) / 100.0
    below = np.searchsorted(recall, query, side="right") - 1
    lo = np.maximum(below, 0)
    hi = np.minimum(lo + 1, len(recall) - 1)
    span = recall[hi] - recall[lo]
    # span is 0 only where the query is off the curve or lands on the last
    # sample; those queries take no interpolation weight.
    weight = np.divide(query - recall[lo], span, out=np.zeros_like(query), where=span > 0)
    interp = precision[lo] + weight * (precision[hi] - precision[lo])
    interp[below < 0] = precision[0]
    interp[query > recall[-1]] = 0.0
    body = np.maximum(interp - 0.1, 0.0)
    return math.fsum(body) / 90.0 / (1.0 - 0.1)


def yaw_gap(a: float, b: float) -> float:
    """Smallest absolute yaw difference, in [0, pi]."""
    d = abs(a - b) % (2.0 * np.pi)
    return float(min(d, 2.0 * np.pi - d))


def aligned_size_iou(size_a: np.ndarray, size_b: np.ndarray) -> float:
    """3-D IoU after aligning centers and yaw: pure size overlap."""
    inter = float(np.prod(np.minimum(size_a, size_b)))
    union = float(np.prod(size_a)) + float(np.prod(size_b)) - inter
    return inter / union


def tp_error_stats(matched: list[tuple[BoxRecord, BoxRecord]]) -> dict[str, float]:
    """Mean translation / scale / orientation / velocity errors over matches.

    No matches reports every statistic as 1.0 (maximally bad).
    """
    if not matched:
        return {name: 1.0 for name in ERROR_NAMES}
    ate = np.mean([np.hypot(*(d.center[:2] - g.center[:2])) for d, g in matched])
    ase = np.mean([1.0 - aligned_size_iou(d.size, g.size) for d, g in matched])
    aoe = np.mean([yaw_gap(d.yaw, g.yaw) for d, g in matched])
    ave = np.mean([np.hypot(*(d.velocity - g.velocity)) for d, g in matched])
    return {"mATE": float(ate), "mASE": float(ase), "mAOE": float(aoe), "mAVE": float(ave)}


def nds(mean_ap: float, tp_errors: dict[str, float]) -> float:
    """(5 * mAP + sum(1 - min(1, error))) / (5 + number of error terms)."""
    terms = [1.0 - min(1.0, tp_errors[name]) for name in ERROR_NAMES]
    return (5.0 * mean_ap + sum(terms)) / (5.0 + len(ERROR_NAMES))


def evaluate(
    det_scenes: list[list[BoxRecord]],
    gt_scenes: list[list[BoxRecord]],
    class_count: int,
    thresholds=DEFAULT_THRESHOLDS,
) -> EvalResult:
    """Full evaluation over a set of scenes.

    AP is computed per class per threshold by pooling detections across
    scenes (matching stays within a scene); undefined (class, threshold)
    cells are excluded from the mean. TP error statistics come from matches
    at the 2 m threshold across all classes. A record whose class_id lies
    outside [0, class_count) raises ValueError.
    """
    if len(det_scenes) != len(gt_scenes):
        raise ValueError("detections and ground truths must pair per scene")
    for kind, scenes in (("detection", det_scenes), ("ground truth", gt_scenes)):
        for si, records in enumerate(scenes):
            for ri, rec in enumerate(records):
                if not 0 <= rec.class_id < class_count:
                    raise ValueError(
                        f"scene {si}, {kind} {ri}: class_id {rec.class_id} is out of range "
                        f"for {class_count} classes"
                    )
    class_ap: dict[int, dict[float, float]] = {c: {} for c in range(class_count)}
    defined = []
    error_matches: list[tuple[BoxRecord, BoxRecord]] = []
    for cls in range(class_count):
        per_scene_dets = [
            sorted((d for d in dets if d.class_id == cls), key=lambda d: -d.score)
            for dets in det_scenes
        ]
        per_scene_gts = [[g for g in gts if g.class_id == cls] for gts in gt_scenes]
        num_gt = sum(len(g) for g in per_scene_gts)
        for dets, gts in zip(per_scene_dets, per_scene_gts):
            _, pairs = match_detections(dets, gts, TP_ERROR_THRESHOLD)
            error_matches.extend((dets[di], gts[gi]) for di, gi in pairs)
        for thr in thresholds:
            scored: list[tuple[float, bool]] = []
            for dets, gts in zip(per_scene_dets, per_scene_gts):
                tp, _ = match_detections(dets, gts, thr)
                scored.extend((d.score, bool(t)) for d, t in zip(dets, tp))
            scored.sort(key=lambda kv: -kv[0])
            ap = average_precision([t for _, t in scored], num_gt)
            class_ap[cls][thr] = ap
            if not math.isnan(ap):
                defined.append(ap)
    mean_ap = float(np.mean(defined)) if defined else 0.0
    errors = tp_error_stats(error_matches)
    return EvalResult(
        class_ap=class_ap, mean_ap=mean_ap, tp_errors=errors, nds=nds(mean_ap, errors)
    )


# --- report files: tab-separated table plus a JSON mirror ---


def write_report(path_tsv, path_json, result: EvalResult, thresholds=DEFAULT_THRESHOLDS):
    header = ["class"] + [f"AP@{t}" for t in thresholds] + [
        "mAP", "mATE", "mASE", "mAOE", "mAVE", "NDS",
    ]
    lines = ["\t".join(header)]
    for cls in sorted(result.class_ap):
        aps = [result.class_ap[cls][t] for t in thresholds]
        row = [str(cls)] + [f"{a:.6f}" if not math.isnan(a) else "nan" for a in aps]
        row += [f"{result.mean_ap:.6f}"]
        row += [f"{result.tp_errors[n]:.6f}" for n in ERROR_NAMES]
        row += [f"{result.nds:.6f}"]
        lines.append("\t".join(row))
    with open(path_tsv, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = {
        "class_ap": {
            str(cls): {str(t): result.class_ap[cls][t] for t in thresholds}
            for cls in sorted(result.class_ap)
        },
        "mAP": result.mean_ap,
        "tp_errors": result.tp_errors,
        "NDS": result.nds,
    }
    with open(path_json, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")
