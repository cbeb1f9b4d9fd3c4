"""Detector losses and minimum-cost bipartite matching.

The matcher is an O(n^3) augmenting-path solver over row/column potentials.
Those potentials give the exact set of optima: the assignments of zero
reduced cost that cover the smaller side and every larger-side vertex with a
nonzero potential. Among them it returns the lexicographically smallest pair
list, built in one pass over the predictions in order. All losses run on the
numerics tape, so their gradients come from the same backward pass as the
rest of the model. The focal and heatmap losses, like the camera branch's
depth loss, are one rule with their own weights: layers.binary_log_loss, one
tape node each. A loss computes only rows that carry weight: the depth loss
takes only the supervised pixels' rows, and the matched loss encodes every
ground truth at every candidate once for both its cost and its box targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .geometry import BEVConfig, bev_indices, require_finite
from .layers import PROB_FLOOR, binary_log_loss
from .numerics import NumericError, Tensor
from .predictor import CandidateSet, HeadOutput, check_head_output, encode_boxes

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


@dataclass(frozen=True)
class LossWeights:
    lam1: float = 1.0  # class term inside each matched head loss
    lam2: float = 0.25  # box term inside each matched head loss
    lam_depth: float = 0.05
    lam_heat: float = 1.0
    lam_box: float = 0.25  # main matched head loss in the total

    def __post_init__(self):
        require_finite(self)
        if min(self.lam1, self.lam2, self.lam_depth, self.lam_heat, self.lam_box) < 0:
            raise ValueError("loss weights must be non-negative")


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[int, int], ...]  # (prediction, ground truth), ascending
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truths: tuple[int, ...]
    total_cost: float


def _solve_potentials(a: np.ndarray):
    """Optimal assignment for rows <= cols; returns (col_for_row, u, v)."""
    n, m = a.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    matched_row = np.zeros(m + 1, dtype=np.int64)  # 1-based row per col, 0 free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        matched_row[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            cur = a[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            if better.any():
                minv[1:][better] = cur[better]
                way[1:][better] = j0
            free_cols = np.flatnonzero(free) + 1
            j1 = free_cols[np.argmin(minv[free_cols])]
            delta = minv[j1]
            u[matched_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        while j0:
            j_prev = way[j0]
            matched_row[j0] = matched_row[j_prev]
            j0 = j_prev
    col_for_row = np.full(n, -1, dtype=np.int64)
    for j in range(1, m + 1):
        if matched_row[j] > 0:
            col_for_row[matched_row[j] - 1] = j - 1
    return col_for_row, u[1:], v[1:]


def _covers(nbrs: list[list[int]], rows, allowed) -> bool:
    """Whether Kuhn's augmenting paths match every row to a distinct allowed neighbour."""
    owner: dict[int, int] = {}

    def augment(r, seen):
        for c in nbrs[r]:
            if c in allowed and c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in rows)


def _smallest_tight_pairs(reduced: np.ndarray, tol: float, need_row, need_col) -> list:
    """hungarian_match's row-order search over the pairs with |reduced cost| <= tol."""
    m, n = reduced.shape
    gts, preds = [[] for _ in range(m)], [[] for _ in range(n)]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(reduced <= tol))):  # row-major order
        gts[i].append(j)
        preds[j].append(i)
    free = set(range(n))
    pairs = []
    for i in range(m):
        rest = range(i + 1, m)
        for j in gts[i]:
            if j not in free:
                continue
            free.remove(j)
            # A matching covering the required rows and one covering the required
            # columns imply one covering both (Mendelsohn-Dulmage).
            if _covers(gts, [r for r in rest if need_row[r]], free) and _covers(
                preds, [c for c in free if need_col[c]], rest
            ):
                pairs.append((i, j))
                break
            free.add(j)
    return pairs


def hungarian_match(cost) -> MatchResult:
    """Minimum-total-cost assignment of min(m, n) pairs.

    The solver's potentials describe every optimum: an assignment is optimal
    exactly when each pair has zero reduced cost and it covers the smaller
    side and every larger-side vertex whose potential is nonzero
    (complementary slackness). Among those, the lexicographically smallest
    pair list is built one prediction at a time: each takes its smallest free
    tight ground truth that leaves the required vertices coverable, or stays
    unmatched. Tight means within a relative 1e-9 first, then exactly; the first
    list that is exactly optimal is returned, else the solver's pairs.
    Non-finite costs are rejected.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise NumericError("cost matrix contains non-finite entries")
    m, n = cost.shape
    if min(m, n) == 0:
        return MatchResult((), tuple(range(m)), tuple(range(n)), 0.0)

    flip = m > n
    small_to_large, u, v = _solve_potentials(cost.T if flip else cost)
    row_pot, col_pot = (v, u) if flip else (u, v)
    solved = sorted((int(b), a) if flip else (a, int(b)) for a, b in enumerate(small_to_large))
    best_total = math.fsum(cost[i, j] for i, j in solved)

    reduced = np.abs(cost - row_pot[:, None] - col_pot[None, :])
    reduced[tuple(zip(*solved))] = 0.0  # the solver's pairs are tight at any tol
    need_row = ((m <= n) | (row_pot != 0)).tolist()
    need_col = ((n <= m) | (col_pot != 0)).tolist()
    for tol in (1e-9 * max(1.0, float(np.abs(cost).max())), 0.0):
        pairs = _smallest_tight_pairs(reduced, tol, need_row, need_col)
        if math.fsum(cost[i, j] for i, j in pairs) == best_total:
            break
    else:
        pairs = solved
    pred_used = {i for i, _ in pairs}
    gt_used = {j for _, j in pairs}
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(i for i in range(m) if i not in pred_used),
        unmatched_ground_truths=tuple(j for j in range(n) if j not in gt_used),
        total_cost=best_total,
    )


def focal_loss(
    probs: Tensor, targets, alpha: float = FOCAL_ALPHA, gamma: float = FOCAL_GAMMA
) -> Tensor:
    """Binary focal loss, mean over all elements.

    targets is a {0,1} array of the same shape. binary_log_loss clamps the
    probabilities to [PROB_FLOOR, 1 - PROB_FLOOR] before the logs.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != probs.shape:
        raise nm.DimensionError(f"focal_loss: targets {t.shape} vs probs {probs.shape}")
    if t.size == 0:
        raise nm.DimensionError("mean over an empty extent")
    return binary_log_loss(probs, alpha * t / t.size, (1.0 - alpha) * (1.0 - t) / t.size, gamma)


def l1_box_loss(pred: Tensor, gt) -> Tensor:
    """Mean absolute difference over box components (single box or a batch)."""
    target = np.asarray(gt, dtype=np.float64)
    if target.shape != pred.shape:
        raise nm.DimensionError(f"l1_box_loss: {pred.shape} vs {target.shape}")
    diff = nm.sub(pred, target)
    return nm.mean(nm.mul(diff, np.sign(diff.data)))


def _check_class_ids(gt_boxes, class_count: int) -> None:
    """Raise ValueError unless every ground-truth class id is below class_count."""
    for i, box in enumerate(gt_boxes):
        if box.class_id >= class_count:
            raise ValueError(
                f"ground-truth box {i}: class_id {box.class_id} is out of range for "
                f"{class_count} classes"
            )


def _cost_and_targets(output: HeadOutput, cands: CandidateSet, gt_boxes, bev_cfg: BEVConfig):
    """(match_against_gt's cost [K, G], every ground truth at every candidate [K, G, BOX_DIM])."""
    check_head_output("match_against_gt", output, cands)
    _check_class_ids(gt_boxes, output.class_logits.shape[1])
    probs = np.clip(nm._sigmoid(output.class_logits.data), PROB_FLOOR, 1.0 - PROB_FLOOR)
    p = probs[:, np.array([gt.class_id for gt in gt_boxes], dtype=np.int64)]
    cls_cost = -FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * np.log(p)
    encoded = encode_boxes(gt_boxes, cands.cells, bev_cfg)
    return cls_cost + np.abs(output.boxes.data[:, None] - encoded).mean(axis=2), encoded


def match_against_gt(
    output: HeadOutput, cands: CandidateSet, gt_boxes, bev_cfg: BEVConfig
) -> MatchResult:
    """Hungarian assignment of predictions to ground truth.

    Pair cost is a focal-style class cost at the ground-truth class plus the
    mean absolute difference between encoded boxes.
    """
    return hungarian_match(_cost_and_targets(output, cands, gt_boxes, bev_cfg)[0])


def head_set_loss(
    output: HeadOutput,
    cands: CandidateSet,
    gt_boxes,
    bev_cfg: BEVConfig,
    weights: LossWeights,
):
    """Matched class + box loss for one head pair (used for main and aux).

    Matched predictions take a one-hot class target at their ground truth;
    unmatched ones count as background (all-zero target row). The box term
    averages over matched pairs only, against the encoding the match cost used.
    Returns (loss tensor, match result).
    """
    cost, encoded = _cost_and_targets(output, cands, gt_boxes, bev_cfg)
    match = hungarian_match(cost)
    k, n_cls = output.class_logits.shape
    if k == 0:
        return Tensor(0.0), match
    targets = np.zeros((k, n_cls))
    for ki, gi in match.pairs:
        targets[ki, gt_boxes[gi].class_id] = 1.0
    cls_loss = focal_loss(nm.sigmoid(output.class_logits), targets, FOCAL_ALPHA, FOCAL_GAMMA)
    if match.pairs:
        preds, gts = np.array(match.pairs).T
        box_loss = l1_box_loss(nm.gather_rows(output.boxes, preds), encoded[preds, gts])
    else:
        box_loss = Tensor(0.0)
    loss = nm.add(nm.mul(cls_loss, weights.lam1), nm.mul(box_loss, weights.lam2))
    return loss, match


def heatmap_target(gt_boxes, bev_cfg: BEVConfig, class_count: int) -> np.ndarray:
    """Gaussian-splatted class heatmap; peak 1.0 at each object's cell.

    The splat radius follows the box footprint (at least one cell), with
    per-cell max combining when splats overlap.
    """
    _check_class_ids(gt_boxes, class_count)
    n = bev_cfg.n
    target = np.zeros((n, n, class_count))
    centers = np.array([box.center[:2] for box in gt_boxes]).reshape(-1, 2)
    cells_x, cells_y, in_range = bev_indices(centers, bev_cfg)
    for box, gx, gy, inside in zip(gt_boxes, cells_x.tolist(), cells_y.tolist(), in_range):
        if not inside:
            continue
        radius = max(
            1, int(round(min(box.size[0], box.size[1]) / (2.0 * min(bev_cfg.cell_w, bev_cfg.cell_h))))
        )
        sigma = (2.0 * radius + 1.0) / 6.0
        x0, x1 = max(0, gx - radius), min(n - 1, gx + radius)
        y0, y1 = max(0, gy - radius), min(n - 1, gy + radius)
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        dx = (xs - gx)[:, None]
        dy = (ys - gy)[None, :]
        splat = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
        region = target[x0 : x1 + 1, y0 : y1 + 1, box.class_id]
        target[x0 : x1 + 1, y0 : y1 + 1, box.class_id] = np.maximum(region, splat)
    return target


def heatmap_loss(heatmap: Tensor, target: np.ndarray) -> Tensor:
    """Penalty-reduced focal loss against a Gaussian-splatted target.

    Cells at exactly 1.0 are positives; everywhere else the negative term
    is down-weighted by (1 - target)^4. Normalized by the positive count.
    """
    if target.shape != heatmap.shape:
        raise nm.DimensionError(f"heatmap_loss: {heatmap.shape} vs {target.shape}")
    pos_mask = (target == 1.0).astype(np.float64)
    neg_weight = (1.0 - target) ** 4 * (1.0 - pos_mask)
    denom = max(1.0, float(pos_mask.sum()))
    return binary_log_loss(heatmap, pos_mask / denom, neg_weight / denom, 2.0)


def total_loss(
    main: HeadOutput,
    aux: HeadOutput | None,
    cands: CandidateSet,
    heatmap: Tensor,
    gt_boxes,
    bev_cfg: BEVConfig,
    weights: LossWeights,
    depth: Tensor | None = None,
):
    """Weighted sum of heatmap, matched main, auxiliary, and depth terms.

    Returns (scalar loss tensor, dict of float part values). Every term given is
    weighted and summed, so a zero weight still lists its part and gives its
    inputs a zero gradient.
    """
    h_loss = heatmap_loss(heatmap, heatmap_target(gt_boxes, bev_cfg, heatmap.shape[2]))
    pieces = [nm.mul(h_loss, weights.lam_heat)]
    main_loss, _ = head_set_loss(main, cands, gt_boxes, bev_cfg, weights)
    pieces.append(nm.mul(main_loss, weights.lam_box))
    parts = {"heatmap": h_loss.item(), "main": main_loss.item()}
    if aux is not None:
        aux_term, _ = head_set_loss(aux, cands, gt_boxes, bev_cfg, weights)
        parts["aux"] = aux_term.item()
        pieces.append(aux_term)
    if depth is not None:
        parts["depth"] = depth.item()
        pieces.append(nm.mul(depth, weights.lam_depth))

    total = functools.reduce(nm.add, pieces)
    parts["total"] = total.item()
    return total, parts
