"""Correctness gate for one step, run outside the timed region.

Four checks, each returning failure messages (an empty list passes):

1. the step's ray_stream and point_stream outputs match the loop oracles in
   ``bevkit.oracles``, and camera 0's camera_encode output matches two
   ``conv2d_oracle`` passes;
2. the tape-free forward is bit-identical to the taped one on the sample,
   and to the step's own outputs;
3. the loss and every gradient are finite;
4. ``numerics.finite_diff_check`` of the step loss along one fixed direction
   of the main box head's output bias stays within FD_TOL. That bias sits
   after candidate selection, so the candidates cannot move; the check also
   confirms the Hungarian match is the same at every perturbed point.

Hungarian matching itself is not compared with ``hungarian_oracle``: that
oracle enumerates every injection and only handles min(m, n) <= 7.
"""

from __future__ import annotations

import numpy as np

from bevkit import losses
from bevkit import numerics as nm
from bevkit import oracles
from bevkit import predictor as pr
from bevkit.numerics import Tensor

import pipeline

# Oracle agreement, absolute, scaled by max(1, |oracle|max). The loop oracles
# sum the same float64 products in another order: a BEV cell gathers at most a
# few thousand terms, so they agree to ~1e-12 of the scale. 1e-9 leaves room
# for that and still fails on any single perturbed cell above it.
ORACLE_TOL = 1e-9
# The loss is piecewise linear in the box bias (an L1 box term), so central
# differences carry only float64 rounding, ~2.2e-16 * |loss| / eps: with
# |loss| < 1e3 and eps = 1e-5 that is ~1e-8 against directional slopes of
# ~1e-3, i.e. ~1e-5 relative at worst.
FD_EPS = 1e-5
FD_TOL = 1e-4


def _close(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    if got.shape != want.shape or not err <= ORACLE_TOL * scale:
        return [f"{name}: max |error| {err:.3g} exceeds {ORACLE_TOL:g} x {scale:.3g}"]
    return []


def oracle_failures(params, sample, wl, bev) -> list[str]:
    cams = list(sample.cams)
    ray = oracles.ray_stream_oracle(
        [c.data for c in bev.contexts], [d.data for d in bev.dists], cams, wl.bins, wl.bev
    )
    point = oracles.point_stream_oracle(
        sample.cloud.points, [h.data for h in bev.hr_feats], cams, wl.bev
    )
    enc = params.camera_encoder
    hidden = oracles.conv2d_oracle(
        sample.images[0], enc.conv1.lin.weight.data, enc.conv1.lin.bias.data,
        enc.conv1.kernel, enc.conv1.stride, enc.conv1.pad,
    )
    encoded = oracles.conv2d_oracle(
        np.maximum(hidden, 0.0), enc.conv2.lin.weight.data, enc.conv2.lin.bias.data,
        enc.conv2.kernel, enc.conv2.stride, enc.conv2.pad,
    )
    return (
        _close("ray_stream vs ray_stream_oracle", bev.ray_bev.data, ray)
        + _close("point_stream vs point_stream_oracle", bev.point_bev.data, point)
        + _close("camera_encode vs conv2d_oracle", bev.lr_feats[0].data, encoded)
    )


def _outputs(result) -> dict[str, np.ndarray]:
    out = {
        "ray_bev": result.bev.ray_bev.data,
        "point_bev": result.bev.point_bev.data,
        "fused_bev": result.bev.b_f.data,
        "heatmap": result.bev.heatmap.data,
        "candidates": result.bev.cands.cells,
        "main_logits": result.main.class_logits.data,
        "main_boxes": result.main.boxes.data,
    }
    if result.aux is not None:
        out["aux_logits"] = result.aux.class_logits.data
        out["aux_boxes"] = result.aux.boxes.data
    if result.loss is not None:
        out["loss"] = result.loss.data
    return out


def identity_failures(label: str, got, free) -> list[str]:
    a, b = _outputs(got), _outputs(free)
    return [
        f"{label} vs tape-free forward: {key} differs"
        for key in a.keys() & b.keys()
        if not np.array_equal(a[key], b[key])
    ]


def finite_failures(taped) -> list[str]:
    failures = [] if np.isfinite(taped.loss.data).all() else ["loss is not finite"]
    bad = sum(not np.isfinite(g.data).all() for g in taped.tape.gradients.values())
    if bad:
        failures.append(f"{bad} gradients are not finite")
    return failures


def _match(main, bev, sample, wl):
    """(pairs, min |box - target| over matched components) of the main head."""
    boxes = sample.scene.boxes
    pairs = losses.match_against_gt(main, bev.cands, boxes, wl.bev).pairs
    targets = [pr.encode_box_for_cell(boxes[g], bev.cands.cells[k], wl.bev) for k, g in pairs]
    residual = main.boxes.data[[k for k, _ in pairs]] - np.array(targets).reshape(-1, pr.BOX_DIM)
    return pairs, float(np.abs(residual).min(initial=np.inf))


def finite_diff_failures(params, sample, wl, taped) -> list[str]:
    bev = taped.bev
    depth = pipeline.depth_loss(bev, sample, wl)
    bias = params.heads.box.out.bias
    direction = np.random.default_rng(0).uniform(-1.0, 1.0, size=bias.shape)
    base_pairs, gap = _match(taped.main, bev, sample, wl)
    # The box loss bends where a matched component meets its target; a step
    # below half the closest gap stays on one linear piece.
    eps = min(FD_EPS, 0.5 * gap)
    changed = []

    def loss_along(t):
        tiled = nm.gather_rows(t, np.zeros(bias.shape[0], dtype=np.int64))
        shifted = nm.add(bias, nm.mul(Tensor(direction), tiled))
        main, aux = pipeline.head_stage(pipeline.with_box_bias(params, shifted), bev, wl, with_aux=True)
        if _match(main, bev, sample, wl)[0] != base_pairs:
            changed.append(t.item())
        return pipeline.step_loss(bev, main, aux, depth, sample, wl)

    worst = nm.finite_diff_check(loss_along, Tensor(np.zeros(1)), eps=eps)
    failures = []
    if changed:
        failures.append(f"finite-difference steps {changed} changed the Hungarian match")
    if not worst <= FD_TOL:
        failures.append(f"finite_diff_check relative error {worst:.3g} exceeds {FD_TOL:g} (eps {eps:.3g})")
    return failures


def check(params, sample, wl, result) -> list[str]:
    """All four checks on one step's sample; result is the step's own output."""
    free = pipeline.forward(params, sample, wl, train=True)
    taped = pipeline.train_step(params, sample, wl)
    return (
        oracle_failures(params, sample, wl, result.bev)
        + identity_failures("taped forward", taped, free)
        + identity_failures("the step's own output", result, free)
        + finite_failures(taped)
        + finite_diff_failures(params, sample, wl, taped)
    )
