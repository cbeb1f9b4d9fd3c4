"""Whole-detector gradient check: the tape's directional derivative of the training
loss against central differences, along one seeded direction over all 97 parameters
and one over the upsample block alone.

The detector is perfbench/pipeline.py's, read as it is. At init every bias is 0 and
most BEV cells are empty, so many relu units sit on their kink, where the tape's
one-sided slope and central differences disagree by 0.2-18%; moving every bias by
0.05·N(0, 1) takes them off it. The upsample block reaches the loss only through
point_stream, whose share of the all-parameter derivative is too small to show a
0.1% error in its VJP.

Steps and bounds, from the six cases below (two train workloads, seeds 1, 7 and 11):
- all parameters, eps 1e-8: clean ≤ 1.3e-7 relative; a 1.001× VJP on ray_stream, the
  smallest share, moves it by ≥ 1.9e-5. At eps 1e-7 a kink (relu or |x|) fell inside
  the stencil in 5 of 24 draws and read up to 1.6e-4.
- upsample, eps 1e-5: its derivative is ~0.01-0.1, so rounding, not truncation,
  sets the step; clean ≤ 9.2e-7, and a 1.001× point_stream VJP moves it by ≥ 9.9e-4.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402
from bevkit import numerics as nm  # noqa: E402
from bevkit.numerics import Tensor  # noqa: E402

ALL_EPS, ALL_TOL = 1e-8, 2e-6
UPSAMPLE_EPS, UPSAMPLE_TOL = 1e-5, 3e-5
DEAD_BELOW = 1e-13
CASES = [(name, seed) for name in ("train_fixed_rig", "train_aug_rig") for seed in (1, 7, 11)]


def _leaves(block, path="params") -> dict[str, Tensor]:
    """The Tensor leaves of a parameter block by field path, in field order."""
    if isinstance(block, Tensor):
        return {path: block}
    if dataclasses.is_dataclass(block):
        return {name: t for f in dataclasses.fields(block)
                for name, t in _leaves(getattr(block, f.name), f"{path}.{f.name}").items()}
    return {}


def _replace_leaves(block, new, field=""):
    """block with each Tensor leaf t, held in a field named field, replaced by new(field, t)."""
    if isinstance(block, Tensor):
        return new(field, block)
    if dataclasses.is_dataclass(block):
        return dataclasses.replace(block, **{
            f.name: _replace_leaves(getattr(block, f.name), new, f.name)
            for f in dataclasses.fields(block)
        })
    return block


def check_failures(name: str, seed: int) -> list[str]:
    """Sample 0 of the step stream, seeded params with jittered biases; one message per
    direction whose derivative misses its central difference by more than its bound."""
    wl = workloads.WORKLOADS[name]
    rng = np.random.default_rng(seed)
    params = pipeline.init_params(rng, wl.voxel.counts[2], wl.bins.count)
    params = _replace_leaves(params, lambda field, t: Tensor(
        t.data + 0.05 * rng.normal(size=t.shape)) if field == "bias" else t)
    sample = workloads.simulate(wl, seed, workloads.STEP_STREAM, 0)
    tape = pipeline.train_step(params, sample, wl).tape
    failures = []
    for label, block, eps, tol in [
        ("all parameters", params, ALL_EPS, ALL_TOL),
        ("upsample", params.upsample, UPSAMPLE_EPS, UPSAMPLE_TOL),
    ]:
        leaves = _leaves(block).values()
        direction = {t.id: rng.normal(size=t.shape) for t in leaves}
        analytic = sum(float(np.vdot(tape.grad(t).data, direction[t.id])) for t in leaves)

        def loss(step):
            moved = _replace_leaves(params, lambda _, t: Tensor(
                t.data + step * direction[t.id]) if t.id in direction else t)
            return pipeline.forward(moved, sample, wl, train=True).loss.item()

        numeric = (loss(eps) - loss(-eps)) / (2.0 * eps)
        error = abs(analytic - numeric) / abs(numeric)
        if not error <= tol:
            failures.append(f"{label}: tape {analytic!r}, central difference {numeric!r}, "
                            f"relative error {error:.3g} > {tol:g}")
    return failures


@pytest.mark.parametrize("name, seed", CASES)
def test_whole_model_gradient(name, seed):
    assert check_failures(name, seed) == []


@pytest.mark.parametrize("name", ["train_fixed_rig", "train_aug_rig"])
def test_only_parameters_get_gradients(name):
    """Every leaf of a training tape is a parameter, no constant is wrapped as a Tensor, and
    no parameter is dead: each one's largest |gradient| entry is at least DEAD_BELOW of the
    step's largest. Live tensors read >= 6e-11 here; an attention key bias, which softmax
    cancels, read 1e-25."""
    wl = workloads.WORKLOADS[name]
    params = pipeline.init_params(np.random.default_rng(1), wl.voxel.counts[2], wl.bins.count)
    sample = workloads.simulate(wl, 1, workloads.STEP_STREAM, 0)
    leaves = _leaves(params)
    assert len({t.id for t in leaves.values()}) == len(leaves) == 97
    tape = pipeline.train_step(params, sample, wl).tape
    assert set(tape.gradients) == {t.id for t in leaves.values()}
    largest = {name: np.abs(tape.grad(t).data).max() for name, t in leaves.items()}
    step_largest = max(largest.values())
    dead = {name: float(v / step_largest) for name, v in largest.items()
            if v < DEAD_BELOW * step_largest}
    assert dead == {}, f"parameters whose gradient is rounding noise: {dead}"


def test_training_tape_has_at_most_175_nodes():
    """One node per clamped log-likelihood and the depth loss over its supervised rows:
    the train_fixed_rig tape went from 224 nodes to 175."""
    wl = workloads.WORKLOADS["train_fixed_rig"]
    params = pipeline.init_params(np.random.default_rng(1), wl.voxel.counts[2], wl.bins.count)
    sample = workloads.simulate(wl, 1, workloads.STEP_STREAM, 0)
    assert len(pipeline.train_step(params, sample, wl).tape.nodes) <= 175


@pytest.mark.parametrize("op", ["conv2d", "ray_stream", "point_stream", "binary_log_loss"])
def test_a_vjp_off_by_a_thousandth_fails_the_check(monkeypatch, op):
    emit = nm._emit

    def scaled_emit(name, inputs, out, saved, vjp):
        if name == op:
            exact = vjp
            vjp = lambda g: tuple(None if x is None else 1.001 * x for x in exact(g))  # noqa: E731
        return emit(name, inputs, out, saved, vjp)

    monkeypatch.setattr(nm, "_emit", scaled_emit)
    for name, seed in CASES:
        assert check_failures(name, seed), (name, seed)
