"""Checks of the benchmark itself, at a tiny run length."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bevkit import numerics as nm  # noqa: E402
from bevkit import view_transform as vt  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def tiny_run(name, trace=False, seed=3, steps=2, setup_repeats=1):
    return bench.run(name, seed, 0.0, trace, min_steps=steps, setup_repeats=setup_repeats)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_declared_metric(name, trace):
    # One fresh-process set-up on one workload covers the child path.
    repeats = 2 if (name, trace) == ("train_fixed_rig", False) else 1
    out = tiny_run(name, trace, setup_repeats=repeats)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert out.correct, out.failures
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in out.metrics.items()}
    assert all(np.isfinite(v) for v, _ in out.metrics.values())
    result = json.loads(bench.report(out).splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 0, True)


def test_gate_fails_when_one_ray_stream_cell_is_perturbed(monkeypatch):
    honest = vt.ray_stream

    def perturbed(*args, **kwargs):
        out = honest(*args, **kwargs)
        bump = np.zeros(out.shape)
        bump[3, 5, 0] = 1e-6
        return nm.add(out, nm.Tensor(bump))

    monkeypatch.setattr(vt, "ray_stream", perturbed)
    out = tiny_run("train_fixed_rig", steps=1)
    assert not out.correct and out.failed == 1
    assert any("ray_stream_oracle" in m for m in out.failures[0])
    assert "FAILED step 0" in bench.report(out)


def test_same_seed_gives_identical_step_values():
    first = tiny_run("train_aug_rig", seed=11, steps=3)
    again = tiny_run("train_aug_rig", seed=11, steps=3)
    other = tiny_run("train_aug_rig", seed=12, steps=3)
    assert first.step_values == again.step_values
    assert first.step_values != other.step_values
    assert first.distinct_rigs == first.attempted == 3


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()
    }
    assert all(moves for _, _, moves in spans.LAYER_METRICS.values())
    assert DECLARED["command"][1:] == ["perfbench/run.py"]
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
