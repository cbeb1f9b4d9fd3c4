"""Closed-loop benchmark of one workload: one client, one process, one step at a time.

Each iteration simulates a sample (timed on its own), times the reference
kernel, then runs the step on the sample (timed); the next sample is made only
after the step returns. The loop runs until the sample-plus-step time reaches
``seconds`` and at least ``min_steps`` steps are done, so step_ms_p90 has ten
or more samples above it. The correctness gate checks the first step and
every GATE_EVERY-th one after the loop, so it adds neither to the timed
region nor to peak memory.

Reported times are at reference speed (see reference.py): each wall time is
scaled by the reference kernel timed next to it. The raw wall-clock figures
are printed too, prefixed ``wall_``.

With ``trace`` the odd steps run with spans installed and the even ones
without; per-layer figures are medians over the traced steps, and the
tracing overhead is traced minus untraced step_ms_p50.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import gate
import pipeline
import spans
import workloads as wls
from reference import NOMINAL_MS, Reference

WARMUP_STEPS = 2
MIN_STEPS = 100
GATE_EVERY = 64
SETUP_REPEATS = 3  # this process plus two fresh ones
SETUP_TIMEOUT_S = 120
RUN_PY = Path(__file__).with_name("run.py")
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

END_TO_END_UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "samples_per_s": "1/s",
    "sim_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_step(params, sample, wl, on_tape=None):
    if wl.train:
        return pipeline.train_step(params, sample, wl, on_tape)
    return pipeline.infer_step(params, sample, wl)


def setup(wl: wls.Workload, seed: int, reference: Reference):
    """(params, wall seconds, reference scale) of parameter init plus the
    warm-up steps that fill lazy caches."""
    warm = [wls.simulate(wl, seed, wls.WARMUP_STREAM, i) for i in range(WARMUP_STEPS)]
    scale = reference.scale(repeats=3)
    t0 = time.perf_counter()
    params = pipeline.init_params(np.random.default_rng(seed), wl.voxel.counts[2], wl.bins.count)
    for sample in warm:
        run_step(params, sample, wl)
    return params, time.perf_counter() - t0, scale


def setup_in_fresh_process(wl: wls.Workload, seed: int) -> tuple[float, float]:
    """(wall seconds, reference scale) of a set-up in a new interpreter, so no cache is warm."""
    argv = [sys.executable, str(RUN_PY), "--workload", wl.name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    wall, scale = done.stdout.split()[-2:]
    return float(wall), float(scale)


def step_value(result) -> str:
    """The step's loss, or for inference a digest of the main-head outputs."""
    if result.loss is not None:
        return repr(result.loss.item())
    main = result.main
    return hashlib.sha256(main.class_logits.data.tobytes() + main.boxes.data.tobytes()).hexdigest()


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: bool
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    wall: dict = field(default_factory=dict)  # raw wall-clock figures, printed only
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # step -> [message]
    step_values: list = field(default_factory=list)
    gated: list = field(default_factory=list)
    distinct_rigs: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


@dataclass
class Timings:
    """Per-step wall milliseconds and the reference kernel's time beside them."""

    sim: list = field(default_factory=list)
    step: list = field(default_factory=list)
    reference: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # bools

    def scaled(self, values, traced=False) -> list:
        """values at reference speed, for the traced or the untraced steps."""
        return [
            v * NOMINAL_MS / r for v, r, t in zip(values, self.reference, self.traced) if t == traced
        ]


def run(wl_name: str, seed: int, seconds: float, trace: bool,
        min_steps: int = MIN_STEPS, setup_repeats: int = SETUP_REPEATS) -> Outcome:
    wl = wls.WORKLOADS[wl_name]
    out = Outcome(wl_name, seed, trace)
    reference = Reference()
    params, setup_wall, setup_scale = setup(wl, seed, reference)
    setups = [(setup_wall, setup_scale)]
    if not trace:
        setups += [setup_in_fresh_process(wl, seed) for _ in range(setup_repeats - 1)]

    tracer = spans.Tracer() if trace else None
    layer_steps: list[dict] = []
    times = Timings()
    rigs = set()
    kept = []  # (step, sample, result) for the gate
    loop_s = 0.0
    i = 0
    while loop_s < seconds or i < min_steps:
        traced = trace and i % 2 == 1
        if traced:
            tracer.step = i
        with tracer.installed() if traced else nullcontext():
            with tracer.region(spans.SIM) if traced else nullcontext():
                t0 = time.perf_counter()
                sample = wls.simulate(wl, seed, wls.STEP_STREAM, i)
                t1 = time.perf_counter()
            reference_ms = reference.ms()
            try:
                with tracer.region(spans.STEP) if traced else nullcontext():
                    t2 = time.perf_counter()
                    result = run_step(params, sample, wl, tracer.wrap_vjps if traced else None)
                    t3 = time.perf_counter()
            except Exception:  # a failing step is counted, reported and the loop goes on
                t3 = time.perf_counter()
                out.failures[i] = [traceback.format_exc(limit=3)]
                result = None
        out.attempted += 1
        loop_s += (t1 - t0) + (t3 - t2)
        rigs.add(wls.rig_key(sample))
        if result is not None:
            times.sim.append((t1 - t0) * 1e3)
            times.step.append((t3 - t2) * 1e3)
            times.reference.append(reference_ms)
            times.traced.append(traced)
            out.step_values.append(step_value(result))
            if traced:
                layer_steps.append(_layer_step(tracer, i, result, NOMINAL_MS / reference_ms))
            if i % GATE_EVERY == 0:
                kept.append((i, sample, replace(result, tape=None)))
        i += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for step, sample, result in kept:
        messages = gate.check(params, sample, wl, result)
        out.gated.append(step)
        if messages:
            out.failures.setdefault(step, []).extend(messages)
    out.distinct_rigs = len(rigs)
    if wl.jitter_rig and out.distinct_rigs != out.attempted:
        out.failures.setdefault(-1, []).append(
            f"{out.distinct_rigs} distinct rigs over {out.attempted} steps"
        )

    untraced = times.scaled(times.step)
    if trace:
        overhead = statistics.median(times.scaled(times.step, traced=True)) - statistics.median(untraced)
        for name, value in spans.layer_report(layer_steps, overhead).items():
            out.metrics[name] = (value, spans.LAYER_METRICS[name][0])
        _write_spans(tracer, wl_name, seed)
    else:
        iteration_ms = times.scaled([a + b for a, b in zip(times.sim, times.step)])
        values = {
            "step_ms_p50": statistics.median(untraced),
            "step_ms_p90": float(np.percentile(untraced, 90)),
            "samples_per_s": len(iteration_ms) / (sum(iteration_ms) / 1e3),
            "sim_ms_p50": statistics.median(times.scaled(times.sim)),
            "setup_s": statistics.median(wall * scale for wall, scale in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        out.metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        out.wall = {
            "wall_step_ms_p50": statistics.median(times.step),
            "wall_step_ms_p90": float(np.percentile(times.step, 90)),
            "wall_samples_per_s": out.attempted / loop_s,
            "wall_sim_ms_p50": statistics.median(times.sim),
            "wall_setup_s": statistics.median(wall for wall, _ in setups),
            "reference_ms_p50": statistics.median(times.reference),
        }
    return out


def _layer_step(tracer, step, result, scale: float) -> dict:
    values = {
        k: v * scale if k.endswith("_ms") else v for k, v in spans.step_metrics(tracer, step).items()
    }
    tracer.calls.clear()
    if result.tape is not None:
        values["numerics.tape_nodes"] = len(result.tape.nodes)
        values["numerics.tape_saved_mb"] = spans.tape_saved_bytes(result.tape) / 1e6
        values["numerics.grads_wrapped"] = len(result.tape.gradients)
    return values


def _write_spans(tracer, wl_name: str, seed: int) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    rows = [[s.step, s.name, s.start * 1e3, s.end * 1e3, s.parent] for s in tracer.spans]
    path = TRACE_DIR / f"spans-{wl_name}-seed{seed}.json"
    path.write_text(json.dumps({"columns": ["step", "name", "start_ms", "end_ms", "parent"], "spans": rows}))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def report(out: Outcome) -> str:
    """Human-readable lines, then the one-line JSON result (correct, attempted, failed, metrics)."""
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    lines = [
        f"# workload={out.workload} seed={out.seed} trace={int(out.trace)} env={json.dumps(environment())}",
        f"# steps={out.attempted} gated_steps={out.gated} distinct_rigs={out.distinct_rigs}",
        f"# first step values: {out.step_values[:4]}",
        f"# step values sha256: {hashlib.sha256(' '.join(out.step_values).encode()).hexdigest()}",
    ]
    for step, messages in sorted(out.failures.items()):
        lines.extend(f"# FAILED step {step}: {m.strip()}" for m in messages)
    lines.extend(f"{name} = {value!r} {unit}" for name, (value, unit) in out.metrics.items())
    lines.extend(f"# {name} = {value!r}" for name, value in out.wall.items())
    lines.append(f"error_rate = {error_rate!r} fraction")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)
