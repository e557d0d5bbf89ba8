"""Batched-environment benchmark for vecsim.

Usage (from the repository root):

    python3 bench/run.py --workload loco_flat --seed 1 --seconds 30 --trace 0

Runs one workload in a closed loop for ``--seconds`` of timed control steps
and prints each metric with its unit, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates traced and
untraced control steps and reports the per-layer metrics. See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib.util
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "env_steps_per_s": "env-steps/s",
    "control_step_ms_p50": "ms",
    "control_step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# busy ms per control step, from span self times
LAYER_SPANS = (
    "actuators.compute_effort", "dynamics.step",
    "dynamics.forward_kinematics", "dynamics.mass_matrix",
    "dynamics.bias_forces", "dynamics.contact_forces", "dynamics.jacobian",
    "raycast.raycast", "terrain.surface_height", "terrain.curriculum_update",
    "sensors.place_pattern", "sensors.contact_update", "sensors.imu_update",
    "sensors.depth_tile", "controllers.osc", "env.actions", "env.obs",
    "env.reset",
)
# counters per control step
LAYER_COUNTS = ("actuators.calls", "dynamics.step_calls",
                "dynamics.diverged_envs", "raycast.rays", "terrain.resets",
                "sensors.camera_updates")
SETUP_PARTS = ("terrain.compose_grid_s", "raycast.build_bvh_s")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}_ms": "ms" for name in LAYER_SPANS}
    units.update({name: "count/step" for name in LAYER_COUNTS})
    units.update({name: "s" for name in SETUP_PARTS})
    units.update({
        "dynamics.active_contacts": "count/substep",
        "raycast.hit_frac": "ratio",
        "raycast.rays_per_s": "1/s",
        "env.control_step_ms": "ms",
        "trace.overhead_frac": "ratio",
        "trace.coverage_frac": "ratio",
    })
    return units


def environment() -> dict:
    """What the numbers depend on besides the code: commit, machine, stack."""
    import numpy

    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": BLAS_THREADS,
    }


def _commit() -> str:
    """HEAD commit read from ``.git`` without running git; ``unknown`` if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 steps: int | None = None, envs: int | None = None) -> dict:
    """Set up ``name``, run its timed phase, check every step, return metrics.

    The timed phase lasts ``seconds`` of wall time, or exactly ``steps``
    control steps when given. Checks run between steps, outside the timed
    intervals. With ``trace`` every second step is traced.
    """
    from envs import WORKLOADS
    from tracing import Tracer, self_times

    cls = WORKLOADS[name]
    env_count = envs or cls.default_envs
    setup_times, parts = [], {k: [] for k in SETUP_PARTS}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tracer = Tracer()
        env = cls(seed, env_count, tracer)
        warm_up = env.control_step()
        setup_times.append(time.perf_counter() - t0)
        for key in SETUP_PARTS:
            parts[key].append(env.setup_parts.get(key, 0.0))
    failed = int(env.check(warm_up).sum())
    attempted = env_count
    tracer.counts.clear()

    plain, traced, i = [], [], 0
    start = time.perf_counter()
    while (i < steps) if steps is not None else (time.perf_counter() - start < seconds):
        tracer.enabled = trace and i % 2 == 1
        t0 = time.perf_counter()
        record = env.control_step()
        elapsed = time.perf_counter() - t0
        if tracer.enabled:
            traced.append(elapsed)
            env.probe()
            tracer.enabled = False
        else:
            plain.append(elapsed)
        failed += int(env.check(record).sum())
        attempted += env_count
        i += 1

    e2e = {
        "env_steps_per_s": env_count * len(plain) / sum(plain),
        "control_step_ms_p50": 1e3 * statistics.median(plain),
        "control_step_ms_p90": 1e3 * statistics.quantiles(plain, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": name, "seed": seed, "envs": env_count,
        "decimation": env.decimation, "control_steps": i,
        "samples": len(plain), "attempted": attempted, "failed": failed,
        "env_step_fail_frac": failed / attempted, "end_to_end": e2e,
        "setup_runs_s": setup_times, "step_s": plain,
        "counts": dict(tracer.counts),
    }
    if trace:
        result["per_layer"] = _layers(tracer, traced, plain, i,
                                      {k: statistics.median(v) for k, v in parts.items()},
                                      self_times(tracer.spans))
        result["spans"] = tracer.spans
    return result


def _layers(tracer, traced, plain, steps, setup_parts, own) -> dict:
    n = len(traced)
    busy = {name: 0.0 for name in LAYER_SPANS}
    glue = total = 0.0
    for (name, start, end, _), self_s in zip(tracer.spans, own):
        if name == "env.control_step":
            glue += self_s
            total += end - start
        else:
            busy[name] += self_s
    metrics = {f"{name}_ms": 1e3 * v / n for name, v in busy.items()}
    counts = tracer.counts
    metrics.update({k: counts.get(k, 0.0) / steps for k in LAYER_COUNTS})
    metrics.update(setup_parts)
    rays = counts.get("raycast.rays", 0.0)
    ray_s = busy["raycast.raycast"] / n
    metrics.update({
        "dynamics.active_contacts": (counts.get("dynamics.active_contacts", 0.0)
                                     / max(counts.get("dynamics.step_calls", 0.0), 1.0)),
        "raycast.hit_frac": counts.get("raycast.hits", 0.0) / rays if rays else 0.0,
        "raycast.rays_per_s": (rays / steps) / ray_s if ray_s else 0.0,
        "env.control_step_ms": 1e3 * total / n,
        "trace.overhead_frac": 1.0 - (sum(plain) / len(plain)) / (sum(traced) / n),
        "trace.coverage_frac": 1.0 - glue / total,
    })
    return metrics


def main(argv=None) -> int:
    if not (SRC / "vecsim" / "__init__.py").is_file():
        print(f"error: no vecsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from envs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="run exactly this many timed control steps")
    parser.add_argument("--envs", type=int, default=None,
                        help="override the workload's batch size")
    args = parser.parse_args(argv)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.steps, args.envs)
    result["environment"] = environment()
    report(result, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result))

    units = layer_units() if args.trace else END_TO_END_UNITS
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def report(result: dict, trace: bool) -> None:
    """Human-readable lines: run shape, environment, every metric with unit."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"envs {result['envs']}  decimation {result['decimation']}  "
          f"control steps {result['control_steps']}")
    print("environment " + json.dumps(result["environment"]))
    for name, unit in END_TO_END_UNITS.items():
        if name in result["end_to_end"]:
            extra = f"  (n={result['samples']} untraced steps)" if name.startswith("control_step") else ""
            print(f"{name:28s} {result['end_to_end'][name]:14.6g} {unit}{extra}")
    print(f"{'env_step_fail_frac':28s} {result['env_step_fail_frac']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} env-steps failed)")
    if trace:
        for name, unit in layer_units().items():
            print(f"{name:28s} {result['per_layer'][name]:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
