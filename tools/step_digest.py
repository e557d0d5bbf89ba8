"""Run a workload's control loop and print a digest of every dynamics substep.

The script builds a benchmark workload from ``bench/`` for a seed and runs
its own control loop for some control steps, with ``dynamics.step``
wrapped. After every substep it feeds the state (``q``, ``qd`` and the
root pose and twist) and, when the workload passes one, ``contacts_out``
to one SHA-256 digest. It prints three lines:

* the digest; two checkouts that print the same digest for one workload,
  seed, batch size and step count stepped byte-equal states;
* the Python-level calls per substep: the ``call`` events of
  ``sys.setprofile`` inside ``dynamics.step``, which count every Python
  function entered, ``step`` itself and NumPy's Python wrappers included,
  and no call into C; as the median, minimum and maximum over the
  substeps;
* the median microseconds per substep, timed with the profiler off.

The calls are counted in a second, profiled run of the same loop, which
must reach the same digest.

    python3 tools/step_digest.py loco_rough_scan --seed 11 --steps 50
    python3 tools/step_digest.py loco_flat --seed 11 --steps 50 --envs 512

The script writes nothing (no bytecode either).
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import hashlib
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from vecsim import dynamics

STATE = ("q", "qd", "root_pos", "root_quat", "root_lin_vel", "root_ang_vel")
CONTACTS = ("normal", "tangent", "in_contact")
WORKLOADS = ("loco_flat", "loco_rough_scan", "arm_osc_cam")


def update(digest, state, contacts) -> None:
    """Feed one substep's state and contact results to ``digest``."""
    arrays = [getattr(state, name) for name in STATE]
    if contacts is not None:
        arrays += [getattr(contacts, name) for name in CONTACTS]
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())


def run(workload: str, seed: int, steps: int, envs: int | None,
        profile: bool) -> tuple[str, list[float]]:
    """Run ``steps`` control steps with ``dynamics.step`` wrapped.

    Returns the digest and, per substep, its seconds or, when ``profile``
    is set, its Python-level calls.
    """
    import envs as bench_envs
    from tracing import Tracer

    step = dynamics.step
    digest = hashlib.sha256()
    samples: list[float] = []
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def wrapped(tree, state, *args, **kwargs):
        nonlocal calls
        calls = 0
        try:
            if profile:
                sys.setprofile(count)
                try:
                    return step(tree, state, *args, **kwargs)
                finally:
                    sys.setprofile(None)
            t0 = time.perf_counter()
            try:
                return step(tree, state, *args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)
        finally:
            if profile:
                samples.append(calls)
            update(digest, state, kwargs.get("contacts_out"))

    cls = bench_envs.WORKLOADS[workload]
    dynamics.step = wrapped
    try:
        env = cls(seed, envs or cls.default_envs, Tracer())
        for _ in range(steps):
            env.control_step()
    finally:
        dynamics.step = step
    return digest.hexdigest(), samples


def positive(value: str) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return int(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--steps", type=positive, default=50,
                        help="control steps to run (default 50)")
    parser.add_argument("--envs", type=positive, default=None,
                        help="batch size (default: the workload's own)")
    args = parser.parse_args(argv)
    digest, seconds = run(args.workload, args.seed, args.steps, args.envs,
                          profile=False)
    again, calls = run(args.workload, args.seed, args.steps, args.envs,
                       profile=True)
    if again != digest:
        print(f"error: the profiled run reached {again}, not {digest}",
              file=sys.stderr)
        return 1
    print(f"sha256 {digest}")
    print(f"{len(calls)} substeps, Python-level calls per substep: median "
          f"{statistics.median(calls):g} (min {min(calls):g}, max {max(calls):g})")
    print(f"median {1e6 * statistics.median(seconds):.1f} us per substep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
