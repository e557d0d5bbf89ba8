"""Print digests of a workload's dynamics substeps and ray casts.

Each subcommand builds a benchmark workload from ``bench/`` for a seed, or
loads a recording of one, and prints the SHA-256 of what ``vecsim``
computed. Two checkouts that print the same digest for the same arguments
computed byte-equal results.

``steps WORKLOAD`` runs the workload's control loop with ``dynamics.step``
wrapped. After every substep it feeds the state (``q``, ``qd`` and the root
pose and twist) and, when the workload passes one, ``contacts_out`` to one
digest. It prints four lines:

* the digest;
* the Python-level calls per substep: the ``call`` events of
  ``sys.setprofile`` inside ``dynamics.step``, which count every Python
  function entered, ``step`` itself and NumPy's Python wrappers included,
  and no call into C; as the median, minimum and maximum over the
  substeps. They are counted in a second, profiled run of the same loop,
  which must reach the same digest;
* the median microseconds per substep, timed with the profiler off;
* the minor page faults (``ru_minflt`` of ``resource.getrusage``) of the
  first control step of the unprofiled run, and their mean over its last
  half of the control steps (none with ``--steps 1``): the steady state,
  once the heap has grown to its working size, where a fault is a page of
  heap handed back to the system and touched again.

``record WORKLOAD PATH`` runs the workload and saves every ``raycast`` call
it makes: the meshes once, and per cast the mesh poses, origins,
directions and ``max_range``. It prints the digest of the six ``RayHits``
fields of every cast, in order. ``replay PATH`` casts the saved calls with
the ``vecsim`` of the checkout this script lives in and prints the same
digest and the median milliseconds per cast.

    python3 tools/digest.py steps loco_rough_scan --seed 11 --steps 50
    python3 tools/digest.py steps loco_flat --seed 11 --steps 50 --envs 512
    python3 tools/digest.py record loco_rough_scan /tmp/scan.npz --seed 11
    python3 tools/digest.py replay /tmp/scan.npz --repeats 7

A recording must be written outside the repository; the script writes
nothing inside it (no bytecode either).
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import functools
import hashlib
import resource
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import envs as bench_envs
from tracing import Tracer
from vecsim import dynamics
from vecsim.maths import Transform
from vecsim.raycast import GridCells, TriMesh, build_bvh, raycast

STATE = ("q", "qd", "root_pos", "root_quat", "root_lin_vel", "root_ang_vel")
CONTACTS = ("normal", "tangent", "in_contact")
FIELDS = ("hit", "t", "point", "normal", "mesh_id", "tri_id")


def update(digest, obj, names) -> None:
    """Feed the arrays ``obj.<name>`` of every name to ``digest``, in order."""
    for name in names:
        digest.update(np.ascontiguousarray(getattr(obj, name)).tobytes())


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run(workload: str, seed: int, steps: int, envs: int | None, module,
        name: str, wrapper) -> list[int]:
    """Run ``steps`` control steps of ``workload`` on ``envs`` envs (default:
    the workload's own) with ``module.name`` replaced by ``wrapper``, which
    takes the original function as its first argument; restores it after.
    Returns the minor page faults of each control step."""
    original = getattr(module, name)
    setattr(module, name, functools.partial(wrapper, original))
    faults = []
    try:
        cls = bench_envs.WORKLOADS[workload]
        env = cls(seed, envs or cls.default_envs, Tracer())
        for _ in range(steps):
            before = minor_faults()
            env.control_step()
            faults.append(minor_faults() - before)
    finally:
        setattr(module, name, original)
    return faults


def step_digest(workload: str, seed: int, steps: int, envs: int | None,
                profile: bool) -> tuple[str, list[float], list[int]]:
    """The digest of every substep's state, per substep its seconds or,
    when ``profile`` is set, its Python-level calls, and the minor page
    faults of each control step."""
    digest = hashlib.sha256()
    samples: list[float] = []
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def wrapped(step, tree, state, *args, **kwargs):
        nonlocal calls
        calls, t0 = 0, time.perf_counter()
        sys.setprofile(count if profile else None)
        try:
            return step(tree, state, *args, **kwargs)
        finally:
            sys.setprofile(None)
            samples.append(calls if profile else time.perf_counter() - t0)
            update(digest, state, STATE)
            if kwargs.get("contacts_out") is not None:
                update(digest, kwargs["contacts_out"], CONTACTS)

    faults = run(workload, seed, steps, envs, dynamics, "step", wrapped)
    return digest.hexdigest(), samples, faults


def steps(workload: str, seed: int, steps: int, envs: int | None) -> int:
    digest, seconds, faults = step_digest(workload, seed, steps, envs,
                                          profile=False)
    again, calls, _ = step_digest(workload, seed, steps, envs, profile=True)
    if again != digest:
        print(f"error: the profiled run reached {again}, not {digest}", file=sys.stderr)
        return 1
    print(f"sha256 {digest}")
    print(f"{len(calls)} substeps, Python-level calls per substep: median "
          f"{statistics.median(calls):g} (min {min(calls):g}, max {max(calls):g})")
    print(f"median {1e6 * statistics.median(seconds):.1f} us per substep")
    last = faults[len(faults) - len(faults) // 2:]
    steady = (f", mean {statistics.mean(last):.2f} over the last {len(last)}"
              if last else "")
    print(f"minor page faults per control step: {faults[0]} in the first{steady}")
    return 0


def record(workload: str, path: Path, seed: int, steps: int) -> int:
    """Run ``steps`` control steps of ``workload`` and save its casts."""
    meshes: dict[int, TriMesh] = {}  # id(mesh) -> mesh, in order of first cast
    casts, digest = [], hashlib.sha256()

    def recorder(cast, cast_meshes, bvhs, origins, dirs, max_range=np.inf):
        for mesh in cast_meshes:
            meshes.setdefault(id(mesh), mesh)
        ids = list(meshes)
        casts.append(([ids.index(id(m)) for m in cast_meshes],
                      [np.array(m.pose.pos, dtype=np.float64) for m in cast_meshes],
                      [np.array(m.pose.quat, dtype=np.float64) for m in cast_meshes],
                      np.array(origins, dtype=np.float64).reshape(-1, 3),
                      np.array(dirs, dtype=np.float64).reshape(-1, 3),
                      float(max_range)))
        hits = cast(cast_meshes, bvhs, origins, dirs, max_range)
        update(digest, hits, FIELDS)
        return hits

    run(workload, seed, steps, None, bench_envs, "raycast", recorder)
    out = {}
    for i, mesh in enumerate(meshes.values()):
        out[f"mesh{i}_vertices"] = mesh.vertices
        out[f"mesh{i}_triangles"] = mesh.triangles
        if (g := mesh.grid) is not None:
            out[f"mesh{i}_grid"] = np.array([*g.origin_xy, g.cell_size])
            out[f"mesh{i}_grid_tris"] = g.tris
    ids, pos, quat, origins, dirs, max_range = zip(*casts)
    out["mesh_count"] = np.array([len(m) for m in ids])
    out["mesh_ids"] = np.concatenate(ids).astype(np.int64)
    out["pos"] = np.concatenate(pos).reshape(-1, 3)
    out["quat"] = np.concatenate(quat).reshape(-1, 4)
    out["ray_count"] = np.array([len(o) for o in origins])
    out["origins"] = np.concatenate(origins)
    out["dirs"] = np.concatenate(dirs)
    out["max_range"] = np.array(max_range)
    with open(path, "wb") as fh:
        np.savez(fh, **out)
    print(f"sha256 {digest.hexdigest()}")
    print(f"{len(casts)} casts, {int(out['ray_count'].sum())} rays, "
          f"{len(meshes)} meshes -> {path}")
    return 0


def load(path: Path):
    """The recorded meshes, their BVHs and, per cast, ``(mesh ids, poses,
    origins, dirs, max_range)``."""
    with np.load(path) as npz:
        data = dict(npz)
    meshes = []
    for i in range(sum(key.endswith("_vertices") for key in data)):
        grid = None
        if f"mesh{i}_grid" in data:
            ox, oy, cell = data[f"mesh{i}_grid"]
            grid = GridCells((float(ox), float(oy)), float(cell),
                             data[f"mesh{i}_grid_tris"])
        meshes.append(TriMesh(data[f"mesh{i}_vertices"],
                              data[f"mesh{i}_triangles"], grid=grid))
    bvhs = [build_bvh(m) for m in meshes]
    m_end = np.cumsum(data["mesh_count"])
    r_end = np.cumsum(data["ray_count"])
    casts = []
    for c, (m1, r1) in enumerate(zip(m_end, r_end)):
        m0, r0 = m1 - data["mesh_count"][c], r1 - data["ray_count"][c]
        ids = data["mesh_ids"][m0:m1]
        poses = [Transform(p, q) for p, q in zip(data["pos"][m0:m1],
                                                 data["quat"][m0:m1])]
        casts.append((ids, poses, data["origins"][r0:r1], data["dirs"][r0:r1],
                      float(data["max_range"][c])))
    return meshes, bvhs, casts


def replay(path: Path, repeats: int) -> int:
    """Cast every recorded call ``repeats`` times; print digest and timing."""
    meshes, bvhs, casts = load(path)
    digest = hashlib.sha256()
    per_cast = [[] for _ in casts]
    for rep in range(repeats):
        for c, (ids, poses, origins, dirs, max_range) in enumerate(casts):
            for i, pose in zip(ids, poses):
                meshes[i].pose = pose
            t0 = time.perf_counter()
            hits = raycast([meshes[i] for i in ids], [bvhs[i] for i in ids],
                           origins, dirs, max_range)
            per_cast[c].append(time.perf_counter() - t0)
            if rep == 0:
                update(digest, hits, FIELDS)
    ms = statistics.median(statistics.median(t) for t in per_cast) * 1e3
    rays = sum(len(c[2]) for c in casts)
    print(f"sha256 {digest.hexdigest()}")
    print(f"{len(casts)} casts, {rays} rays, median {ms:.3f} ms per cast "
          f"(median of {repeats} repeats each)")
    return 0


def positive(value: str) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive count")
    return int(value)


def outside_repo(value: str) -> Path:
    path = Path(value).resolve()
    if path == ROOT or ROOT in path.parents:
        raise argparse.ArgumentTypeError(f"{path} is inside the repository")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    stp = sub.add_parser("steps", help="digest a workload's substeps")
    stp.add_argument("workload", choices=tuple(bench_envs.WORKLOADS))
    stp.add_argument("--seed", type=int, default=11)
    stp.add_argument("--steps", type=positive, default=50,
                     help="control steps to run (default 50)")
    stp.add_argument("--envs", type=positive, default=None,
                     help="batch size (default: the workload's own)")
    rec = sub.add_parser("record", help="run a workload and save its casts")
    rec.add_argument("workload", choices=("loco_rough_scan", "arm_osc_cam"))
    rec.add_argument("path", type=outside_repo)
    rec.add_argument("--seed", type=int, default=11)
    rec.add_argument("--steps", type=positive, default=150,
                     help="control steps to run (default 150)")
    rep = sub.add_parser("replay", help="cast a recording, print its digest")
    rep.add_argument("path", type=Path)
    rep.add_argument("--repeats", type=positive, default=7)
    args = parser.parse_args(argv)
    if args.command == "steps":
        return steps(args.workload, args.seed, args.steps, args.envs)
    if args.command == "record":
        return record(args.workload, args.path, args.seed, args.steps)
    return replay(args.path, args.repeats)


if __name__ == "__main__":
    sys.exit(main())
