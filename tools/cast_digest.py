"""Record a ray workload's casts, replay them, print a digest of the hits.

``record`` runs a benchmark workload from ``bench/`` for some control steps
and saves every ``raycast`` call it makes: the meshes once, and per cast
the mesh poses, origins, directions and ``max_range``. It prints the
digest of the hits those calls returned. ``replay`` casts
the saved calls with the ``vecsim`` of the checkout this script lives in
and prints the SHA-256 of the six ``RayHits`` fields of every cast, in
order, and the median milliseconds per cast. Two checkouts that print the
same digest for one recording return byte-equal hits.

    python3 tools/cast_digest.py record loco_rough_scan /tmp/scan.npz --seed 11
    python3 tools/cast_digest.py replay /tmp/scan.npz --repeats 7

The recording must be written outside the repository; the script writes
nothing inside it (no bytecode either).
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

from vecsim.maths import Transform
from vecsim.raycast import GridCells, TriMesh, build_bvh, raycast

FIELDS = ("hit", "t", "point", "normal", "mesh_id", "tri_id")
WORKLOADS = ("loco_rough_scan", "arm_osc_cam")


def update(digest, hits) -> None:
    """Feed the six ``RayHits`` fields of one cast to ``digest``."""
    for name in FIELDS:
        digest.update(np.ascontiguousarray(getattr(hits, name)).tobytes())


def record(workload: str, path: Path, seed: int, steps: int) -> int:
    """Run ``steps`` control steps of ``workload`` and save its casts."""
    import envs
    from tracing import Tracer

    meshes: list[TriMesh] = []
    index: dict[int, int] = {}  # id(mesh) -> position in meshes
    casts = []
    digest = hashlib.sha256()

    def recorder(cast_meshes, bvhs, origins, dirs, max_range=np.inf):
        for mesh in cast_meshes:
            if id(mesh) not in index:
                index[id(mesh)] = len(meshes)
                meshes.append(mesh)
        casts.append(([index[id(m)] for m in cast_meshes],
                      [np.array(m.pose.pos, dtype=np.float64) for m in cast_meshes],
                      [np.array(m.pose.quat, dtype=np.float64) for m in cast_meshes],
                      np.array(origins, dtype=np.float64).reshape(-1, 3),
                      np.array(dirs, dtype=np.float64).reshape(-1, 3),
                      float(max_range)))
        hits = raycast(cast_meshes, bvhs, origins, dirs, max_range)
        update(digest, hits)
        return hits

    envs.raycast = recorder
    env = envs.WORKLOADS[workload](seed, envs.WORKLOADS[workload].default_envs,
                                   Tracer())
    for _ in range(steps):
        env.control_step()
    out = {}
    for i, mesh in enumerate(meshes):
        out[f"mesh{i}_vertices"] = mesh.vertices
        out[f"mesh{i}_triangles"] = mesh.triangles
        if mesh.grid is not None:
            g = mesh.grid
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
    i = 0
    while f"mesh{i}_vertices" in data:
        grid = None
        if f"mesh{i}_grid" in data:
            ox, oy, cell = data[f"mesh{i}_grid"]
            grid = GridCells((float(ox), float(oy)), float(cell),
                             data[f"mesh{i}_grid_tris"])
        meshes.append(TriMesh(data[f"mesh{i}_vertices"],
                              data[f"mesh{i}_triangles"], grid=grid))
        i += 1
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
                update(digest, hits)
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
    rec = sub.add_parser("record", help="run a workload and save its casts")
    rec.add_argument("workload", choices=WORKLOADS)
    rec.add_argument("path", type=outside_repo)
    rec.add_argument("--seed", type=int, default=11)
    rec.add_argument("--steps", type=positive, default=150,
                     help="control steps to run (default 150)")
    rep = sub.add_parser("replay", help="cast a recording, print its digest")
    rep.add_argument("path", type=Path)
    rep.add_argument("--repeats", type=positive, default=7)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.workload, args.path, args.seed, args.steps)
    return replay(args.path, args.repeats)


if __name__ == "__main__":
    sys.exit(main())
