"""Triangle meshes, BVH construction, and batched closest-hit ray casting.

Scene geometry is given as triangle meshes with rigid poses. Each mesh gets
an axis-aligned-bounding-box BVH (median split, small leaves); rays are cast
against every mesh and keep the closest hit, with ties broken by lowest mesh
id then lowest triangle id. Misses carry distance ``+inf``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .maths import Transform, quat_rotate, quat_to_matrix


class MeshFormatError(ValueError):
    """OBJ subset parse failure; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class TriMesh:
    """Indexed triangle mesh with a rigid world pose."""

    vertices: np.ndarray
    triangles: np.ndarray
    pose: Transform = field(default_factory=Transform.identity)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle indices out of range")

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def transformed_vertices(self) -> np.ndarray:
        return self.pose.apply(self.vertices)


def load_obj(source) -> TriMesh:
    """Parse the minimal OBJ subset: ``v x y z`` and ``f i j k`` lines.

    Face indices are 1-based and must form triangles. Blank lines and ``#``
    comments are skipped; any other content raises :class:`MeshFormatError`
    with the line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, ValueError):
            text = str(source)
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise MeshFormatError(ln, "vertex line must be 'v x y z'")
            try:
                verts.append([float(p) for p in parts[1:]])
            except ValueError:
                raise MeshFormatError(ln, "non-numeric vertex coordinate") from None
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshFormatError(ln, "face line must be a triangle 'f i j k'")
            idx = []
            for p in parts[1:]:
                if not p.lstrip("-").isdigit():
                    raise MeshFormatError(ln, f"unsupported face token {p!r}")
                idx.append(int(p))
            if any(i < 1 or i > len(verts) for i in idx):
                raise MeshFormatError(ln, "face index out of range")
            faces.append([i - 1 for i in idx])
        else:
            raise MeshFormatError(ln, f"unsupported directive {parts[0]!r}")
    return TriMesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                   np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def save_obj(mesh: TriMesh, path) -> None:
    """Write the minimal OBJ subset (local-frame coordinates)."""
    buf = io.StringIO()
    for v in mesh.vertices:
        buf.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
    for t in mesh.triangles:
        buf.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
    if hasattr(path, "write"):
        path.write(buf.getvalue())
    else:
        with open(path, "w") as fh:
            fh.write(buf.getvalue())


LEAF_SIZE = 4


@dataclass
class Bvh:
    """Flattened AABB tree over one mesh's triangles."""

    bounds_min: np.ndarray   # (N, 3)
    bounds_max: np.ndarray   # (N, 3)
    left: np.ndarray         # (N,) child index or -1 at leaves
    right: np.ndarray        # (N,)
    start: np.ndarray        # (N,) leaf range into tri_order
    count: np.ndarray        # (N,) 0 for inner nodes
    tri_order: np.ndarray    # (T,) permutation of triangle ids

    @property
    def num_nodes(self) -> int:
        return len(self.left)


def build_bvh(mesh: TriMesh) -> Bvh:
    """Median-split BVH with leaves of at most four triangles.

    Raises:
        ValueError: for an empty mesh or a degenerate triangle (area below
            1e-12), naming the triangle index.
    """
    t = mesh.num_triangles
    if t == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    tri = mesh.vertices[mesh.triangles]  # (T, 3, 3)
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    bad = np.nonzero(areas <= 1e-12)[0]
    if bad.size:
        raise ValueError(f"degenerate triangle {int(bad[0])} (area <= 1e-12)")
    tmin = tri.min(axis=1)
    tmax = tri.max(axis=1)
    centroid = tri.mean(axis=1)

    order = np.arange(t)
    bounds_min, bounds_max = [], []
    left, right, start, count = [], [], [], []

    def new_node():
        bounds_min.append(None)
        bounds_max.append(None)
        left.append(-1)
        right.append(-1)
        start.append(0)
        count.append(0)
        return len(left) - 1

    stack = [(new_node(), 0, t)]
    while stack:
        node, lo, hi = stack.pop()
        ids = order[lo:hi]
        bounds_min[node] = tmin[ids].min(axis=0)
        bounds_max[node] = tmax[ids].max(axis=0)
        n = hi - lo
        if n <= LEAF_SIZE:
            start[node] = lo
            count[node] = n
            continue
        cent = centroid[ids]
        axis = int(np.argmax(cent.max(axis=0) - cent.min(axis=0)))
        mid = n // 2
        # median split on the centroid along the widest axis
        part = np.argpartition(cent[:, axis], mid)
        order[lo:hi] = ids[part]
        lc, rc = new_node(), new_node()
        left[node] = lc
        right[node] = rc
        stack.append((lc, lo, lo + mid))
        stack.append((rc, lo + mid, hi))

    return Bvh(
        np.ascontiguousarray(bounds_min), np.ascontiguousarray(bounds_max),
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        np.asarray(start, dtype=np.int64), np.asarray(count, dtype=np.int64),
        order,
    )


@dataclass
class RayHits:
    """Per-ray closest-hit results in world coordinates."""

    hit: np.ndarray       # (R,) bool
    t: np.ndarray         # (R,) +inf on miss
    point: np.ndarray     # (R, 3) +inf on miss
    normal: np.ndarray    # (R, 3) triangle winding normal, 0 on miss
    mesh_id: np.ndarray   # (R,) -1 on miss
    tri_id: np.ndarray    # (R,) -1 on miss

    @staticmethod
    def allocate(n: int) -> "RayHits":
        return RayHits(
            hit=np.zeros(n, dtype=np.bool_),
            t=np.full(n, np.inf),
            point=np.full((n, 3), np.inf),
            normal=np.zeros((n, 3)),
            mesh_id=np.full(n, -1, dtype=np.int64),
            tri_id=np.full(n, -1, dtype=np.int64),
        )


def _raycast_mesh(verts, tris, bmin, bmax, left, right, start, count,
                  tri_order, rot, pos, origins, dirs, max_range, mesh_id,
                  best_t, best_mesh, best_tri, best_normal):
    """Closest-hit of all rays against one mesh; updates the best arrays."""
    n_rays = origins.shape[0]
    for r in range(n_rays):
        # ray in mesh-local coordinates (rigid: t is preserved)
        o = rot.T @ (origins[r] - pos)
        d = rot.T @ dirs[r]
        stack = np.empty(64, dtype=np.int64)
        top = 0
        stack[top] = 0
        top += 1
        while top > 0:
            top -= 1
            node = stack[top]
            # slab test against [0, min(best_t, max_range)]
            tn = 0.0
            tf = best_t[r]
            if max_range < tf:
                tf = max_range
            ok = True
            for a in range(3):
                da = d[a]
                oa = o[a]
                if da != 0.0:
                    inv = 1.0 / da
                    t1 = (bmin[node, a] - oa) * inv
                    t2 = (bmax[node, a] - oa) * inv
                    if t1 > t2:
                        t1, t2 = t2, t1
                    if t1 > tn:
                        tn = t1
                    if t2 < tf:
                        tf = t2
                    if tn > tf:
                        ok = False
                        break
                elif oa < bmin[node, a] or oa > bmax[node, a]:
                    ok = False
                    break
            if not ok:
                continue
            if count[node] > 0:
                for s in range(start[node], start[node] + count[node]):
                    ti = tri_order[s]
                    v0 = verts[tris[ti, 0]]
                    e1 = verts[tris[ti, 1]] - v0
                    e2 = verts[tris[ti, 2]] - v0
                    ph = np.empty(3)
                    ph[0] = d[1] * e2[2] - d[2] * e2[1]
                    ph[1] = d[2] * e2[0] - d[0] * e2[2]
                    ph[2] = d[0] * e2[1] - d[1] * e2[0]
                    det = e1[0] * ph[0] + e1[1] * ph[1] + e1[2] * ph[2]
                    if -1e-12 < det < 1e-12:
                        continue
                    inv_det = 1.0 / det
                    tv = o - v0
                    u = (tv[0] * ph[0] + tv[1] * ph[1] + tv[2] * ph[2]) * inv_det
                    if u < -1e-12 or u > 1.0 + 1e-12:
                        continue
                    qv = np.empty(3)
                    qv[0] = tv[1] * e1[2] - tv[2] * e1[1]
                    qv[1] = tv[2] * e1[0] - tv[0] * e1[2]
                    qv[2] = tv[0] * e1[1] - tv[1] * e1[0]
                    v = (d[0] * qv[0] + d[1] * qv[1] + d[2] * qv[2]) * inv_det
                    if v < -1e-12 or u + v > 1.0 + 1e-12:
                        continue
                    th = (e2[0] * qv[0] + e2[1] * qv[1] + e2[2] * qv[2]) * inv_det
                    if th < 0.0 or th > max_range:
                        continue
                    better = th < best_t[r]
                    if th == best_t[r]:
                        better = (mesh_id < best_mesh[r]
                                  or (mesh_id == best_mesh[r] and ti < best_tri[r]))
                    if better:
                        best_t[r] = th
                        best_mesh[r] = mesh_id
                        best_tri[r] = ti
                        nrm = np.empty(3)
                        nrm[0] = e1[1] * e2[2] - e1[2] * e2[1]
                        nrm[1] = e1[2] * e2[0] - e1[0] * e2[2]
                        nrm[2] = e1[0] * e2[1] - e1[1] * e2[0]
                        nl = np.sqrt(nrm[0] ** 2 + nrm[1] ** 2 + nrm[2] ** 2)
                        wn = rot @ nrm
                        for a in range(3):
                            best_normal[r, a] = wn[a] / nl
            else:
                stack[top] = left[node]
                top += 1
                stack[top] = right[node]
                top += 1


def raycast(meshes, bvhs, origins: np.ndarray, dirs: np.ndarray,
            max_range: float = np.inf) -> RayHits:
    """Closest hit of each ray against a set of posed meshes.

    Every mesh's pose is read exactly once at call entry, so all rays of one
    call observe the same snapshot of the scene. Hits beyond ``max_range``
    are reported as misses.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = origins.shape[0]
    hits = RayHits.allocate(n)
    # snapshot poses before any casting
    snap = []
    for mesh in meshes:
        pose = mesh.pose
        snap.append((np.ascontiguousarray(quat_to_matrix(pose.quat)),
                     np.ascontiguousarray(pose.pos, dtype=np.float64)))
    for mid, (mesh, bvh) in enumerate(zip(meshes, bvhs)):
        rot, pos = snap[mid]
        _raycast_mesh(mesh.vertices, mesh.triangles, bvh.bounds_min,
                      bvh.bounds_max, bvh.left, bvh.right, bvh.start,
                      bvh.count, bvh.tri_order, rot, pos, origins, dirs,
                      float(max_range), mid, hits.t, hits.mesh_id,
                      hits.tri_id, hits.normal)
    hits.hit = np.isfinite(hits.t)
    good = hits.hit
    hits.point[good] = origins[good] + hits.t[good, None] * dirs[good]
    return hits
