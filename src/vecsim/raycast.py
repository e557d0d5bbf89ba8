"""Triangle meshes, BVH construction, and batched closest-hit ray casting.

Scene geometry is given as triangle meshes with rigid poses. Each mesh gets
an axis-aligned-bounding-box BVH (median split, leaves of at most
``LEAF_SIZE`` triangles) that is built one tree level at a time, all nodes
of a level together.

Casting moves all rays through a tree together, one level per pass: a
frontier of ``(ray, node)`` pairs is slab-tested as flat arrays, the leaves
it reached are intersected in fixed-size blocks, and the children of the
inner nodes it reached form the next frontier. Each ray keeps the closest
hit over all meshes: lowest distance, then lowest mesh id, then lowest
triangle id. Misses carry distance ``+inf``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .maths import Transform, quat_to_matrix


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


def load_obj(source) -> TriMesh:
    """Parse the minimal OBJ subset: ``v x y z`` and ``f i j k`` lines.

    ``source`` is a path or a readable text stream. Face indices are
    1-based and must form triangles. Blank lines and ``#`` comments are
    skipped; any other content raises :class:`MeshFormatError` with the line
    number. A missing file raises :class:`FileNotFoundError`.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
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
_LEAF_BLOCK = 1024  # (ray, leaf) pairs intersected per block


@dataclass
class Bvh:
    """Flattened AABB tree over one mesh's triangles.

    Node 0 is the root. ``build_bvh`` numbers nodes level by level, so the
    children of an inner node are adjacent, and stores the bounds
    component-major (``bounds_min.T`` is C-contiguous).
    """

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

    The tree is built one level at a time: all nodes at one depth get their
    bounds and centroid extents from segmented reductions, each is sorted
    along its widest centroid axis by one ``lexsort`` for the whole level,
    and every node with more than ``LEAF_SIZE`` triangles splits at
    ``n // 2`` into two adjacent children on the next level.

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
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    centroid = (a + b + c) / 3.0
    # per triangle: [box min, centroid] and [box max, centroid]
    low = np.hstack([np.minimum(np.minimum(a, b), c), centroid])
    high = np.hstack([np.maximum(np.maximum(a, b), c), centroid])

    order = np.arange(t)
    bounds_min, bounds_max, left, start, count = [], [], [], [], []
    # ranges [lo, lo + n) of order held by the nodes of the current level
    lo = np.zeros(1, dtype=np.int64)
    n = np.array([t], dtype=np.int64)
    level_first = 0  # id of the first node of the current level
    while lo.size:
        k = lo.size
        seg_start = np.cumsum(n) - n
        seg = np.repeat(np.arange(k), n)
        pos = lo[seg] + (np.arange(seg.size) - seg_start[seg])
        ids = order[pos]
        low_ids = low[ids]
        node_low = np.minimum.reduceat(low_ids, seg_start)
        node_high = np.maximum.reduceat(high[ids], seg_start)
        bounds_min.append(node_low[:, :3])
        bounds_max.append(node_high[:, :3])
        # median split on the centroid along each node's widest axis
        axis = np.argmax(node_high[:, 3:] - node_low[:, 3:], axis=1)
        key = low_ids[np.arange(ids.size), 3 + axis[seg]]
        order[pos] = ids[np.lexsort((key, seg))]
        split = n > LEAF_SIZE
        n_split = int(split.sum())
        child = np.full(k, -1, dtype=np.int64)
        child[split] = level_first + k + 2 * np.arange(n_split)
        left.append(child)
        start.append(np.where(split, 0, lo))
        count.append(np.where(split, 0, n))
        level_first += k
        half = n[split] // 2
        lo = np.column_stack([lo[split], lo[split] + half]).ravel()
        n = np.column_stack([half, n[split] - half]).ravel()

    left = np.concatenate(left)
    return Bvh(
        np.ascontiguousarray(np.concatenate(bounds_min).T).T,
        np.ascontiguousarray(np.concatenate(bounds_max).T).T,
        left, np.where(left >= 0, left + 1, -1),
        np.concatenate(start), np.concatenate(count), order,
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


def _cast_mesh(mesh: TriMesh, bvh: Bvh, rot, pos, origins, dirs,
               max_range: float, mesh_id: int, hits: RayHits) -> None:
    """Closest hit of all rays against one mesh; updates ``hits`` in place.

    The frontier holds one ``(ray, node)`` pair per box still to test,
    sorted by ray. Each pass slab-tests the whole frontier against
    ``[0, min(best_t, max_range)]``, intersects the triangles of the leaves
    it reached and replaces the inner nodes by their children. The slab and
    triangle tests do the per-ray walk's scalar arithmetic per component and
    in the same order, so every ray-triangle distance is bitwise the scalar
    one. Hits prune only later passes, so all leaves of one level are tested
    before their hits prune anything; a depth-first walk can instead skip a
    tied triangle whose box entry distance rounds above its hit distance.
    """
    # rays in mesh-local coordinates (rigid: t is preserved), one row per axis
    o = ((origins - pos) @ rot).T.copy()
    d = (dirs @ rot).T.copy()
    # a ray parallel to an axis gets an interval check on it instead of a
    # slab (its NaN inverse leaves tn/tf unchanged); per axis, the parallel
    # rays are None, all (True) or a mask
    inv = np.full_like(d, np.nan)
    np.divide(1.0, d, out=inv, where=d != 0.0)
    parallel = []
    for a in range(3):
        flat = d[a] == 0.0
        parallel.append(True if flat.all() else flat if flat.any() else None)
    bmin, bmax = bvh.bounds_min.T, bvh.bounds_max.T

    ray = np.arange(o.shape[1])
    node = np.zeros(ray.size, dtype=np.int64)
    while ray.size:
        # slab test against [0, min(best_t, max_range)]
        tn = np.zeros(ray.size)
        tf = np.fmin(hits.t[ray], max_range)
        out = np.zeros(ray.size, dtype=np.bool_)
        for a in range(3):
            oa = o[a][ray]
            lo = bmin[a][node]
            hi = bmax[a][node]
            if parallel[a] is not None:
                outside = (oa < lo) | (oa > hi)
                out |= outside if parallel[a] is True else outside & parallel[a][ray]
                if parallel[a] is True:
                    continue
            ia = inv[a][ray]
            t1 = (lo - oa) * ia
            t2 = (hi - oa) * ia
            swap = t1 > t2
            np.fmax(tn, np.where(swap, t2, t1), out=tn)
            np.fmin(tf, np.where(swap, t1, t2), out=tf)
        keep = ~(out | (tn > tf))
        ray, node = ray[keep], node[keep]
        count = bvh.count[node]
        leaf = count > 0
        # leaves in fixed-size blocks bound the per-call temporaries
        ray_l, node_l, count_l = ray[leaf], node[leaf], count[leaf]
        for b in range(0, ray_l.size, _LEAF_BLOCK):
            blk = slice(b, b + _LEAF_BLOCK)
            _intersect_leaves(mesh, bvh, o, d, ray_l[blk], node_l[blk],
                              count_l[blk], max_range, mesh_id, hits)
        # children stay next to each other, so the frontier stays sorted by ray
        inner = node[~leaf]
        ray = np.repeat(ray[~leaf], 2)
        node = np.column_stack((bvh.left[inner], bvh.right[inner])).ravel()


def _cross(a, b):
    """Row-stacked cross product ``a x b`` of ``(3, n)`` arrays."""
    out = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _dot(a, b):
    """Row-stacked dot product of ``(3, n)`` arrays, summed x, y, z."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _intersect_leaves(mesh, bvh, o, d, ray, node, count, max_range, mesh_id,
                      hits) -> None:
    """Moller-Trumbore for every triangle of the given (ray, leaf) pairs,
    sorted by ray, then keep each ray's closest candidate if it beats the
    current best under the tie rule.

    Vectors are ``(3, n)`` arrays, freed as soon as they are spent, so the
    temporaries stay few.
    """
    pair = np.repeat(np.arange(ray.size), count)
    slot = bvh.start[node][pair] + (np.arange(pair.size)
                                    - (np.cumsum(count) - count)[pair])
    ray = ray[pair]
    tri = bvh.tri_order[slot]
    del pair, slot
    corners = mesh.triangles[tri]
    vt = mesh.vertices.T
    v0 = vt[:, corners[:, 0]]
    e1 = vt[:, corners[:, 1]]
    e1 -= v0
    e2 = vt[:, corners[:, 2]]
    e2 -= v0
    del corners
    dr = d[:, ray]
    ph = _cross(dr, e2)
    det = _dot(e1, ph)
    miss = (det > -1e-12) & (det < 1e-12)
    # lanes with a tiny det divide by ~0 here; the mask drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.divide(1.0, det, out=det)
        tv = v0
        for a in range(3):
            np.subtract(o[a][ray], v0[a], out=tv[a])
        u = _dot(tv, ph)
        u *= inv_det
        del ph
        miss |= (u < -1e-12) | (u > 1.0 + 1e-12)
        qv = _cross(tv, e1)
        del tv, v0, e1
        v = _dot(dr, qv)
        v *= inv_det
        del dr
        miss |= (v < -1e-12) | (u + v > 1.0 + 1e-12)
        del u, v
        th = _dot(e2, qv)
        th *= inv_det
    miss |= (th < 0.0) | (th > max_range)
    th[miss] = np.inf
    # lanes are sorted by ray: reduce each ray's run to its closest
    # candidate (lowest t, then lowest triangle id) and hand it to every
    # lane of the run, so the scatter below writes one value per ray
    head = np.ones(ray.size, dtype=np.bool_)
    head[1:] = ray[1:] != ray[:-1]
    start = np.flatnonzero(head)
    run = np.cumsum(head) - 1
    best = np.fmin.reduceat(th, start)[run]
    tri = np.where(th == best, tri, np.iinfo(np.int64).max)
    tri = np.minimum.reduceat(tri, start)[run]
    best_t, best_mesh, best_tri = hits.t[ray], hits.mesh_id[ray], hits.tri_id[ray]
    better = (best < best_t) | ((best == best_t) & (
        (mesh_id < best_mesh) | ((mesh_id == best_mesh) & (tri < best_tri))))
    hits.t[ray] = np.where(better, best, best_t)
    hits.mesh_id[ray] = np.where(better, mesh_id, best_mesh)
    hits.tri_id[ray] = np.where(better, tri, best_tri)


def _hit_normals(mesh: TriMesh, rot, sel, tri, normal) -> None:
    """World-frame unit winding normals of the winning triangles."""
    p0, p1, p2 = mesh.vertices[mesh.triangles[tri]].transpose(1, 2, 0)
    nrm = _cross(p1 - p0, p2 - p0)
    nl = np.sqrt(nrm[0] ** 2 + nrm[1] ** 2 + nrm[2] ** 2)
    normal[sel] = (rot @ nrm / nl).T


def raycast(meshes, bvhs, origins: np.ndarray, dirs: np.ndarray,
            max_range: float = np.inf) -> RayHits:
    """Closest hit of each ray against a set of posed meshes.

    Every mesh's pose is read exactly once at call entry, so all rays of one
    call observe the same snapshot of the scene. Hits beyond ``max_range``
    are reported as misses.

    Raises:
        ValueError: if ``meshes`` and ``bvhs`` differ in length, a BVH does
            not cover its mesh's triangles, or ``origins`` and ``dirs``
            differ in shape.
    """
    if len(meshes) != len(bvhs):
        raise ValueError(f"{len(meshes)} meshes but {len(bvhs)} BVHs")
    for mid, (mesh, bvh) in enumerate(zip(meshes, bvhs)):
        if bvh.tri_order.size != mesh.num_triangles:
            raise ValueError(f"BVH {mid} covers {bvh.tri_order.size} triangles,"
                             f" mesh {mid} has {mesh.num_triangles}")
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if origins.shape != dirs.shape:
        raise ValueError(f"origins {origins.shape} and dirs {dirs.shape} "
                         "differ in shape")
    origins = origins.reshape(-1, 3)
    dirs = dirs.reshape(-1, 3)
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
        _cast_mesh(mesh, bvh, rot, pos, origins, dirs, float(max_range), mid,
                   hits)
    for mid, mesh in enumerate(meshes):
        sel = np.nonzero(hits.mesh_id == mid)[0]
        if sel.size:
            _hit_normals(mesh, snap[mid][0], sel, hits.tri_id[sel], hits.normal)
    hits.hit = np.isfinite(hits.t)
    good = hits.hit
    hits.point[good] = origins[good] + hits.t[good, None] * dirs[good]
    return hits
