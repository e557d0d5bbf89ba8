"""Scalar reference implementations of BVH build and ray traversal.

These are the recursive median-split build and the per-ray stack walk that
``vecsim.raycast`` replaced with level-by-level NumPy code. They are kept
(one node, or one ray, at a time) as the oracle in
``tests/test_raycast_reference.py``; nothing in the package imports them.
They read and write the package's ``Bvh`` layout (an inner node's children
are ``first`` and ``first + 1``, a leaf's triangles
``tri_order[first:first + count]``), and the walk pads its slab test's far
bound as the package does.
"""

from __future__ import annotations

import numpy as np

from vecsim.maths import quat_to_matrix
from vecsim.raycast import LEAF_SIZE, Bvh, RayHits, TriMesh

# the slab test's far bound is scaled by 1 + 2 gamma_3, with
# gamma_n = n eps / (1 - n eps) and eps = 2**-53 (Ize, JCGT 2013)
EPS = 2.0 ** -53
SLAB_PAD = 1.0 + 2.0 * (3 * EPS / (1 - 3 * EPS))


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
    bounds_min, bounds_max, first, count = [], [], [], []

    def new_node():
        bounds_min.append(None)
        bounds_max.append(None)
        first.append(0)
        count.append(0)
        return len(first) - 1

    stack = [(new_node(), 0, t)]
    while stack:
        node, lo, hi = stack.pop()
        ids = order[lo:hi]
        bounds_min[node] = tmin[ids].min(axis=0)
        bounds_max[node] = tmax[ids].max(axis=0)
        n = hi - lo
        if n <= LEAF_SIZE:
            first[node] = lo
            count[node] = n
            continue
        cent = centroid[ids]
        axis = int(np.argmax(cent.max(axis=0) - cent.min(axis=0)))
        mid = n // 2
        # median split on the centroid along the widest axis
        part = np.argpartition(cent[:, axis], mid)
        order[lo:hi] = ids[part]
        # the two children are adjacent: first[node] and first[node] + 1
        first[node] = lc = new_node()
        new_node()
        stack.append((lc, lo, lo + mid))
        stack.append((lc + 1, lo + mid, hi))

    return Bvh(
        np.ascontiguousarray(bounds_min), np.ascontiguousarray(bounds_max),
        np.asarray(first, dtype=np.int64), np.asarray(count, dtype=np.int64),
        order,
    )



def _raycast_mesh(verts, tris, bmin, bmax, first, count, tri_order, rot,
                  pos, origins, dirs, max_range, mesh_id, best_t, best_mesh,
                  best_tri, best_normal):
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
            # slab test against [0, min(best_t, max_range)], the whole far
            # bound padded by SLAB_PAD
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
                    if tn > tf * SLAB_PAD:
                        ok = False
                        break
                elif oa < bmin[node, a] or oa > bmax[node, a]:
                    ok = False
                    break
            if not ok:
                continue
            if count[node] > 0:
                for s in range(first[node], first[node] + count[node]):
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
                stack[top] = first[node]
                top += 1
                stack[top] = first[node] + 1
                top += 1



def raycast(meshes, bvhs, origins, dirs, max_range=np.inf) -> RayHits:
    """Closest hit of each ray, one ray at a time through each BVH."""
    origins = np.ascontiguousarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = origins.shape[0]
    hits = RayHits.allocate(n)
    snap = []
    for mesh in meshes:
        pose = mesh.pose
        snap.append((np.ascontiguousarray(quat_to_matrix(pose.quat)),
                     np.ascontiguousarray(pose.pos, dtype=np.float64)))
    for mid, (mesh, bvh) in enumerate(zip(meshes, bvhs)):
        rot, pos = snap[mid]
        _raycast_mesh(mesh.vertices, mesh.triangles, bvh.bounds_min,
                      bvh.bounds_max, bvh.first, bvh.count, bvh.tri_order,
                      rot, pos, origins, dirs, float(max_range), mid, hits.t,
                      hits.mesh_id, hits.tri_id, hits.normal)
    hits.hit = np.isfinite(hits.t)
    good = hits.hit
    hits.point[good] = origins[good] + hits.t[good, None] * dirs[good]
    return hits
