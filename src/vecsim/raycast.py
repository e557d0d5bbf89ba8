"""Triangle meshes, BVH construction, and batched closest-hit ray casting.

Scene geometry is given as triangle meshes with rigid poses. Each mesh gets
an axis-aligned-bounding-box BVH (median split, leaves of at most
``LEAF_SIZE`` triangles) that is built one tree level at a time, all nodes
of a level together.

A ray whose mesh-local direction is non-finite or zero misses and is
dropped before anything else. Every other ray takes its candidate triangles
from one of three sources. Each source hands one routine, ``_closest``, a
``(K, n)`` block of triangle ids with one column per ray (or ``(K, 1)`` ids
that all rays share), and ``_closest`` intersects the block with one
Moller-Trumbore pass and keeps each column's closest candidate:

* the mesh's :class:`GridCells` table, for a ray whose mesh-local direction
  has zero x and y components on a mesh that has one (``hf_to_mesh``
  fills it): the triangles of the 2 x 2 cells nearest the ray's local xy,
  with no traversal;
* every triangle, for the other rays on a mesh of at most ``_DENSE_MAX``
  triangles: the rays that enter the mesh's bounding box meet all its
  triangles, with no traversal;
* the BVH, for the other rays on a larger mesh: all rays move through the
  tree together, one level per pass. A frontier of ``(ray, node)`` pairs
  is slab-tested as flat arrays, each (ray, leaf) pair it reached is one
  column of ``LEAF_SIZE`` triangles, and the children of the inner nodes
  it reached form the next frontier.

Blocks hold at most ``_LANES`` (triangle, ray) lanes, which bounds every
temporary of a cast.

Each ray keeps the closest hit over all meshes: lowest distance, then
lowest mesh id, then lowest triangle id. Misses carry distance ``+inf``.
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
class GridCells:
    """The triangles of a mesh laid over a regular xy grid, cell by cell.

    Cell ``(i, j)`` is the closed square from ``origin_xy + (i, j)*cell_size``
    to ``origin_xy + (i+1, j+1)*cell_size`` in mesh-local coordinates, and
    ``tris[i, j]`` holds the ids of the ``k`` triangles inside it.
    """

    origin_xy: tuple[float, float]
    cell_size: float
    tris: np.ndarray  # (cells along x, cells along y, k) int64


@dataclass
class TriMesh:
    """Indexed triangle mesh with a rigid world pose.

    ``grid``, when given, must list every triangle exactly once, each in a
    cell that holds all three of its vertices; vertical rays then take
    their candidates from it instead of the BVH.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    pose: Transform = field(default_factory=Transform.identity)
    grid: GridCells | None = None

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
        if self.grid is not None:
            self._check_grid()

    def _check_grid(self) -> None:
        g = self.grid
        g.tris = np.ascontiguousarray(g.tris, dtype=np.int64)
        if g.tris.ndim != 3 or 0 in g.tris.shape:
            raise ValueError("grid tris must be (I, J, k) with I, J, k >= 1")
        if not 0 < g.cell_size < np.inf or not np.isfinite(g.origin_xy).all():
            raise ValueError("grid cell_size must be finite and > 0, origin finite")
        ids = g.tris.ravel()
        t = self.num_triangles
        if (ids.size != t or ids.min() < 0 or ids.max() >= t
                or np.bincount(ids, minlength=t).max() > 1):
            raise ValueError("grid cells must list every triangle exactly once")
        # cell edges with the mesher's node arithmetic, so the test is exact
        ci, cj, _ = g.tris.shape
        ex = (np.arange(ci + 1) * g.cell_size + g.origin_xy[0])[:, None, None, None]
        ey = (np.arange(cj + 1) * g.cell_size + g.origin_xy[1])[:, None, None]
        x, y = np.moveaxis(self.vertices[self.triangles[g.tris], :2], -1, 0)
        outside = ((x < ex[:-1]) | (x > ex[1:])
                   | (y < ey[:-1]) | (y > ey[1:])).any(axis=-1)
        if outside.any():
            i, j, s = np.argwhere(outside)[0]
            raise ValueError(f"triangle {int(g.tris[i, j, s])} lies outside "
                             f"grid cell ({int(i)}, {int(j)})")

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
_DENSE_MAX = 48  # meshes with at most this many triangles skip the BVH
_LANES = 8192  # (triangle, ray) lanes per intersection block
_NO_TRI = np.iinfo(np.int64).max  # loses every lowest-id tie break


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

    Rays whose local direction is non-finite or zero miss and are dropped
    first. On a mesh with a cell table, rays whose local direction has zero
    x and y components take their candidates from the table. The others
    are scanned against every triangle of a mesh of at most ``_DENSE_MAX``
    triangles and traverse the BVH of a larger one.
    """
    # rays in mesh-local coordinates (rigid: t is preserved), one row per
    # axis; an infinite origin or direction makes inf * 0 here and still
    # misses below
    with np.errstate(invalid="ignore"):
        o = ((origins - pos) @ rot).T.copy()
        d = (dirs @ rot).T.copy()
    ray = np.flatnonzero(np.isfinite(d).all(axis=0) & d.any(axis=0))
    # vertices one row per axis too: gathers from contiguous rows are faster
    vt = np.ascontiguousarray(mesh.vertices.T)
    if mesh.grid is not None:
        vertical = (d[0][ray] == 0.0) & (d[1][ray] == 0.0)
        # a non-finite origin misses, as in the BVH, and has no cell
        finite = np.isfinite(o[0][ray]) & np.isfinite(o[1][ray])
        _cast_grid(mesh, vt, o, d, ray[vertical & finite], max_range,
                   mesh_id, hits)
        ray = ray[~vertical]
    if not ray.size:
        return
    if mesh.num_triangles <= _DENSE_MAX:
        _cast_dense(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits)
    else:
        _cast_bvh(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits)


def _cast_grid(mesh, vt, o, d, ray, max_range, mesh_id, hits) -> None:
    """Vertical rays against the triangles of the 2 x 2 cells nearest each
    ray's local xy, clamped to the grid.

    The cell table puts every triangle in a closed cell that holds all its
    vertices, and the Moller-Trumbore tolerance (1e-12 in barycentric
    coordinates) cannot admit a hit half a cell away, so these candidates
    include every triangle a vertical ray can hit.
    """
    g = mesh.grid
    ci, cj, k = g.tris.shape
    first = []
    for a, cells in ((0, ci), (1, cj)):
        f = (o[a][ray] - g.origin_xy[a]) / g.cell_size
        # lower of the two nearest cells; clamped as a float, so no cast
        # overflows
        first.append(np.clip(np.floor(f - 0.5), 0, max(cells - 2, 0))
                     .astype(np.int64))
    step_i, step_j = min(ci - 1, 1) * cj, min(cj - 1, 1)
    cell = first[0] * cj + first[1]
    quad = np.array([0, step_i, step_j, step_i + step_j])
    table = g.tris.reshape(-1, k)
    step = max(1, _LANES // (4 * k))
    for b in range(0, ray.size, step):
        blk = ray[b:b + step]
        # (4k, n): one column of candidates per ray
        ids = table[cell[b:b + step, None] + quad].reshape(blk.size, -1).T
        _keep_closer(hits, mesh_id, blk,
                     *_closest(mesh, vt, o, d, blk, ids, max_range))


def _cast_dense(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits) -> None:
    """The given rays against every triangle of a small mesh, with no
    traversal.

    The rays that enter the mesh's root box within
    ``[0, min(best_t, max_range)]`` meet all ``T`` triangles, one ``(T, 1)``
    id column shared by blocks of ``_LANES // T`` rays. This is the walk
    over a single leaf that holds every triangle in id order, an exhaustive
    scan.
    """
    ray = ray[_enters(bvh.bounds_min.T, bvh.bounds_max.T, 0, o, _inverse(d),
                      ray, np.fmin(hits.t[ray], max_range))]
    ids = np.arange(mesh.num_triangles)[:, None]
    step = max(1, _LANES // mesh.num_triangles)
    for b in range(0, ray.size, step):
        blk = ray[b:b + step]
        _keep_closer(hits, mesh_id, blk,
                     *_closest(mesh, vt, o, d, blk, ids, max_range))


def _cast_bvh(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits) -> None:
    """Closest hit of the given rays through the BVH.

    The frontier holds one ``(ray, node)`` pair per box still to test,
    sorted by ray. Each pass slab-tests the whole frontier against
    ``[0, min(best_t, max_range)]``, intersects the triangles of the leaves
    it reached and replaces the inner nodes by their children. Hits prune
    only later passes, so all leaves of one level are tested before their
    hits prune anything; a depth-first walk can instead skip a tied
    triangle whose box entry distance rounds above its hit distance.

    Each reached (ray, leaf) pair is one column of ``LEAF_SIZE`` triangle
    ids; a shorter leaf repeats its last triangle, which changes neither
    the lowest distance nor the lowest id.
    """
    inv = _inverse(d)
    bmin, bmax = bvh.bounds_min.T, bvh.bounds_max.T
    slot = np.arange(LEAF_SIZE)[:, None]
    step = _LANES // LEAF_SIZE
    node = np.zeros(ray.size, dtype=np.int64)
    while ray.size:
        keep = _enters(bmin, bmax, node, o, inv, ray,
                       np.fmin(hits.t[ray], max_range))
        ray, node = ray[keep], node[keep]
        leaf = bvh.count[node] > 0
        ray_l, node_l = ray[leaf], node[leaf]
        for b in range(0, ray_l.size, step):
            r, nd = ray_l[b:b + step], node_l[b:b + step]
            ids = bvh.tri_order[bvh.start[nd]
                                + np.minimum(slot, bvh.count[nd] - 1)]
            t, tri = _closest(mesh, vt, o, d, r, ids, max_range)
            # one ray can reach several leaves: reduce its run of columns
            head = np.ones(r.size, dtype=np.bool_)
            head[1:] = r[1:] != r[:-1]
            start = np.flatnonzero(head)
            best = np.fmin.reduceat(t, start)
            tri = np.where(t == best[np.cumsum(head) - 1], tri, _NO_TRI)
            _keep_closer(hits, mesh_id, r[start], best,
                         np.minimum.reduceat(tri, start))
        # children stay next to each other, so the frontier stays sorted by ray
        inner = node[~leaf]
        ray = np.repeat(ray[~leaf], 2)
        node = np.column_stack((bvh.left[inner], bvh.right[inner])).ravel()


def _inverse(d):
    """``1 / d`` of ``(3, n)`` directions, +inf for either sign of zero."""
    # + 0.0 turns -0.0 into +0.0
    with np.errstate(divide="ignore"):
        return 1.0 / (d + 0.0)


def _enters(bmin, bmax, node, o, inv, ray, tf):
    """Whether each ray meets its box within ``[0, tf]``; overwrites ``tf``.

    ``bmin`` and ``bmax`` hold the boxes one row per axis, and ``node``
    picks each ray's box: an index array, or one box for every ray. The
    slab test (Williams et al., *J. Graphics Tools* 2005) needs no case for
    a ray parallel to an axis: its inverse is +inf, so outside the slab
    both distances have one sign and reject the box, inside they are -inf
    and +inf, and on a face one is NaN, which ``fmax``/``fmin`` skip. The
    arithmetic is the per-ray walk's, so the decisions are bitwise its own.
    """
    tn = np.zeros(ray.size)
    with np.errstate(invalid="ignore"):
        for a in range(3):
            oa = o[a][ray]
            ia = inv[a][ray]
            t1 = (bmin[a][node] - oa) * ia
            t2 = (bmax[a][node] - oa) * ia
            swap = t1 > t2
            np.fmax(tn, np.where(swap, t2, t1), out=tn)
            np.fmin(tf, np.where(swap, t1, t2), out=tf)
    return ~(tn > tf)


def _rows(a, idx):
    """``a[:, idx]`` of a C-contiguous ``(3, n)`` array as a list of rows
    (about a third of the cost of one 2-D gather)."""
    return [a[0][idx], a[1][idx], a[2][idx]]


def _cross(a, b):
    """Cross product ``a x b`` of component triples, as a list of rows."""
    out = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c = a[j] * b[k]
        c -= a[k] * b[j]
        out.append(c)
    return out


def _dot(a, b):
    """Dot product of component triples, summed x, y, z."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _distances(v0, e1, e2, o, d, max_range):
    """Moller-Trumbore distance of every ``(triangle, ray)`` lane, ``+inf``
    where the ray misses (NaN for a non-finite origin, which never wins).

    Each argument is a component triple whose rows broadcast together:
    ``(K, n)`` or ``(K, 1)`` triangle rows against ``(n,)`` ray rows, one
    entry per ray, giving ``(K, n)`` distances. The arithmetic is the
    per-ray walk's, component by component and in the same order, so every
    distance is bitwise the scalar one. Spent temporaries are freed at once.
    """
    ph = _cross(d, e2)
    det = _dot(e1, ph)
    miss = (det > -1e-12) & (det < 1e-12)
    # lanes with a tiny det divide by ~0 here; the mask drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.divide(1.0, det, out=det)
        tv = [o[a] - v0[a] for a in range(3)]
        u = _dot(tv, ph)
        u *= inv_det
        del ph
        miss |= (u < -1e-12) | (u > 1.0 + 1e-12)
        qv = _cross(tv, e1)
        del tv
        v = _dot(d, qv)
        v *= inv_det
        miss |= (v < -1e-12) | (u + v > 1.0 + 1e-12)
        del u, v
        th = _dot(e2, qv)
        th *= inv_det
    miss |= (th < 0.0) | (th > max_range)
    th[miss] = np.inf
    return th


def _closest(mesh, vt, o, d, ray, ids, max_range):
    """Each ray's closest candidate: lowest distance, then lowest triangle
    id, ``(+inf, id)`` when all miss.

    ``ids`` is ``(K, n)`` triangle ids, column ``j`` the candidates of
    ``ray[j]``, or ``(K, 1)`` ids that every ray shares; a repeated id in a
    column changes nothing. ``vt`` is ``mesh.vertices.T``, C-contiguous.
    """
    # gathers through flat index arrays are about twice as fast as 2-D ones
    corners = np.take(mesh.triangles, ids.ravel(), axis=0)
    v0, e1, e2 = ([r.reshape(ids.shape) for r in _rows(vt, corners[:, c])]
                  for c in range(3))
    del corners
    for a in range(3):
        e1[a] -= v0[a]
        e2[a] -= v0[a]
    th = _distances(v0, e1, e2, _rows(o, ray), _rows(d, ray), max_range)
    best = np.fmin.reduce(th, axis=0)
    return best, np.where(th == best, ids, _NO_TRI).min(axis=0)


def _keep_closer(hits, mesh_id, ray, t, tri) -> None:
    """Make ``(t, mesh_id, tri)`` the hit of each of the distinct ``ray``
    where it beats the current one: lower distance, then lower mesh id,
    then lower triangle id. A NaN ``t`` never does."""
    best_t, best_mesh = hits.t[ray], hits.mesh_id[ray]
    better = (t < best_t) | ((t == best_t) & (
        (mesh_id < best_mesh)
        | ((mesh_id == best_mesh) & (tri < hits.tri_id[ray]))))
    ray = ray[better]
    hits.t[ray] = t[better]
    hits.mesh_id[ray] = mesh_id
    hits.tri_id[ray] = tri[better]


def _hit_normals(mesh: TriMesh, rot, sel, tri, normal) -> None:
    """World-frame unit winding normals of the winning triangles."""
    p0, p1, p2 = mesh.vertices[mesh.triangles[tri]].transpose(1, 2, 0)
    nrm = np.stack(_cross(p1 - p0, p2 - p0))
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
