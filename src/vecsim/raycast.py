"""Triangle meshes, BVH construction, and batched closest-hit ray casting.

Scene geometry is given as triangle meshes with rigid poses. Each mesh gets
an axis-aligned-bounding-box BVH (median split, leaves of at most
``LEAF_SIZE`` triangles) that is built one tree level at a time, all nodes
of a level together. Each node stores its box and one index, ``first``:
the first of its two adjacent children, or the start of its leaf's range
of triangles.

A ray whose mesh-local origin is non-finite, or whose mesh-local direction
is non-finite or zero, misses and is dropped before anything else. Every
other ray takes its candidate triangles from one of three sources. Each
source hands one routine, ``_closest``, a ``(K, n)`` block of triangle ids
with one column per ray (or ``(K, 1)`` ids that all rays share), and
``_closest`` intersects the block with one Moller-Trumbore pass and keeps
each column's closest candidate:

* the mesh's :class:`GridCells` table, for a ray whose mesh-local direction
  has zero x and y components on a mesh that has one (``hf_to_mesh``
  fills it): the triangles of the one cell the ray's local xy lies inside,
  or of the 2 x 2 cells nearest it when it lies within ``_MARGIN`` of a
  cell edge, with no traversal. As in the BVH, such a ray misses unless
  its local xy lies in the root box's closed xy bounds;
* every triangle, for the other rays on a mesh of at most ``_DENSE_MAX``
  triangles: the rays that enter the mesh's bounding box meet all its
  triangles, with no traversal;
* the BVH, for the other rays on a larger mesh: all rays move through the
  tree together, one level per pass. A frontier of ``(ray, node)`` pairs
  is slab-tested as flat arrays, each (ray, leaf) pair it reached is one
  column of ``LEAF_SIZE`` triangles, and the children of the inner nodes
  it reached form the next frontier. The slab test scales its far bound
  by the rounding bound of the slab distances, so rounding does not reject
  the box of a hit on its face.

Blocks hold at most ``_LANES`` (triangle, ray) lanes (more only where a
single ray's block is wider), and every lane temporary of a block is a
view of one workspace that ``raycast`` allocates per call, so a cast
allocates nothing lane-sized per block and keeps no state between calls.

Each ray keeps the closest hit over all meshes: lowest distance, then
lowest mesh id, then lowest triangle id. Misses carry distance ``+inf``.
``raycast`` checks every mesh and reads every pose once, in id order,
before any mesh is cast, and then casts the meshes smallest root box
first: their hits shrink the far bound that culls the larger meshes'
boxes. The tie rule does not depend on that order, and the padded slab
test admits the box of a tie at the best distance, so the hits are those
of a cast in id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maths import Transform, check_setting, quat_to_matrix


@dataclass
class GridCells:
    """The triangles of a mesh laid over a regular xy grid, cell by cell.

    Cell ``(i, j)`` is the closed square from ``origin_xy + (i, j)*cell_size``
    to ``origin_xy + (i+1, j+1)*cell_size`` in mesh-local coordinates, and
    ``tris[i, j]`` holds the ids of the ``k`` triangles inside it. A vertical
    ray well inside one cell can hit only that cell's ``k`` triangles; one
    near an edge or a node is tested against the 2 x 2 cells around it.
    """

    origin_xy: tuple[float, float]
    cell_size: float
    tris: np.ndarray  # (cells along x, cells along y, k) int64


@dataclass
class TriMesh:
    """Indexed triangle mesh with a rigid world pose.

    Every vertex must be finite. ``vertices`` holds the ``(V, 3)`` values
    given, stored component-major (``vertices.T`` is C-contiguous, as
    ``Bvh`` stores its bounds), so a cast gathers each axis from one
    contiguous row without copying the mesh. ``grid``, when given, must
    list every triangle exactly once, each in a cell that holds all three
    of its vertices; vertical rays then take their candidates from it
    instead of the BVH.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    pose: Transform = field(default_factory=Transform.identity)
    grid: GridCells | None = None

    def __post_init__(self):
        # component-major: vertices.T is C-contiguous
        self.vertices = np.asfortranarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise ValueError(f"vertex {int(bad[0])} is not finite")
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
        check_setting("grid cell_size", g.cell_size, "> 0")
        check_setting("grid origin_xy", g.origin_xy)
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


LEAF_SIZE = 4
_DENSE_MAX = 48  # meshes with at most this many triangles skip the BVH
_LANES = 8192  # (triangle, ray) lanes per intersection block
_WS_ROWS = 19  # lane-wide rows of a cast's workspace (see _closest)
_NO_TRI = np.iinfo(np.int64).max  # loses every lowest-id tie break
_MARGIN = 1e-6  # cells: a vertical ray this far inside its cell hits only it
# 1 + 2 gamma_3, gamma_n = n eps / (1 - n eps), eps = 2**-53 (Ize, JCGT 2013)
_SLAB_PAD = 1.0 + 2.0 * (3 * 2.0**-53 / (1 - 3 * 2.0**-53))


@dataclass
class Bvh:
    """Flattened AABB tree over one mesh's triangles, one index per node.

    Node 0 is the root. An inner node (``count == 0``) has the children
    ``first`` and ``first + 1``; a leaf holds the triangles
    ``tri_order[first:first + count]``. ``build_bvh`` numbers nodes level
    by level and stores the bounds component-major (``bounds_min.T`` is
    C-contiguous).
    """

    bounds_min: np.ndarray   # (N, 3)
    bounds_max: np.ndarray   # (N, 3)
    first: np.ndarray        # (N,) first child, or leaf range start
    count: np.ndarray        # (N,) 0 for inner nodes
    tri_order: np.ndarray    # (T,) permutation of triangle ids

    @property
    def num_nodes(self) -> int:
        return len(self.count)


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
    bounds_min, bounds_max, first, count = [], [], [], []
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
        # the inner nodes' children follow in order on the next level
        first.append(np.where(split, level_first + k + 2 * np.cumsum(split) - 2, lo))
        count.append(np.where(split, 0, n))
        level_first += k
        half = n[split] // 2
        lo = np.column_stack([lo[split], lo[split] + half]).ravel()
        n = np.column_stack([half, n[split] - half]).ravel()

    return Bvh(
        np.ascontiguousarray(np.concatenate(bounds_min).T).T,
        np.ascontiguousarray(np.concatenate(bounds_max).T).T,
        np.concatenate(first), np.concatenate(count), order,
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
               max_range: float, mesh_id: int, hits: RayHits, ws) -> None:
    """Closest hit of all rays against one mesh; updates ``hits`` in place.

    Rays whose local origin is non-finite, or whose local direction is
    non-finite or zero, miss and are dropped first. On a mesh with a cell
    table, rays whose local direction has zero x and y components take
    their candidates from the table if their local xy lies in the root
    box's closed xy bounds, and miss otherwise. The others are scanned
    against every triangle of a mesh of at most ``_DENSE_MAX`` triangles
    and traverse the BVH of a larger one. ``ws`` is the cast's lane
    workspace (see ``_closest``).
    """
    # rays in mesh-local coordinates (rigid: t is preserved), one row per
    # axis; an infinite origin or direction makes inf * 0 here, which the
    # finiteness test below drops
    with np.errstate(invalid="ignore"):
        o = ((origins - pos) @ rot).T.copy()
        d = (dirs @ rot).T.copy()
    ray = np.flatnonzero(np.isfinite(o).all(axis=0) & np.isfinite(d).all(axis=0)
                         & d.any(axis=0))
    # vertices one row per axis too, as TriMesh stores them
    vt = mesh.vertices.T
    if mesh.grid is not None:
        vertical = (d[0][ray] == 0.0) & (d[1][ray] == 0.0)
        # the BVH's rule: a vertical ray meets the mesh only if its xy lies
        # in the root box's closed xy bounds
        inside = vertical.copy()
        for a in (0, 1):
            oa = o[a][ray]
            inside &= (oa >= bvh.bounds_min[0, a]) & (oa <= bvh.bounds_max[0, a])
        _cast_grid(mesh, vt, o, d, ray[inside], max_range, mesh_id, hits, ws)
        ray = ray[~vertical]
    if not ray.size:
        return
    if mesh.num_triangles <= _DENSE_MAX:
        _cast_dense(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits, ws)
    else:
        _cast_bvh(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits, ws)


def _cast_grid(mesh, vt, o, d, ray, max_range, mesh_id, hits, ws) -> None:
    """Vertical rays in the grid's closed xy bounds against the triangles of
    their own cell, or of the 2 x 2 cells nearest them near a cell edge.

    The cell table puts every triangle in a closed cell that holds all its
    vertices. For a vertical ray the Moller-Trumbore ``u`` and ``v`` depend
    only on the ray's local xy, and their tolerance of 1e-12 admits a point
    at most a few 1e-12 of a triangle's extent (under sqrt(2) cells) outside
    it; rounding adds a few ulps of the coordinates. Per axis, with
    ``f = (o - origin) / cell_size``, a ray whose ``floor(f - _MARGIN)`` and
    ``floor(f + _MARGIN)`` agree on both axes, inside the grid, is more than
    ``_MARGIN`` = 1e-6 cells inside its own cell and so beyond any other
    cell's triangles: it takes that cell's ``(k, n)`` block. Every other ray
    takes the ``(4k, n)`` block of the 2 x 2 cells nearest its xy, clamped to
    the grid; the tolerance cannot admit a hit half a cell away. Either
    block holds every triangle the ray can hit.
    """
    g = mesh.grid
    ci, cj, k = g.tris.shape
    own = np.ones(ray.size, dtype=np.bool_)
    lo, near = [], []
    for a, cells in ((0, ci), (1, cj)):
        f = (o[a][ray] - g.origin_xy[a]) / g.cell_size
        lo.append(np.floor(f - _MARGIN))
        own &= (lo[a] == np.floor(f + _MARGIN)) & (lo[a] >= 0) & (lo[a] < cells)
        # lower of the two nearest cells; clamped as a float, so no cast
        # overflows
        near.append(np.clip(np.floor(f - 0.5), 0, max(cells - 2, 0)))
    i, j = (np.where(own, x, y).astype(np.int64) for x, y in zip(lo, near))
    cell = i * cj + j
    step_i, step_j = min(ci - 1, 1) * cj, min(cj - 1, 1)
    table = g.tris.reshape(-1, k)
    for sel, block in ((own, [0]), (~own, [0, step_i, step_j, step_i + step_j])):
        sub, sub_cells = ray[sel], cell[sel, None] + block
        step = max(1, _LANES // (len(block) * k))
        for b in range(0, sub.size, step):
            blk = sub[b:b + step]
            # (k or 4k, n): one column of candidates per ray
            ids = table[sub_cells[b:b + step]].reshape(blk.size, -1).T
            _keep_closer(hits, mesh_id, blk,
                         *_closest(mesh, vt, o, d, blk, ids, max_range, ws))


def _cast_dense(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits, ws) -> None:
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
                     *_closest(mesh, vt, o, d, blk, ids, max_range, ws))


def _cast_bvh(mesh, vt, bvh, o, d, ray, max_range, mesh_id, hits, ws) -> None:
    """Closest hit of the given rays through the BVH.

    The frontier holds one ``(ray, node)`` pair per box still to test,
    sorted by ray. Each pass slab-tests the whole frontier against
    ``[0, min(best_t, max_range)]`` (padded, see ``_enters``), intersects
    the triangles of the leaves it reached and replaces each inner node by
    its children ``first`` and ``first + 1``. Hits prune only later passes,
    so all leaves of one level are tested before their hits prune anything.

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
            ids = bvh.tri_order[bvh.first[nd]
                                + np.minimum(slot, bvh.count[nd] - 1)]
            t, tri = _closest(mesh, vt, o, d, r, ids, max_range, ws)
            # one ray can reach several leaves: reduce its run of columns
            head = np.ones(r.size, dtype=np.bool_)
            head[1:] = r[1:] != r[:-1]
            start = np.flatnonzero(head)
            best = np.fmin.reduceat(t, start)
            tri = np.where(t == best[np.cumsum(head) - 1], tri, _NO_TRI)
            _keep_closer(hits, mesh_id, r[start], best,
                         np.minimum.reduceat(tri, start))
        # children stay next to each other, so the frontier stays sorted by ray
        ray = np.repeat(ray[~leaf], 2)
        node = (bvh.first[node[~leaf], None] + (0, 1)).ravel()


def _inverse(d):
    """``1 / d`` of ``(3, n)`` directions, +inf for either sign of zero."""
    # + 0.0 turns -0.0 into +0.0
    with np.errstate(divide="ignore"):
        return 1.0 / (d + 0.0)


def _enters(bmin, bmax, node, o, inv, ray, tf):
    """Whether each ray meets its box within ``[0, tf]``, padded; overwrites
    ``tf``.

    ``bmin`` and ``bmax`` hold the boxes one row per axis, and ``node``
    picks each ray's box: an index array, or one box for every ray. The
    slab test (Williams et al., *J. Graphics Tools* 2005) needs no case for
    a ray parallel to an axis: its inverse is +inf, so outside the slab
    both distances have one sign and reject the box, inside they are -inf
    and +inf, and on a face one is NaN, which ``fmax``/``fmin`` skip.

    The entry distance is compared with the whole far bound, the starting
    ``tf`` included, scaled by ``_SLAB_PAD`` = 1 + 2 gamma_3 (Ize, *JCGT*
    2013). A ray through a vertex on a box face can compute its entry an
    ulp past its exit, and a box that holds a tie at the best distance can
    compute its entry an ulp past that distance; the padding enters both.
    A box the padding admits that the ray misses costs only its triangle
    tests. The arithmetic is the per-ray walk's, so the decisions are
    bitwise its own.
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
    return ~(tn > tf * _SLAB_PAD)


def _rows(a, idx):
    """``a[:, idx]`` of a C-contiguous ``(3, n)`` array as a list of rows
    (about a third of the cost of one 2-D gather)."""
    return [a[0][idx], a[1][idx], a[2][idx]]


def _cross(a, b, out, tmp):
    """Cross product ``a x b`` of component triples into the rows of
    ``out``; ``tmp`` holds each subtracted product. Returns ``out``."""
    for c, (i, j, k) in zip(out, ((0, 1, 2), (1, 2, 0), (2, 0, 1))):
        np.multiply(a[j], b[k], out=c)
        c -= np.multiply(a[k], b[j], out=tmp)
    return out


def _dot(a, b, out, tmp):
    """Dot product of component triples, summed x, y, z, into ``out``;
    ``tmp`` holds each added product."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)


def _distances(v0, e1, e2, o, d, max_range, lane, miss, flag):
    """Moller-Trumbore distance of every ``(triangle, ray)`` lane, ``+inf``
    where the ray misses.

    Each of ``v0``, ``e1``, ``e2``, ``o`` and ``d`` is a component triple
    whose rows broadcast together: ``(K, n)`` or ``(K, 1)`` triangle rows
    against ``(n,)`` ray rows, one entry per ray, giving ``(K, n)``
    distances. ``lane`` holds nine float ``(K, n)`` blocks and ``miss`` and
    ``flag`` are bool ones; every lane temporary is written into them with
    ``out=``, and the distances are returned in ``lane[4]``. The arithmetic
    is the per-ray walk's, component by component and in the same order, so
    every distance is bitwise the scalar one.
    """
    ph, tv = lane[0:3], lane[3:6]
    det, u, tmp = lane[6], lane[7], lane[8]
    _cross(d, e2, ph, tmp)
    _dot(e1, ph, det, tmp)
    np.greater(det, -1e-12, out=miss)
    miss &= np.less(det, 1e-12, out=flag)
    # lanes with a tiny det divide by ~0 here; the mask drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.divide(1.0, det, out=det)
        for a in range(3):
            np.subtract(o[a], v0[a], out=tv[a])
        _dot(tv, ph, u, tmp)
        u *= inv_det
        miss |= np.less(u, -1e-12, out=flag)
        miss |= np.greater(u, 1.0 + 1e-12, out=flag)
        # ph is spent: qv takes its rows, and v and th those of tv after it
        qv = _cross(tv, e1, ph, tmp)
        v, th = tv[0], tv[1]
        _dot(d, qv, v, tmp)
        v *= inv_det
        miss |= np.less(v, -1e-12, out=flag)
        miss |= np.greater(np.add(u, v, out=tmp), 1.0 + 1e-12, out=flag)
        _dot(e2, qv, th, tmp)
        th *= inv_det
    miss |= np.less(th, 0.0, out=flag)
    miss |= np.greater(th, max_range, out=flag)
    np.copyto(th, np.inf, where=miss)
    return th


def _closest(mesh, vt, o, d, ray, ids, max_range, ws):
    """Each ray's closest candidate: lowest distance, then lowest triangle
    id, ``(+inf, id)`` when all miss.

    ``ids`` is ``(K, n)`` triangle ids, column ``j`` the candidates of
    ``ray[j]``, or ``(K, 1)`` ids that every ray shares; a repeated id in a
    column changes nothing. ``vt`` is ``mesh.vertices.T``. ``ws`` is the
    cast's ``(_WS_ROWS, width)`` lane workspace, ``width`` at least
    ``K * n``: rows 0-8 take the triangles' ``v0``, ``e1`` and ``e2``, rows
    9-17 the float lane blocks of ``_distances``, and row 18, read as
    bools, its masks; every lane-sized array of the pass is a view of it.
    """
    k, c = ids.shape
    m = k * ray.size
    tri = ws[:9, :k * c].reshape(9, k, c)
    lane = ws[9:18, :m].reshape(9, k, ray.size)
    flags = ws[18].view(np.bool_)
    miss, flag = flags[:m].reshape(k, -1), flags[m:2 * m].reshape(k, -1)
    # the corner ids through one flat index (gathers through flat index
    # arrays are about twice as fast as 2-D ones), into rows that ph only
    # takes later; a bounds-checked take with out= copies through a buffer,
    # so the ids, all in range, are taken with mode="clip"
    corners = ws[9:12].reshape(-1)[:3 * k * c].view(np.int64).reshape(-1, 3)
    mesh.triangles.take(ids.reshape(-1), axis=0, out=corners, mode="clip")
    for r in range(9):
        vt[r % 3].take(corners[:, r // 3], out=tri[r].reshape(-1), mode="clip")
    v0, e1, e2 = tri[0:3], tri[3:6], tri[6:9]
    e1 -= v0
    e2 -= v0
    th = _distances(v0, e1, e2, _rows(o, ray), _rows(d, ray), max_range,
                    lane, miss, flag)
    best = np.fmin.reduce(th, axis=0)
    # v's block is spent: it takes each lane's id, or _NO_TRI off the best
    pick = lane[3].view(np.int64)
    np.copyto(pick, _NO_TRI)
    np.copyto(pick, ids, where=np.equal(th, best, out=flag))
    return best, pick.min(axis=0)


def _keep_closer(hits, mesh_id, ray, t, tri) -> None:
    """Make ``(t, mesh_id, tri)`` the hit of each of the distinct ``ray``
    where it beats the current one: lower distance, then lower mesh id,
    then lower triangle id. A NaN ``t`` never does, and a miss (``+inf``)
    never beats a miss. This is a strict order on ``(t, mesh id, triangle
    id)``, so the hits do not depend on the order in which ``raycast``
    casts the meshes."""
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
    corners = np.take(mesh.triangles, tri, axis=0)
    p0, p1, p2 = (_rows(mesh.vertices.T, corners[:, c]) for c in range(3))
    nrm = _cross([p1[a] - p0[a] for a in range(3)],
                 [p2[a] - p0[a] for a in range(3)],
                 np.empty((3, tri.size)), np.empty(tri.size))
    nl = np.sqrt(nrm[0] ** 2 + nrm[1] ** 2 + nrm[2] ** 2)
    normal[sel] = (rot @ nrm / nl).T


def raycast(meshes, bvhs, origins: np.ndarray, dirs: np.ndarray,
            max_range: float = np.inf) -> RayHits:
    """Closest hit of each ray against a set of posed meshes.

    Every mesh is checked and its pose read once, in id order, before any
    mesh is cast, so all rays of one call observe the same pose of each
    mesh and an error names the first bad mesh by id. The meshes are then
    cast smallest root box first (ascending squared diagonal, ties by id),
    so the hits of small meshes cull the rays of large ones; the tie rule
    of ``_keep_closer`` makes the hits those of any order. One lane
    workspace of ``_WS_ROWS`` rows of ``_LANES`` floats (wider only where
    one ray's block holds more lanes) serves every intersection block of
    the call. Hits beyond ``max_range`` are reported as misses; the default
    ``+inf`` sets no limit.

    Raises:
        ValueError: if ``max_range`` is NaN or negative, ``meshes`` and
            ``bvhs`` differ in length, a BVH does not cover its mesh's
            triangles, a mesh's pose is not finite, or ``origins`` and
            ``dirs`` differ in shape.
    """
    max_range = float(check_setting("max_range", max_range, ">= 0", inf=True))
    if len(meshes) != len(bvhs):
        raise ValueError(f"{len(meshes)} meshes but {len(bvhs)} BVHs")
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if origins.shape != dirs.shape:
        raise ValueError(f"origins {origins.shape} and dirs {dirs.shape} "
                         "differ in shape")
    origins = origins.reshape(-1, 3)
    dirs = dirs.reshape(-1, 3)
    hits = RayHits.allocate(origins.shape[0])
    # the rotations are kept for the hit normals; size is the squared
    # diagonal of each root box
    rots, pos, size = [], [], []
    for mid, (mesh, bvh) in enumerate(zip(meshes, bvhs)):
        if bvh.tri_order.size != mesh.num_triangles:
            raise ValueError(f"BVH {mid} covers {bvh.tri_order.size} triangles,"
                             f" mesh {mid} has {mesh.num_triangles}")
        pose = mesh.pose
        pos.append(np.ascontiguousarray(pose.pos, dtype=np.float64))
        if not (np.isfinite(pos[mid]).all() and np.isfinite(pose.quat).all()):
            raise ValueError(f"mesh {mid} pose must be finite, got pos {pose.pos}"
                             f" quat {pose.quat}")
        rots.append(np.ascontiguousarray(quat_to_matrix(pose.quat)))
        size.append(float(((bvh.bounds_max[0] - bvh.bounds_min[0]) ** 2).sum()))
    # one ray's block can take more than _LANES: up to _DENSE_MAX lanes
    # on a dense mesh, 4k on a cell table of k triangles a cell
    width = max([_LANES, _DENSE_MAX] + [4 * m.grid.tris.shape[2]
                                        for m in meshes if m.grid is not None])
    ws = np.empty((_WS_ROWS, width))
    # a stable sort: equal sizes keep ascending id
    for mid in sorted(range(len(meshes)), key=size.__getitem__):
        _cast_mesh(meshes[mid], bvhs[mid], rots[mid], pos[mid], origins, dirs,
                   max_range, mid, hits, ws)
    for mid, mesh in enumerate(meshes):
        sel = np.nonzero(hits.mesh_id == mid)[0]
        if sel.size:
            _hit_normals(mesh, rots[mid], sel, hits.tri_id[sel], hits.normal)
    hits.hit = np.isfinite(hits.t)
    good = hits.hit
    hits.point[good] = origins[good] + hits.t[good, None] * dirs[good]
    return hits
