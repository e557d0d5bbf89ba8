import re

import numpy as np
import pytest

from conftest import quat_from_axis_angle
from vecsim.maths import QUAT_IDENTITY, Transform, quat_to_matrix
from vecsim.raycast import (
    LEAF_SIZE,
    Bvh,
    RayHits,
    TriMesh,
    build_bvh,
    raycast,
)
from vecsim.terrain import HeightField, hf_to_mesh


def ground_plane(half=5.0, z=0.0):
    verts = np.array([[-half, -half, z], [half, -half, z],
                      [half, half, z], [-half, half, z]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])  # wound +z
    return TriMesh(verts, tris)


def uv_sphere(n_lat=9, n_lon=12, radius=1.0, rng=None):
    lat = np.linspace(0, np.pi, n_lat + 1)[1:-1]
    verts = [(0, 0, radius), (0, 0, -radius)]
    for la in lat:
        for lo in np.linspace(0, 2 * np.pi, n_lon, endpoint=False):
            verts.append((radius * np.sin(la) * np.cos(lo),
                          radius * np.sin(la) * np.sin(lo),
                          radius * np.cos(la)))
    verts = np.asarray(verts, dtype=np.float64)
    if rng is not None:
        verts = verts * rng.uniform(0.8, 1.2, (len(verts), 1))
    tris = []
    def ring(i):
        return 2 + i * n_lon
    for j in range(n_lon):
        tris.append((0, ring(0) + j, ring(0) + (j + 1) % n_lon))
        tris.append((1, ring(n_lat - 3) + (j + 1) % n_lon, ring(n_lat - 3) + j))
    for i in range(n_lat - 3):
        for j in range(n_lon):
            a = ring(i) + j
            b = ring(i) + (j + 1) % n_lon
            c = ring(i + 1) + j
            d = ring(i + 1) + (j + 1) % n_lon
            tris.append((a, b, d))
            tris.append((a, d, c))
    return TriMesh(verts, np.asarray(tris, dtype=np.int64))


def brute_force_raycast(meshes, origins, dirs, max_range=np.inf):
    """Reference all-triangle intersection with the same tie-break rule."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = len(origins)
    hits = RayHits.allocate(n)
    for mid, mesh in enumerate(meshes):
        rot = quat_to_matrix(mesh.pose.quat)
        pos = mesh.pose.pos
        o_all = (origins - pos) @ rot
        d_all = dirs @ rot
        v = mesh.vertices
        f = mesh.triangles
        v0 = v[f[:, 0]]
        e1 = v[f[:, 1]] - v0
        e2 = v[f[:, 2]] - v0
        for r in range(n):
            o, d = o_all[r], d_all[r]
            ph = np.cross(d, e2)
            det = np.einsum("ij,ij->i", e1, ph)
            ok = np.abs(det) >= 1e-12
            inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            tv = o - v0
            u = np.einsum("ij,ij->i", tv, ph) * inv
            ok &= (u >= -1e-12) & (u <= 1 + 1e-12)
            qv = np.cross(tv, e1)
            w = (qv @ d) * inv
            ok &= (w >= -1e-12) & (u + w <= 1 + 1e-12)
            t = np.einsum("ij,ij->i", e2, qv) * inv
            ok &= (t >= 0.0) & (t <= max_range)
            if not ok.any():
                continue
            ids = np.nonzero(ok)[0]
            pick = ids[np.lexsort((ids, t[ids]))[0]]
            tbest = t[pick]
            if tbest < hits.t[r] or (tbest == hits.t[r] and mid < hits.mesh_id[r]):
                hits.t[r] = tbest
                hits.mesh_id[r] = mid
                hits.tri_id[r] = pick
                nrm = np.cross(e1[pick], e2[pick])
                hits.normal[r] = (rot @ (nrm / np.linalg.norm(nrm)))
    hits.hit = np.isfinite(hits.t)
    good = hits.hit
    hits.point[good] = origins[good] + hits.t[good, None] * dirs[good]
    return hits


@pytest.mark.parametrize("layout", ["C", "F", "list"])
def test_vertices_are_stored_component_major(layout):
    # the (V, 3) values are the input's; the storage is one row per axis
    sphere = uv_sphere(6, 8, rng=np.random.default_rng(3))
    rows = sphere.vertices.tolist()
    given = {"C": np.array(rows, order="C"), "F": np.array(rows, order="F"),
             "list": rows}[layout]
    mesh = TriMesh(given, sphere.triangles)
    np.testing.assert_array_equal(mesh.vertices, rows)
    assert mesh.vertices.shape == (len(rows), 3)
    assert mesh.vertices.T.flags.c_contiguous


# ----------------------------------------------------------------------- bvh


def test_bvh_two_triangle_quad_single_leaf():
    bvh = build_bvh(ground_plane())
    assert bvh.num_nodes == 1
    assert bvh.count[0] == 2


def test_bvh_rejects_empty_and_degenerate():
    with pytest.raises(ValueError):
        build_bvh(TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
    tris = np.array([[0, 1, 3], [0, 1, 2]])  # second is collinear
    with pytest.raises(ValueError, match="triangle 1"):
        build_bvh(TriMesh(verts, tris))


def test_bvh_partitions_all_triangles_and_nests_boxes():
    mesh = uv_sphere(11, 14)
    assert mesh.num_triangles >= 200
    bvh = build_bvh(mesh)
    assert set(vars(bvh)) == {"bounds_min", "bounds_max", "first", "count",
                              "tri_order"}
    inner = np.flatnonzero(bvh.count == 0)
    leaves = np.flatnonzero(bvh.count > 0)
    # node 0 is the root: every other node is the child of exactly one inner
    # node, and children come after their parent
    children = np.concatenate([bvh.first[inner], bvh.first[inner] + 1])
    assert sorted(children) == list(range(1, bvh.num_nodes))
    assert np.all(bvh.first[inner] > inner)
    # an inner node's children first and first + 1 nest inside its box
    for child in (bvh.first[inner], bvh.first[inner] + 1):
        assert np.all(bvh.bounds_min[child] >= bvh.bounds_min[inner])
        assert np.all(bvh.bounds_max[child] <= bvh.bounds_max[inner])
    # the leaves' ranges [first, first + count) partition tri_order, and a
    # leaf's box holds its triangles
    assert np.all(bvh.count <= LEAF_SIZE)
    order = np.argsort(bvh.first[leaves])
    starts, counts = bvh.first[leaves][order], bvh.count[leaves][order]
    assert starts[0] == 0
    np.testing.assert_array_equal(starts[1:], (starts + counts)[:-1])
    assert starts[-1] + counts[-1] == mesh.num_triangles
    assert sorted(bvh.tri_order) == list(range(mesh.num_triangles))
    tri = mesh.vertices[mesh.triangles]
    for leaf in leaves:
        ids = bvh.tri_order[bvh.first[leaf]:bvh.first[leaf] + bvh.count[leaf]]
        assert np.all(tri[ids].min(axis=1) >= bvh.bounds_min[leaf])
        assert np.all(tri[ids].max(axis=1) <= bvh.bounds_max[leaf])


# ------------------------------------------------------------------- casting


def test_ray_straight_down_on_plane():
    mesh = ground_plane()
    hits = raycast([mesh], [build_bvh(mesh)],
                   np.array([[0.0, 0, 1]]), np.array([[0.0, 0, -1]]))
    assert hits.hit[0]
    np.testing.assert_allclose(hits.t[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(hits.normal[0], [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(hits.point[0], [0, 0, 0], atol=1e-12)


def test_ray_parallel_to_plane_misses():
    mesh = ground_plane()
    hits = raycast([mesh], [build_bvh(mesh)],
                   np.array([[0.0, 0, 1]]), np.array([[1.0, 0, 0]]))
    assert not hits.hit[0]
    assert hits.t[0] == np.inf
    assert hits.mesh_id[0] == -1


def test_max_range_reported_as_miss():
    mesh = ground_plane()
    hits = raycast([mesh], [build_bvh(mesh)],
                   np.array([[0.0, 0, 2]]), np.array([[0.0, 0, -1]]),
                   max_range=1.5)
    assert not hits.hit[0]


def test_raycast_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        meshes = []
        for m in range(3):
            mesh = uv_sphere(9, 12, rng=rng)
            mesh.pose = Transform(rng.uniform(-1, 1, 3),
                                  quat_from_axis_angle(
                                      np.array([0, 0, 1.0]), rng.uniform(0, 6)))
            meshes.append(mesh)
        bvhs = [build_bvh(m) for m in meshes]
        origins = rng.uniform(-3, 3, (1000, 3))
        dirs = rng.standard_normal((1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        got = raycast(meshes, bvhs, origins, dirs)
        want = brute_force_raycast(meshes, origins, dirs)
        np.testing.assert_array_equal(got.hit, want.hit)
        np.testing.assert_array_equal(got.mesh_id, want.mesh_id)
        np.testing.assert_array_equal(got.tri_id, want.tri_id)
        good = got.hit
        assert np.all(np.abs(got.t[good] - want.t[good]) < 1e-6)


def test_tie_breaks_prefer_lowest_mesh_id():
    # two identical coincident planes: the first mesh wins the tie
    m1, m2 = ground_plane(), ground_plane()
    hits = raycast([m1, m2], [build_bvh(m1), build_bvh(m2)],
                   np.array([[0.3, 0.2, 1.0]]), np.array([[0.0, 0, -1]]))
    assert hits.mesh_id[0] == 0


def test_pose_snapshot_read_once_per_call():
    class FlippingPoseMesh(TriMesh):
        @property
        def pose(self):
            self._reads = getattr(self, "_reads", 0) + 1
            if self._reads > 1:
                return Transform(np.array([1000.0, 0, 0]), QUAT_IDENTITY.copy())
            return self._pose

        @pose.setter
        def pose(self, value):
            self._pose = value

    mesh = FlippingPoseMesh(ground_plane().vertices, ground_plane().triangles)
    origins = np.column_stack([np.linspace(-1, 1, 64), np.zeros(64), np.ones(64)])
    dirs = np.tile([0.0, 0, -1], (64, 1))
    hits = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    # a mid-call pose mutation is unobservable: every ray saw the first pose
    assert mesh._reads == 1
    assert hits.hit.all()
    np.testing.assert_allclose(hits.t, 1.0, atol=1e-12)


def test_posed_mesh_hits_in_world_frame():
    mesh = ground_plane()
    mesh.pose = Transform(np.array([0.0, 0, 0.5]), QUAT_IDENTITY.copy())
    hits = raycast([mesh], [build_bvh(mesh)],
                   np.array([[0.0, 0, 2]]), np.array([[0.0, 0, -1]]))
    np.testing.assert_allclose(hits.t[0], 1.5, atol=1e-12)
    np.testing.assert_allclose(hits.point[0], [0, 0, 0.5], atol=1e-12)


# ---------------------------------------------------------------- arguments


def test_raycast_rejects_fewer_bvhs_than_meshes():
    # the nearer mesh b must not be skipped silently
    a = ground_plane(z=0.0)
    b = ground_plane(z=0.5)
    with pytest.raises(ValueError, match="2 meshes but 1 BVHs"):
        raycast([a, b], [build_bvh(a)], np.array([[0.0, 0, 1]]),
                np.array([[0.0, 0, -1]]))


def test_raycast_rejects_ray_arrays_of_different_shapes():
    mesh = ground_plane()
    with pytest.raises(ValueError, match="differ in shape"):
        raycast([mesh], [build_bvh(mesh)], np.zeros((3, 3)), np.zeros((2, 3)))


def test_raycast_rejects_nan_or_negative_max_range():
    # unchecked, NaN would act as an infinite range and a negative range
    # would miss everything without a word
    mesh = ground_plane()
    rays = [build_bvh(mesh)], np.array([[0.0, 0, 1]]), np.array([[0.0, 0, -1]])
    for bad, shown in ((np.nan, "nan"), (-1.0, "-1.0"), (-np.inf, "-inf")):
        with pytest.raises(ValueError, match=f"max_range must be >= 0, got {shown}"):
            raycast([mesh], *rays, bad)
    for ok in (0.0, 1.0, np.inf):
        assert raycast([mesh], *rays, ok).hit[0] == (ok >= 1.0)


def test_raycast_rejects_bvh_of_another_mesh():
    plane, sphere = ground_plane(), uv_sphere(6, 8)
    with pytest.raises(ValueError, match="BVH 0 covers"):
        raycast([plane], [build_bvh(sphere)], np.array([[0.0, 0, 1]]),
                np.array([[0.0, 0, -1]]))


def test_raycast_rejects_non_finite_mesh_pose():
    # unchecked, every ray's mesh-local origin is NaN and misses silently
    mesh = hf_to_mesh(HeightField(np.zeros((3, 3)), 1.0))
    plane = ground_plane(z=-1.0)
    rays = np.array([[0.5, 0.5, 1.0]]), np.array([[0.0, 0, -1]])
    mesh.pose = Transform([0.0, np.nan, 0.0], [1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="mesh 0 pose must be finite"):
        raycast([mesh], [build_bvh(mesh)], *rays)
    mesh.pose = Transform([0.0, 0, 0], [1.0, 0, np.inf, 0])
    with pytest.raises(ValueError, match="mesh 1 pose must be finite"):
        raycast([plane, mesh], [build_bvh(plane), build_bvh(mesh)], *rays)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: TriMesh(np.zeros((3, 2)), [[0, 1, 2]]),
                 ValueError, "vertices must be (V, 3)", id="vertices"),
    pytest.param(lambda: TriMesh(np.zeros((3, 3)), [[0, 1]]),
                 ValueError, "triangles must be (T, 3)", id="triangles"),
    pytest.param(lambda: TriMesh(np.zeros((3, 3)), [[0, 1, 3]]),
                 ValueError, "triangle indices out of range", id="indices"),
    pytest.param(lambda: TriMesh([[0, 0, 0], [1, 0, np.nan], [0, 1, 0]], [[0, 1, 2]]),
                 ValueError, "vertex 1 is not finite", id="nan_vertex"),
    pytest.param(lambda: TriMesh([[0, 0, 0], [1, 0, 0], [0, -np.inf, 0]], [[0, 1, 2]]),
                 ValueError, "vertex 2 is not finite", id="inf_vertex"),
])
def test_mesh_input_rejected(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
