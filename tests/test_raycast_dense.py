"""Small meshes: every triangle in broadcast blocks, no BVH traversal.

A mesh of at most ``_DENSE_MAX`` triangles slab-tests each ray once against
its bounding box and intersects the rays that enter with all its triangles.
The oracle is the exhaustive scan: the scalar reference walk over a single
leaf that holds every triangle. Hits must match it bitwise wherever the
local-frame transform is exact. The ``lanes`` fixture also pins the block
form that the dense scan shares with the cell table and the BVH.
"""

import numpy as np
import pytest

from conftest import quat_from_axis_angle
from test_raycast import ground_plane, uv_sphere
from test_raycast_reference import (
    BITWISE,
    assert_bitwise,
    box_mesh,
    cast_both,
    corner_rays,
    single_leaf_bvh,
    table_scene,
    unit,
)
from vecsim import raycast as rc
from vecsim.maths import Transform
from vecsim.raycast import TriMesh, build_bvh, raycast
from vecsim.terrain import HeightField, hf_to_mesh


def assert_matches_exhaustive(meshes, origins, dirs, max_range=np.inf):
    return assert_bitwise(meshes, origins, dirs, max_range,
                          oracle=single_leaf_bvh)


def camera_rays(n, rng):
    """Rays from above the table looking down at the scene."""
    origins = rng.uniform([0.0, -0.6, 0.6], [1.4, 0.6, 1.0], (n, 3))
    dirs = unit(rng.uniform([-0.6, -0.6, -1.0], [0.6, 0.6, -0.2], (n, 3)))
    return origins, dirs


class Calls(list):
    """Lane counts, one per call, and ``shapes``: each call's distance
    block shape and ray row shape."""

    def __init__(self):
        super().__init__()
        self.shapes = []


@pytest.fixture
def lanes(monkeypatch):
    """The lane count of every Moller-Trumbore call, one entry per call."""
    seen = Calls()
    distances = rc._distances

    def record(v0, e1, e2, o, d, max_range, *workspace):
        th = distances(v0, e1, e2, o, d, max_range, *workspace)
        seen.append(th.size)
        seen.shapes.append((th.shape, o[0].shape))
        return th

    monkeypatch.setattr(rc, "_distances", record)
    return seen


def soup(n_tris, rng):
    verts = rng.uniform(-1.0, 1.0, (3 * n_tris, 3))
    return TriMesh(verts, np.arange(3 * n_tris).reshape(n_tris, 3))


def test_small_meshes_do_no_bvh_traversal(bvh_rays):
    rng = np.random.default_rng(40)
    origins, dirs = camera_rays(200, rng)
    scene = table_scene()
    raycast(scene, [build_bvh(m) for m in scene], origins, dirs)
    assert not bvh_rays
    # 108-triangle boxes traverse their BVHs; the 2-triangle floor does not
    scene = table_scene(split=3)
    raycast(scene, [build_bvh(m) for m in scene], origins, dirs)
    assert len(bvh_rays) == 2
    for ray in bvh_rays:
        np.testing.assert_array_equal(ray, np.arange(200))
    bvh_rays.clear()
    origins = rng.uniform(-3.0, 3.0, (100, 3))
    dirs = unit(rng.standard_normal((100, 3)))
    for n_tris in (rc._DENSE_MAX, rc._DENSE_MAX + 1):
        mesh = soup(n_tris, rng)
        raycast([mesh], [build_bvh(mesh)], origins, dirs)
    assert len(bvh_rays) == 1


def test_table_scene_matches_exhaustive():
    origins, dirs = camera_rays(400, np.random.default_rng(41))
    got = assert_matches_exhaustive(table_scene(), origins, dirs)
    assert set(np.unique(got.mesh_id)) >= {0, 1, 2}


def test_small_sphere_and_soup_match_exhaustive():
    rng = np.random.default_rng(42)
    sphere = uv_sphere(4, 12, rng=rng)
    assert sphere.num_triangles == rc._DENSE_MAX
    origins = rng.uniform(-2.0, 2.0, (300, 3))
    dirs = unit(rng.uniform(-0.5, 0.5, (300, 3)) - origins)
    got = assert_matches_exhaustive([sphere, soup(30, rng)], origins, dirs)
    assert got.hit.mean() > 0.5


def test_posed_small_meshes_match_exhaustive():
    rng = np.random.default_rng(43)
    meshes = table_scene() + [uv_sphere(4, 12, radius=0.15, rng=rng)]
    for mesh, at in zip(meshes, ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0], [0.2, 0.0, 0.3])):
        axis = unit(rng.standard_normal(3))
        mesh.pose = Transform(rng.uniform(-0.03, 0.03, 3) + at,
                              quat_from_axis_angle(axis, rng.uniform(0, 0.2)))
    origins, dirs = camera_rays(500, rng)
    got, want = cast_both(meshes, origins, dirs, oracle=single_leaf_bvh)
    # a generic rotation rounds differently per ray and batched: ids
    # exactly, distances to 1e-12
    np.testing.assert_array_equal(got.hit, want.hit)
    np.testing.assert_array_equal(got.mesh_id, want.mesh_id)
    np.testing.assert_array_equal(got.tri_id, want.tri_id)
    hit = want.hit
    np.testing.assert_allclose(got.t[hit], want.t[hit], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.normal, want.normal, rtol=0.0, atol=1e-12)
    assert set(np.unique(got.mesh_id)) >= {0, 1, 2, 3}


@pytest.mark.parametrize("max_range", [0.0, 0.35, 0.8, 5.0])
def test_max_range_cutoffs_match_exhaustive(max_range):
    origins, dirs = camera_rays(300, np.random.default_rng(44))
    got = assert_matches_exhaustive(table_scene(), origins, dirs, max_range)
    assert np.all(got.t[got.hit] <= max_range)


@pytest.mark.parametrize("max_range", [np.inf, 0.1])
def test_origins_inside_a_box_match_exhaustive(max_range):
    # the box entry is at t = 0; only the triangle test cuts at max_range
    rng = np.random.default_rng(45)
    origins = rng.uniform([0.35, -0.45, 0.1], [1.05, 0.45, 0.35], (300, 3))
    dirs = unit(rng.standard_normal((300, 3)))
    got = assert_matches_exhaustive(table_scene(), origins, dirs, max_range)
    assert np.all(got.mesh_id[got.hit] >= 1)
    assert got.hit.all() if max_range == np.inf else got.hit.any()


@pytest.mark.parametrize("bound", [None, 40, 5], ids=["default", "40", "5"])
def test_rays_beyond_one_block_match_exhaustive(monkeypatch, lanes, bound):
    # a bound below the triangle count still takes one ray per block
    if bound is not None:
        monkeypatch.setattr(rc, "_LANES", bound)
    n = 2000 if bound is None else 200
    origins, dirs = camera_rays(n, np.random.default_rng(46))
    meshes = table_scene()
    assert n > rc._LANES // 12
    got = assert_matches_exhaustive(meshes, origins, dirs)
    assert got.hit.mean() > 0.9
    # at least one mesh takes more than one block
    assert len(lanes) > len(meshes)
    assert max(lanes) <= max(rc._LANES, 12)


@pytest.mark.parametrize("source", ["cell_table", "dense", "bvh"])
def test_every_source_intersects_one_column_per_ray(lanes, source):
    # each source hands _distances (K, n) triangle rows against (n,) ray
    # rows, K fixed per source; the cell table has two: k rows for a ray
    # inside one cell, 4k for one on an edge or a node
    rng = np.random.default_rng(50)
    table = hf_to_mesh(HeightField(rng.uniform(0.0, 0.3, (41, 41)), 0.1))
    n, edge = 3000, 300
    origins = np.column_stack([rng.uniform(0.2, 3.8, (n, 2)), np.ones(n)])
    dirs = unit(rng.uniform([-0.4, -0.4, -1.0], [0.4, 0.4, -1.0], (n, 3)))
    if source == "cell_table":
        mesh, k = table, table.grid.tris.shape[2]
        ks = {k, 4 * k}
        dirs = np.tile([0.0, 0.0, -1.0], (n, 1))
        # on a cell edge along x, along y, or on a node
        cell = rng.integers(2, 39, (edge, 2)) * 0.1
        origins[:edge, :2] = np.where(rng.integers(0, 3, (edge, 1)) == [0, 1],
                                      origins[:edge, :2], cell)
    elif source == "dense":
        mesh = box_mesh((0.5, 0.5, 0.0), (3.5, 3.5, 0.3))
        ks = {mesh.num_triangles}
    else:
        mesh, ks = TriMesh(table.vertices, table.triangles), {rc.LEAF_SIZE}
    got = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    assert got.hit.mean() > 0.5
    assert len(lanes) > 1
    assert max(lanes) <= rc._LANES
    rows = {}
    for th_shape, row_shape in lanes.shapes:
        assert len(row_shape) == 1
        assert th_shape[0] in ks and th_shape[1:] == row_shape
        rows[th_shape[0]] = rows.get(th_shape[0], 0) + row_shape[0]
    if source == "cell_table":
        # every vertical ray exactly once: the edge rays in 2 x 2 blocks
        assert rows == {k: n - edge, 4 * k: edge}


def test_corner_rays_match_exhaustive():
    mesh, origins, dirs = corner_rays(rc._DENSE_MAX, np.random.default_rng(47))
    got = assert_matches_exhaustive([mesh], origins, dirs)
    assert got.hit.mean() > 0.5


def test_ties_across_all_three_sources_match_exhaustive(bvh_rays):
    # a flat cell-table mesh, the same triangles without the table (BVH)
    # and a two-triangle plane (dense scan) all at z = 0; every order of
    # the three must pick the lowest mesh id on a tie
    table = hf_to_mesh(HeightField(np.zeros((9, 9)), 0.25, origin_xy=(-1.0, -1.0)))
    plain = TriMesh(table.vertices, table.triangles)
    plane = ground_plane(half=2.0)
    rng = np.random.default_rng(48)
    n = 300
    # binary fractions, so vertical rays tie exactly
    origins = np.column_stack([rng.integers(-56, 57, (n, 2)) / 64.0, np.ones(n)])
    dirs = np.tile([0.0, 0.0, -1.0], (n, 1))
    dirs[1::2, :2] = rng.integers(-16, 17, (n // 2, 2)) / 64.0
    for order in ([plain, plane, table], [plane, table, plain],
                  [table, plain, plane]):
        bvh_rays.clear()
        got = assert_matches_exhaustive(order, origins, dirs)
        assert got.hit.all()
        assert np.all(got.mesh_id[::2] == 0)
        assert (got.mesh_id == 0).mean() > 0.9
        # the plain mesh traverses its BVH with every ray; the cell-table
        # mesh only with the slanted ones
        slanted = int((dirs[:, :2] != 0.0).any(axis=1).sum())
        assert sorted(r.size for r in bvh_rays) == [slanted, n]


def test_non_finite_and_zero_directions_reach_no_lanes(lanes):
    rng = np.random.default_rng(49)
    gridded = hf_to_mesh(HeightField(rng.uniform(0.0, 0.3, (41, 41)), 0.1))
    big = TriMesh(gridded.vertices, gridded.triangles)
    assert big.num_triangles == 3200
    box = box_mesh((1.0, 1.0, -0.5), (3.0, 3.0, 0.5))
    # below, inside and above both meshes
    origins = np.repeat([[2.0, 2.0, -1.0], [2.0, 2.0, 0.1], [2.0, 2.0, 1.0]],
                        7, axis=0)
    dirs = np.tile([[np.nan, 0.0, -1.0], [0.0, 0.0, np.nan], [0.0, 0.0, 0.0],
                    [-0.0, 0.0, -0.0], [np.inf, 0.0, 0.0],
                    [0.0, 0.0, -np.inf], [np.inf, -np.inf, np.nan]], (3, 1))
    # non-finite origins with slanted and vertical directions that hit from
    # a finite origin
    origins = np.concatenate([origins, np.repeat(
        [[np.nan, 2.0, 1.0], [2.0, np.inf, 1.0], [2.0, 2.0, -np.inf],
         [-np.inf, np.nan, np.inf]], 2, axis=0)])
    dirs = np.concatenate([dirs, np.tile([[0.1, 0.2, -1.0], [0.0, 0.0, -1.0]],
                                         (4, 1))])
    for meshes in ([big], [box], [big, box], [gridded]):
        got = raycast(meshes, [build_bvh(m) for m in meshes], origins, dirs)
        assert not got.hit.any()
        np.testing.assert_array_equal(got.mesh_id, -1)
        assert not lanes
    # among good rays they change nothing
    good_o = rng.uniform([1.5, 1.5, 0.6], [2.5, 2.5, 1.0], (50, 3))
    good_d = unit(rng.uniform([-0.3, -0.3, -1.0], [0.3, 0.3, -0.5], (50, 3)))
    alone = raycast([big, box], [build_bvh(big), build_bvh(box)], good_o,
                    good_d)
    mixed = raycast([big, box], [build_bvh(big), build_bvh(box)],
                    np.concatenate([good_o, origins]),
                    np.concatenate([good_d, dirs]))
    assert alone.hit.all()
    for name in BITWISE + ("normal",):
        np.testing.assert_array_equal(getattr(mixed, name)[:50],
                                      getattr(alone, name), err_msg=name)
    assert not mixed.hit[50:].any()
