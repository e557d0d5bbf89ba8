"""Vertical rays on heightfield meshes: candidates from the cell table.

``hf_to_mesh`` records its grid on the mesh, and ``raycast`` takes the
candidates of a ray whose mesh-local direction is vertical from the cell it
lies in, or from the 2 x 2 cells nearest it near a cell edge or the border,
instead of from the BVH; such a ray outside the grid's closed xy bounds
misses, as the BVH's root box makes it. The oracle is the exhaustive scan: the
scalar reference walk over a single leaf that holds every triangle. Hits
must match it bitwise wherever the local-frame transform is exact.
"""

import re

import numpy as np
import pytest

import reference_raycast as ref
from conftest import quat_from_axis_angle
from test_raycast_reference import BITWISE, single_leaf_bvh, unit
from vecsim import raycast as rc
from vecsim.maths import Transform, quat_rotate
from vecsim.raycast import GridCells, TriMesh, build_bvh, raycast
from vecsim.terrain import (
    HeightField,
    compose_grid,
    hf_to_mesh,
    pyramid_stairs_spec,
    random_rough_spec,
)

DOWN = np.array([0.0, 0.0, -1.0])
FIELDS = BITWISE + ("normal",)


def small_grid():
    """Rough and stair sub-terrains, 8 x 8 cells of 0.2 m in all: small
    enough for the exhaustive scalar scan."""
    specs = [random_rough_spec(size=(0.8, 0.8), cell=0.2, max_height=0.1),
             pyramid_stairs_spec(size=(0.8, 0.8), cell=0.2,
                                 max_step_height=0.16, step_width=0.2,
                                 levels=2)]
    return compose_grid(specs, rows=2, rng=np.random.default_rng(4),
                        difficulty_map=lambda r, n: (r + 1) / n)


def assert_matches_exhaustive(mesh, origins, dirs, max_range=np.inf,
                              oracle=single_leaf_bvh):
    got = raycast([mesh], [build_bvh(mesh)], origins, dirs, max_range)
    want = ref.raycast([mesh], [oracle(mesh)], origins, dirs, max_range)
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
    return got


def xy_bounds(mesh):
    return mesh.vertices[:, :2].min(axis=0), mesh.vertices[:, :2].max(axis=0)


def down_rays(xy, z=1.0):
    origins = np.column_stack([xy, np.full(len(xy), z)])
    return origins, np.tile(DOWN, (len(xy), 1))


def test_hf_to_mesh_records_its_cells():
    hf = HeightField(np.zeros((4, 3)), 0.5, origin_xy=(1.0, -2.0))
    mesh = hf_to_mesh(hf)
    assert mesh.grid.tris.shape == (3, 2, 2)
    assert mesh.grid.origin_xy == (1.0, -2.0) and mesh.grid.cell_size == 0.5
    # cell (2, 1) spans [2, 2.5] x [-1.5, -1]
    xy = mesh.vertices[mesh.triangles[mesh.grid.tris[2, 1]]][..., :2]
    assert xy[..., 0].min() == 2.0 and xy[..., 0].max() == 2.5
    assert xy[..., 1].min() == -1.5 and xy[..., 1].max() == -1.0


def test_random_xy_match_exhaustive():
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(20)
    got = assert_matches_exhaustive(mesh, *down_rays(rng.uniform(lo, hi, (300, 2))))
    assert got.hit.all()


def test_nodes_edges_and_diagonals_match_exhaustive():
    # vertical rays through nodes, along cell edges and on the split
    # diagonal tie between two to six triangles of neighbouring cells, so
    # the lowest-triangle-id rule decides across cells
    grid = small_grid()
    n, m = grid.ground.heights.shape
    cell = grid.ground.cell_size
    rng = np.random.default_rng(21)
    x0 = rng.integers(0, n - 1, 60) * cell
    y0 = rng.integers(0, m - 1, 60) * cell
    t = rng.integers(0, 8, 60) / 8.0 * cell
    xy = np.concatenate([
        grid.mesh.vertices[:, :2],
        np.column_stack([x0 + t, y0]),
        np.column_stack([x0, y0 + t]),
        np.column_stack([x0 + t, y0 + t]),
    ])
    got = assert_matches_exhaustive(grid.mesh, *down_rays(xy))
    assert got.hit.all()


def test_points_outside_the_grid_match_exhaustive():
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(22)
    xy = rng.uniform(2 * lo - hi, 2 * hi - lo, (150, 2))
    # on the outer border, just outside it and far away
    border = np.array([lo, hi, [lo[0], 0.5], [hi[0], 0.5], [0.5, lo[1]],
                       [0.5, hi[1]]])
    beyond = np.array([[lo[0] - 1e-9, 0.5], [hi[0] + 1e-9, 0.5],
                       [-1e300, 0.5], [1e300, 1e300]])
    got = assert_matches_exhaustive(
        mesh, *down_rays(np.concatenate([xy, border, beyond])))
    assert got.hit[:150].any() and not got.hit[:150].all()
    assert got.hit[150:156].all() and not got.hit[156:].any()


def test_origins_below_surface_and_beyond_range_match_exhaustive():
    grid = small_grid()
    lo, hi = xy_bounds(grid.mesh)
    rng = np.random.default_rng(23)
    xy = rng.uniform(lo, hi, (250, 2))
    origins, dirs = down_rays(xy)
    surface = grid.ground.surface_height(xy[:, 0], xy[:, 1])
    # below, on and above the surface, within and beyond max_range
    origins[:, 2] = surface + rng.choice([-0.2, -1e-3, 0.0, 0.05, 0.3], 250)
    got = assert_matches_exhaustive(grid.mesh, origins, dirs, max_range=0.1)
    assert got.hit.any() and not got.hit.all()
    assert np.all(got.t[got.hit] <= 0.1)


def test_upward_rays_match_exhaustive():
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(24)
    origins, _ = down_rays(rng.uniform(lo, hi, (200, 2)))
    origins[:, 2] = rng.choice([-1.0, 1.0], 200)
    got = assert_matches_exhaustive(mesh, origins, np.tile(-DOWN, (200, 1)))
    np.testing.assert_array_equal(got.hit, origins[:, 2] < 0.0)


def test_mixed_vertical_and_slanted_rays_match_exhaustive():
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(25)
    origins, dirs = down_rays(rng.uniform(lo, hi, (300, 2)))
    dirs[1::2, :2] = rng.uniform(-0.4, 0.4, (150, 2))
    dirs[2::4, 0] = 0.0
    got = assert_matches_exhaustive(mesh, origins, unit(dirs))
    assert got.hit.mean() > 0.8


def test_half_turn_about_z_takes_the_grid(bvh_rays):
    # a half turn about z and a binary-fraction shift move points exactly,
    # so the oracle's per-ray transform matches the batched one bitwise
    mesh = small_grid().mesh
    shift = np.array([0.25, -0.5, 0.125])
    mesh.pose = Transform(shift, np.array([0.0, 0.0, 0.0, 1.0]))
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(26)
    origins, dirs = down_rays(rng.uniform(shift[:2] - hi, shift[:2] - lo,
                                          (250, 2)))
    got = assert_matches_exhaustive(mesh, origins, dirs)
    assert got.hit.all()
    assert not bvh_rays


@pytest.mark.parametrize("axis, angle, grid_path", [
    ((0.0, 0.0, 1.0), 0.3, True),
    ((1.0, 0.4, 0.0), 0.05, False),
], ids=["z-rotation", "tilt"])
def test_posed_mesh_matches_exhaustive(bvh_rays, axis, angle, grid_path):
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(27)
    mesh.pose = Transform(np.array([0.03, -0.02, 0.01]),
                          quat_from_axis_angle(unit(np.array(axis)), angle))
    # origins above interior points of the posed mesh
    local, dirs = down_rays(rng.uniform(lo + 0.2, hi - 0.2, (200, 2)))
    origins = quat_rotate(mesh.pose.quat, local) + mesh.pose.pos
    got = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    want = ref.raycast([mesh], [single_leaf_bvh(mesh)], origins, dirs)
    # a generic rotation rounds differently per ray and batched, as for
    # posed meshes on the BVH path: ids exactly, distances to 1e-12
    assert want.hit.all()
    np.testing.assert_array_equal(got.hit, want.hit)
    np.testing.assert_array_equal(got.tri_id, want.tri_id)
    np.testing.assert_allclose(got.t, want.t, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.normal, want.normal, rtol=0.0, atol=1e-12)
    # the tilted mesh sees a slanted local direction and takes the BVH
    if grid_path:
        assert not bvh_rays
    else:
        np.testing.assert_array_equal(np.concatenate(bvh_rays), np.arange(200))


def test_vertical_rays_do_no_bvh_traversal(bvh_rays):
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    rng = np.random.default_rng(28)
    origins, dirs = down_rays(rng.uniform(lo, hi, (300, 2)))
    bvh = build_bvh(mesh)
    raycast([mesh], [bvh], origins, dirs)
    assert not bvh_rays
    dirs[::3, 0] = 0.1
    dirs[1::3, 1] = -1e-300
    raycast([mesh], [bvh], origins, unit(dirs))
    np.testing.assert_array_equal(bvh_rays[0], np.sort(np.r_[0:300:3, 1:300:3]))
    # without a cell table every ray traverses the BVH
    bvh_rays.clear()
    plain = TriMesh(mesh.vertices, mesh.triangles)
    raycast([plain], [bvh], origins, dirs)
    np.testing.assert_array_equal(bvh_rays[0], np.arange(300))


def margin_rays(mesh, rng):
    """Local xy at offsets of 0, 1 ulp, 1e-12, m/2, m, 2m and half a cell
    (m the cell table's margin) either side of cell edges, nodes and the
    split diagonal, and outside the grid's border."""
    g = mesh.grid
    ci, cj, _ = g.tris.shape
    cell = g.cell_size
    edge = [np.arange(c + 1) * cell + g.origin_xy[a]
            for a, c in enumerate((ci, cj))]
    m = rc._MARGIN
    xy = []
    for step in (None, 1e-12, m / 2, m, 2 * m, 0.5):
        for sign in (-1.0, 1.0):
            def off(v):
                if step is None:
                    return np.nextafter(v, sign * np.inf)
                return v + sign * step * cell
            i = rng.integers(0, ci + 1, 6)
            j = rng.integers(0, cj + 1, 6)
            inside = [rng.uniform(edge[0][0], edge[0][-1], 6),
                      rng.uniform(edge[1][0], edge[1][-1], 6)]
            xy += [np.column_stack([off(edge[0][i]), inside[1]]),
                   np.column_stack([inside[0], off(edge[1][j])]),
                   np.column_stack([off(edge[0][i]), off(edge[1][j])]),
                   np.column_stack([edge[0][i], edge[1][j]])]
            # across the diagonal from node (i, j) to (i + 1, j + 1)
            t = rng.uniform(0.0, cell, 6)
            i, j = i % ci, j % cj
            xy.append(np.column_stack([off(edge[0][i] + t), edge[1][j] + t]))
            # beyond each side of the border
            xy += [np.column_stack([off(np.full(6, e)), inside[1]])
                   for e in (edge[0][0], edge[0][-1])]
            xy += [np.column_stack([inside[0], off(np.full(6, e))])
                   for e in (edge[1][0], edge[1][-1])]
    return np.concatenate(xy)


@pytest.mark.parametrize("posed", [False, True], ids=["plain", "yawed"])
def test_rays_near_cell_edges_match_exhaustive(bvh_rays, posed):
    # a vertical ray more than the margin inside its cell tests only that
    # cell; every other one tests the 2 x 2 cells around it, and both must
    # give the exhaustive scan's hits bit for bit
    mesh = small_grid().mesh
    xy = margin_rays(mesh, np.random.default_rng(29))
    origins, dirs = down_rays(xy)
    if posed:
        # a quarter turn about z keeps local directions vertical
        mesh.pose = Transform(np.array([0.25, -0.5, 0.125]),
                              quat_from_axis_angle(np.array([0.0, 0.0, 1.0]),
                                                   np.pi / 2))
        origins = quat_rotate(mesh.pose.quat, origins) + mesh.pose.pos
    got = assert_matches_exhaustive(mesh, origins, dirs)
    lo, hi = xy_bounds(mesh)
    # rays in the closed xy bounds hit; the pose's rounding can move a ray
    # on the border an ulp out of them
    pad = 1e-12 if posed else 0.0
    on = np.all((xy >= lo + pad) & (xy <= hi - pad), axis=1)
    np.testing.assert_array_equal(got.hit[on], True)
    assert got.hit.sum() < len(xy)
    assert not bvh_rays


@pytest.mark.parametrize("posed", [False, True], ids=["plain", "half_turn"])
def test_vertical_rays_just_outside_the_grid_miss_as_without_the_table(posed):
    # within the Moller-Trumbore tolerance of the border the cell table
    # could admit a hit; the BVH rejects these rays at the root box, and
    # the table takes only rays inside its closed xy bounds
    mesh = small_grid().mesh
    lo, hi = xy_bounds(mesh)
    local = np.array([[-1e-13, 0.5], [-5e-324, 0.5], [hi[0] + 1e-13, 0.5]])
    assert lo[0] == 0.0 and (local[:, 0] < lo[0]).sum() == 2
    origins, dirs = down_rays(local)
    plain = TriMesh(mesh.vertices, mesh.triangles)
    if posed:
        # a half turn about z negates x and y exactly
        plain.pose = mesh.pose = Transform(np.zeros(3),
                                           np.array([0.0, 0.0, 0.0, 1.0]))
        origins = quat_rotate(mesh.pose.quat, origins)
        np.testing.assert_array_equal(origins[:, :2], -local)
    got = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    want = raycast([plain], [build_bvh(plain)], origins, dirs)
    for name in rc.RayHits.__dataclass_fields__:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert not got.hit.any()


def test_non_finite_origins_miss():
    mesh = small_grid().mesh
    origins, dirs = down_rays(np.full((6, 2), 0.5))
    origins[0, 0] = np.nan
    origins[1, 1] = np.inf
    origins[2, 0] = -np.inf
    origins[3, 2] = np.nan
    origins[4, 2] = np.inf
    got = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    # inf * 0 in the reference's local-frame transform raises the invalid
    # flag; the vectorised cast runs without warnings
    with np.errstate(invalid="ignore"):
        want = ref.raycast([mesh], [single_leaf_bvh(mesh)], origins, dirs,
                           np.inf)
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
    np.testing.assert_array_equal(got.hit, [False] * 5 + [True])


VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
# two triangles over the unit square, and one over [1, 2] x [0, 1]
TRIS = np.array([[0, 1, 3], [0, 3, 2], [1, 4, 3]])


def test_grid_cells_accepts_a_valid_table():
    mesh = TriMesh(VERTS, TRIS[:2], grid=GridCells((0.0, 0.0), 1.0, [[[1, 0]]]))
    assert mesh.grid.tris.dtype == np.int64


@pytest.mark.parametrize("count, tris, match", [
    (2, [[[0, 0]]], "exactly once"),
    (2, [[[0]]], "exactly once"),
    (2, [[[0, 2]]], "exactly once"),
    (3, [[[0, 1, 2]]], r"triangle 2 lies outside grid cell \(0, 0\)"),
    (2, [[0, 1]], r"\(I, J, k\)"),
], ids=["repeat", "missing", "out-of-range", "outside-cell", "2d"])
def test_grid_cells_rejects_a_bad_table(count, tris, match):
    with pytest.raises(ValueError, match=match):
        TriMesh(VERTS, TRIS[:count], grid=GridCells((0.0, 0.0), 1.0, tris))


def test_grid_cells_rejects_a_shifted_origin_or_a_bad_cell():
    # the same cell a hair to the right no longer holds node x = 0
    with pytest.raises(ValueError, match="triangle 0 lies outside grid cell"):
        TriMesh(VERTS, TRIS[:2], grid=GridCells((1e-12, 0.0), 1.0, [[[0, 1]]]))
    for origin, cell, message in (
            ((0.0, 0.0), 0.0, "grid cell_size must be > 0 and finite, got 0.0"),
            ((0.0, 0.0), np.inf, "grid cell_size must be > 0 and finite, got inf"),
            ((np.nan, 0.0), 1.0, "grid origin_xy must be finite, got nan")):
        with pytest.raises(ValueError, match=re.escape(message)):
            TriMesh(VERTS, TRIS[:2], grid=GridCells(origin, cell, [[[0, 1]]]))
