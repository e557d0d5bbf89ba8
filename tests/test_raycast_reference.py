"""Level-by-level BVH build and ray casting against the scalar reference.

``reference_raycast`` holds the earlier recursive build and per-ray stack
walk. On meshes with an identity pose the new ``raycast`` must return
bitwise the same ``hit``/``t``/``point``/``mesh_id``/``tri_id`` (the
arithmetic is the same, only batched); on posed meshes the local-frame
transform is a batched matmul, so ids must match and ``t`` agree within
1e-12 relative.
"""

import itertools

import numpy as np
import pytest

import reference_raycast as ref
from test_raycast import ground_plane, uv_sphere
from vecsim.maths import Transform, quat_from_axis_angle
from vecsim.raycast import Bvh, TriMesh, build_bvh, raycast
from vecsim.terrain import (
    HeightField,
    compose_grid,
    hf_to_mesh,
    pyramid_stairs_spec,
    random_rough_spec,
)

BITWISE = ("hit", "t", "point", "mesh_id", "tri_id")


def box_mesh(lo, hi, split=1):
    """Axis-aligned box, each face ``split`` x ``split`` quads of two
    outward-wound triangles (12 * split**2 triangles)."""
    k = split
    # the (k + 1)^3 lattice, x-major; the corners of split 1 are 0..7
    axes = [np.linspace(lo[a], hi[a], k + 1) for a in range(3)]
    lattice = np.array(list(itertools.product(range(k + 1), repeat=3)))
    v = np.column_stack([axes[a][lattice[:, a]] for a in range(3)])
    corner = lattice[lattice.max(axis=1) <= 1]
    quads = ((0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6),
             (0, 2, 6, 4), (1, 5, 7, 3))
    tris = []
    for a, b, _, d in quads:
        # sub-quad (i, j) of the face, wound like the face
        du, dv = corner[b] - corner[a], corner[d] - corner[a]
        for i, j in itertools.product(range(k), repeat=2):
            p = [((k * corner[a] + s * du + t * dv) @ [(k + 1) ** 2, k + 1, 1])
                 for s, t in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))]
            tris += [(p[0], p[1], p[2]), (p[0], p[2], p[3])]
    return TriMesh(v, np.array(tris))


def table_scene(split=1):
    """Floor, table and object box: the depth-camera scene. ``split`` > 2
    puts the boxes above ``_DENSE_MAX``, so they traverse their BVHs."""
    floor = TriMesh(np.array([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0],
                              [3.0, 3.0, 0.0], [-3.0, 3.0, 0.0]]),
                    np.array([[0, 1, 2], [0, 2, 3]]))
    table = box_mesh((0.3, -0.5, 0.05), (1.1, 0.5, 0.4), split)
    obj = box_mesh((0.56, -0.04, 0.4), (0.64, 0.04, 0.5), split)
    return [floor, table, obj]


# the camera scene with boxes that take the dense scan (12 triangles), and
# with boxes that traverse their BVHs (108)
SPLITS = (1, 3)


def small_grid():
    specs = [random_rough_spec(size=(2.0, 2.0), cell=0.1, max_height=0.1),
             pyramid_stairs_spec(size=(2.0, 2.0), cell=0.1,
                                 max_step_height=0.16, step_width=0.3,
                                 levels=3)]
    return compose_grid(specs, rows=2, rng=np.random.default_rng(4),
                        difficulty_map=lambda r, n: (r + 1) / n)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def cast_both(meshes, origins, dirs, max_range=np.inf, oracle=ref.build_bvh):
    """New build + cast against the reference walk over the trees that
    ``oracle`` builds: the reference BVH, or ``single_leaf_bvh`` for the
    exhaustive scan."""
    got = raycast(meshes, [build_bvh(m) for m in meshes], origins, dirs,
                  max_range)
    want = ref.raycast(meshes, [oracle(m) for m in meshes], origins, dirs,
                       max_range)
    return got, want


def assert_bitwise(meshes, origins, dirs, max_range=np.inf, oracle=ref.build_bvh):
    got, want = cast_both(meshes, origins, dirs, max_range, oracle)
    for name in BITWISE:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
    np.testing.assert_allclose(got.normal, want.normal, rtol=0.0, atol=1e-15)
    return got


def grid_rays(grid, n, rng, slant):
    lo = grid.mesh.vertices.min(axis=0)
    hi = grid.mesh.vertices.max(axis=0)
    origins = np.column_stack([rng.uniform(lo[0], hi[0], n),
                               rng.uniform(lo[1], hi[1], n), np.full(n, 1.0)])
    dirs = np.tile([0.0, 0.0, -1.0], (n, 1))
    dirs[:, :2] = rng.uniform(-slant, slant, (n, 2))
    return origins, unit(dirs)


@pytest.mark.parametrize("slant", [0.0, 0.4])
def test_grid_terrain_matches_reference(slant):
    grid = small_grid()
    origins, dirs = grid_rays(grid, 300, np.random.default_rng(5), slant)
    got = assert_bitwise([grid.mesh], origins, dirs)
    assert got.hit.mean() > 0.8


def single_leaf_bvh(mesh):
    """One leaf holding every triangle in id order: the reference walk over
    it is an exhaustive scan with the scalar arithmetic."""
    tri = mesh.vertices[mesh.triangles]
    return Bvh(tri.min(axis=(0, 1))[None], tri.max(axis=(0, 1))[None],
               np.array([-1]), np.array([-1]), np.array([0]),
               np.array([mesh.num_triangles]), np.arange(mesh.num_triangles))


def test_rays_through_grid_nodes_match_exhaustive_reference():
    # vertical rays through vertices and cell edges hit two to six
    # triangles at the same t, so the lowest-triangle-id rule decides. The
    # reference's depth-first walk can prune a tied triangle whose box entry
    # rounds above t; the exhaustive scan cannot, and all leaves of the
    # level-by-level walk are tested before best_t prunes anything. The
    # mesher's cell table sends these rays to the cell lookup; the same
    # triangles without it send them through the BVH.
    rng = np.random.default_rng(13)
    heights = np.round(rng.uniform(0.0, 0.2, (11, 9)), 2)
    heights[4:8, 3:6] = 0.3
    mesh = hf_to_mesh(HeightField(heights, 0.1))
    n, m = heights.shape
    gx, gy = np.meshgrid(np.arange(n) * 0.1, np.arange(m) * 0.1, indexing="ij")
    xy = np.column_stack([gx.ravel(), gy.ravel()])
    xy = np.concatenate([xy, xy[:-m] + [0.05, 0.0], xy + [0.05, 0.05]])
    origins = np.column_stack([xy, np.full(len(xy), 1.0)])
    dirs = np.tile([0.0, 0.0, -1.0], (len(xy), 1))
    want = ref.raycast([mesh], [single_leaf_bvh(mesh)], origins, dirs)
    for cast in (mesh, TriMesh(mesh.vertices, mesh.triangles)):
        got = raycast([cast], [build_bvh(cast)], origins, dirs)
        for name in BITWISE:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)


def test_tie_across_leaves_of_different_depth_matches_exhaustive():
    # nine coplanar triangles over the origin, lower ids further along +x:
    # the median split puts ids 5..8 in a leaf at depth 1 and ids 0..4 at
    # depth 2, so the winning tie (id 0) turns up a pass after the first hit
    shift = 1.0 - 0.25 * np.arange(9)
    verts = np.concatenate([[[-5.0 + x, -5.0, 0.0], [5.0 + x, -5.0, 0.0],
                             [x, 5.0, 0.0]] for x in shift])
    mesh = TriMesh(verts, np.arange(27).reshape(9, 3))
    bvh = build_bvh(mesh)
    assert sorted(bvh.count[bvh.count > 0]) == [2, 3, 4]
    rng = np.random.default_rng(15)
    origins = np.column_stack([rng.uniform(-0.5, 0.5, (50, 2)), np.ones(50)])
    dirs = np.tile([0.0, 0.0, -1.0], (50, 1))
    got = raycast([mesh], [bvh], origins, dirs)
    want = ref.raycast([mesh], [single_leaf_bvh(mesh)], origins, dirs)
    for name in BITWISE:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
    assert np.all(got.tri_id == 0)


def corner_rays(n_tris, rng):
    """A soup of ``n_tris`` random triangles and 400 rays aimed at their
    vertices from 3 units away."""
    verts = rng.uniform(-1.0, 1.0, (3 * n_tris, 3))
    mesh = TriMesh(verts, np.arange(3 * n_tris).reshape(n_tris, 3))
    targets = verts[rng.integers(0, 3 * n_tris, 400)]
    origins = targets + unit(rng.standard_normal((400, 3))) * 3.0
    return mesh, origins, unit(targets - origins)


def test_rays_aimed_at_triangle_corners_match_reference():
    # at a corner the barycentric u or v is 0 or 1 up to rounding, so the
    # 1e-12 tolerances decide whether the ray hits. A vertex also lies on
    # the faces of its BVH leaf's box, and the slab test can reject that
    # box by an ulp: both BVH walks then lose the hit. 20 triangles take
    # the dense scan, which is bitwise the exhaustive scan.
    rng = np.random.default_rng(18)
    mesh, origins, dirs = corner_rays(20, rng)
    got = assert_bitwise([mesh], origins, dirs, oracle=single_leaf_bvh)
    assert got.hit.mean() > 0.5
    # 200 triangles traverse the BVH, bitwise the reference walk
    mesh, origins, dirs = corner_rays(200, rng)
    got = assert_bitwise([mesh], origins, dirs)
    assert got.hit.mean() > 0.5


def test_table_scene_matches_reference():
    rng = np.random.default_rng(6)
    origins = rng.uniform([0.0, -0.6, 0.7], [1.4, 0.6, 1.0], (400, 3))
    dirs = unit(rng.uniform([-0.6, -0.6, -1.0], [0.6, 0.6, -0.2], (400, 3)))
    for split in SPLITS:
        got = assert_bitwise(table_scene(split), origins, dirs)
        assert set(np.unique(got.mesh_id)) >= {0, 1, 2}


def test_axis_aligned_directions_match_reference():
    # d == 0 on two axes: the slab test falls back to interval checks
    rng = np.random.default_rng(7)
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    dirs = axes[rng.integers(0, 6, 600)]
    origins = rng.uniform([-0.5, -1.0, -0.2], [1.5, 1.0, 0.9], (600, 3))
    # some rays start exactly on box faces
    origins[:50, 0] = 0.3
    origins[50:100, 2] = 0.4
    for split in SPLITS:
        got = assert_bitwise(table_scene(split), origins, dirs)
        assert got.hit.any() and not got.hit.all()
    grid = small_grid()
    g_orig, _ = grid_rays(grid, 200, rng, 0.0)
    assert_bitwise([grid.mesh], g_orig, axes[rng.integers(0, 6, 200)])


def test_mixed_parallel_and_slanted_rays_match_reference():
    rng = np.random.default_rng(8)
    dirs = unit(rng.standard_normal((400, 3)))
    dirs[::3, 0] = 0.0
    dirs[1::3, 1:] = 0.0
    dirs = unit(dirs)
    origins = rng.uniform([0.0, -0.8, 0.2], [1.4, 0.8, 1.0], (400, 3))
    for split in SPLITS:
        assert_bitwise(table_scene(split), origins, dirs)


def test_origins_inside_a_box_match_reference():
    rng = np.random.default_rng(9)
    origins = rng.uniform([0.35, -0.45, 0.1], [1.05, 0.45, 0.35], (300, 3))
    dirs = unit(rng.standard_normal((300, 3)))
    for split in SPLITS:
        got = assert_bitwise(table_scene(split), origins, dirs)
        # every ray leaves the closed table box through one of its faces
        assert np.all(got.mesh_id[got.hit] >= 1)
        assert got.hit.all()


@pytest.mark.parametrize("max_range", [0.0, 0.35, 0.8, 5.0])
def test_max_range_cutoffs_match_reference(max_range):
    rng = np.random.default_rng(10)
    origins = rng.uniform([0.0, -0.6, 0.6], [1.4, 0.6, 0.9], (300, 3))
    dirs = unit(rng.uniform([-0.3, -0.3, -1.0], [0.3, 0.3, -0.5], (300, 3)))
    for split in SPLITS:
        got = assert_bitwise(table_scene(split), origins, dirs, max_range)
        assert np.all(got.t[got.hit] <= max_range)


def test_max_range_inside_a_box_matches_reference():
    # the box entry is at t = 0, so only the triangle test cuts at max_range
    rng = np.random.default_rng(16)
    origins = rng.uniform([0.35, -0.45, 0.1], [1.05, 0.45, 0.35], (300, 3))
    dirs = unit(rng.standard_normal((300, 3)))
    for split in SPLITS:
        got = assert_bitwise(table_scene(split), origins, dirs, max_range=0.1)
        assert got.hit.any() and not got.hit.all()
        assert np.all(got.t[got.hit] <= 0.1)


def test_tiny_mesh_matches_reference():
    # triangles a few 1e-5 across: det is near 1e-10, just above the
    # 1e-12 parallel cut-off
    sphere = uv_sphere(9, 12, radius=3e-5)
    rng = np.random.default_rng(17)
    origins = rng.uniform(-6e-5, 6e-5, (300, 3))
    dirs = unit(rng.standard_normal((300, 3)))
    got = assert_bitwise([sphere], origins, dirs)
    assert got.hit.mean() > 0.1


def test_empty_ray_set():
    got = assert_bitwise(table_scene(), np.zeros((0, 3)), np.zeros((0, 3)))
    assert got.t.shape == (0,) and got.point.shape == (0, 3)


def test_coincident_planes_tie_break_matches_reference():
    # three identical planes and duplicated triangles inside one mesh; the
    # 5 x 5-cell plane puts the single (50 triangles) and the duplicated
    # mesh above _DENSE_MAX
    cells = hf_to_mesh(HeightField(np.zeros((6, 6)), 2.0, origin_xy=(-5.0, -5.0)))
    rng = np.random.default_rng(11)
    origins = np.column_stack([rng.uniform(-4, 4, (200, 2)), np.ones(200)])
    dirs = unit(np.column_stack([rng.uniform(-0.2, 0.2, (200, 2)),
                                 -np.ones(200)]))
    for plane in (ground_plane(), TriMesh(cells.vertices, cells.triangles)):
        dup = TriMesh(plane.vertices, np.concatenate([plane.triangles,
                                                      plane.triangles]))
        got = assert_bitwise([dup, plane, dup], origins, dirs)
        assert np.all(got.mesh_id == 0)
        assert np.all(got.tri_id < plane.num_triangles)


def test_posed_spheres_match_reference():
    rng = np.random.default_rng(12)
    meshes = []
    for _ in range(3):
        mesh = uv_sphere(9, 12, rng=rng)
        axis = unit(rng.standard_normal(3))
        mesh.pose = Transform(rng.uniform(-1, 1, 3),
                              quat_from_axis_angle(axis, rng.uniform(0, 6)))
        meshes.append(mesh)
    origins = rng.uniform(-3, 3, (500, 3))
    dirs = unit(rng.standard_normal((500, 3)))
    got, want = cast_both(meshes, origins, dirs)
    np.testing.assert_array_equal(got.hit, want.hit)
    np.testing.assert_array_equal(got.mesh_id, want.mesh_id)
    np.testing.assert_array_equal(got.tri_id, want.tri_id)
    hit = want.hit
    np.testing.assert_allclose(got.t[hit], want.t[hit], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.normal, want.normal, rtol=0.0, atol=1e-12)
    assert hit.mean() > 0.1


def short_leaf_meshes():
    """An 80-triangle terrain without its cell table (leaves of 2 and 3
    triangles) and a 108-triangle box (leaves of 3 and 4)."""
    rng = np.random.default_rng(30)
    terrain = hf_to_mesh(HeightField(rng.uniform(0.0, 0.3, (6, 9)), 0.25))
    return [(TriMesh(terrain.vertices, terrain.triangles), {2, 3}),
            (box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), split=3), {3, 4})]


@pytest.mark.parametrize("mesh, sizes", short_leaf_meshes(),
                         ids=["80_tris", "108_tris"])
def test_leaves_below_leaf_size_match_reference(mesh, sizes):
    # the cast pads a short leaf to LEAF_SIZE by repeating its last triangle
    bvh = build_bvh(mesh)
    assert set(bvh.count[bvh.count > 0].tolist()) == sizes
    rng = np.random.default_rng(31)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    # from above, aimed at random points inside the mesh's box
    n = 500
    origins = rng.uniform(lo - 0.5, hi + 0.5, (n, 3))
    origins[:, 2] = hi[2] + 1.0
    targets = rng.uniform(lo, hi, (n, 3))
    got = assert_bitwise([mesh], origins, unit(targets - origins))
    assert got.hit.mean() > 0.8


def leaf_triangles(bvh, node):
    if bvh.count[node] > 0:
        return list(bvh.tri_order[bvh.start[node]:bvh.start[node] + bvh.count[node]])
    return leaf_triangles(bvh, bvh.left[node]) + leaf_triangles(bvh, bvh.right[node])


@pytest.mark.parametrize("mesh", [small_grid().mesh, uv_sphere(11, 14),
                                  box_mesh((0, 0, 0), (1, 2, 3))],
                         ids=["grid", "sphere", "box"])
def test_build_is_a_median_split_like_the_reference(mesh):
    new, old = build_bvh(mesh), ref.build_bvh(mesh)
    assert new.num_nodes == old.num_nodes
    np.testing.assert_array_equal(np.sort(new.count[new.count > 0]),
                                  np.sort(old.count[old.count > 0]))
    np.testing.assert_array_equal(new.bounds_min[0], old.bounds_min[0])
    np.testing.assert_array_equal(new.bounds_max[0], old.bounds_max[0])
    # every inner node splits its triangles at n // 2 along the widest
    # centroid axis; the left half holds the smaller centroids
    centroid = mesh.vertices[mesh.triangles].mean(axis=1)
    for node in range(0, new.num_nodes, max(1, new.num_nodes // 300)):
        if new.count[node] > 0:
            continue
        left = leaf_triangles(new, new.left[node])
        right = leaf_triangles(new, new.right[node])
        cent = centroid[left + right]
        axis = np.argmax(cent.max(axis=0) - cent.min(axis=0))
        assert len(left) == (len(left) + len(right)) // 2
        assert centroid[left, axis].max() <= centroid[right, axis].min()
