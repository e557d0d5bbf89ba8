import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.raycast import build_bvh, raycast
from vecsim.terrain import (
    CurriculumState,
    HeightField,
    TerrainTypeSpec,
    compose_grid,
    curriculum_update,
    flat_spec,
    hf_pyramid_stairs,
    hf_random_uniform,
    hf_to_mesh,
    pyramid_stairs_spec,
    random_rough_spec,
)


# ---------------------------------------------------------------- generators


def test_random_uniform_zero_height_is_flat():
    hf = hf_random_uniform((2.0, 2.0), 0.5, 0.0, 0.05, np.random.default_rng(0))
    np.testing.assert_array_equal(hf.heights, 0.0)


def test_random_uniform_quantized_range():
    hf = hf_random_uniform((4.0, 4.0), 0.1, 0.1, 0.05, np.random.default_rng(1))
    allowed = {-0.1, -0.05, 0.0, 0.05, 0.1}
    assert set(np.round(hf.heights, 10).ravel()) <= allowed
    assert hf.heights.min() >= -0.1 and hf.heights.max() <= 0.1


def test_random_uniform_seed_determinism():
    a = hf_random_uniform((3.0, 2.0), 0.1, 0.2, 0.01, np.random.default_rng(7))
    b = hf_random_uniform((3.0, 2.0), 0.1, 0.2, 0.01, np.random.default_rng(7))
    np.testing.assert_array_equal(a.heights, b.heights)
    c = hf_random_uniform((3.0, 2.0), 0.1, 0.2, 0.01, np.random.default_rng(8))
    assert not np.array_equal(a.heights, c.heights)


def test_pyramid_stairs_center_height():
    hf = hf_pyramid_stairs((4.0, 4.0), 0.1, step_height=0.1, step_width=0.4,
                           levels=3)
    n, m = hf.heights.shape
    np.testing.assert_allclose(hf.heights[n // 2, m // 2], 0.3)
    np.testing.assert_allclose(hf.heights[0, :], 0.0)  # border at zero


def test_pyramid_stairs_down_mirrors_up():
    up = hf_pyramid_stairs((4.0, 4.0), 0.1, 0.1, 0.4, 3, "up")
    down = hf_pyramid_stairs((4.0, 4.0), 0.1, 0.1, 0.4, 3, "down")
    np.testing.assert_allclose(down.heights, -up.heights)


def test_pyramid_stairs_zero_levels_flat():
    hf = hf_pyramid_stairs((4.0, 4.0), 0.1, 0.1, 0.4, 0)
    np.testing.assert_array_equal(hf.heights, 0.0)


def test_pyramid_stairs_rejects_oversized_steps():
    with pytest.raises(ValueError):
        hf_pyramid_stairs((2.0, 2.0), 0.1, 0.1, 0.4, 3)  # 3*2*0.4 > 2.0


# ------------------------------------------------------------------- meshing


def test_mesh_counts_small_fields():
    hf = HeightField(np.zeros((2, 2)), 1.0)
    mesh = hf_to_mesh(hf)
    assert len(mesh.vertices) == 4 and mesh.num_triangles == 2
    hf = HeightField(np.zeros((3, 3)), 1.0)
    mesh = hf_to_mesh(hf)
    assert len(mesh.vertices) == 9 and mesh.num_triangles == 8


def test_mesh_counts_closed_form_random_sizes():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(2, 40))
        hf = HeightField(rng.uniform(-1, 1, (n, m)), 0.25)
        mesh = hf_to_mesh(hf)
        assert len(mesh.vertices) == n * m
        assert mesh.num_triangles == 2 * (n - 1) * (m - 1)
        np.testing.assert_array_equal(
            mesh.vertices[:, 2], hf.heights.ravel())


def test_mesh_winding_faces_up():
    hf = HeightField(np.zeros((3, 4)), 0.5)
    mesh = hf_to_mesh(hf)
    tri = mesh.vertices[mesh.triangles]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    assert np.all(normals[:, 2] > 0)


def test_raycast_at_grid_nodes_recovers_heights():
    rng = np.random.default_rng(3)
    hf = HeightField(rng.uniform(-0.3, 0.3, (12, 9)), 0.2)
    mesh = hf_to_mesh(hf)
    bvh = build_bvh(mesh)
    n, m = hf.heights.shape
    gx, gy = np.meshgrid(np.arange(n) * 0.2, np.arange(m) * 0.2, indexing="ij")
    origins = np.column_stack([gx.ravel(), gy.ravel(), np.full(n * m, 5.0)])
    dirs = np.tile([0.0, 0, -1.0], (n * m, 1))
    hits = raycast([mesh], [bvh], origins, dirs)
    assert hits.hit.all()
    got_height = 5.0 - hits.t
    np.testing.assert_allclose(got_height, hf.heights.ravel(), atol=1e-9)


# ---------------------------------------------------------------------- grid


def test_vertical_scan_hits_surface_height_on_compose_grid():
    # the height-scan oracle: a vertical ray lands on the heightfield
    # interpolation of the same grid, on rough cells, stair risers and treads
    specs = [random_rough_spec(size=(2.0, 2.0), cell=0.1, max_height=0.1),
             pyramid_stairs_spec(size=(2.0, 2.0), cell=0.1,
                                 max_step_height=0.16, step_width=0.3,
                                 levels=3)]
    grid = compose_grid(specs, rows=2, border=0.2, rng=np.random.default_rng(2),
                        difficulty_map=lambda r, n: (r + 1) / n)
    lo = grid.mesh.vertices.min(axis=0)
    hi = grid.mesh.vertices.max(axis=0)
    rng = np.random.default_rng(3)
    xy = rng.uniform(lo[:2], hi[:2], (2000, 2))
    origins = np.column_stack([xy, np.full(len(xy), 1.0)])
    dirs = np.tile([0.0, 0.0, -1.0], (len(xy), 1))
    hits = raycast([grid.mesh], [build_bvh(grid.mesh)], origins, dirs)
    assert hits.hit.all()
    surface = grid.ground.surface_height(xy[:, 0], xy[:, 1])
    np.testing.assert_allclose(hits.point[:, 2], surface, rtol=0.0, atol=1e-12)



def test_surface_height_matches_vertical_rays_at_the_edges():
    # points on and within 1e-6 cell of the far edges used to clip to
    # n - 1.000001 cells and read up to 2e-7 m off the mesh
    rng = np.random.default_rng(9)
    hf = HeightField(rng.uniform(-0.1, 0.1, (41, 41)), 0.1)
    mesh = hf_to_mesh(hf)
    hi = mesh.vertices[:, 0].max()
    near = [hi, hi - 1e-9, hi - 1e-7, hi - 1e-6, hi - 0.05, 0.0, 1e-9, 1e-7]
    xy = np.array([(a, b) for a in near for b in (2.05, 0.0, hi - 1e-9, hi)]
                  + [(b, a) for a in near for b in (2.05, 0.0, hi - 1e-9, hi)])
    origins = np.column_stack([xy, np.ones(len(xy))])
    dirs = np.tile([0.0, 0.0, -1.0], (len(xy), 1))
    hits = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    assert hits.hit.all()
    surface = hf.surface_height(xy[:, 0], xy[:, 1])
    np.testing.assert_allclose(hits.point[:, 2], surface, rtol=0.0, atol=1e-12)


def test_surface_height_of_a_nan_point_is_nan():
    # heights 3 i + j lie on one plane, so any point reads 3 fx + fy
    hf = HeightField(np.add.outer(3.0 * np.arange(3), np.arange(3)), 0.5)
    h = hf.surface_height([np.nan, 0.2], [0.1, 0.2])
    assert np.isnan(h[0])
    assert h[1] == pytest.approx(3 * 0.4 + 0.4, abs=1e-15)
    assert h[1] == hf.surface_height(0.2, 0.2)[0]
    assert np.isnan(hf.surface_height(0.2, np.nan)).all()


def test_compose_single_cell():
    grid = compose_grid([flat_spec(size=(2.0, 2.0), cell=0.5)], rows=1)
    assert grid.rows == 1 and grid.cols == 1
    np.testing.assert_allclose(grid.origins[0, 0], [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(grid.ground.heights, np.zeros((5, 5)))
    assert grid.ground.cell_size == 0.5
    assert grid.mesh.num_triangles == 2 * 4 * 4


def test_compose_linear_difficulty_rows():
    spec = pyramid_stairs_spec(size=(4.0, 4.0), cell=0.1, max_step_height=0.2,
                               step_width=0.4, levels=1)
    grid = compose_grid([spec], rows=4, rng=np.random.default_rng(0))
    # row r uses step height 0.2 * r/3: center heights 0, 0.0667, 0.1333, 0.2
    centers = [grid.origins[r, 0, 2] for r in range(4)]
    np.testing.assert_allclose(centers, [0.0, 0.2 / 3, 0.4 / 3, 0.2], atol=1e-12)


def test_stairs_spec_checks_every_nonzero_step_height():
    # a negative height used to give flat ground without a word
    rng = np.random.default_rng(0)
    for bad in (-0.1, np.nan, np.inf):
        spec = pyramid_stairs_spec(size=(2.0, 2.0), max_step_height=bad,
                                   step_width=0.2, levels=1)
        with pytest.raises(ValueError, match=re.escape(
                f"step_height must be > 0 and finite, got {bad}")):
            spec.make(1.0, rng)
    flat = pyramid_stairs_spec(size=(2.0, 2.0)).make(0.0, rng)
    np.testing.assert_array_equal(flat.heights, 0.0)


def test_compose_origin_on_surface_with_odd_cell_count():
    # 21 cells per side: the sub-terrain centre is the middle of cell
    # (10, 10), on its diagonal, where the surface is (h[10, 10] + h[11, 11]) / 2
    spec = random_rough_spec(size=(2.1, 2.1), cell=0.1, max_height=0.1)
    grid = compose_grid([spec], rows=2, rng=np.random.default_rng(0))
    rng = np.random.default_rng(0)
    fields = [spec.make(r, rng).heights for r in range(2)]
    x, y, z = np.moveaxis(grid.origins[:, 0], -1, 0)
    np.testing.assert_allclose(x, [1.05, 3.15], atol=1e-12)
    np.testing.assert_allclose(y, [1.05, 1.05], atol=1e-12)
    np.testing.assert_allclose(z, [(h[10, 10] + h[11, 11]) / 2 for h in fields],
                               atol=1e-12)
    assert z[1] != fields[1][10, 10]
    np.testing.assert_array_equal(z, grid.ground.surface_height(x, y))


def test_compose_cells_disjoint_in_xy():
    # 0.25 m cells keep every offset and origin exact in binary; the 0.6 m
    # border snaps to 2 cells (0.5 m)
    specs = [random_rough_spec(size=(2.0, 2.0), cell=0.25),
             pyramid_stairs_spec(size=(2.0, 2.0), cell=0.25, step_width=0.25,
                                 levels=2)]
    rows, cols, border_cells = 3, 2, 2
    grid = compose_grid(specs, rows=rows, border=0.6, rng=np.random.default_rng(1))
    # the generator draws compose_grid makes, in its row-major order
    rng = np.random.default_rng(1)
    fields = [[spec.make(r / (rows - 1), rng) for spec in specs]
              for r in range(rows)]
    n, m = fields[0][0].heights.shape
    assert grid.ground.heights.shape == (rows * (n - 1) + (rows + 1) * border_cells + 1,
                                         cols * (m - 1) + (cols + 1) * border_cells + 1)
    covered = np.zeros(grid.ground.heights.shape, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            i0 = border_cells + r * (n - 1 + border_cells)
            j0 = border_cells + c * (m - 1 + border_cells)
            block = (slice(i0, i0 + n), slice(j0, j0 + m))
            np.testing.assert_array_equal(grid.ground.heights[block],
                                          fields[r][c].heights)
            assert not covered[block].any()
            covered[block] = True
    np.testing.assert_array_equal(grid.ground.heights[~covered], 0.0)
    # adjacent origins: sub-terrain size (2 m) + snapped border (0.5 m) apart
    np.testing.assert_array_equal(np.diff(grid.origins[..., 0], axis=0), 2.5)
    np.testing.assert_array_equal(np.diff(grid.origins[..., 1], axis=1), 2.5)


def test_compose_origin_lifted_to_surface():
    spec = pyramid_stairs_spec(size=(4.0, 4.0), cell=0.1, max_step_height=0.2,
                               step_width=0.4, levels=2)
    grid = compose_grid([spec], rows=2, rng=np.random.default_rng(2))
    # top difficulty row: center reaches 2 * 0.2 = 0.4
    np.testing.assert_allclose(grid.origins[1, 0, 2], 0.4, atol=1e-12)
    # no border: row r's block spans x in [4r, 4r + 4], y in [0, 4]
    for r in range(2):
        x, y, z = grid.origins[r, 0]
        assert 4.0 * r < x < 4.0 * (r + 1) and 0.0 < y < 4.0
        np.testing.assert_allclose(grid.ground.surface_height(x, y), z, atol=1e-12)


def test_compose_ground_matches_mesh():
    specs = [random_rough_spec(size=(2.0, 2.0), cell=0.1, max_height=0.1)]
    grid = compose_grid(specs, rows=2, border=0.2, rng=np.random.default_rng(3))
    bvh = build_bvh(grid.mesh)
    rng = np.random.default_rng(4)
    n, m = grid.ground.heights.shape
    xs = rng.uniform(0, (n - 1) * 0.1, 50)
    ys = rng.uniform(0, (m - 1) * 0.1, 50)
    origins = np.column_stack([xs, ys, np.full(50, 3.0)])
    dirs = np.tile([0.0, 0, -1.0], (50, 1))
    hits = raycast([grid.mesh], [bvh], origins, dirs)
    mesh_height = 3.0 - hits.t
    query_height = grid.ground.surface_height(xs, ys)
    np.testing.assert_allclose(mesh_height, query_height, atol=1e-9)


# ---------------------------------------------------------------- curriculum


def test_curriculum_promote_demote():
    rng = np.random.default_rng(5)
    state = CurriculumState(np.array([0, 0, 2]), np.array([0, 0, 0]))
    scores = np.array([1.0, -1.0, 0.5])
    curriculum_update(state, scores, promote_threshold=0.9,
                      demote_threshold=0.1, rows=4, cols=2,
                      env_ids=np.arange(3), rng=rng)
    assert state.levels[0] == 1      # promoted
    assert state.levels[1] == 0      # demote clamps at zero
    assert state.levels[2] == 2      # mid-band unchanged


def test_curriculum_top_row_rerandomizes_column():
    rng = np.random.default_rng(6)
    state = CurriculumState(np.array([3] * 64), np.zeros(64, dtype=np.int64))
    curriculum_update(state, np.ones(64), 0.9, 0.1, rows=4, cols=5,
                      env_ids=np.arange(64), rng=rng)
    assert np.all(state.levels == 3)
    assert len(set(state.columns.tolist())) > 1  # columns re-randomized


def test_curriculum_only_touches_reset_envs():
    rng = np.random.default_rng(7)
    state = CurriculumState(np.array([1, 1]), np.array([0, 0]))
    curriculum_update(state, np.array([10.0, 10.0]), 0.5, 0.1, rows=5, cols=1,
                      env_ids=np.array([0]), rng=rng)
    assert state.levels[0] == 2 and state.levels[1] == 1


def test_curriculum_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        curriculum_update(CurriculumState(np.zeros(1, int), np.zeros(1, int)),
                          np.zeros(1), 0.1, 0.5, 2, 1, np.array([0]),
                          np.random.default_rng(0))


def curriculum_update_loop(state, scores, promote_threshold, demote_threshold,
                           rows, cols, env_ids, rng):
    """Reference: the per-env loop that ``curriculum_update`` vectorizes."""
    for e in env_ids:
        s = scores[e]
        if s >= promote_threshold:
            if state.levels[e] + 1 >= rows:
                state.levels[e] = rows - 1
                state.columns[e] = rng.integers(0, cols)
            else:
                state.levels[e] += 1
        elif s <= demote_threshold:
            state.levels[e] = max(state.levels[e] - 1, 0)
    return state


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 7))
def test_curriculum_matches_loop_reference(seed, rows, cols):
    data = np.random.default_rng(seed)
    n = int(data.integers(1, 40))
    levels = data.integers(0, rows, n)
    columns = data.integers(0, cols, n)
    a = CurriculumState(levels.copy(), columns.copy())
    b = CurriculumState(levels.copy(), columns.copy())
    rng_a = np.random.default_rng(seed + 1)
    rng_b = np.random.default_rng(seed + 1)
    for _ in range(5):
        scores = data.uniform(-2, 2, n)
        demote, promote = np.sort(data.uniform(-2, 2, 2))
        ids = data.choice(n, size=data.integers(0, n + 1), replace=False)
        curriculum_update(a, scores, promote, demote, rows, cols, ids, rng_a)
        curriculum_update_loop(b, scores, promote, demote, rows, cols, ids, rng_b)
        np.testing.assert_array_equal(a.levels, b.levels)
        np.testing.assert_array_equal(a.columns, b.columns)
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


def test_curriculum_start_puts_every_env_on_row_zero_of_a_random_column():
    state = CurriculumState.start(6, 3, 4, np.random.default_rng(5))
    np.testing.assert_array_equal(state.levels, np.zeros(6))
    np.testing.assert_array_equal(state.columns,
                                  np.random.default_rng(5).integers(0, 4, 6))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_curriculum_levels_stay_in_range(seed, rows):
    rng = np.random.default_rng(seed)
    state = CurriculumState.start(8, rows, 3, rng)
    for _ in range(30):
        scores = rng.uniform(-2, 2, 8)
        ids = rng.choice(8, size=rng.integers(0, 9), replace=False)
        curriculum_update(state, scores, 0.8, -0.8, rows, 3, ids, rng)
        assert np.all((state.levels >= 0) & (state.levels < rows))
        assert np.all((state.columns >= 0) & (state.columns < 3))


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: hf_random_uniform((1.0, 1.0), 0.5, -0.1, 0.05,
                                           np.random.default_rng(0)),
                 "height must be >= 0 and finite, got -0.1", id="rough_height"),
    pytest.param(lambda: hf_pyramid_stairs((2.0, 2.0), 0.1, 0.0, 0.2, 1),
                 "step_height must be > 0", id="stairs_height"),
    pytest.param(lambda: hf_pyramid_stairs((2.0, 2.0), 0.1, 0.1, 0.0, 1),
                 "step_width must be > 0", id="stairs_width"),
    pytest.param(lambda: hf_pyramid_stairs((2.0, 2.0), 0.1, 0.1, 0.2, 1,
                                           direction="sideways"),
                 "direction must be 'up' or 'down'", id="stairs_direction"),
    pytest.param(lambda: compose_grid([], 1), "need at least one terrain type", id="no_specs"),
    pytest.param(lambda: compose_grid([flat_spec()], 0),
                 "rows must be an integer >= 1, got 0", id="no_rows"),
    pytest.param(lambda: compose_grid([flat_spec((2.0, 2.0)), flat_spec((3.0, 3.0))], 1),
                 "all sub-terrains must share size and cell", id="mixed_sizes"),
])
def test_terrain_settings_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
