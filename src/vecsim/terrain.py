"""Procedural terrain: the heightfield type, its generators, meshing,
difficulty grids, and the promote/demote level curriculum.

:class:`HeightField` is the one heightfield format. It is validated when it
is built, and it owns the node placement and the per-cell triangle split
that both :meth:`HeightField.surface_height` (contact heights, scan checks)
and :func:`hf_to_mesh` (the mesh rays are cast against) use, so the two
agree exactly. :func:`compose_grid` lays sub-terrains out as one
heightfield and meshes it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .raycast import TriMesh


@dataclass
class HeightField:
    """Regular-grid surface heights; node (i, j) sits at
    ``origin_xy + (i*cell, j*cell)``.

    Each cell is split along its (i, j)-(i+1, j+1) diagonal into two
    triangles, and heights between nodes interpolate linearly on them.
    """

    heights: np.ndarray
    cell_size: float
    origin_xy: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=np.float64)
        if self.heights.ndim != 2 or min(self.heights.shape) < 2:
            raise ValueError("heightfield needs at least a 2x2 grid")
        if not np.isfinite(self.heights).all():
            raise ValueError("heightfield heights must be finite")
        if not 0 < self.cell_size < np.inf:
            raise ValueError("cell_size must be finite and > 0")

    @property
    def size(self) -> tuple[float, float]:
        n, m = self.heights.shape
        return ((n - 1) * self.cell_size, (m - 1) * self.cell_size)

    def surface_height(self, x, y):
        """Surface heights at points ``(x, y)`` on the mesher's triangles.

        Points outside the grid clamp to the border.
        """
        heights, cell = self.heights, self.cell_size
        ox, oy = self.origin_xy
        n, m = heights.shape
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        fx = np.clip((x - ox) / cell, 0.0, n - 1.000001)
        fy = np.clip((y - oy) / cell, 0.0, m - 1.000001)
        i = fx.astype(np.int64)
        j = fy.astype(np.int64)
        u = fx - i
        w = fy - j
        h00 = heights[i, j]
        h10 = heights[i + 1, j]
        h01 = heights[i, j + 1]
        h11 = heights[i + 1, j + 1]
        return np.where(u >= w,
                        h00 + u * (h10 - h00) + w * (h11 - h10),
                        h00 + u * (h11 - h01) + w * (h01 - h00))


def _nodes(extent: float, cell: float) -> int:
    return int(np.floor(extent / cell + 1e-6)) + 1


def hf_random_uniform(size: tuple[float, float], cell: float, height: float,
                      quantum: float, rng: np.random.Generator) -> HeightField:
    """Uniform random heights in ``[-height, height]`` quantized to ``quantum``."""
    if height < 0 or quantum <= 0:
        raise ValueError("height must be >= 0 and quantum > 0")
    n, m = _nodes(size[0], cell), _nodes(size[1], cell)
    k = int(np.floor(height / quantum + 1e-9))
    steps = rng.integers(-k, k + 1, size=(n, m)) if k > 0 else np.zeros((n, m))
    return HeightField(steps * quantum, cell)


def hf_pyramid_stairs(size: tuple[float, float], cell: float, step_height: float,
                      step_width: float, levels: int,
                      direction: str = "up") -> HeightField:
    """Concentric square steps rising (or sinking) toward the center."""
    if step_height <= 0 and levels > 0:
        raise ValueError("step_height must be > 0")
    if step_width <= 0:
        raise ValueError("step_width must be > 0")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if levels * 2 * step_width > min(size) + 1e-9:
        raise ValueError(
            f"{levels} steps of width {step_width} exceed the field size {size}")
    n, m = _nodes(size[0], cell), _nodes(size[1], cell)
    x = np.arange(n) * cell
    y = np.arange(m) * cell
    sx, sy = (n - 1) * cell, (m - 1) * cell
    dist = np.minimum.outer(np.minimum(x, sx - x), np.minimum(y, sy - y))
    level = np.minimum(np.floor(dist / step_width + 1e-9), levels)
    sign = 1.0 if direction == "up" else -1.0
    return HeightField(sign * level * step_height, cell)


def hf_to_mesh(hf: HeightField) -> TriMesh:
    """Triangulate a heightfield: ``n*m`` vertices, ``2(n-1)(m-1)`` triangles.

    Vertex heights equal the field values exactly; winding faces +z. The
    per-cell diagonal is the one :meth:`HeightField.surface_height`
    interpolates on.
    """
    n, m = hf.heights.shape
    xs = np.arange(n) * hf.cell_size + hf.origin_xy[0]
    ys = np.arange(m) * hf.cell_size + hf.origin_xy[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel(), hf.heights.ravel()])

    i, j = np.meshgrid(np.arange(n - 1), np.arange(m - 1), indexing="ij")
    v00 = (i * m + j).ravel()
    v10 = ((i + 1) * m + j).ravel()
    v01 = (i * m + j + 1).ravel()
    v11 = ((i + 1) * m + j + 1).ravel()
    tris = np.concatenate([
        np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v11, v01]),
    ])
    return TriMesh(verts, tris)


@dataclass
class TerrainTypeSpec:
    """A named sub-terrain generator parameterized by difficulty in [0, 1]."""

    name: str
    make: Callable[[float, np.random.Generator], HeightField]


def flat_spec(size=(4.0, 4.0), cell=0.1) -> TerrainTypeSpec:
    return TerrainTypeSpec(
        "flat", lambda d, rng: HeightField(
            np.zeros((_nodes(size[0], cell), _nodes(size[1], cell))), cell))


def random_rough_spec(size=(4.0, 4.0), cell=0.1, max_height=0.1,
                      quantum=0.005) -> TerrainTypeSpec:
    return TerrainTypeSpec(
        "random_rough",
        lambda d, rng: hf_random_uniform(size, cell, d * max_height, quantum, rng))


def pyramid_stairs_spec(size=(4.0, 4.0), cell=0.1, max_step_height=0.2,
                        step_width=0.4, levels=4,
                        direction="up") -> TerrainTypeSpec:
    def make(d, rng):
        if d * max_step_height <= 0:
            return HeightField(
                np.zeros((_nodes(size[0], cell), _nodes(size[1], cell))), cell)
        return hf_pyramid_stairs(size, cell, d * max_step_height, step_width,
                                 levels, direction)
    return TerrainTypeSpec("pyramid_stairs", make)


@dataclass
class TerrainGrid:
    """Difficulty-by-type lattice of sub-terrains with spawn origins."""

    rows: int
    cols: int
    origins: np.ndarray                 # (rows, cols, 3)
    mesh: TriMesh                       # hf_to_mesh(ground)
    ground: HeightField


def compose_grid(specs: list[TerrainTypeSpec], rows: int, border: float = 0.0,
                 rng: np.random.Generator | None = None,
                 difficulty_map: Callable[[int, int], float] | None = None) -> TerrainGrid:
    """Generate a ``rows x len(specs)`` terrain lattice.

    Row ``r`` uses difficulty ``r/(rows-1)`` (or a custom map); cells are
    laid out with ``border`` spacing (snapped to whole grid cells) and
    spawn origins sit at cell centers, lifted to the local surface height.
    """
    if not specs:
        raise ValueError("need at least one terrain type")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    if difficulty_map is None:
        difficulty_map = lambda r, n: r / (n - 1) if n > 1 else 0.0
    cols = len(specs)
    fields = [[specs[c].make(float(difficulty_map(r, rows)), rng)
               for c in range(cols)] for r in range(rows)]
    cell = fields[0][0].cell_size
    shape = fields[0][0].heights.shape
    for row in fields:
        for f in row:
            if f.cell_size != cell or f.heights.shape != shape:
                raise ValueError("all sub-terrains must share size and cell")

    border_cells = int(round(border / cell))
    n, m = shape
    total_n = rows * (n - 1) + (rows + 1) * border_cells + 1
    total_m = cols * (m - 1) + (cols + 1) * border_cells + 1
    global_h = np.zeros((total_n, total_m))
    origins = np.zeros((rows, cols, 3))
    sub_size = ((n - 1) * cell, (m - 1) * cell)
    for r in range(rows):
        for c in range(cols):
            i0 = border_cells + r * ((n - 1) + border_cells)
            j0 = border_cells + c * ((m - 1) + border_cells)
            global_h[i0:i0 + n, j0:j0 + m] = fields[r][c].heights
            x0, y0 = i0 * cell, j0 * cell
            ci, cj = (n - 1) // 2, (m - 1) // 2
            origins[r, c] = (x0 + sub_size[0] / 2, y0 + sub_size[1] / 2,
                             fields[r][c].heights[ci, cj])
    ground = HeightField(global_h, cell)
    return TerrainGrid(rows=rows, cols=cols, origins=origins,
                       mesh=hf_to_mesh(ground), ground=ground)


@dataclass
class CurriculumState:
    """Per-environment terrain placement: difficulty row and type column."""

    levels: np.ndarray
    columns: np.ndarray

    @staticmethod
    def start(env_count: int, rows: int, cols: int,
              rng: np.random.Generator) -> "CurriculumState":
        return CurriculumState(
            levels=np.zeros(env_count, dtype=np.int64),
            columns=rng.integers(0, cols, env_count),
        )


def curriculum_update(state: CurriculumState, scores: np.ndarray,
                      promote_threshold: float, demote_threshold: float,
                      rows: int, cols: int, env_ids: np.ndarray,
                      rng: np.random.Generator) -> CurriculumState:
    """Promote/demote terrain levels for the environments being reset.

    Scores at or above the promote threshold move an environment up one
    difficulty row; promoting past the top row keeps it there and
    re-randomizes the terrain column. Scores at or below the demote
    threshold move it down one row (clamped at zero). ``env_ids`` must be
    unique.
    """
    if promote_threshold <= demote_threshold:
        raise ValueError("promote threshold must exceed demote threshold")
    env_ids = np.asarray(env_ids, dtype=np.int64)
    scores = np.asarray(scores)[env_ids]
    levels = state.levels[env_ids]
    promote = scores >= promote_threshold
    demote = scores <= demote_threshold
    top = promote & (levels + 1 >= rows)
    state.levels[env_ids] = np.where(
        promote, np.minimum(levels + 1, rows - 1),
        np.where(demote, np.maximum(levels - 1, 0), levels))
    # one draw per env in env_ids order, the same stream as per-env draws
    state.columns[env_ids[top]] = rng.integers(0, cols, int(top.sum()))
    return state
