"""Correctness checks on what the library returns.

Each check takes batched outputs and returns a boolean mask over
environments: True where that environment's output is wrong. Each oracle
is formulated independently of the code it checks.
"""

from __future__ import annotations

import numpy as np

from models import BOX_TOP_TRIS, FLOOR_Z, TABLE_TOP_Z

HEIGHT_TOL = 1e-9     # m, hit z against the heightfield interpolation
PLANE_TOL = 1e-9      # m, hit distance against the ray-plane closed form


def nonfinite_envs(*arrays: np.ndarray) -> np.ndarray:
    """Envs whose state holds a NaN or infinity in any of the arrays."""
    bad = np.zeros(arrays[0].shape[0], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    return bad


def contact_violations(normal: np.ndarray, tangent: np.ndarray,
                       friction) -> np.ndarray:
    """Envs breaking ``f_n >= 0`` or the Coulomb cone ``|f_t| <= mu f_n``.

    ``normal``/``tangent`` are per-probe world forces ``(E, P, 3)``; ``f_n``
    is the upward component of the normal force, and the cone uses its
    magnitude.
    """
    fn = normal[..., 2]
    fn_mag = np.linalg.norm(normal, axis=-1)
    ft = np.linalg.norm(tangent, axis=-1)
    mu = np.broadcast_to(friction, fn.shape)
    bad = (fn < 0.0) | (ft > mu * fn_mag * (1.0 + 1e-9) + 1e-12)
    bad |= ~np.isfinite(normal).all(axis=-1) | ~np.isfinite(tangent).all(axis=-1)
    return bad.any(axis=1)


def height_scan_violations(points: np.ndarray, hit: np.ndarray,
                           ground) -> np.ndarray:
    """Envs whose scan hit heights differ from the heightfield surface.

    ``points`` is ``(E, R, 3)`` hit points from ray-triangle casting; the
    oracle is ``ground.surface_height`` (grid interpolation) at the hit's
    xy. Missed rays are not compared.
    """
    e, r = hit.shape
    bad = np.zeros((e, r), dtype=bool)
    if hit.any():
        p = points[hit]
        surface = ground.surface_height(p[:, 0], p[:, 1])
        bad[hit] = ~(np.abs(p[:, 2] - surface) <= HEIGHT_TOL)
    return bad.any(axis=1)


def camera_violations(origins: np.ndarray, dirs: np.ndarray, t: np.ndarray,
                      mesh_id: np.ndarray, tri_id: np.ndarray,
                      scene) -> np.ndarray:
    """Envs whose floor or table-top hit distances miss the plane formula.

    Arrays are per env and ray, ``(E, R[, 3])``. For a hit on a horizontal
    plane ``z = h`` the distance is ``(h - o_z) / d_z``.
    """
    on_floor = mesh_id == scene.floor_id
    on_top = (mesh_id == scene.table_id) & np.isin(tri_id, BOX_TOP_TRIS)
    plane = np.where(on_floor, FLOOR_Z, TABLE_TOP_Z)
    checked = on_floor | on_top
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = (plane - origins[..., 2]) / dirs[..., 2]
    bad = checked & ~(np.abs(t - expected) <= PLANE_TOL)
    return bad.any(axis=1)
