"""Shared robot models, scenes and seeded load generators.

Everything a workload needs that is not a library call lives here: the
13-link quadruped with its foot probes, the fixed-base 7-DOF arm, the
table-top mesh scene the arm's camera looks at, and the smooth command
generators. A generator is a pure function of ``(seed, env, time)``, so the
same seed always produces the same actions and targets and the library only
ever sees the resulting arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vecsim.articulation import ContactPointSet, KinematicTree, LinkSpec
from vecsim.raycast import TriMesh

# ------------------------------------------------------------- quadruped

LEG_NAMES = ("FL", "FR", "RL", "RR")
# joint order per leg: hip abduction (x), hip flexion (y), knee (y)
QUAD_DEFAULT_Q = np.tile([0.0, 0.8, -1.5], 4)
QUAD_THIGH = 0.2
QUAD_CALF = 0.2
QUAD_FOOT_RADIUS = 0.02
QUAD_SPAWN_HEIGHT = 0.34      # base height above the local surface at reset
QUAD_FRICTION = 0.8


def quadruped_tree() -> KinematicTree:
    """Floating base plus four 3-joint legs: 13 links, 12 revolute joints."""
    links = [LinkSpec("base", -1, "free", mass=6.0,
                      inertia=(0.02, 0.06, 0.07))]
    for name, sx, sy in zip(LEG_NAMES, (1, 1, -1, -1), (1, -1, 1, -1)):
        b = len(links)
        links += [
            LinkSpec(f"{name}_hip", 0, "revolute", axis=(1, 0, 0),
                     origin_pos=(0.18 * sx, 0.05 * sy, 0.0), mass=0.7,
                     com=(0.0, 0.03 * sy, 0.0), inertia=(5e-4, 8e-4, 6e-4)),
            LinkSpec(f"{name}_thigh", b, "revolute", axis=(0, 1, 0),
                     origin_pos=(0.0, 0.08 * sy, 0.0), mass=1.0,
                     com=(0.0, 0.0, -0.03), inertia=(5e-3, 5e-3, 1e-3)),
            LinkSpec(f"{name}_calf", b + 1, "revolute", axis=(0, 1, 0),
                     origin_pos=(0.0, 0.0, -QUAD_THIGH), mass=0.2,
                     com=(0.0, 0.0, -0.1), inertia=(2e-3, 2e-3, 5e-5)),
        ]
    return KinematicTree(links)


def quadruped_probes(tree: KinematicTree) -> ContactPointSet:
    """One sphere probe at each foot (the calf tip)."""
    calves = [tree.link_index(f"{n}_calf") for n in LEG_NAMES]
    return ContactPointSet(
        link=calves, offset=np.tile([0.0, 0.0, -QUAD_CALF], (4, 1)),
        radius=QUAD_FOOT_RADIUS, stiffness=4000.0, damping=60.0,
        friction=QUAD_FRICTION)


# ------------------------------------------------------------------- arm

ARM_DEFAULT_Q = np.array([0.0, 0.3, 0.0, 1.6, 0.0, 1.2, 0.0])
ARM_EE_OFFSET = (0.0, 0.0, 0.1)   # tool point in the last link's frame


def arm_tree() -> KinematicTree:
    """Fixed-base 7-DOF arm: alternating roll (z) and pitch (y) joints.

    At ``ARM_DEFAULT_Q`` the tool axis (last link +z) points straight down
    about 0.3 m above the table top.
    """
    spec = [  # (axis, origin, mass, com, inertia)
        ((0, 0, 1), (0, 0, 0.333), 4.0, (0, 0, -0.05), (0.02, 0.02, 0.01)),
        ((0, 1, 0), (0, 0, 0.0), 4.0, (0, 0, 0.10), (0.03, 0.03, 0.01)),
        ((0, 0, 1), (0, 0, 0.316), 3.0, (0, 0, -0.05), (0.02, 0.02, 0.01)),
        ((0, 1, 0), (0, 0, 0.0), 3.0, (0, 0, 0.15), (0.03, 0.03, 0.01)),
        ((0, 0, 1), (0, 0, 0.384), 2.0, (0, 0, -0.05), (0.01, 0.01, 0.005)),
        ((0, 1, 0), (0, 0, 0.0), 1.5, (0, 0, 0.05), (0.005, 0.005, 0.003)),
        ((0, 0, 1), (0, 0, 0.1), 0.5, (0, 0, 0.03), (0.001, 0.001, 0.001)),
    ]
    links = [LinkSpec(f"arm{i}", i - 1, "revolute", axis=ax, origin_pos=org,
                      mass=m, com=c, inertia=inr)
             for i, (ax, org, m, c, inr) in enumerate(spec)]
    return KinematicTree(links)


# ------------------------------------------------------ camera mesh scene

FLOOR_Z = -0.75
TABLE_TOP_Z = 0.0
TABLE_MIN = (0.25, -0.3)
TABLE_MAX = (0.75, 0.3)
OBJECT_CENTER = (0.5, 0.08)
OBJECT_HALF = (0.04, 0.04, 0.05)

# box faces -x, +x, -y, +y, -z, +z as quads; vertex index = 4*ix + 2*iy + iz
_BOX_QUADS = ((0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6),
              (0, 2, 6, 4), (1, 5, 7, 3))
BOX_TOP_TRIS = (10, 11)   # the two triangles of the +z quad


def box_mesh(lo, hi) -> TriMesh:
    """Axis-aligned box, two outward-wound triangles per face."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    v = np.array([[x, y, z] for x in (x0, x1) for y in (y0, y1)
                  for z in (z0, z1)], dtype=np.float64)
    tris = [t for a, b, c, d in _BOX_QUADS for t in ((a, b, c), (a, c, d))]
    return TriMesh(v, np.array(tris))


@dataclass
class CameraScene:
    """Floor plane, table and one object: meshes 0, 1 and 2."""

    meshes: list
    floor_id: int = 0
    table_id: int = 1


def camera_scene() -> CameraScene:
    floor = TriMesh(np.array([[-3.0, -3.0, FLOOR_Z], [3.0, -3.0, FLOOR_Z],
                              [3.0, 3.0, FLOOR_Z], [-3.0, 3.0, FLOOR_Z]]),
                    np.array([[0, 1, 2], [0, 2, 3]]))
    table = box_mesh((TABLE_MIN[0], TABLE_MIN[1], FLOOR_Z + 0.05),
                     (TABLE_MAX[0], TABLE_MAX[1], TABLE_TOP_Z))
    ox, oy = OBJECT_CENTER
    hx, hy, hz = OBJECT_HALF
    obj = box_mesh((ox - hx, oy - hy, TABLE_TOP_Z),
                   (ox + hx, oy + hy, TABLE_TOP_Z + 2 * hz))
    return CameraScene([floor, table, obj])


# ------------------------------------------------------- load generators


class SmoothSignal:
    """Seeded sum of sinusoids per (env, channel), bounded by ``amplitude``.

    ``value(t)`` is ``offset + amplitude * mean_k sin(2 pi f_k t + phi_k)``;
    frequencies and phases are drawn once from the seed, so the signal is
    smooth in time and identical for a given seed.
    """

    def __init__(self, seed: int, stream: str, env_count: int, width: int,
                 amplitude, offset=0.0, freq_range=(0.3, 1.5), terms: int = 3):
        key = [seed, sum(map(ord, stream))]
        rng = np.random.default_rng(key)
        self.freq = rng.uniform(*freq_range, size=(terms, env_count, width))
        self.phase = rng.uniform(0.0, 2 * np.pi, size=(terms, env_count, width))
        self.amplitude = np.asarray(amplitude, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)

    def value(self, t: float) -> np.ndarray:
        """Signal at time ``t``, shape ``(E, width)``."""
        wave = np.sin(2 * np.pi * self.freq * t + self.phase).mean(axis=0)
        return self.offset + self.amplitude * wave


def joint_target_generator(seed: int, env_count: int) -> SmoothSignal:
    """Quadruped joint targets: default pose plus a smooth +-0.3 rad swing."""
    return SmoothSignal(seed, "joint_targets", env_count, 12,
                        amplitude=np.tile([0.15, 0.3, 0.3], 4),
                        offset=QUAD_DEFAULT_Q, freq_range=(0.5, 2.0))


def velocity_command_generator(seed: int, env_count: int) -> SmoothSignal:
    """Base velocity commands ``(vx, vy, yaw rate)`` for the observation."""
    return SmoothSignal(seed, "velocity_commands", env_count, 3,
                        amplitude=[1.0, 0.5, 1.0], freq_range=(0.05, 0.2))


def ee_target_generator(seed: int, env_count: int) -> SmoothSignal:
    """Arm end-effector position targets around a point over the table."""
    return SmoothSignal(seed, "ee_targets", env_count, 3,
                        amplitude=[0.12, 0.2, 0.08], offset=[0.47, 0.0, 0.3],
                        freq_range=(0.5, 2.0))
