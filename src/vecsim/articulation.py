"""Articulated rigid-body descriptions and batched state buffers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maths import QUAT_IDENTITY, Transform, quat_normalize

JOINT_FIXED = 0
JOINT_REVOLUTE = 1
JOINT_PRISMATIC = 2
JOINT_FREE = 3

_JOINT_CODES = {
    "fixed": JOINT_FIXED,
    "revolute": JOINT_REVOLUTE,
    "prismatic": JOINT_PRISMATIC,
    "free": JOINT_FREE,
}


@dataclass
class LinkSpec:
    """One link plus the joint connecting it to its parent.

    ``parent`` is the index of the parent link, or ``-1`` for the world /
    mount frame. ``origin_pos``/``origin_quat`` place the joint frame in the
    parent frame; the joint motion then acts in the child frame about
    ``axis`` (expressed in the child frame).
    """

    name: str
    parent: int
    joint: str
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    origin_pos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    origin_quat: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    mass: float = 0.0
    com: tuple[float, float, float] = (0.0, 0.0, 0.0)
    inertia: object = (0.0, 0.0, 0.0)  # diag 3-vector or full 3x3, about COM


class KinematicTree:
    """Immutable, topologically sorted description of an articulation.

    Link 0 may carry a ``free`` joint (floating base); all other joints are
    fixed, revolute, or prismatic. Closed kinematic loops are unsupported.
    """

    def __init__(self, links: list[LinkSpec]):
        if not links:
            raise ValueError("tree needs at least one link")
        n = len(links)
        self.names = [l.name for l in links]
        if len(set(self.names)) != n:
            raise ValueError("link names must be unique")
        self.jtype = np.zeros(n, dtype=np.int64)
        self.parent = np.zeros(n, dtype=np.int64)
        self.axis = np.zeros((n, 3))
        self.x_rot = np.zeros((n, 3, 3))
        self.x_pos = np.zeros((n, 3))
        self.mass = np.zeros(n)
        self.com = np.zeros((n, 3))
        self.inertia = np.zeros((n, 3, 3))
        self.qidx = np.full(n, -1, dtype=np.int64)

        from .maths import quat_to_matrix

        nq = 0
        for i, link in enumerate(links):
            if link.joint not in _JOINT_CODES:
                raise ValueError(f"unknown joint kind {link.joint!r}")
            code = _JOINT_CODES[link.joint]
            if code == JOINT_FREE and i != 0:
                raise ValueError("free joint only allowed at link 0")
            if not -1 <= link.parent < i:
                raise ValueError(
                    f"link {i} parent {link.parent} breaks topological order"
                )
            self.jtype[i] = code
            self.parent[i] = link.parent
            ax = np.asarray(link.axis, dtype=np.float64)
            if code in (JOINT_REVOLUTE, JOINT_PRISMATIC):
                norm = np.linalg.norm(ax)
                if norm < 1e-12:
                    raise ValueError(f"link {i} joint axis is zero")
                ax = ax / norm
            self.axis[i] = ax
            self.x_rot[i] = quat_to_matrix(quat_normalize(np.asarray(link.origin_quat)))
            self.x_pos[i] = link.origin_pos
            self.mass[i] = link.mass
            self.com[i] = link.com
            inr = np.asarray(link.inertia, dtype=np.float64)
            self.inertia[i] = np.diag(inr) if inr.ndim == 1 else inr
            if code in (JOINT_REVOLUTE, JOINT_PRISMATIC):
                self.qidx[i] = nq
                nq += 1
            if code != JOINT_FIXED and link.mass <= 0.0:
                raise ValueError(f"link {i} ({link.name!r}) is dynamic but has mass <= 0")
            if link.mass > 0.0:
                eigvals = np.linalg.eigvalsh(self.inertia[i])
                if eigvals.min() <= 0.0:
                    raise ValueError(f"link {i} inertia not positive-definite")

        # Joint motion subspace S_i per link (body frame, [angular, linear]);
        # zero rows for fixed joints and the free root.
        self.subspace = np.zeros((n, 6))
        self.subspace[self.jtype == JOINT_REVOLUTE, :3] = self.axis[self.jtype == JOINT_REVOLUTE]
        self.subspace[self.jtype == JOINT_PRISMATIC, 3:] = self.axis[self.jtype == JOINT_PRISMATIC]
        self.num_links = n
        self.num_joints = nq
        self.floating = bool(self.jtype[0] == JOINT_FREE)
        # Generalized-velocity size: [root twist (6) if floating] + joints.
        self.nv = 6 * self.floating + nq
        self.joint_names = [
            links[i].name for i in range(n) if self.qidx[i] >= 0
        ]
        for arr in (self.jtype, self.parent, self.axis, self.x_rot, self.x_pos,
                    self.mass, self.com, self.inertia, self.qidx, self.subspace):
            arr.setflags(write=False)

    def joint_index(self, name: str) -> int:
        """Index of a named joint within the q vector."""
        return self.joint_names.index(name)

    def link_index(self, name: str) -> int:
        return self.names.index(name)


@dataclass
class ArticulationState:
    """Batched joint/root state; leading dimension is the environment.

    The root twist is stored in world coordinates. ``ext_wrench`` holds
    per-link world-frame wrenches ``[force, torque]`` (torque about the link
    origin) that accumulate until the next :func:`vecsim.dynamics.step`
    consumes and clears them.
    """

    q: np.ndarray
    qd: np.ndarray
    root_pos: np.ndarray
    root_quat: np.ndarray
    root_lin_vel: np.ndarray
    root_ang_vel: np.ndarray
    ext_wrench: np.ndarray

    @staticmethod
    def zeros(tree: KinematicTree, env_count: int) -> "ArticulationState":
        return ArticulationState(
            q=np.zeros((env_count, tree.num_joints)),
            qd=np.zeros((env_count, tree.num_joints)),
            root_pos=np.zeros((env_count, 3)),
            root_quat=np.tile(QUAT_IDENTITY, (env_count, 1)),
            root_lin_vel=np.zeros((env_count, 3)),
            root_ang_vel=np.zeros((env_count, 3)),
            ext_wrench=np.zeros((env_count, tree.num_links, 6)),
        )

    @property
    def env_count(self) -> int:
        return self.q.shape[0]

    @property
    def root_pose(self) -> Transform:
        return Transform(self.root_pos, self.root_quat)

    def copy(self) -> "ArticulationState":
        return ArticulationState(
            self.q.copy(), self.qd.copy(), self.root_pos.copy(),
            self.root_quat.copy(), self.root_lin_vel.copy(),
            self.root_ang_vel.copy(), self.ext_wrench.copy(),
        )


@dataclass
class ContactPointSet:
    """Penalty contact probes: spheres rigidly attached to links."""

    link: np.ndarray          # (P,) link index
    offset: np.ndarray        # (P, 3) probe center in link frame
    radius: np.ndarray        # (P,)
    stiffness: np.ndarray     # (P,) N/m
    damping: np.ndarray       # (P,) N*s/m
    friction: np.ndarray      # (P,) Coulomb coefficient

    def __post_init__(self):
        self.link = np.asarray(self.link, dtype=np.int64)
        p = self.link.shape[0]
        self.offset = np.asarray(self.offset, dtype=np.float64).reshape(p, 3)
        for name in ("radius", "stiffness", "damping", "friction"):
            setattr(self, name, np.broadcast_to(
                np.asarray(getattr(self, name), dtype=np.float64), (p,)).copy())
        if np.any(self.radius <= 0):
            raise ValueError("probe radius must be > 0")
        if np.any(self.stiffness < 0) or np.any(self.damping < 0):
            raise ValueError("contact stiffness/damping must be >= 0")

    @property
    def count(self) -> int:
        return self.link.shape[0]
