"""Articulated rigid-body descriptions and batched state buffers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dyn_kernels import skew, spatial_inertia
from .maths import (QUAT_IDENTITY, Transform, check_setting, quat_normalize,
                    quat_to_matrix)

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
    ``axis`` (expressed in the child frame). A free root's origin must be
    the identity: its pose is the state's root pose.
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
    Every number of every link must be finite.

    ``levels`` is the kernels' root-to-leaf schedule (Featherstone 2008:
    a pass needs only that parents come before children). It visits the
    depths in order, and each depth's links in runs whose link ids and
    parent ids both step evenly, so a run is a strided view of any
    ``(E, L, ...)`` array. A run is ``(links, parents, joint_links,
    joint_cols, subspace_rows)``: the links as a slice, their parents as a
    slice (one link, ``p:p + 1``, when they share it) or ``None`` at the
    root, and the links of the run that have a joint with their columns of
    the generalized velocity and their ``S_i`` rows, shaped ``(k, 1, 6)``.
    On a quadruped whose legs are numbered leg by leg the 13 links make 4
    runs; a chain makes one run per link.

    The tree also keeps what the kernels would otherwise recompute on every
    call: the revolute ids with their ``x_rot``, ``skew(axis)`` and
    ``axis axis^T``, the prismatic ids, and the nominal links' ``(L, 6, 6)``
    spatial inertias. Every array is read-only.
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

        nq = 0
        for i, link in enumerate(links):
            if link.joint not in _JOINT_CODES:
                raise ValueError(f"unknown joint kind {link.joint!r}")
            code = _JOINT_CODES[link.joint]
            label = f"link {i} ({link.name!r})"
            for name in ("axis", "origin_pos", "origin_quat", "com", "inertia"):
                check_setting(f"{label} {name}", getattr(link, name))
            # a fixed link may be massless, a moving one may not
            check_setting(f"{label} mass", link.mass,
                          ">= 0" if code == JOINT_FIXED else "> 0")
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
            quat = np.asarray(link.origin_quat, dtype=np.float64)
            if not np.add.reduce(quat * quat) > 0.0:
                raise ValueError(f"link {i} ({link.name!r}) origin_quat must be nonzero")
            self.x_rot[i] = quat_to_matrix(quat_normalize(quat))
            self.x_pos[i] = link.origin_pos
            if code == JOINT_FREE and (self.x_pos[i].any()
                                       or (self.x_rot[i] != np.eye(3)).any()):
                raise ValueError("a free root's origin must be the identity")
            self.mass[i] = link.mass
            self.com[i] = link.com
            inr = np.asarray(link.inertia, dtype=np.float64)
            if inr.ndim == 2 and np.abs(inr - inr.T).max() > 1e-12 * np.abs(inr).max():
                raise ValueError(f"link {i} ({link.name!r}) inertia must be symmetric")
            self.inertia[i] = np.diag(inr) if inr.ndim == 1 else inr
            if code in (JOINT_REVOLUTE, JOINT_PRISMATIC):
                self.qidx[i] = nq
                nq += 1
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
        self.revolute = np.flatnonzero(self.jtype == JOINT_REVOLUTE)
        self.prismatic = np.flatnonzero(self.jtype == JOINT_PRISMATIC)
        rev_axis = self.axis[self.revolute]
        self.revolute_x_rot = self.x_rot[self.revolute]
        self.revolute_skew = skew(rev_axis)
        self.revolute_outer = rev_axis[:, :, None] * rev_axis[:, None, :]
        self.nominal_inertia = spatial_inertia(self.mass, self.com, self.inertia)
        self.levels = self._levels()
        for arr in (self.jtype, self.parent, self.axis, self.x_rot, self.x_pos,
                    self.mass, self.com, self.inertia, self.qidx, self.subspace,
                    self.revolute, self.prismatic, self.revolute_x_rot,
                    self.revolute_skew, self.revolute_outer, self.nominal_inertia):
            arr.setflags(write=False)

    def _levels(self) -> tuple:
        """The depth-level runs of :attr:`levels`."""
        depth = np.zeros(self.num_links, dtype=np.int64)
        for i, p in enumerate(self.parent):
            depth[i] = 0 if p < 0 else depth[p] + 1
        runs = []
        for d in range(depth.max() + 1):
            ids = np.flatnonzero(depth == d).tolist()
            while ids:
                n = 1
                # a slice cannot step backwards to the parents
                if len(ids) > 1 and self.parent[ids[1]] >= self.parent[ids[0]]:
                    step = ids[1] - ids[0]
                    pstep = self.parent[ids[1]] - self.parent[ids[0]]
                    n = 2
                    while (n < len(ids) and ids[n] - ids[n - 1] == step
                           and self.parent[ids[n]] - self.parent[ids[n - 1]] == pstep):
                        n += 1
                runs.append(self._run(ids[:n]))
                del ids[:n]
        return tuple(runs)

    def _run(self, run: list) -> tuple:
        """One run of :attr:`levels` over the evenly spaced link ids ``run``."""
        first, last = run[0], run[-1]
        step = run[1] - first if len(run) > 1 else 1
        links = slice(first, last + 1, step)
        p0, p1 = int(self.parent[first]), int(self.parent[last])
        if p0 < 0:
            parents = None
        elif p0 == p1:
            parents = slice(p0, p0 + 1)
        else:
            parents = slice(p0, p1 + 1, (p1 - p0) // (len(run) - 1))
        joint = np.array([i for i in run if self.qidx[i] >= 0], dtype=np.int64)
        cols = self.nv - self.num_joints + self.qidx[joint]
        rows = self.subspace[joint][:, None, :]
        for arr in (joint, cols, rows):
            arr.setflags(write=False)
        return links, parents, joint, cols, rows

    def link_index(self, name: str) -> int:
        return self.names.index(name)


@dataclass
class ArticulationState:
    """Batched joint/root state; leading dimension is the environment.

    The root twist is stored in world coordinates. ``ext_wrench`` holds
    per-link world-frame wrenches ``[force, torque]`` (torque about the link
    origin) that accumulate until the next :func:`vecsim.dynamics.step`
    consumes and clears them.

    ``step`` also keeps its five largest intermediates here (motion
    transforms, body Jacobians, ``I_i J_i``, ``crm(v)``, the mass matrix)
    and rewrites them every substep, so a substep allocates no
    Jacobian-scale block. They are not fields: :meth:`copy` and ``==``
    leave them out.
    """

    q: np.ndarray
    qd: np.ndarray
    root_pos: np.ndarray
    root_quat: np.ndarray
    root_lin_vel: np.ndarray
    root_ang_vel: np.ndarray
    ext_wrench: np.ndarray

    def __post_init__(self):
        self._work = None  # dynamics.step's substep arrays

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
        if np.any(self.link < 0):
            raise ValueError("probe link index must be >= 0")
        check_setting("probe offset", self.offset)
        check_setting("probe radius", self.radius, "> 0")
        check_setting("contact stiffness", self.stiffness, ">= 0")
        check_setting("contact damping", self.damping, ">= 0")
        check_setting("contact friction", self.friction, ">= 0")

    @property
    def count(self) -> int:
        return self.link.shape[0]
