"""Reduced-coordinate dynamics: public operations and the step integrator.

The kernel layer works in body-frame spatial coordinates. For floating-base
trees the generalized velocity ``u`` exposed here is *mixed*: the root block
is ``[angular velocity (body frame), linear velocity (world frame)]``
followed by the joint rates. Keeping the root linear velocity in world
coordinates makes free-flight linear momentum exact under the discrete
integrator.

Every query goes through a few private helpers: :func:`_pose` (joint frames
and base pose), :func:`_motion` (those, then the motion transforms and the
body Jacobians ``J``), :func:`_velocity` (``u`` and the link velocities
``J u``), :func:`_mass` (``sum_i J_i^T I_i J_i`` and the armature diagonal)
and :func:`_bias` (RNEA, projected by ``J^T``). The root block of ``J``
holds the mixed coordinates, so the mass matrix, the bias and the point
Jacobians come out in them with no further rotation. The root's body-frame
linear velocity ``R^T v`` changes at ``R^T dv/dt - w_b x v_b`` even at
constant world velocity; like gravity, that term is a fictitious base
acceleration, so RNEA takes it as one (Featherstone, *Rigid Body Dynamics
Algorithms*, 2008) and the bias never needs ``M``. RNEA also takes the
applied link forces: ``step`` turns the external and contact wrenches into
body-frame forces once and subtracts them in the same pass, so the bias it
solves with is ``c(q, u) - J^T f``.

``step`` keeps its five Jacobian-scale intermediates (``X``, ``J``, the
products ``I_i J_i``, RNEA's ``crm(v)`` and the mass matrix) in arrays the
:class:`ArticulationState` owns, :class:`_Work`, and rewrites them on every
substep, as MuJoCo's ``mjData`` does (Todorov et al., IROS 2012). Freed
and allocated again each substep, their pages went back to the system and
faulted in again. The public queries allocate their results, which never
alias these arrays.

Link inertias and reflected motor inertia (armature) come from
:class:`DynParams` only, which stores the spatial inertias as the kernels
read them; the mass matrix that ``mass_matrix`` returns is the one ``step``
solves with. Implicit PD gains come from :class:`ImplicitPD` only.

Contacts query any ground with ``surface_height(x, y)``: :class:`FlatGround`
or a :class:`vecsim.terrain.HeightField`, which this module also exports
under its older name ``HeightfieldGround``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _dyn_kernels as k
from ._dyn_kernels import spatial_inertia  # noqa: F401  (randomises DynParams)
from .articulation import ArticulationState, ContactPointSet, KinematicTree
from .maths import (
    GRAVITY,
    Transform,
    check_setting,
    cross,
    matrix_to_quat,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
)
# the old name stays for existing callers (the benchmark); it is the same class
from .terrain import HeightField as HeightfieldGround  # noqa: F401


class SimulationDivergenceError(RuntimeError):
    """Simulation state became non-finite."""

    def __init__(self, env_ids):
        self.env_ids = np.atleast_1d(env_ids).tolist()
        super().__init__(
            f"non-finite simulation state in environment(s) {self.env_ids}"
        )


@dataclass
class FlatGround:
    """Flat horizontal ground plane."""

    height: float = 0.0

    def __post_init__(self):
        check_setting("ground height", self.height)

    def surface_height(self, x, y):
        return np.full(np.broadcast(x, y).shape, self.height, dtype=np.float64)


@dataclass
class DynParams:
    """Per-environment physical parameters (domain-randomization surface).

    ``spatial_inertia`` holds each link's 6x6 rigid-body inertia about its
    origin, ``[angular, linear]`` blocks, as the dynamics reads it. To
    randomise a link's mass, COM and inertia about the COM, write
    ``params.spatial_inertia[e, l] = spatial_inertia(m, c, I)``.
    ``armature`` adds to the joint diagonal of the mass matrix.
    """

    spatial_inertia: np.ndarray  # (E, L, 6, 6)
    armature: np.ndarray         # (E, nj)

    @staticmethod
    def from_tree(tree: KinematicTree, env_count: int) -> "DynParams":
        """Every env with the tree's nominal links and no armature."""
        return DynParams(np.tile(tree.nominal_inertia, (env_count, 1, 1, 1)),
                         np.zeros((env_count, tree.num_joints)))


@dataclass
class ImplicitPD:
    """PD gains folded into the integrator's linear solve; :func:`step`
    checks the gains and targets it reads."""

    kp: np.ndarray          # (nj,) or (E, nj)
    kd: np.ndarray
    q_target: np.ndarray    # (E, nj)
    qd_target: np.ndarray | None = None


@dataclass
class ContactForces:
    """Per-probe contact results in world coordinates."""

    normal: np.ndarray      # (E, P, 3)
    tangent: np.ndarray     # (E, P, 3)
    in_contact: np.ndarray  # (E, P) bool

    @staticmethod
    def zeros(env_count: int, probe_count: int) -> "ContactForces":
        return ContactForces(
            np.zeros((env_count, probe_count, 3)),
            np.zeros((env_count, probe_count, 3)),
            np.zeros((env_count, probe_count), dtype=np.bool_),
        )


class _Work(NamedTuple):
    """The large arrays of one ``step`` substep, or ``None`` each where the
    kernels allocate their results (the public queries)."""

    X: np.ndarray | None = None    # motion transforms (E, L, 6, 6)
    J: np.ndarray | None = None    # body Jacobians (E, L, 6, nv)
    ij: np.ndarray | None = None   # inertia products I_i J_i (E, L, 6, nv)
    crm: np.ndarray | None = None  # RNEA's crm(v) (E, L, 6, 6)
    m: np.ndarray | None = None    # mass matrix (E, nv, nv)


_ALLOCATE = _Work()


def _state_work(tree, state) -> _Work:
    """The state's substep arrays, built on first use and again only when
    E, L or nv change."""
    E, L, nv = state.env_count, tree.num_links, tree.nv
    work = state._work
    if work is None or work.J.shape != (E, L, 6, nv):
        work = state._work = _Work(*(np.empty(shape) for shape in (
            (E, L, 6, 6), (E, L, 6, nv), (E, L, 6, nv), (E, L, 6, 6),
            (E, nv, nv))))
    return work


def _batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` as a float ``(E, n)`` batch, and whether it was one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x.reshape(1, -1), True
    return x, False


def _broadcast(x, shape):
    """``x`` as a float array of ``shape``: itself when it has that shape,
    else a read-only broadcast view."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.shape == shape else np.broadcast_to(x, shape)


def _finite(x, what, shape):
    """``x`` as a float array of ``shape``; raises naming the environments
    (leading axis) that hold a non-finite value."""
    x = _broadcast(x, shape)
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.flatnonzero(~finite.reshape(shape[0], -1).all(axis=1))
        raise ValueError(f"non-finite {what} for environment(s) {bad.tolist()}")
    return x


def _pose(tree, q, root_pose):
    """Joint frames ``(rot, pos)``, base rotation and base position.

    ``root_pose`` is the floating base's pose or a fixed tree's mount,
    identity by default.
    """
    E = q.shape[0]
    if root_pose is None:
        base_rot = np.broadcast_to(np.eye(3), (E, 3, 3))
        base_pos = np.zeros((E, 3))
    else:
        base_rot = quat_to_matrix(_broadcast(root_pose.quat, (E, 4)))
        base_pos = _broadcast(root_pose.pos, (E, 3))
    return k.joint_xforms(tree, q), base_rot, base_pos


def _motion(tree, q, root_pose, work=_ALLOCATE):
    """Joint frames, base rotation and base position (:func:`_pose`), then
    the motion transforms ``X`` and the body Jacobians ``J``."""
    frames, base_rot, base_pos = _pose(tree, q, root_pose)
    xf = k.motion_xforms(*frames, out=work.X)
    return frames, base_rot, base_pos, xf, k.body_jacobians(tree, xf, base_rot, out=work.J)


def _velocity(tree, J, qd, base_rot, lin_vel, ang_vel):
    """Public generalized velocity ``u`` and body velocities ``v = J u``.

    ``lin_vel`` and ``ang_vel`` ``(E, 3)`` are the free root's world linear
    and angular velocity, which a fixed tree never reads; ``u`` takes the
    angular one in the base frame.
    """
    u = qd
    if tree.floating:
        w_b = np.einsum("eba,eb->ea", base_rot, ang_vel)
        u = np.concatenate([w_b, lin_vel, qd], axis=1)
    return u, (J @ u[:, None, :, None])[..., 0]


def _state_motion(tree, state: ArticulationState, work=_ALLOCATE):
    """:func:`_motion` and :func:`_velocity` of a state."""
    frames, base_rot, base_pos, xf, J = _motion(tree, state.q, state.root_pose, work)
    u, v_body = _velocity(tree, J, state.qd, base_rot, state.root_lin_vel,
                          state.root_ang_vel)
    return frames, base_rot, base_pos, xf, J, u, v_body


def _params(tree, params, env_count):
    """``params``, or the tree's own values when it is ``None``; raises if
    a given ``params.spatial_inertia`` is non-finite. Each public call that
    reads the inertias passes them through here once. The tree's own
    inertias are its read-only ``nominal_inertia``, broadcast over the
    envs, not a per-call copy."""
    if params is None:
        L = tree.num_links
        return DynParams(np.broadcast_to(tree.nominal_inertia, (env_count, L, 6, 6)),
                         np.zeros((env_count, tree.num_joints)))
    check_setting("spatial_inertia", params.spatial_inertia)
    return params


def _mass(tree, J, params, work=_ALLOCATE):
    """``sum_i J_i^T I_i J_i`` plus the armature on the joint diagonal."""
    check_setting("armature", params.armature, ">= 0")
    m = k.mass_kernel(J, params.spatial_inertia, out=work.m, ij=work.ij)
    idx = tree.nv - tree.num_joints + np.arange(tree.num_joints)
    m[:, idx, idx] += params.armature
    return m


def _bias(tree, xf, J, v_body, qd, params, base_rot, gravity, f_ext,
          work=_ALLOCATE):
    """RNEA bias less the applied body-frame link forces ``f_ext``, in the
    public coordinates (mixed for a floating root); ``gravity`` is
    ``(E, 3)``."""
    a_base = -np.einsum("eba,eb->ea", base_rot, gravity)
    if tree.floating:
        a_base -= cross(v_body[:, 0, :3], v_body[:, 0, 3:])
    return k.rnea_kernel(tree, xf, J, v_body, qd, params.spatial_inertia, a_base,
                         f_ext, crm=work.crm)


def forward_kinematics(tree: KinematicTree, q: np.ndarray,
                       root_pose: Transform | None = None) -> Transform:
    """World poses of every link, batched as ``(E, L)``.

    For a floating tree ``root_pose`` is the base pose; for a fixed-base
    tree it is the mount pose (identity by default).
    """
    q, squeeze = _batched(q)
    frames, base_rot, base_pos = _pose(tree, q, root_pose)
    link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
    quat = matrix_to_quat(link_rot)
    if squeeze:
        return Transform(link_pos[0], quat[0])
    return Transform(link_pos, quat)


def jacobian(tree: KinematicTree, q: np.ndarray, link: int,
             point_offset=(0.0, 0.0, 0.0),
             root_pose: Transform | None = None) -> np.ndarray:
    """Point Jacobian, rows ``[linear, angular]``, columns in qvel order."""
    if not 0 <= link < tree.num_links:
        raise IndexError(f"link index {link} out of range")
    q, squeeze = _batched(q)
    frames, base_rot, base_pos, _, J = _motion(tree, q, root_pose)
    link_rot, _ = k.fk_kernel(tree, *frames, base_rot, base_pos)
    out = k.point_jacobian(J[:, link], link_rot[:, link],
                           np.asarray(point_offset, dtype=np.float64))
    return out[0] if squeeze else out


def mass_matrix(tree: KinematicTree, q: np.ndarray,
                root_pose: Transform | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Generalized mass matrix ``sum_i J_i^T I_i J_i``, positive-definite
    and exactly symmetric.

    ``params`` (the tree's own values by default) supplies the spatial
    inertias and the armature, which adds to the joint diagonal; this is the
    matrix ``step`` solves with. For floating trees the root block is in
    mixed coordinates, for the base orientation of ``root_pose``.

    Raises:
        ValueError: if ``params.armature`` is negative or non-finite, or
            ``params.spatial_inertia`` is non-finite.
    """
    q, squeeze = _batched(q)
    params = _params(tree, params, q.shape[0])
    *_, J = _motion(tree, q, root_pose)
    m = _mass(tree, J, params)
    return m[0] if squeeze else m


def bias_forces(tree: KinematicTree, q: np.ndarray, qd: np.ndarray,
                gravity=GRAVITY, root_pose: Transform | None = None,
                root_twist: np.ndarray | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Coriolis, centrifugal, and gravity forces in generalized coordinates.

    ``root_twist`` is a floating root's world twist ``[lin, ang]``.
    ``params`` (the tree's own values by default) supplies the spatial
    inertias.

    Raises:
        ValueError: if ``gravity`` or ``params.spatial_inertia`` is
            non-finite.
    """
    q, squeeze = _batched(q)
    qd, _ = _batched(qd)
    E = q.shape[0]
    gravity = _finite(gravity, "gravity", (E, 3))
    params = _params(tree, params, E)
    _, base_rot, _, xf, J = _motion(tree, q, root_pose)
    twist = np.zeros((E, 6)) if root_twist is None else _broadcast(root_twist, (E, 6))
    _, v_body = _velocity(tree, J, qd, base_rot, twist[:, :3], twist[:, 3:])
    bias = _bias(tree, xf, J, v_body, qd, params, base_rot, gravity, 0.0)
    return bias[0] if squeeze else bias


def contact_forces(tree: KinematicTree, state: ArticulationState,
                   probes: ContactPointSet, terrain) -> ContactForces:
    """Evaluate probe-terrain penalty contacts for the current state.

    Stiffness, damping and friction are the probes' own.

    Raises:
        IndexError: if a probe's link is not in ``tree``.
    """
    frames, base_rot, base_pos, _, _, _, v_body = _state_motion(tree, state)
    link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
    normal, tangent, active, _ = k.contact_kernel(probes, link_rot, link_pos,
                                                  v_body, terrain)
    return ContactForces(normal, tangent, active)


def apply_external_wrench(state: ArticulationState, force, torque, link: int,
                          env_ids=None) -> None:
    """Accumulate a world-frame wrench; consumed and cleared by ``step``.

    Raises:
        ValueError: if ``force`` or ``torque`` is non-finite.
        IndexError: if ``link`` is not a link of the state.
    """
    nl = state.ext_wrench.shape[1]
    if not 0 <= link < nl:
        raise IndexError(f"link index {link} out of range (0..{nl - 1})")
    force = check_setting("force", force)
    torque = check_setting("torque", torque)
    ids = slice(None) if env_ids is None else np.asarray(env_ids)
    state.ext_wrench[ids, link, :3] += force
    state.ext_wrench[ids, link, 3:] += torque


def step(tree: KinematicTree, state: ArticulationState,
         joint_efforts: np.ndarray | None, dt: float, *,
         gravity=GRAVITY, implicit_pd: ImplicitPD | None = None,
         probes: ContactPointSet | None = None, terrain=None,
         params: DynParams | None = None,
         contacts_out: ContactForces | None = None) -> ArticulationState:
    """Advance the articulation one semi-implicit Euler substep, in place.

    Solves ``(M + dt*diag(kd) + dt^2*diag(kp)) u+ = M u + dt*(tau + J^T f
    - c + kp*(q* - q) + kd*qd*)`` then integrates positions with ``u+``;
    ``c`` is the bias and ``f`` the external and contact wrenches, and one
    RNEA pass gives ``c - J^T f``.
    Without ``implicit_pd`` gains the system matrix is ``M`` alone. The free
    root integrates its quaternion with renormalization.

    ``gravity`` is the world gravity vector. ``params`` (the tree's own
    values by default) supplies the link inertias and armature. Contacts run
    between ``probes`` and ``terrain``, which are given together or not at
    all; their forces are copied into ``contacts_out`` when one is given.

    ``X``, ``J``, ``I_i J_i``, RNEA's ``crm(v)`` and the mass matrix go into
    arrays ``state`` keeps, built on its first step and again when E, L or
    nv change; every element is rewritten before it is read.

    Raises:
        ValueError: before any state changes, if ``dt`` is not finite and
            > 0, only one of ``probes`` and ``terrain`` is given, an effort,
            ``gravity``, ``state.ext_wrench`` or an implicit PD target is
            non-finite (naming the environments), an implicit PD gain or
            ``params.armature`` is negative or non-finite, or
            ``params.spatial_inertia`` is non-finite.
        IndexError: if a probe's link is not in ``tree``.
        SimulationDivergenceError: if any environment's state leaves the
            finite range, naming the offending environment indices.
    """
    check_setting("dt", dt, "> 0")
    if (probes is None) != (terrain is None):
        raise ValueError("contacts need both probes and terrain")
    E = state.env_count
    nj = tree.num_joints
    off = 6 if tree.floating else 0
    tau = np.zeros((E, tree.nv))
    if joint_efforts is not None:
        tau[:, off:] = _finite(joint_efforts, "joint efforts", (E, nj))
    gravity = _finite(gravity, "gravity", (E, 3))
    _finite(state.ext_wrench, "external wrench", state.ext_wrench.shape)
    if implicit_pd is not None:
        # checked as given; the arithmetic below broadcasts them
        kp = check_setting("implicit PD kp", implicit_pd.kp, ">= 0")
        kd = check_setting("implicit PD kd", implicit_pd.kd, ">= 0")
        q_target = _finite(implicit_pd.q_target, "implicit PD q_target", (E, nj))
        qd_target = implicit_pd.qd_target
        if qd_target is not None:
            qd_target = _finite(qd_target, "implicit PD qd_target", (E, nj))
    params = _params(tree, params, E)

    work = _state_work(tree, state)
    frames, base_rot, base_pos, xf, J, u, v_body = _state_motion(tree, state, work)
    m = _mass(tree, J, params, work)

    # applied link forces: world wrenches [f, tau] into body-frame [tau, f]
    wrench = state.ext_wrench
    contacts = probes is not None and probes.count
    f_ext = 0.0
    if contacts or wrench.any():
        link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
        if contacts:
            normal, tangent, active, contact_wrench = k.contact_kernel(
                probes, link_rot, link_pos, v_body, terrain)
            if contacts_out is not None:
                contacts_out.normal[:] = normal
                contacts_out.tangent[:] = tangent
                contacts_out.in_contact[:] = active
            wrench = wrench + contact_wrench
        # R^T w as the row vector w^T R, for the torque and then the force
        f_ext = (wrench.reshape(E, -1, 2, 3)[:, :, ::-1] @ link_rot).reshape(E, -1, 6)
    bias = _bias(tree, xf, J, v_body, state.qd, params, base_rot, gravity, f_ext,
                 work)

    rhs = np.einsum("eij,ej->ei", m, u) + dt * (tau - bias)
    if implicit_pd is not None:
        idx = off + np.arange(nj)
        m[:, idx, idx] += dt * kd + dt * dt * kp
        pd_rhs = kp * (q_target - state.q)
        if qd_target is not None:
            pd_rhs = pd_rhs + kd * qd_target
        rhs[:, off:] += dt * pd_rhs

    u_new = np.linalg.solve(m, rhs[..., None])[..., 0]

    state.qd[:] = u_new[:, off:]
    state.q += dt * state.qd
    if tree.floating:
        w_b = u_new[:, :3]
        state.root_lin_vel[:] = u_new[:, 3:6]
        state.root_pos += dt * state.root_lin_vel
        state.root_quat[:] = quat_normalize(
            quat_mul(state.root_quat, quat_from_rotvec(dt * w_b)))
        state.root_ang_vel[:] = quat_rotate(state.root_quat, w_b)
    state.ext_wrench[:] = 0.0

    finite = (np.isfinite(state.q).all(axis=1)
              & np.isfinite(state.qd).all(axis=1)
              & np.isfinite(state.root_pos).all(axis=1)
              & np.isfinite(state.root_quat).all(axis=1)
              & np.isfinite(state.root_lin_vel).all(axis=1)
              & np.isfinite(state.root_ang_vel).all(axis=1))
    if not finite.all():
        raise SimulationDivergenceError(np.nonzero(~finite)[0])
    return state
