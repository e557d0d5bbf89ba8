"""Reduced-coordinate dynamics: public operations and the step integrator.

The kernel layer works in body-frame spatial coordinates. For floating-base
trees the generalized velocity exposed here is *mixed*: the root block is
``[angular velocity (body frame), linear velocity (world frame)]`` followed
by the joint rates. Keeping the root linear velocity in world coordinates
makes free-flight linear momentum exact under the discrete integrator.

Every query goes through three private helpers: :func:`_motion` (joint
frames, motion transforms, base pose and body velocities), :func:`_mass`
(CRBA, the mixed-coordinate congruence and the armature diagonal) and
:func:`_bias` (RNEA). The root's body-frame linear velocity ``R^T v`` changes
at ``R^T dv/dt - w_b x v_b`` even at constant world velocity, so in mixed
coordinates the bias gains ``-M[:, lin] (w_b x v_b)``. Like gravity, that
term is a fictitious base acceleration, so RNEA takes it as one (Featherstone,
*Rigid Body Dynamics Algorithms*, 2008) and the bias never needs ``M``.

Reflected motor inertia (armature) comes from :attr:`DynParams.armature`
only; the mass matrix that ``mass_matrix`` returns is the one ``step``
solves with. Implicit PD gains come from :class:`ImplicitPD` only.

Contacts query any ground with ``surface_height(x, y)``: :class:`FlatGround`
or a :class:`vecsim.terrain.HeightField`, which this module also exports
under its older name ``HeightfieldGround``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _dyn_kernels as k
from .articulation import ArticulationState, ContactPointSet, KinematicTree
from .maths import (
    Transform,
    matrix_to_quat,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
)
# the old name stays for existing callers (the benchmark); it is the same class
from .terrain import HeightField as HeightfieldGround  # noqa: F401

GRAVITY = np.array([0.0, 0.0, -9.81])


class SimulationDivergenceError(RuntimeError):
    """Simulation state became non-finite."""

    def __init__(self, env_ids):
        self.env_ids = list(np.atleast_1d(env_ids))
        super().__init__(
            f"non-finite simulation state in environment(s) {self.env_ids}"
        )


@dataclass
class FlatGround:
    """Flat horizontal ground plane."""

    height: float = 0.0

    def surface_height(self, x, y):
        return np.broadcast_arrays(np.asarray(x, dtype=float), y)[0] * 0.0 + self.height


@dataclass
class DynParams:
    """Per-environment physical parameters (domain-randomization surface)."""

    mass: np.ndarray       # (E, L)
    com: np.ndarray        # (E, L, 3)
    inertia: np.ndarray    # (E, L, 3, 3)
    armature: np.ndarray   # (E, nj)

    @staticmethod
    def from_tree(tree: KinematicTree, env_count: int) -> "DynParams":
        return DynParams(
            mass=np.tile(tree.mass, (env_count, 1)),
            com=np.tile(tree.com, (env_count, 1, 1)),
            inertia=np.tile(tree.inertia, (env_count, 1, 1, 1)),
            armature=np.zeros((env_count, tree.num_joints)),
        )


@dataclass
class ImplicitPD:
    """PD gains folded into the integrator's linear solve."""

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


def _batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` as a float ``(E, n)`` batch, and whether it was one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x.reshape(1, -1), True
    return x, False


def _motion(tree, q, root_pose=None, qd=None, root_twist=None):
    """Joint frames ``(rot, pos)``, motion transforms ``X``, body velocities
    (``None`` without ``qd``), base rotation and base position.

    ``root_pose`` is the floating base's pose or a fixed tree's mount,
    identity by default; ``root_twist`` is the free root's world twist
    ``[lin, ang]``, at rest by default.
    """
    E = q.shape[0]
    if root_pose is None:
        base_rot = np.broadcast_to(np.eye(3), (E, 3, 3))
        base_pos = np.zeros((E, 3))
    else:
        base_rot = quat_to_matrix(np.broadcast_to(root_pose.quat, (E, 4)))
        base_pos = np.broadcast_to(np.asarray(root_pose.pos, dtype=np.float64),
                                   (E, 3))
    frames = k.joint_xforms(tree, q)
    xf = k.motion_xforms(*frames)
    v_body = None
    if qd is not None:
        twist = np.zeros((E, 6)) if root_twist is None else np.broadcast_to(
            np.asarray(root_twist, dtype=np.float64), (E, 6))
        v_body = k.vel_kernel(tree, xf, qd, base_rot, twist)
    return frames, xf, v_body, base_rot, base_pos


def _state_motion(tree, state: ArticulationState):
    twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    return _motion(tree, state.q, state.root_pose, state.qd, twist)


def _mass(tree, xf, inertia, base_rot, armature):
    """CRBA, then the mixed-coordinate congruence, then the armature."""
    if np.any(armature < 0):
        raise ValueError("armature must be >= 0")
    m = k.crba_kernel(tree, xf, inertia)
    off = 0
    if tree.floating:
        # root linear block into world coordinates: diag(1, R, 1) M diag(1, R^T, 1)
        m[:, 3:6, :] = base_rot @ m[:, 3:6, :]
        m[:, :, 3:6] = m[:, :, 3:6] @ np.swapaxes(base_rot, 1, 2)
        off = 6
    idx = off + np.arange(tree.num_joints)
    m[:, idx, idx] += armature
    return m


def _to_mixed(vec, base_rot):
    """Rotate the root linear rows of generalized forces into world coords."""
    vec[:, 3:6] = np.einsum("eab,eb->ea", base_rot, vec[:, 3:6])
    return vec


def _bias(tree, xf, v_body, qd, inertia, base_rot, gravity):
    """RNEA bias in the public coordinates, mixed for a floating root."""
    g = np.broadcast_to(np.asarray(gravity, dtype=np.float64), (qd.shape[0], 3))
    a_base = -np.einsum("eba,eb->ea", base_rot, g)
    if tree.floating:
        a_base -= np.cross(v_body[:, 0, :3], v_body[:, 0, 3:])
    bias = k.rnea_kernel(tree, xf, v_body, qd, inertia, a_base)
    return _to_mixed(bias, base_rot) if tree.floating else bias


def forward_kinematics(tree: KinematicTree, q: np.ndarray,
                       root_pose: Transform | None = None) -> Transform:
    """World poses of every link, batched as ``(E, L)``.

    For a floating tree ``root_pose`` is the base pose; for a fixed-base
    tree it is the mount pose (identity by default).
    """
    q, squeeze = _batched(q)
    frames, _, _, base_rot, base_pos = _motion(tree, q, root_pose)
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
    frames, _, _, base_rot, base_pos = _motion(tree, q, root_pose)
    link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
    out = k.jacobian_kernel(tree, link_rot, link_pos, link,
                            np.asarray(point_offset, dtype=np.float64))
    return out[0] if squeeze else out


def mass_matrix(tree: KinematicTree, q: np.ndarray,
                root_pose: Transform | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Symmetric positive-definite generalized mass matrix (CRBA).

    ``params`` (the tree's own values by default) supplies the inertias and
    the armature, which adds to the joint diagonal; this is the matrix
    ``step`` solves with. For floating trees the root block is in mixed
    coordinates, for the base orientation of ``root_pose``.

    Raises:
        ValueError: if ``params.armature`` is negative.
    """
    q, squeeze = _batched(q)
    if params is None:
        params = DynParams.from_tree(tree, q.shape[0])
    _, xf, _, base_rot, _ = _motion(tree, q, root_pose)
    inertia = k.spatial_inertia(params.mass, params.com, params.inertia)
    m = _mass(tree, xf, inertia, base_rot, params.armature)
    return m[0] if squeeze else m


def bias_forces(tree: KinematicTree, q: np.ndarray, qd: np.ndarray,
                gravity=GRAVITY, root_pose: Transform | None = None,
                root_twist: np.ndarray | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Coriolis, centrifugal, and gravity forces in generalized coordinates.

    ``root_twist`` is a floating root's world twist ``[lin, ang]``.
    """
    q, squeeze = _batched(q)
    qd, _ = _batched(qd)
    if params is None:
        params = DynParams.from_tree(tree, q.shape[0])
    _, xf, v_body, base_rot, _ = _motion(tree, q, root_pose, qd, root_twist)
    inertia = k.spatial_inertia(params.mass, params.com, params.inertia)
    bias = _bias(tree, xf, v_body, qd, inertia, base_rot, gravity)
    return bias[0] if squeeze else bias


def contact_forces(tree: KinematicTree, state: ArticulationState,
                   probes: ContactPointSet, terrain) -> ContactForces:
    """Evaluate probe-terrain penalty contacts for the current state.

    Stiffness, damping and friction are the probes' own.
    """
    frames, _, v_body, base_rot, base_pos = _state_motion(tree, state)
    link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
    normal, tangent, active, _ = k.contact_kernel(probes, link_rot, link_pos,
                                                  v_body, terrain)
    return ContactForces(normal, tangent, active)


def apply_external_wrench(state: ArticulationState, force, torque, link: int,
                          env_ids=None) -> None:
    """Accumulate a world-frame wrench; consumed and cleared by ``step``."""
    nl = state.ext_wrench.shape[1]
    if not 0 <= link < nl:
        raise IndexError(f"link index {link} out of range (0..{nl - 1})")
    ids = slice(None) if env_ids is None else np.asarray(env_ids)
    state.ext_wrench[ids, link, :3] += np.asarray(force, dtype=np.float64)
    state.ext_wrench[ids, link, 3:] += np.asarray(torque, dtype=np.float64)


def step(tree: KinematicTree, state: ArticulationState,
         joint_efforts: np.ndarray | None, dt: float, *,
         gravity=GRAVITY, implicit_pd: ImplicitPD | None = None,
         probes: ContactPointSet | None = None, terrain=None,
         params: DynParams | None = None,
         contacts_out: ContactForces | None = None) -> ArticulationState:
    """Advance the articulation one semi-implicit Euler substep, in place.

    Solves ``(M + dt*diag(kd) + dt^2*diag(kp)) u+ = M u + dt*(tau + J_c^T f_c
    - bias + kp*(q* - q) + kd*qd*)`` then integrates positions with ``u+``.
    Without ``implicit_pd`` gains the system matrix is ``M`` alone. The free
    root integrates its quaternion with renormalization.

    ``gravity`` is the world gravity vector. ``params`` (the tree's own
    values by default) supplies the inertias and armature. Contacts run when
    both ``probes`` and ``terrain`` are given; their forces are copied into
    ``contacts_out`` when one is given.

    Raises:
        ValueError: if ``dt <= 0``, an effort is non-finite or
            ``params.armature`` is negative.
        SimulationDivergenceError: if any environment's state leaves the
            finite range, naming the offending environment indices.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    E = state.env_count
    nj = tree.num_joints
    if joint_efforts is None:
        joint_efforts = np.zeros((E, nj))
    joint_efforts = np.asarray(joint_efforts, dtype=np.float64)
    if not np.all(np.isfinite(joint_efforts)):
        bad = np.nonzero(~np.isfinite(joint_efforts).all(axis=-1))[0]
        raise ValueError(f"non-finite joint efforts for environment(s) {list(bad)}")
    if params is None:
        params = DynParams.from_tree(tree, E)

    frames, xf, v_body, base_rot, base_pos = _state_motion(tree, state)
    inertia = k.spatial_inertia(params.mass, params.com, params.inertia)
    m = _mass(tree, xf, inertia, base_rot, params.armature)
    bias = _bias(tree, xf, v_body, state.qd, inertia, base_rot, gravity)
    off = 6 if tree.floating else 0

    # generalized applied forces
    wrench = state.ext_wrench
    contacts = probes is not None and terrain is not None and probes.count
    f_gen = 0.0
    if contacts or np.any(wrench):
        link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, base_pos)
        if contacts:
            normal, tangent, active, contact_wrench = k.contact_kernel(
                probes, link_rot, link_pos, v_body, terrain)
            if contacts_out is not None:
                contacts_out.normal[:] = normal
                contacts_out.tangent[:] = tangent
                contacts_out.in_contact[:] = active
            wrench = wrench + contact_wrench
        f_gen = k.wrench_kernel(tree, xf, link_rot, wrench)
        if tree.floating:
            _to_mixed(f_gen, base_rot)

    tau = np.zeros((E, tree.nv))
    tau[:, off:] = joint_efforts

    # current generalized velocity (mixed coordinates)
    u = state.qd
    if tree.floating:
        u = np.concatenate([v_body[:, 0, :3], state.root_lin_vel, state.qd], axis=1)

    a_sys = m
    rhs = np.einsum("eij,ej->ei", m, u) + dt * (tau + f_gen - bias)
    if implicit_pd is not None:
        kp = np.broadcast_to(np.asarray(implicit_pd.kp, dtype=np.float64), (E, nj))
        kd = np.broadcast_to(np.asarray(implicit_pd.kd, dtype=np.float64), (E, nj))
        a_sys = m.copy()
        idx = off + np.arange(nj)
        a_sys[:, idx, idx] += dt * kd + dt * dt * kp
        pd_rhs = kp * (implicit_pd.q_target - state.q)
        if implicit_pd.qd_target is not None:
            pd_rhs = pd_rhs + kd * implicit_pd.qd_target
        rhs[:, off:] += dt * pd_rhs

    u_new = np.linalg.solve(a_sys, rhs[..., None])[..., 0]

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
