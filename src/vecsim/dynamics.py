"""Reduced-coordinate dynamics: public operations and the step integrator.

The kernel layer works in body-frame spatial coordinates. For floating-base
trees the generalized velocity exposed here is *mixed*: the root block is
``[angular velocity (body frame), linear velocity (world frame)]`` followed
by the joint rates. Keeping the root linear velocity in world coordinates
makes free-flight linear momentum exact under the discrete integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _dyn_kernels as k
from .articulation import ArticulationState, ContactPointSet, KinematicTree
from .maths import (
    Transform,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
)

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

    def gap(self, points: np.ndarray) -> np.ndarray:
        """Signed height gap of world points above the surface."""
        points = np.asarray(points, dtype=np.float64)
        return points[..., 2] - self.height


@dataclass
class HeightfieldGround:
    """Ground defined by a regular-grid heightfield.

    Uses the same per-cell triangle split as the terrain mesher, so contact
    heights agree with raycasts against the generated mesh. Queries outside
    the grid clamp to the border.
    """

    heights: np.ndarray
    cell_size: float
    origin_xy: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.heights = np.ascontiguousarray(self.heights, dtype=np.float64)

    def surface_height(self, x, y):
        return k.heightfield_sample(self.heights, self.cell_size,
                                    self.origin_xy[0], self.origin_xy[1],
                                    np.atleast_1d(x), np.atleast_1d(y))

    def gap(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        flat = points.reshape(-1, 3)
        h = self.surface_height(flat[:, 0], flat[:, 1])
        return (flat[:, 2] - h).reshape(points.shape[:-1])


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


def _batched_q(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, bool]:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 1:
        return q.reshape(1, -1), True
    return q, False


def _base_arrays(tree, env_count, root_pose: Transform | None):
    if root_pose is None:
        pos = np.zeros((env_count, 3))
        rot = np.tile(np.eye(3), (env_count, 1, 1))
    else:
        pos = np.ascontiguousarray(
            np.broadcast_to(root_pose.pos, (env_count, 3)), dtype=np.float64)
        rot = np.ascontiguousarray(
            quat_to_matrix(np.broadcast_to(root_pose.quat, (env_count, 4))))
    return pos, rot


def _fk_arrays(tree, q, base_pos, base_rot):
    rot, pos = k.joint_xforms(tree, q)
    return k.fk_kernel(tree, rot, pos, base_rot, base_pos)


def _motion(tree, state):
    """Joint frames ``(rot, pos)``, motion transforms ``X``, body velocities
    and the base rotation of a state."""
    base_rot = quat_to_matrix(state.root_quat)
    frames = k.joint_xforms(tree, state.q)
    xf = k.motion_xforms(*frames)
    root_twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    v_body = k.vel_kernel(tree, xf, state.qd, base_rot, root_twist)
    return frames, xf, v_body, base_rot


def forward_kinematics(tree: KinematicTree, q: np.ndarray,
                       root_pose: Transform | None = None) -> Transform:
    """World poses of every link, batched as ``(E, L)``.

    For a floating tree ``root_pose`` is the base pose; for a fixed-base
    tree it is the mount pose (identity by default).
    """
    from .maths import matrix_to_quat

    q2, squeeze = _batched_q(tree, q)
    base_pos, base_rot = _base_arrays(tree, q2.shape[0], root_pose)
    link_rot, link_pos = _fk_arrays(tree, q2, base_pos, base_rot)
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
    q2, squeeze = _batched_q(tree, q)
    base_pos, base_rot = _base_arrays(tree, q2.shape[0], root_pose)
    link_rot, link_pos = _fk_arrays(tree, q2, base_pos, base_rot)
    out = k.jacobian_kernel(tree, link_rot, link_pos, link,
                            np.asarray(point_offset, dtype=np.float64))
    return out[0] if squeeze else out


def mass_matrix(tree: KinematicTree, q: np.ndarray,
                armature: np.ndarray | None = None,
                root_pose: Transform | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Symmetric positive-definite generalized mass matrix (CRBA).

    ``armature`` (reflected motor inertia) adds to the joint diagonal. For
    floating trees the root block is in mixed coordinates.
    """
    q2, squeeze = _batched_q(tree, q)
    E = q2.shape[0]
    if params is None:
        params = DynParams.from_tree(tree, E)
    xf = k.motion_xforms(*k.joint_xforms(tree, q2))
    m = k.crba_kernel(tree, xf, k.spatial_inertia(params.mass, params.com,
                                                  params.inertia))
    if tree.floating:
        _, base_rot = _base_arrays(tree, E, root_pose)
        _mix_matrix_inplace(m, base_rot)
    off = 6 if tree.floating else 0
    if armature is not None:
        arm = np.broadcast_to(np.asarray(armature, dtype=np.float64),
                              (E, tree.num_joints))
        if np.any(arm < 0):
            raise ValueError("armature must be >= 0")
        idx = np.arange(tree.num_joints)
        m[:, off + idx, off + idx] += arm
    return m[0] if squeeze else m


def _mix_matrix_inplace(m: np.ndarray, base_rot: np.ndarray) -> None:
    """Congruence transform of the root linear block into world coords."""
    m[:, 3:6, :] = base_rot @ m[:, 3:6, :]
    m[:, :, 3:6] = m[:, :, 3:6] @ np.swapaxes(base_rot, 1, 2)


def _mix_vector_inplace(vec: np.ndarray, base_rot: np.ndarray) -> None:
    vec[:, 3:6] = np.einsum("eab,eb->ea", base_rot, vec[:, 3:6])


def _bias_and_m(tree, state, gravity, params):
    """Internal: (M_u, bias_u, joint frames, X, v_body, base_rot).

    The motion transforms ``X`` and the spatial inertias are computed once
    here and shared by the velocity, CRBA and RNEA kernels; ``step`` reuses
    the joint frames for FK and ``X`` for wrench mapping.
    """
    E = state.env_count
    frames, xf, v_body, base_rot = _motion(tree, state)
    g = np.broadcast_to(np.asarray(gravity, dtype=np.float64), (E, 3))
    inertia = k.spatial_inertia(params.mass, params.com, params.inertia)
    m = k.crba_kernel(tree, xf, inertia)
    bias = k.rnea_kernel(tree, xf, v_body, state.qd, inertia, base_rot, g)
    if tree.floating:
        # Mixed-frame correction: subtract M[:, lin] @ (w_b x v_b) before
        # rotating the linear rows into world coordinates.
        w_b = v_body[:, 0, :3]
        v_b = v_body[:, 0, 3:]
        bias -= np.einsum("eij,ej->ei", m[:, :, 3:6], np.cross(w_b, v_b))
        _mix_vector_inplace(bias, base_rot)
        _mix_matrix_inplace(m, base_rot)
    off = 6 if tree.floating else 0
    idx = np.arange(tree.num_joints)
    m[:, off + idx, off + idx] += params.armature
    return m, bias, frames, xf, v_body, base_rot


def bias_forces(tree: KinematicTree, q: np.ndarray, qd: np.ndarray,
                gravity=GRAVITY, root_pose: Transform | None = None,
                root_twist: np.ndarray | None = None,
                params: DynParams | None = None) -> np.ndarray:
    """Coriolis, centrifugal, and gravity forces in generalized coordinates."""
    q2, squeeze = _batched_q(tree, q)
    qd2, _ = _batched_q(tree, qd)
    E = q2.shape[0]
    state = ArticulationState.zeros(tree, E)
    state.q[:] = q2
    state.qd[:] = qd2
    if root_pose is not None:
        state.root_pos[:] = np.broadcast_to(root_pose.pos, (E, 3))
        state.root_quat[:] = np.broadcast_to(root_pose.quat, (E, 4))
    if root_twist is not None:
        rt = np.broadcast_to(np.asarray(root_twist, dtype=np.float64), (E, 6))
        state.root_lin_vel[:] = rt[:, :3]
        state.root_ang_vel[:] = rt[:, 3:]
    if params is None:
        params = DynParams.from_tree(tree, E)
    _, bias, *_ = _bias_and_m(tree, state, gravity, params)
    return bias[0] if squeeze else bias


def contact_forces(tree: KinematicTree, state: ArticulationState,
                   probes: ContactPointSet, terrain,
                   contact_params: tuple | None = None,
                   out: ContactForces | None = None,
                   wrench_accum: np.ndarray | None = None) -> ContactForces:
    """Evaluate probe-terrain penalty contacts for the current state.

    ``contact_params`` optionally overrides per-env ``(stiffness, damping,
    friction)`` arrays of shape ``(E, P)``.
    """
    frames, _, v_body, base_rot = _motion(tree, state)
    link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, state.root_pos)
    return _contacts(tree, probes, terrain, contact_params, link_rot,
                     link_pos, v_body, out, wrench_accum)


def _contacts(tree, probes, terrain, contact_params, link_rot, link_pos,
              v_body, out, wrench_accum):
    E = link_rot.shape[0]
    P = probes.count
    if contact_params is None:
        kk = np.tile(probes.stiffness, (E, 1))
        cc = np.tile(probes.damping, (E, 1))
        mu = np.tile(probes.friction, (E, 1))
    else:
        kk, cc, mu = contact_params
    if out is None:
        out = ContactForces.zeros(E, P)
    if wrench_accum is None:
        wrench_accum = np.zeros((E, tree.num_links, 6))
    k.contact_kernel(probes, kk, cc, mu, link_rot, link_pos, v_body, terrain,
                     out.normal, out.tangent, out.in_contact, wrench_accum)
    return out


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
         contact_params: tuple | None = None,
         contacts_out: ContactForces | None = None,
         velocity_limit: np.ndarray | None = None) -> ArticulationState:
    """Advance the articulation one semi-implicit Euler substep, in place.

    Solves ``(M + dt*diag(kd) + dt^2*diag(kp)) u+ = M u + dt*(tau + J_c^T f_c
    - bias + kp*(q* - q) + kd*qd*)`` then integrates positions with ``u+``.
    Without implicit PD gains the system matrix is ``M`` alone. The free
    root integrates its quaternion with renormalization.

    Raises:
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

    m, bias, frames, xf, v_body, base_rot = _bias_and_m(
        tree, state, gravity, params)
    off = 6 if tree.floating else 0
    nv = tree.nv

    # generalized applied forces
    wrench = np.ascontiguousarray(state.ext_wrench)
    contacts = probes is not None and terrain is not None and probes.count
    f_gen = 0.0
    if contacts or np.any(wrench):
        link_rot, link_pos = k.fk_kernel(tree, *frames, base_rot, state.root_pos)
        if contacts:
            _contacts(tree, probes, terrain, contact_params, link_rot, link_pos,
                      v_body, contacts_out, wrench)
        f_gen = k.wrench_kernel(tree, xf, link_rot, wrench)
        if tree.floating:
            _mix_vector_inplace(f_gen, base_rot)

    tau = np.zeros((E, nv))
    tau[:, off:] = joint_efforts

    # current generalized velocity (mixed coordinates)
    u = np.empty((E, nv))
    if tree.floating:
        u[:, :3] = v_body[:, 0, :3]
        u[:, 3:6] = state.root_lin_vel
        u[:, 6:] = state.qd
    else:
        u[:] = state.qd

    a_sys = m
    rhs = np.einsum("eij,ej->ei", m, u) + dt * (tau + f_gen - bias)
    if implicit_pd is not None:
        kp = np.broadcast_to(np.asarray(implicit_pd.kp, dtype=np.float64), (E, nj))
        kd = np.broadcast_to(np.asarray(implicit_pd.kd, dtype=np.float64), (E, nj))
        a_sys = m.copy()
        idx = np.arange(nj)
        a_sys[:, off + idx, off + idx] += dt * kd + dt * dt * kp
        pd_rhs = kp * (implicit_pd.q_target - state.q)
        if implicit_pd.qd_target is not None:
            pd_rhs = pd_rhs + kd * implicit_pd.qd_target
        rhs[:, off:] += dt * pd_rhs

    u_new = np.linalg.solve(a_sys, rhs[..., None])[..., 0]
    if velocity_limit is not None:
        lim = np.broadcast_to(np.asarray(velocity_limit, dtype=np.float64), (E, nj))
        u_new[:, off:] = np.clip(u_new[:, off:], -lim, lim)

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
