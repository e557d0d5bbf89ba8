"""Task-space and joint-space controllers.

Differential IK supports four singularity treatments (Moore-Penrose
pseudo-inverse, adaptive SVD truncation, Jacobian transpose, damped least
squares). Joint impedance and operational-space control take the mass
matrix and the gravity bias as arrays, from ``dynamics.mass_matrix`` and
``dynamics.bias_forces`` or any other source, so this module needs no
kinematic tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maths import (Transform, check_setting, quat_conjugate, quat_mul,
                    rotvec_from_quat)

IK_METHODS = ("pinv", "svd_adaptive", "transpose", "damped")


@dataclass
class IkConfig:
    """Differential IK update settings.

    The error being driven to zero, position only or full pose, is the
    caller's choice of :func:`pose_error` ``mode``. A
    ``singular_value_cutoff`` of ``+inf`` truncates every singular value.
    """

    method: str = "damped"
    damping: float = 0.05             # damped least-squares lambda
    singular_value_cutoff: float | None = None  # default 0.05 * sigma_max
    transpose_gain: float = 1.0
    step_scale: float = 1.0

    def __post_init__(self):
        if self.method not in IK_METHODS:
            raise ValueError(f"unknown IK method {self.method!r}")
        check_setting("damping", self.damping, ">= 0")
        if self.singular_value_cutoff is not None:
            check_setting("singular_value_cutoff", self.singular_value_cutoff,
                          ">= 0", inf=True)
        check_setting("transpose_gain", self.transpose_gain, "> 0")
        check_setting("step_scale", self.step_scale, "> 0")


def pose_error(current: Transform, target: Transform,
               mode: str = "pose") -> np.ndarray:
    """Task-space error ``[position, axis*angle]`` with angle in [0, pi].

    ``position`` mode returns only the translation rows.
    """
    dp = target.pos - current.pos
    if mode == "position":
        return dp
    if mode != "pose":
        raise ValueError("mode must be 'pose' or 'position'")
    q_err = quat_mul(target.quat, quat_conjugate(current.quat))
    return np.concatenate([dp, rotvec_from_quat(q_err)], axis=-1)


def diff_ik_step(j: np.ndarray, dx: np.ndarray, config: IkConfig) -> np.ndarray:
    """One differential IK update ``dq`` from a task-space error ``dx``.

    ``method="damped"`` at zero damping takes the ``pinv`` path, the
    lambda -> 0 limit of damped least squares, as ``J J^T`` may be singular.
    """
    j = np.asarray(j, dtype=np.float64)
    dx = np.asarray(dx, dtype=np.float64)
    if j.shape[:-2] != dx.shape[:-1] or j.shape[-2] != dx.shape[-1]:
        raise ValueError(f"jacobian {j.shape} does not match error {dx.shape}")
    method = config.method
    if method == "transpose":
        dq = config.transpose_gain * np.einsum("...kn,...k->...n", j, dx)
    elif method == "damped" and config.damping > 0:
        lam2 = config.damping ** 2
        k = j.shape[-2]
        jjt = np.einsum("...kn,...ln->...kl", j, j)
        jjt[..., np.arange(k), np.arange(k)] += lam2
        y = np.linalg.solve(jjt, dx[..., None])[..., 0]
        dq = np.einsum("...kn,...k->...n", j, y)
    else:
        u, s, vt = np.linalg.svd(j, full_matrices=False)
        if method == "svd_adaptive":
            smax = s.max(axis=-1, keepdims=True)
            cutoff = (config.singular_value_cutoff
                      if config.singular_value_cutoff is not None
                      else 0.05 * smax)
        else:  # pinv, or damped at zero damping
            cutoff = 1e-12
        inv_s = np.where(s >= cutoff, 1.0 / np.where(s == 0, 1.0, s), 0.0)
        dq = np.einsum("...nk,...k,...mk,...m->...n", vt.swapaxes(-1, -2),
                       inv_s, u, dx)
    return config.step_scale * dq


def joint_impedance(q: np.ndarray, qd: np.ndarray, q_des: np.ndarray,
                    stiffness: np.ndarray, damping: np.ndarray, *,
                    mass: np.ndarray | None = None,
                    gravity_bias: np.ndarray | None = None) -> np.ndarray:
    """Joint-space impedance control with optional dynamics compensation.

    ``tau = [mass @] (K (q_des - q) - D qd) [+ gravity_bias]``, a spring to
    ``q_des`` damped toward rest; each bracketed term applies when its array
    is given, as in :func:`osc`. ``mass`` is the mass matrix
    (``dynamics.mass_matrix``) and ``gravity_bias`` the bias at zero
    velocity (``dynamics.bias_forces(tree, q, zeros)``). Gains may vary per
    step and per joint (variable stiffness / variable impedance).
    """
    stiffness = check_setting("impedance stiffness", stiffness, ">= 0")
    damping = check_setting("impedance damping", damping, ">= 0")
    tau = stiffness * (q_des - q) - damping * qd
    if mass is not None:
        tau = np.einsum("...ij,...j->...i", mass, tau)
    if gravity_bias is not None:
        tau = tau + gravity_bias
    return tau


@dataclass
class TaskSpaceGains:
    """Diagonal task-space impedance with axis selection and feedforward."""

    stiffness: np.ndarray
    damping: np.ndarray
    selection: np.ndarray = field(default_factory=lambda: np.ones(6))
    feedforward: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        self.stiffness = check_setting("task-space stiffness", self.stiffness, ">= 0")
        self.damping = check_setting("task-space damping", self.damping, ">= 0")
        self.selection = np.asarray(self.selection, dtype=np.float64)
        self.feedforward = check_setting("task-space feedforward", self.feedforward)
        if not np.all((self.selection == 0) | (self.selection == 1)):
            raise ValueError("selection matrix entries must be 0 or 1")


def osc(j: np.ndarray, m: np.ndarray, dx: np.ndarray, xd: np.ndarray,
        gains: TaskSpaceGains, *, gravity_bias: np.ndarray | None = None,
        null_posture: tuple | None = None, q: np.ndarray | None = None,
        qd: np.ndarray | None = None) -> np.ndarray:
    """Operational-space control torque.

    ``Lambda = inv(J M^-1 J^T)`` (rank-deficient cases fall back to a
    truncated pseudo-inverse),
    ``F = Lambda (S (K dx - D xd)) + (I - S) F_ff`` and
    ``tau = J^T F [+ gravity bias] [+ null-space posture]`` where the
    posture term uses the dynamically consistent null-space projector.

    Raises:
        ValueError: if the mass matrix is not positive-definite.
    """
    j = np.asarray(j, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    k = j.shape[-2]
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("mass matrix is not positive-definite") from None
    m_inv = np.linalg.inv(m)
    a = j @ m_inv @ j.swapaxes(-1, -2)
    lam = np.linalg.pinv(a, rcond=1e-10)

    s = gains.selection[..., :k]
    wrench = s * (gains.stiffness[..., :k] * dx - gains.damping[..., :k] * xd)
    f = np.einsum("...kl,...l->...k", lam, wrench)
    f = f + (1.0 - s) * gains.feedforward[..., :k]
    tau = np.einsum("...kn,...k->...n", j, f)
    if gravity_bias is not None:
        tau = tau + gravity_bias
    if null_posture is not None:
        if q is None or qd is None:
            raise ValueError("null-space posture requires q and qd")
        q_ref, k_n, d_n = null_posture
        check_setting("null-space stiffness", k_n, ">= 0")
        check_setting("null-space damping", d_n, ">= 0")
        j_bar = m_inv @ j.swapaxes(-1, -2) @ lam  # dynamically consistent
        n = np.eye(j.shape[-1]) - j.swapaxes(-1, -2) @ j_bar.swapaxes(-1, -2)
        tau_posture = k_n * (q_ref - q) - d_n * qd
        tau = tau + np.einsum("...ij,...j->...i", n, tau_posture)
    return tau
