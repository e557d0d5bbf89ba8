"""Spatial math: quaternions, rigid transforms, and small helpers.

Conventions used across the package:

* quaternions are ``(w, x, y, z)`` arrays with unit norm,
* lengths are meters, angles radians, the world frame is Z-up,
* all functions broadcast over leading batch dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Scale quaternions to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a * b``."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors ``v`` by quaternions ``q``."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., :1]
    xyz = q[..., 1:]
    t = 2.0 * np.cross(xyz, v)
    return v + w * t + np.cross(xyz, t)


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_rotate(quat_conjugate(q), v)


def quat_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` about unit ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    half = 0.5 * angle
    return np.concatenate(
        [np.cos(half)[..., None], axis * np.sin(half)[..., None]], axis=-1
    )


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exponential map: rotation-vector (axis * angle) to quaternion."""
    v = np.asarray(v, dtype=np.float64)
    angle = np.linalg.norm(v, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(a/2)/a is smooth through zero; use the series limit 1/2 there.
    small = angle < 1e-12
    scale = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([np.cos(half), v * scale], axis=-1)


def rotvec_from_quat(q: np.ndarray) -> np.ndarray:
    """Log map: quaternion to rotation vector with angle in ``[0, pi]``.

    At the antipodal singularity (angle ``pi``) the axis sign is chosen so
    its z-component is non-negative.
    """
    q = np.asarray(q, dtype=np.float64)
    # q and -q encode the same rotation; pick the w >= 0 representative so
    # the recovered angle lies in [0, pi].
    q = np.where(q[..., :1] < 0.0, -q, q)
    xyz = q[..., 1:]
    sin_half = np.linalg.norm(xyz, axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(sin_half[..., 0], q[..., 0])[..., None]
    small = sin_half < 1e-12
    axis = xyz / np.where(small, 1.0, sin_half)
    # Antipodal tie-break: at angle pi flip the axis toward +z.
    at_pi = np.abs(angle - np.pi) < 1e-12
    flip = at_pi & (axis[..., 2:3] < 0.0)
    axis = np.where(flip, -axis, axis)
    return np.where(small, 2.0 * xyz, axis * angle)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of shape ``(..., 3, 3)``."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quat_to_matrix` (Shepperd's method, batched).

    Each matrix takes the trace branch when its trace is positive, else the
    branch of its largest diagonal element (the first one on ties).
    """
    m = np.asarray(m, dtype=np.float64)
    r = m.reshape(-1, 3, 3)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    trace = np.trace(r, axis1=-2, axis2=-1)
    branch = np.where(trace > 0, 3, np.argmax(diag, axis=-1))
    out = np.empty((r.shape[0], 4))
    sel = branch == 3
    rs = r[sel]
    s = np.sqrt(trace[sel] + 1.0) * 2.0
    out[sel] = np.stack([0.25 * s, (rs[:, 2, 1] - rs[:, 1, 2]) / s,
                         (rs[:, 0, 2] - rs[:, 2, 0]) / s,
                         (rs[:, 1, 0] - rs[:, 0, 1]) / s], axis=-1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        sel = branch == i
        rs = r[sel]
        s = np.sqrt(rs[:, i, i] - rs[:, j, j] - rs[:, k, k] + 1.0) * 2.0
        qv = np.empty((rs.shape[0], 4))
        qv[:, 0] = (rs[:, k, j] - rs[:, j, k]) / s
        qv[:, 1 + i] = 0.25 * s
        qv[:, 1 + j] = (rs[:, j, i] + rs[:, i, j]) / s
        qv[:, 1 + k] = (rs[:, k, i] + rs[:, i, k]) / s
        out[sel] = qv
    return quat_normalize(out.reshape(m.shape[:-2] + (4,)))


@dataclass
class Transform:
    """Rigid-body pose: position plus unit-quaternion orientation.

    Both fields broadcast over leading batch dimensions.
    """

    pos: np.ndarray
    quat: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=np.float64)
        self.quat = np.asarray(self.quat, dtype=np.float64)

    @staticmethod
    def identity(shape: tuple[int, ...] = ()) -> "Transform":
        return Transform(
            np.zeros(shape + (3,)), np.broadcast_to(QUAT_IDENTITY, shape + (4,)).copy()
        )

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points from this frame into the parent frame."""
        return self.pos + quat_rotate(self.quat, points)

    def copy(self) -> "Transform":
        return Transform(self.pos.copy(), self.quat.copy())


def compose(a: Transform, b: Transform) -> Transform:
    """Composition ``a ∘ b``: apply ``b`` first, then ``a``."""
    return Transform(a.pos + quat_rotate(a.quat, b.pos), quat_mul(a.quat, b.quat))


def inverse(t: Transform) -> Transform:
    qi = quat_conjugate(t.quat)
    return Transform(-quat_rotate(qi, t.pos), qi)


def relative_pose(source: Transform, target: Transform) -> Transform:
    """The pose of ``target`` expressed in the ``source`` frame."""
    return compose(inverse(source), target)
