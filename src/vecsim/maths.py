"""Spatial math: quaternions, rigid transforms, and small helpers.

Conventions used across the package:

* quaternions are ``(w, x, y, z)`` arrays with unit norm,
* lengths are meters, angles radians, the world frame is Z-up,
* all functions broadcast over leading batch dimensions.

Every real-valued setting in the package, a gain, a limit, a length, a
period or a threshold, passes one rule, :func:`check_setting`: each entry
is not NaN, meets the setting's lower bound (none, ``>= 0`` or ``> 0``)
and is finite. ``+inf`` passes only where a setting documents it as "no
limit". Every count setting, a size, a length or a number of steps,
passes :func:`check_count`: it is an integer by type, Python or NumPy but
not ``bool`` (``2.0`` is not a count), and at least its least value. A
setting that breaks its rule raises one ``ValueError`` that names it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# read-only: the default gravity of dynamics.step, dynamics.bias_forces and
# sensors.ImuSensor
GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.setflags(write=False)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Scale quaternions to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    # sqrt(sum q^2), the arithmetic of np.linalg.norm
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a * b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product ``a x b`` over the last axis, broadcasting the rest.

    Bitwise equal to ``np.cross`` (the same products and differences) at
    about half its cost on small batches.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    out = np.empty(np.broadcast(a, b).shape, dtype=dtype)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors ``v`` by quaternions ``q``."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., :1]
    xyz = q[..., 1:]
    t = 2.0 * cross(xyz, v)
    return v + w * t + cross(xyz, t)


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_rotate(quat_conjugate(q), v)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exponential map: rotation-vector (axis * angle) to quaternion."""
    v = np.asarray(v, dtype=np.float64)
    # sqrt(sum v^2), the arithmetic of np.linalg.norm
    angle = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
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
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
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


def compose(a: Transform, b: Transform) -> Transform:
    """Composition ``a ∘ b``: apply ``b`` first, then ``a``."""
    return Transform(a.pos + quat_rotate(a.quat, b.pos), quat_mul(a.quat, b.quat))


def inverse(t: Transform) -> Transform:
    qi = quat_conjugate(t.quat)
    return Transform(-quat_rotate(qi, t.pos), qi)


def relative_pose(source: Transform, target: Transform) -> Transform:
    """The pose of ``target`` expressed in the ``source`` frame."""
    return compose(inverse(source), target)


def grid_count(extent: float, step: float) -> int:
    """Points ``0, step, 2 step, ...`` within ``extent``; tolerates
    ``extent / step`` landing just below an integer."""
    return int(np.floor(extent / step + 1e-6)) + 1


_FINITE_MAX = np.finfo(np.float64).max
# the least value each lower bound admits; x > 0 is x >= the least subnormal
_LEAST = {">= 0": 0.0, "> 0": np.nextafter(0.0, 1.0)}


def check_setting(name: str, value, bound: str | None = None, *,
                  inf: bool = False) -> np.ndarray:
    """``value`` as a float array once every entry passes the settings rule
    (see the module docstring); otherwise raises ``ValueError`` naming
    ``name``.

    ``bound`` is ``None``, ``">= 0"`` or ``"> 0"``; ``inf=True`` lets
    ``+inf`` through.
    """
    x = np.asarray(value, dtype=np.float64)
    if bound is None:
        ok = np.isfinite(x)
    else:
        # NaN fails both comparisons
        ok = (x >= _LEAST[bound]) & (x <= (np.inf if inf else _FINITE_MAX))
    if np.count_nonzero(ok) < x.size:
        rule = "finite" if bound is None else bound if inf else bound + " and finite"
        raise ValueError(f"{name} must be {rule}, got {x[~ok][0]}")
    return x


def check_count(name: str, value, least: int = 1) -> int:
    """``int(value)`` once ``value`` passes the count rule (see the module
    docstring) with least value ``least``; otherwise raises ``ValueError``
    naming ``name``."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
