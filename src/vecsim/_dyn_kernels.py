"""Batched articulated-dynamics kernels.

Every kernel works on all E environments at once: arrays carry the
environment as their leading axis, and the only Python loops run over the
depth levels of the tree, root to leaf. Each step of such a loop handles
one run of a level from ``KinematicTree.levels``, links whose ids and
parent ids step evenly, through strided views, so a pass over a quadruped
numbered leg by leg takes 4 steps, not 13, and its results are bitwise the
per-link loop's. The interpreter cost is paid once per run, not once per
link and environment.

Spatial vectors are body-frame ``[angular, linear]`` about link-frame
origins. The parent->child motion transforms ``X`` (``(E, L, 6, 6)``, from
:func:`motion_xforms`) depend only on ``q``, so the integrator computes
them once per substep. The spatial inertias (``(E, L, 6, 6)``, from
:func:`spatial_inertia`) are parameters, built once when they are set.
One root-to-leaf pass over ``X`` gives every link's body Jacobian ``J_i``
(:func:`body_jacobians`), and the other quantities follow from it (Lynch
& Park, *Modern Robotics*, 2017; Featherstone, *Rigid Body Dynamics
Algorithms*, 2008): the link velocities ``v_i = J_i u``, the mass matrix
``sum_i J_i^T I_i J_i``, the generalized forces ``sum_i J_i^T f_i`` of
RNEA's link forces and the point Jacobians. A free root's block of ``J``
holds the mixed coordinates of ``u`` (base-frame angular, world linear
velocity), so every product of ``J`` is in the public coordinates.
"""

from __future__ import annotations

import numpy as np

from .maths import cross


# skew(v) == (v @ _SKEW).reshape(3, 3): row c holds the pattern of v_c
_SKEW = np.zeros((3, 3, 3))
_SKEW[2, 0, 1] = _SKEW[0, 1, 2] = _SKEW[1, 2, 0] = -1.0
_SKEW[1, 0, 2] = _SKEW[2, 1, 0] = _SKEW[0, 2, 1] = 1.0
# crm(v) == (v @ _CRM).reshape(6, 6) == [[skew(w), 0], [skew(v_lin), skew(w)]]
_CRM = np.zeros((6, 6, 6))
_CRM[:3, :3, :3] = _CRM[:3, 3:, 3:] = _CRM[3:, 3:, :3] = _SKEW
_SKEW = _SKEW.reshape(3, 9)
_CRM = _CRM.reshape(6, 36)
_EYE3 = np.eye(3)


def _mv(a, x):
    """Batched matrix-vector product ``a @ x`` over leading axes."""
    return (a @ x[..., None])[..., 0]


def skew(v):
    """``skew(v) @ x == v x x`` over leading axes."""
    return (v @ _SKEW).reshape(v.shape[:-1] + (3, 3))


def _crm(v, out=None):
    """Spatial cross-product matrices: ``crm(v) @ m == v x m`` and
    ``-crm(v)^T @ f == v x* f``, written into ``out`` when it is given."""
    crm = np.empty(v.shape[:-1] + (6, 6)) if out is None else out
    np.matmul(v, _CRM, out=crm.reshape(v.shape[:-1] + (36,)))
    return crm


def joint_xforms(tree, q):
    """Each link's frame in its parent's frame, for joint positions ``q``.

    Returns ``rot`` ``(E, L, 3, 3)`` and ``pos`` ``(E, L, 3)``: the fixed
    joint origin followed by the joint motion, a revolute joint's by
    Rodrigues' formula ``c 1 + s skew(a) + (1 - c) a a^T`` from the tree's
    stored ``skew(a)`` and ``a a^T``. The free root's entry is its origin,
    the identity, so the root's world frame is the base pose.
    """
    E = q.shape[0]
    rot = tree.x_rot[None].repeat(E, axis=0)
    pos = tree.x_pos[None].repeat(E, axis=0)
    rev = tree.revolute
    if rev.size:
        angle = q[:, tree.qidx[rev]]
        c = np.cos(angle)[..., None, None]
        s = np.sin(angle)[..., None, None]
        rot[:, rev] = tree.revolute_x_rot @ (
            c * _EYE3 + s * tree.revolute_skew + (1.0 - c) * tree.revolute_outer)
    pri = tree.prismatic
    if pri.size:
        slide = tree.axis[pri] * q[:, tree.qidx[pri], None]
        pos[:, pri] += _mv(tree.x_rot[pri], slide)
    return rot, pos


def motion_xforms(rot, pos, out=None):
    """Parent->child motion maps ``[[E, 0], [-E skew(r), E]]``, ``E = rot^T``,
    written into ``out`` when it is given."""
    e = rot.swapaxes(-1, -2)
    X = np.empty(rot.shape[:-2] + (6, 6)) if out is None else out
    X[..., :3, :3] = e
    X[..., :3, 3:] = 0.0
    X[..., 3:, 3:] = e
    # -E skew(r) == (skew(r) rot)^T
    X[..., 3:, :3] = (skew(pos) @ rot).swapaxes(-1, -2)
    return X


def spatial_inertia(mass, com, inertia):
    """6x6 spatial inertias about the link origins, ``[ang, lin]`` blocks.

    ``mass`` ``(...)``, ``com`` ``(..., 3)``, ``inertia`` about the COM
    ``(..., 3, 3)``, for any leading shape, a single link's scalar mass too.
    """
    m = np.asarray(mass, dtype=np.float64)[..., None, None]
    sk = skew(np.asarray(com, dtype=np.float64))
    msk = m * sk
    out = np.empty(msk.shape[:-2] + (6, 6))
    # parallel-axis term m (|c|^2 1 - c c^T) == -m skew(c)^2
    out[..., :3, :3] = inertia - msk @ sk
    out[..., :3, 3:] = msk
    out[..., 3:, :3] = -msk
    out[..., 3:, 3:] = m * np.eye(3)
    return out


def fk_kernel(tree, rot, pos, base_rot, base_pos):
    """World link rotations ``(E, L, 3, 3)`` and origins ``(E, L, 3)``."""
    E, L = rot.shape[:2]
    link_rot = np.empty((E, L, 3, 3))
    link_pos = np.empty((E, L, 3))
    for links, parents, *_ in tree.levels:
        if parents is None:
            rp, pp = base_rot[:, None], base_pos[:, None]
        else:
            rp, pp = link_rot[:, parents], link_pos[:, parents]
        np.matmul(rp, rot[:, links], out=link_rot[:, links])
        np.matmul(rp, pos[:, links, :, None], out=link_pos[:, links, :, None])
        link_pos[:, links] += pp
    return link_rot, link_pos


def body_jacobians(tree, X, base_rot, out=None):
    """Body Jacobians ``J`` ``(E, L, 6, nv)``: link ``i``'s body-frame
    velocity ``[w, v]`` is ``J[:, i] @ u`` for the public generalized
    velocity ``u``.

    One root-to-leaf pass over the depth levels,
    ``J_i = X_i J_parent + S_i e_i``. A free root's
    block is ``[[1, 0], [0, R^T]]``: ``u`` holds its angular velocity in the
    base frame and its linear velocity in the world frame (mixed
    coordinates), and this block is the one place that says so. ``J`` is
    written into ``out`` when it is given.
    """
    E, L = X.shape[:2]
    J = np.empty((E, L, 6, tree.nv)) if out is None else out
    J[:, tree.parent < 0] = 0.0
    if tree.floating:
        J[:, 0, :3, :3] = _EYE3
        J[:, 0, 3:, 3:6] = base_rot.swapaxes(-1, -2)
    for links, parents, joint, cols, rows in tree.levels:
        if parents is not None:
            np.matmul(X[:, links], J[:, parents], out=J[:, links])
        J[:, joint, :, cols] = rows
    return J


def mass_kernel(J, inertia, out=None, ij=None):
    """Generalized mass matrix ``sum_i J_i^T I_i J_i``, ``(E, nv, nv)``.

    The lower triangle mirrors the upper one exactly. The matrix is written
    into ``out`` and the products ``I_i J_i`` into ``ij`` (shaped like
    ``J``) when they are given.
    """
    E, L, _, nv = J.shape
    ij = np.matmul(inertia, J, out=ij)
    m = np.matmul(J.reshape(E, 6 * L, nv).swapaxes(1, 2),
                  ij.reshape(E, 6 * L, nv), out=out)
    col = np.arange(nv)
    np.copyto(m, m.swapaxes(1, 2), where=col[:, None] > col)
    return m


def rnea_kernel(tree, X, J, v, qd, inertia, base_acc, f_ext, crm=None):
    """Generalized forces that give zero joint acceleration: Coriolis,
    centrifugal and gravity, less the applied link forces.

    ``base_acc`` ``(E, 3)`` is the linear acceleration of the base (a fixed
    tree's mount) in its own frame; gravity enters as its upward part, so
    pass ``-R^T g``. ``inertia`` holds the spatial inertias and ``f_ext``
    the applied body-frame forces ``[torque, force]`` on each link,
    ``(E, L, 6)`` or ``0.0``. The forward pass gives each link's force
    ``f_i`` (Featherstone 2008, Table 5.1); the result is
    ``sum_i J_i^T f_i``, ``(E, nv)`` in the coordinates of ``J``. The link
    velocities' cross-product matrices are written into ``crm``
    ``(E, L, 6, 6)`` when it is given.
    """
    E, L = v.shape[:2]
    crm = _crm(v, crm)
    # joint velocities S_i qd_i; index -1 (links without a joint) picks the
    # padded zero
    padded = np.zeros((E, qd.shape[1] + 1))
    padded[:, :-1] = qd
    c = _mv(crm, tree.subspace * padded[:, tree.qidx, None])
    a_base = np.zeros((E, 1, 6, 1))
    a_base[:, 0, 3:, 0] = base_acc
    a = np.empty((E, L, 6, 1))
    for links, parents, *_ in tree.levels:
        ap = a_base if parents is None else a[:, parents]
        np.matmul(X[:, links], ap, out=a[:, links])
        a[:, links, :, 0] += c[:, links]
    a = a[..., 0]
    # v x* h == -crm(v)^T h, computed as the row vector h^T crm(v)
    h = _mv(inertia, v)
    f = _mv(inertia, a) - (h[..., None, :] @ crm)[..., 0, :] - f_ext
    return (f.reshape(E, 1, 6 * L) @ J.reshape(E, 6 * L, -1))[:, 0]


def point_jacobian(J_link, link_rot, offset):
    """World Jacobian rows ``[linear, angular]`` of the point ``offset`` on a
    link, from its body Jacobian ``J_link`` ``(E, 6, nv)`` and world
    rotation ``link_rot`` ``(E, 3, 3)``."""
    ang = J_link[:, :3]
    # the point moves at v + w x r == v - skew(r) w in the link frame
    lin = J_link[:, 3:] - skew(offset) @ ang
    return np.concatenate([link_rot @ lin, link_rot @ ang], axis=1)


def contact_kernel(probes, link_rot, link_pos, v_body, ground):
    """Compliant probe-terrain contacts with the probes' own stiffness,
    damping and friction.

    ``ground`` is any terrain with ``surface_height(x, y)``; the gap is
    measured vertically and the normal is world ``+z``. Returns the normal
    and tangential forces ``(E, P, 3)``, the contact flags ``(E, P)`` and
    the summed world wrenches ``[f, tau]`` on each link ``(E, L, 6)``.
    """
    li = probes.link
    if (li >= link_pos.shape[1]).any():
        raise IndexError(f"probe link index out of range (0..{link_pos.shape[1] - 1})")
    rot = link_rot[:, li]
    pw = link_pos[:, li] + _mv(rot, probes.offset)
    depth = ground.surface_height(pw[..., 0], pw[..., 1]) - (pw[..., 2] - probes.radius)
    # world velocity of the probe point
    vb = v_body[:, li]
    vp = _mv(rot, vb[..., 3:] + cross(vb[..., :3], probes.offset))
    fn = probes.stiffness * depth - probes.damping * vp[..., 2]
    active = (depth > 0.0) & (fn > 0.0)
    fn = np.where(active, fn, 0.0)
    # Coulomb-clamped viscous tangential opposition
    ft = np.where(active[..., None], -probes.damping[:, None] * vp[..., :2], 0.0)
    fmag = np.sqrt(ft[..., 0] * ft[..., 0] + ft[..., 1] * ft[..., 1])
    fmax = probes.friction * fn
    # friction >= 0 and fn >= 0, so fmag > fmax implies fmag > 0
    clamp = fmag > fmax
    ft = np.where(clamp[..., None], ft * (fmax / np.where(clamp, fmag, 1.0))[..., None], ft)
    normal = np.zeros(fn.shape + (3,))
    normal[..., 2] = fn
    tangent = np.zeros(fn.shape + (3,))
    tangent[..., :2] = ft
    # each probe's world wrench [force, torque about its link's origin]
    probe_wrench = np.empty(fn.shape + (6,))
    probe_wrench[..., :2] = ft
    probe_wrench[..., 2] = fn
    probe_wrench[..., 3:] = cross(pw - link_pos[:, li], probe_wrench[..., :3])
    wrench = np.zeros(link_pos.shape[:2] + (6,))
    np.add.at(wrench, (slice(None), li), probe_wrench)
    return normal, tangent, active, wrench
