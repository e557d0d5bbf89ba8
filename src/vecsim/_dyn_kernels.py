"""Batched articulated-dynamics kernels.

Every kernel works on all E environments at once: arrays carry the
environment as their leading axis, and the only Python loops run over the
links of the tree, root to leaf or leaf to root. The interpreter cost is
paid once per link, not once per link and environment.

Spatial vectors are body-frame ``[angular, linear]`` about link-frame
origins. The parent->child motion transforms ``X`` (``(E, L, 6, 6)``, from
:func:`motion_xforms`) and the spatial inertias (``(E, L, 6, 6)``, from
:func:`spatial_inertia`) depend only on ``q`` and the physical parameters,
so the integrator computes them once per substep and passes them to the
velocity, RNEA, CRBA and wrench kernels. Forces move to the parent with
``X^T``; the leaf-to-root pass that projects them onto the joint axes is
shared by RNEA, CRBA and wrench mapping (:func:`_project_to_joints`).
"""

from __future__ import annotations

import numpy as np

from .articulation import JOINT_FREE, JOINT_PRISMATIC, JOINT_REVOLUTE


# skew(v) == (v @ _SKEW).reshape(3, 3): row c holds the pattern of v_c
_SKEW = np.zeros((3, 3, 3))
_SKEW[2, 0, 1] = _SKEW[0, 1, 2] = _SKEW[1, 2, 0] = -1.0
_SKEW[1, 0, 2] = _SKEW[2, 1, 0] = _SKEW[0, 2, 1] = 1.0
# crm(v) == (v @ _CRM).reshape(6, 6) == [[skew(w), 0], [skew(v_lin), skew(w)]]
_CRM = np.zeros((6, 6, 6))
_CRM[:3, :3, :3] = _CRM[:3, 3:, 3:] = _CRM[3:, 3:, :3] = _SKEW
_SKEW = _SKEW.reshape(3, 9)
_CRM = _CRM.reshape(6, 36)


def _mv(a, x):
    """Batched matrix-vector product ``a @ x`` over leading axes."""
    return (a @ x[..., None])[..., 0]


def _skew(v):
    """``skew(v) @ x == v x x`` over leading axes."""
    return (v @ _SKEW).reshape(v.shape[:-1] + (3, 3))


def _cross(a, b):
    """Cross product over the last axis (cheaper than ``np.cross``)."""
    return _mv(_skew(a), b)


def _crm(v):
    """Spatial cross-product matrices: ``crm(v) @ m == v x m`` and
    ``-crm(v)^T @ f == v x* f``."""
    return (v @ _CRM).reshape(v.shape[:-1] + (6, 6))


def _rodrigues(axis, angle):
    """Rotations ``(E, n, 3, 3)`` about unit axes ``(n, 3)`` by ``(E, n)``."""
    c = np.cos(angle)[..., None, None]
    s = np.sin(angle)[..., None, None]
    outer = axis[:, :, None] * axis[:, None, :]
    return c * np.eye(3) + s * _skew(axis) + (1.0 - c) * outer


def joint_xforms(tree, q):
    """Each link's frame in its parent's frame, for joint positions ``q``.

    Returns ``rot`` ``(E, L, 3, 3)`` and ``pos`` ``(E, L, 3)``: the fixed
    joint origin followed by the joint motion. The free root's entry is
    its (unused) origin.
    """
    E = q.shape[0]
    rot = np.repeat(tree.x_rot[None], E, axis=0)
    pos = np.repeat(tree.x_pos[None], E, axis=0)
    rev = np.flatnonzero(tree.jtype == JOINT_REVOLUTE)
    if rev.size:
        rot[:, rev] = tree.x_rot[rev] @ _rodrigues(tree.axis[rev], q[:, tree.qidx[rev]])
    pri = np.flatnonzero(tree.jtype == JOINT_PRISMATIC)
    if pri.size:
        slide = tree.axis[pri] * q[:, tree.qidx[pri], None]
        pos[:, pri] += _mv(tree.x_rot[pri], slide)
    return rot, pos


def motion_xforms(rot, pos):
    """Parent->child motion maps ``[[E, 0], [-E skew(r), E]]``, ``E = rot^T``."""
    e = np.swapaxes(rot, -1, -2)
    X = np.zeros(rot.shape[:-2] + (6, 6))
    X[..., :3, :3] = e
    X[..., 3:, 3:] = e
    # -E skew(r) == (skew(r) rot)^T
    X[..., 3:, :3] = np.swapaxes(_skew(pos) @ rot, -1, -2)
    return X


def spatial_inertia(mass, com, inertia):
    """6x6 spatial inertias about the link origins, ``[ang, lin]`` blocks.

    ``mass`` ``(E, L)``, ``com`` ``(E, L, 3)``, ``inertia`` about the COM
    ``(E, L, 3, 3)``.
    """
    m = mass[..., None, None]
    sk = _skew(com)
    msk = m * sk
    out = np.empty(mass.shape + (6, 6))
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
    for i in range(L):
        p = tree.parent[i]
        if i == 0 and tree.floating:
            link_rot[:, 0] = base_rot
            link_pos[:, 0] = base_pos
            continue
        rp, pp = (base_rot, base_pos) if p < 0 else (link_rot[:, p], link_pos[:, p])
        link_rot[:, i] = rp @ rot[:, i]
        link_pos[:, i] = pp + _mv(rp, pos[:, i])
    return link_rot, link_pos


def _joint_motion(tree, qd):
    """Joint velocity ``S_i qd_i`` of every link, ``(E, L, 6)``."""
    # index -1 (links without a joint) picks the padded zero
    padded = np.concatenate([qd, np.zeros((qd.shape[0], 1))], axis=1)
    return tree.subspace * padded[:, tree.qidx, None]


def vel_kernel(tree, X, qd, base_rot, root_twist_w):
    """Body-frame spatial link velocities ``[w, v]``, ``(E, L, 6)``.

    ``root_twist_w`` is the free root's world twist ``[lin, ang]``; a
    fixed-base mount is at rest.
    """
    v = _joint_motion(tree, qd)
    for i in range(tree.num_links):
        p = tree.parent[i]
        if i == 0 and tree.floating:
            rt = np.swapaxes(base_rot, -1, -2)
            v[:, 0, :3] = _mv(rt, root_twist_w[:, 3:])
            v[:, 0, 3:] = _mv(rt, root_twist_w[:, :3])
        elif p >= 0:
            v[:, i] += _mv(X[:, i], v[:, p])
    return v


def _project_to_joints(tree, X, f):
    """Leaf-to-root pass shared by RNEA, CRBA and wrench mapping.

    Each link's spatial force (``f``, ``(E, L, 6, K)``) is moved into its
    parent's with ``X^T``, leaf to root, so that ``f[:, i]`` becomes the
    force transmitted across joint ``i``; ``f`` is consumed. Returns its
    projection onto the joint axes, ``(E, nv, K)``, with a floating root's
    whole force in rows ``0..5``.
    """
    for i in range(tree.num_links - 1, 0, -1):
        p = tree.parent[i]
        if p >= 0:
            f[:, p] += np.swapaxes(X[:, i], -1, -2) @ f[:, i]
    off = 6 if tree.floating else 0
    out = np.zeros((f.shape[0], tree.nv) + f.shape[3:])
    moving = tree.qidx >= 0
    out[:, off + tree.qidx[moving]] = (tree.subspace[:, None] @ f)[:, moving, 0]
    if tree.floating:
        out[:, :6] = f[:, 0]
    return out


def rnea_kernel(tree, X, v, qd, inertia, base_acc):
    """Bias forces (Coriolis + centrifugal + gravity) at zero joint acceleration.

    ``base_acc`` ``(E, 3)`` is the linear acceleration of the base (a fixed
    tree's mount) in its own frame; gravity enters as its upward part, so
    pass ``-R^T g``. ``inertia`` holds the spatial inertias. Returns
    ``(E, nv)`` in body coordinates.
    """
    E, L = v.shape[:2]
    crm = _crm(v)
    c = _mv(crm, _joint_motion(tree, qd))
    a_base = np.zeros((E, 6))
    a_base[:, 3:] = base_acc
    a = np.empty((E, L, 6))
    for i in range(L):
        p = tree.parent[i]
        if i == 0 and tree.floating:
            a[:, 0] = a_base
        else:
            a[:, i] = _mv(X[:, i], a_base if p < 0 else a[:, p]) + c[:, i]
    # v x* h == -crm(v)^T h, computed as the row vector h^T crm(v)
    h = _mv(inertia, v)
    f = _mv(inertia, a) - (h[..., None, :] @ crm)[..., 0, :]
    return _project_to_joints(tree, X, f[..., None])[..., 0]


def crba_kernel(tree, X, inertia):
    """Composite-rigid-body mass matrix ``(E, nv, nv)``, body coordinates.

    Column ``j`` starts as the force ``Ic_j S_j`` on joint ``j``'s link
    (``Ic`` the composite inertia); the shared leaf-to-root pass carries it
    to every ancestor, whose projection is the upper-triangle entry.
    """
    E, L = inertia.shape[:2]
    nv = tree.nv
    off = 6 if tree.floating else 0
    ic = inertia.copy()
    for i in range(L - 1, 0, -1):
        p = tree.parent[i]
        if p >= 0:
            ic[:, p] += np.swapaxes(X[:, i], -1, -2) @ ic[:, i] @ X[:, i]
    f = np.zeros((E, L, 6, nv))
    if tree.floating:
        f[:, 0, :, :6] = ic[:, 0]
    moving = tree.qidx >= 0
    # column qidx[i] of link i's force block: f.swapaxes(2, 3)[:, i, col]
    np.swapaxes(f, 2, 3)[:, moving, off + tree.qidx[moving]] = _mv(
        ic[:, moving], tree.subspace[moving])
    upper = np.triu(_project_to_joints(tree, X, f))
    return upper + np.swapaxes(np.triu(upper, 1), -1, -2)


def wrench_kernel(tree, X, link_rot, wrench_w):
    """Generalized forces ``(E, nv)`` from world link wrenches ``[f, tau]``."""
    rt = np.swapaxes(link_rot, -1, -2)
    fb = np.concatenate([_mv(rt, wrench_w[..., 3:]), _mv(rt, wrench_w[..., :3])],
                        axis=-1)
    return _project_to_joints(tree, X, fb[..., None])[..., 0]


def jacobian_kernel(tree, link_rot, link_pos, link, offset):
    """Point Jacobian rows ``[linear, angular]``, columns in qvel order."""
    E = link_rot.shape[0]
    off = 6 if tree.floating else 0
    out = np.zeros((E, 6, tree.nv))
    pw = link_pos[:, link] + _mv(link_rot[:, link], offset)
    j = link
    while j >= 0:
        jt = tree.jtype[j]
        col = off + tree.qidx[j]
        if jt == JOINT_REVOLUTE:
            aw = _mv(link_rot[:, j], tree.axis[j])
            out[:, :3, col] = _cross(aw, pw - link_pos[:, j])
            out[:, 3:, col] = aw
        elif jt == JOINT_PRISMATIC:
            out[:, :3, col] = _mv(link_rot[:, j], tree.axis[j])
        elif jt == JOINT_FREE:
            r0 = link_rot[:, 0]
            rel = pw - link_pos[:, 0]
            # linear rows wrt body angular velocity: -skew(rel) @ R0
            out[:, :3, :3] = -(_skew(rel) @ r0)
            out[:, 3:, :3] = r0
            out[:, :3, 3:6] = np.eye(3)
        j = tree.parent[j]
    return out


def contact_kernel(probes, link_rot, link_pos, v_body, ground):
    """Compliant probe-terrain contacts with the probes' own stiffness,
    damping and friction.

    ``ground`` is any terrain with ``surface_height(x, y)``; the gap is
    measured vertically and the normal is world ``+z``. Returns the normal
    and tangential forces ``(E, P, 3)``, the contact flags ``(E, P)`` and
    the summed world wrenches ``[f, tau]`` on each link ``(E, L, 6)``.
    """
    li = probes.link
    rot = link_rot[:, li]
    pw = link_pos[:, li] + _mv(rot, probes.offset)
    depth = ground.surface_height(pw[..., 0], pw[..., 1]) - (pw[..., 2] - probes.radius)
    # world velocity of the probe point
    vb = v_body[:, li]
    vp = _mv(rot, vb[..., 3:] + _cross(vb[..., :3], probes.offset))
    fn = probes.stiffness * depth - probes.damping * vp[..., 2]
    active = (depth > 0.0) & (fn > 0.0)
    fn = np.where(active, fn, 0.0)
    # Coulomb-clamped viscous tangential opposition
    ft = np.where(active[..., None], -probes.damping[:, None] * vp[..., :2], 0.0)
    fmag = np.sqrt(ft[..., 0] * ft[..., 0] + ft[..., 1] * ft[..., 1])
    fmax = probes.friction * fn
    clamp = (fmag > fmax) & (fmag > 0.0)
    ft = np.where(clamp[..., None], ft * (fmax / np.where(clamp, fmag, 1.0))[..., None], ft)
    zero = np.zeros_like(fn)
    normal = np.stack([zero, zero, fn], axis=-1)
    tangent = np.concatenate([ft, zero[..., None]], axis=-1)
    force = np.concatenate([ft, fn[..., None]], axis=-1)
    wrench = np.zeros(link_pos.shape[:2] + (6,))
    np.add.at(wrench, (slice(None), li),
              np.concatenate([force, _cross(pw - link_pos[:, li], force)], axis=-1))
    return normal, tangent, active, wrench
