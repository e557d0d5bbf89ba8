"""Scalar reference implementations of the dynamics kernels.

These are the per-environment, per-link loops that ``vecsim._dyn_kernels``
replaced with link-loop, env-batched code. They are kept verbatim (one env
at a time, scalar 3x3 arithmetic) as the oracle in
``tests/test_dyn_kernels.py``; nothing in the package imports them.

Joint codes: 0 fixed, 1 revolute, 2 prismatic, 3 free (root only).
"""

from __future__ import annotations

import numpy as np


def _rodrigues(axis, angle):
    """Rotation matrix about a unit axis."""
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    x, y, z = axis[0], axis[1], axis[2]
    out = np.empty((3, 3))
    out[0, 0] = c + x * x * t
    out[0, 1] = x * y * t - z * s
    out[0, 2] = x * z * t + y * s
    out[1, 0] = x * y * t + z * s
    out[1, 1] = c + y * y * t
    out[1, 2] = y * z * t - x * s
    out[2, 0] = x * z * t - y * s
    out[2, 1] = y * z * t + x * s
    out[2, 2] = c + z * z * t
    return out


def _cross(a, b):
    out = np.empty(3)
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def _spatial_inertia(mass, com, inertia_c):
    """6x6 spatial inertia about the link origin, [ang, lin] blocks."""
    out = np.zeros((6, 6))
    cx, cy, cz = com[0], com[1], com[2]
    c2 = cx * cx + cy * cy + cz * cz
    for a in range(3):
        for b in range(3):
            out[a, b] = inertia_c[a, b] - mass * (com[a] * com[b])
        out[a, a] += mass * c2
    # off-diagonal blocks: +m*skew(c) top-right, -m*skew(c) bottom-left
    out[0, 4] = -mass * cz
    out[0, 5] = mass * cy
    out[1, 3] = mass * cz
    out[1, 5] = -mass * cx
    out[2, 3] = -mass * cy
    out[2, 4] = mass * cx
    out[3, 1] = mass * cz
    out[3, 2] = -mass * cy
    out[4, 0] = -mass * cz
    out[4, 2] = mass * cx
    out[5, 0] = mass * cy
    out[5, 1] = -mass * cx
    out[3, 3] = mass
    out[4, 4] = mass
    out[5, 5] = mass
    return out


def _force_to_parent(E, r, f):
    """Transform a spatial force from child coords to parent coords."""
    out = np.empty(6)
    fl = np.empty(3)
    for a in range(3):
        fl[a] = E[0, a] * f[3] + E[1, a] * f[4] + E[2, a] * f[5]
    na = np.empty(3)
    for a in range(3):
        na[a] = E[0, a] * f[0] + E[1, a] * f[1] + E[2, a] * f[2]
    rxf = _cross(r, fl)
    out[0] = na[0] + rxf[0]
    out[1] = na[1] + rxf[1]
    out[2] = na[2] + rxf[2]
    out[3] = fl[0]
    out[4] = fl[1]
    out[5] = fl[2]
    return out


def _link_xforms(jtype, parent, axis, x_rot, x_pos, q, qidx,
                 base_rot, base_pos, out_rot, out_pos):
    """Single-env forward kinematics into (L,3,3)/(L,3) buffers."""
    L = jtype.shape[0]
    for i in range(L):
        jt = jtype[i]
        if i == 0 and jt == 3:
            out_rot[0] = base_rot
            out_pos[0] = base_pos
            continue
        if parent[i] < 0:
            Rp = base_rot
            pp = base_pos
        else:
            Rp = out_rot[parent[i]]
            pp = out_pos[parent[i]]
        Rj = Rp @ x_rot[i]
        pj = pp + Rp @ x_pos[i]
        if jt == 1:
            out_rot[i] = Rj @ _rodrigues(axis[i], q[qidx[i]])
            out_pos[i] = pj
        elif jt == 2:
            out_rot[i] = Rj
            out_pos[i] = pj + Rj @ (axis[i] * q[qidx[i]])
        else:
            out_rot[i] = Rj
            out_pos[i] = pj


def fk_kernel(jtype, parent, axis, x_rot, x_pos, q, qidx,
              base_rot, base_pos, out_rot, out_pos):
    for e in range(q.shape[0]):
        _link_xforms(jtype, parent, axis, x_rot, x_pos, q[e], qidx,
                     base_rot[e], base_pos[e], out_rot[e], out_pos[e])


def _child_xform(link_rot, link_pos, base_rot, base_pos, parent, i):
    """(E, r) of the parent->child motion map for link i."""
    if parent[i] < 0:
        Rp = base_rot
        pp = base_pos
    else:
        Rp = link_rot[parent[i]]
        pp = link_pos[parent[i]]
    E = link_rot[i].T @ Rp
    r = Rp.T @ (link_pos[i] - pp)
    return E, r


def _link_velocities(jtype, parent, axis, qidx, qd, link_rot, link_pos,
                     base_rot, base_pos, root_twist_w, out_v):
    """Single-env body-frame spatial link velocities [w, v]."""
    L = jtype.shape[0]
    for i in range(L):
        jt = jtype[i]
        if i == 0 and jt == 3:
            R0 = link_rot[0]
            out_v[0, :3] = R0.T @ root_twist_w[3:]
            out_v[0, 3:] = R0.T @ root_twist_w[:3]
            continue
        E, r = _child_xform(link_rot, link_pos, base_rot, base_pos, parent, i)
        if parent[i] < 0:
            wp = np.zeros(3)
            vp = np.zeros(3)
        else:
            wp = out_v[parent[i], :3].copy()
            vp = out_v[parent[i], 3:].copy()
        w = E @ wp
        v = E @ (vp + _cross(wp, r))
        if jt == 1:
            w = w + axis[i] * qd[qidx[i]]
        elif jt == 2:
            v = v + axis[i] * qd[qidx[i]]
        out_v[i, :3] = w
        out_v[i, 3:] = v


def vel_kernel(jtype, parent, axis, qidx, qd, link_rot, link_pos,
               base_rot, base_pos, root_twist_w, out_v):
    for e in range(qd.shape[0]):
        _link_velocities(jtype, parent, axis, qidx, qd[e], link_rot[e],
                         link_pos[e], base_rot[e], base_pos[e],
                         root_twist_w[e], out_v[e])


def rnea_kernel(jtype, parent, axis, qidx, qd, link_rot, link_pos,
                base_rot, base_pos, v, mass, com, inertia, gravity,
                floating, out_bias):
    """Bias forces (Coriolis + centrifugal + gravity) at zero acceleration."""
    E_count = qd.shape[0]
    L = jtype.shape[0]
    off = 6 if floating else 0
    for e in range(E_count):
        a = np.zeros((L, 6))
        f = np.zeros((L, 6))
        Es = np.zeros((L, 3, 3))
        rs = np.zeros((L, 3))
        for i in range(L):
            jt = jtype[i]
            if i == 0 and jt == 3:
                a[0, 3:] = -(link_rot[e, 0].T @ gravity[e])
            else:
                Et, rt = _child_xform(link_rot[e], link_pos[e], base_rot[e],
                                      base_pos[e], parent, i)
                Es[i] = Et
                rs[i] = rt
                if parent[i] < 0:
                    ap_ang = np.zeros(3)
                    ap_lin = -(base_rot[e].T @ gravity[e])
                else:
                    ap_ang = a[parent[i], :3].copy()
                    ap_lin = a[parent[i], 3:].copy()
                # X * a_parent
                aa = Et @ ap_ang
                al = Et @ (ap_lin + _cross(ap_ang, rt))
                # velocity-product term crm(v_i) * S qd
                if jt == 1:
                    sj = axis[i] * qd[e, qidx[i]]
                    aa = aa + _cross(v[e, i, :3], sj)
                    al = al + _cross(v[e, i, 3:], sj)
                elif jt == 2:
                    sj = axis[i] * qd[e, qidx[i]]
                    al = al + _cross(v[e, i, :3], sj)
                a[i, :3] = aa
                a[i, 3:] = al
            # momentum h = I v, then f = I a + crf(v) h
            Isp = _spatial_inertia(mass[e, i], com[e, i], inertia[e, i])
            h = Isp @ v[e, i]
            fi = Isp @ a[i]
            w = v[e, i, :3]
            vl = v[e, i, 3:]
            f[i, :3] = fi[:3] + _cross(w, h[:3]) + _cross(vl, h[3:])
            f[i, 3:] = fi[3:] + _cross(w, h[3:])
        for i in range(L - 1, -1, -1):
            if qidx[i] >= 0:
                if jtype[i] == 1:
                    out_bias[e, off + qidx[i]] = (axis[i, 0] * f[i, 0]
                                                  + axis[i, 1] * f[i, 1]
                                                  + axis[i, 2] * f[i, 2])
                else:
                    out_bias[e, off + qidx[i]] = (axis[i, 0] * f[i, 3]
                                                  + axis[i, 1] * f[i, 4]
                                                  + axis[i, 2] * f[i, 5])
            if i == 0:
                if floating:
                    out_bias[e, :6] = f[0]
            elif parent[i] >= 0:
                f[parent[i]] += _force_to_parent(Es[i], rs[i], f[i])


def _motion_xform6(E, r):
    """6x6 motion map parent->child: [[E, 0], [-E*skew(r), E]]."""
    X = np.zeros((6, 6))
    X[:3, :3] = E
    X[3:, 3:] = E
    sk = np.zeros((3, 3))
    sk[0, 1] = -r[2]
    sk[0, 2] = r[1]
    sk[1, 0] = r[2]
    sk[1, 2] = -r[0]
    sk[2, 0] = -r[1]
    sk[2, 1] = r[0]
    X[3:, :3] = -(E @ sk)
    return X


def crba_kernel(jtype, parent, axis, qidx, q, link_rot, link_pos,
                base_rot, base_pos, mass, com, inertia, floating, out_m):
    """Composite-rigid-body mass matrix in generalized coordinates."""
    E_count = q.shape[0]
    L = jtype.shape[0]
    off = 6 if floating else 0
    for e in range(E_count):
        Ic = np.zeros((L, 6, 6))
        Xs = np.zeros((L, 6, 6))
        Es = np.zeros((L, 3, 3))
        rs = np.zeros((L, 3))
        for i in range(L):
            Ic[i] = _spatial_inertia(mass[e, i], com[e, i], inertia[e, i])
            if not (i == 0 and jtype[i] == 3):
                Et, rt = _child_xform(link_rot[e], link_pos[e], base_rot[e],
                                      base_pos[e], parent, i)
                Es[i] = Et
                rs[i] = rt
                Xs[i] = _motion_xform6(Et, rt)
        for i in range(L - 1, 0, -1):
            p = parent[i]
            if p >= 0:
                Ic[p] += Xs[i].T @ (Ic[i] @ Xs[i])
        out_m[e, :, :] = 0.0
        if floating:
            out_m[e, :6, :6] = Ic[0]
        for i in range(L):
            if qidx[i] < 0:
                continue
            row = off + qidx[i]
            S = np.zeros(6)
            if jtype[i] == 1:
                S[:3] = axis[i]
            else:
                S[3:] = axis[i]
            F = Ic[i] @ S
            acc = 0.0
            for a in range(6):
                acc += S[a] * F[a]
            out_m[e, row, row] = acc
            j = i
            while parent[j] >= 0:
                F = _force_to_parent(Es[j], rs[j], F)
                j = parent[j]
                if qidx[j] >= 0:
                    col = off + qidx[j]
                    val = 0.0
                    if jtype[j] == 1:
                        val = F[0] * axis[j, 0] + F[1] * axis[j, 1] + F[2] * axis[j, 2]
                    else:
                        val = F[3] * axis[j, 0] + F[4] * axis[j, 1] + F[5] * axis[j, 2]
                    out_m[e, row, col] = val
                    out_m[e, col, row] = val
            if floating and j == 0:
                for a in range(6):
                    out_m[e, row, a] = F[a]
                    out_m[e, a, row] = F[a]


def wrench_kernel(jtype, parent, axis, qidx, link_rot, link_pos,
                  base_rot, base_pos, wrench_w, floating, out_f):
    """Generalized forces from world-frame per-link wrenches [f, tau]."""
    E_count = wrench_w.shape[0]
    L = jtype.shape[0]
    off = 6 if floating else 0
    for e in range(E_count):
        fb = np.zeros((L, 6))
        for i in range(L):
            Rt = link_rot[e, i].T
            fb[i, :3] = Rt @ wrench_w[e, i, 3:]
            fb[i, 3:] = Rt @ wrench_w[e, i, :3]
        for i in range(L - 1, -1, -1):
            if qidx[i] >= 0:
                if jtype[i] == 1:
                    out_f[e, off + qidx[i]] = (axis[i, 0] * fb[i, 0]
                                               + axis[i, 1] * fb[i, 1]
                                               + axis[i, 2] * fb[i, 2])
                else:
                    out_f[e, off + qidx[i]] = (axis[i, 0] * fb[i, 3]
                                               + axis[i, 1] * fb[i, 4]
                                               + axis[i, 2] * fb[i, 5])
            if i == 0:
                if floating:
                    out_f[e, :6] = fb[0]
            elif parent[i] >= 0:
                Et, rt = _child_xform(link_rot[e], link_pos[e], base_rot[e],
                                      base_pos[e], parent, i)
                fb[parent[i]] += _force_to_parent(Et, rt, fb[i])


def jacobian_kernel(jtype, parent, axis, qidx, link_rot, link_pos,
                    base_rot, base_pos, link, offset, floating, out_j):
    """Point Jacobian rows [linear, angular], columns in qvel order."""
    E_count = link_rot.shape[0]
    off = 6 if floating else 0
    for e in range(E_count):
        pw = link_pos[e, link] + link_rot[e, link] @ offset
        out_j[e, :, :] = 0.0
        j = link
        while j >= 0:
            jt = jtype[j]
            if jt == 1:
                aw = link_rot[e, j] @ axis[j]
                lin = _cross(aw, pw - link_pos[e, j])
                col = off + qidx[j]
                for a in range(3):
                    out_j[e, a, col] = lin[a]
                    out_j[e, 3 + a, col] = aw[a]
            elif jt == 2:
                aw = link_rot[e, j] @ axis[j]
                col = off + qidx[j]
                for a in range(3):
                    out_j[e, a, col] = aw[a]
            elif jt == 3:
                R0 = link_rot[e, 0]
                rel = pw - link_pos[e, 0]
                # linear rows wrt body angular velocity: -skew(rel) @ R0
                for b in range(3):
                    cx = _cross(R0[:, b].copy(), rel)
                    for a in range(3):
                        out_j[e, a, b] = cx[a]
                        out_j[e, 3 + a, b] = R0[a, b]
                for a in range(3):
                    out_j[e, a, 3 + a] = 1.0
            j = parent[j]


def heightfield_sample(heights, cell, ox, oy, x, y):
    """Surface height via the same triangle split used for meshing."""
    n, m = heights.shape
    fx = (x - ox) / cell
    fy = (y - oy) / cell
    if fx < 0.0:
        fx = 0.0
    if fy < 0.0:
        fy = 0.0
    if fx > n - 1.000001:
        fx = n - 1.000001
    if fy > m - 1.000001:
        fy = m - 1.000001
    i = int(fx)
    j = int(fy)
    u = fx - i
    w = fy - j
    h00 = heights[i, j]
    h10 = heights[i + 1, j]
    h01 = heights[i, j + 1]
    h11 = heights[i + 1, j + 1]
    if u >= w:
        return h00 + u * (h10 - h00) + w * (h11 - h10)
    return h00 + u * (h11 - h01) + w * (h01 - h00)


def contact_kernel(probe_link, probe_offset, probe_radius, stiffness, damping,
                   friction, link_rot, link_pos, v_body,
                   terrain_mode, terrain_flat_h, heights, cell, ox, oy,
                   out_normal, out_tangent, out_flag, out_wrench):
    """Compliant probe-terrain contacts; accumulates link wrenches (world)."""
    E_count = link_rot.shape[0]
    P = probe_link.shape[0]
    for e in range(E_count):
        for pi in range(P):
            li = probe_link[pi]
            R = link_rot[e, li]
            pw = link_pos[e, li] + R @ probe_offset[pi]
            if terrain_mode == 0:
                h = terrain_flat_h
            else:
                h = heightfield_sample(heights, cell, ox, oy, pw[0], pw[1])
            depth = h - (pw[2] - probe_radius[pi])
            out_normal[e, pi, 0] = 0.0
            out_normal[e, pi, 1] = 0.0
            out_normal[e, pi, 2] = 0.0
            out_tangent[e, pi, 0] = 0.0
            out_tangent[e, pi, 1] = 0.0
            out_tangent[e, pi, 2] = 0.0
            out_flag[e, pi] = False
            if depth <= 0.0:
                continue
            # world velocity of the probe point
            vp_b = v_body[e, li, 3:] + _cross(v_body[e, li, :3], probe_offset[pi])
            vp = R @ vp_b
            fn = stiffness[e, pi] * depth - damping[e, pi] * vp[2]
            if fn <= 0.0:
                continue
            out_flag[e, pi] = True
            out_normal[e, pi, 2] = fn
            # Coulomb-clamped viscous tangential opposition
            ftx = -damping[e, pi] * vp[0]
            fty = -damping[e, pi] * vp[1]
            fmag = np.sqrt(ftx * ftx + fty * fty)
            fmax = friction[e, pi] * fn
            if fmag > fmax and fmag > 0.0:
                scale = fmax / fmag
                ftx *= scale
                fty *= scale
            out_tangent[e, pi, 0] = ftx
            out_tangent[e, pi, 1] = fty
            arm = pw - link_pos[e, li]
            ftot = np.empty(3)
            ftot[0] = ftx
            ftot[1] = fty
            ftot[2] = fn
            tq = _cross(arm, ftot)
            for a in range(3):
                out_wrench[e, li, a] += ftot[a]
                out_wrench[e, li, 3 + a] += tq[a]
