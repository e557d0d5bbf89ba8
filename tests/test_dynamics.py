import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import (
    double_pendulum_tree,
    dp_bias_oracle,
    dp_energy_oracle,
    dp_lagrangian_step,
    dp_mass_oracle,
    free_body_tree,
    pendulum_links,
    random_chain_tree,
    random_spd,
)
from vecsim.articulation import ArticulationState, ContactPointSet, KinematicTree, LinkSpec
from vecsim.dynamics import (
    ContactForces,
    DynParams,
    FlatGround,
    HeightfieldGround,
    ImplicitPD,
    SimulationDivergenceError,
    apply_external_wrench,
    bias_forces,
    contact_forces,
    forward_kinematics,
    jacobian,
    mass_matrix,
    spatial_inertia,
    step,
)
from vecsim import _dyn_kernels, dynamics, terrain
from vecsim.maths import (Transform, quat_from_rotvec, quat_mul, quat_normalize,
                          quat_to_matrix)
from test_dyn_kernels import quadruped, quadruped_links, random_tree


# ---------------------------------------------------------------- kinematics


def test_fk_single_revolute_quarter_turn():
    # revolute about z, link extends 1 m along x: q=pi/2 puts the tip at (0,1,0)
    tree = KinematicTree([
        LinkSpec("l0", -1, "revolute", axis=(0, 0, 1), mass=1.0,
                 com=(0.5, 0, 0), inertia=(0.1, 0.1, 0.1)),
    ])
    pose = forward_kinematics(tree, np.array([np.pi / 2]))
    tip = pose.apply(np.array([[1.0, 0.0, 0.0]]))[0]
    np.testing.assert_allclose(tip, [0, 1, 0], atol=1e-12)


def test_fk_zero_config_equals_chained_offsets():
    rng = np.random.default_rng(0)
    tree = random_chain_tree(rng, n=5)
    pose = forward_kinematics(tree, np.zeros(tree.num_joints))
    expect = np.eye(4)
    for i in range(tree.num_links):
        x = np.eye(4)
        x[:3, :3] = tree.x_rot[i]
        x[:3, 3] = tree.x_pos[i]
        expect = expect @ x
        np.testing.assert_allclose(pose.pos[i], expect[:3, 3], atol=1e-12)


def test_fk_matches_homogeneous_matrix_oracle():
    # independent oracle: 4x4 chains with scipy rotations
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree = random_chain_tree(rng, n=6)
        q = rng.uniform(-np.pi, np.pi, tree.num_joints)
        pose = forward_kinematics(tree, q)
        t = np.eye(4)
        for i in range(tree.num_links):
            x = np.eye(4)
            x[:3, :3] = tree.x_rot[i]
            x[:3, 3] = tree.x_pos[i]
            t = t @ x
            j = np.eye(4)
            if tree.jtype[i] == 1:
                j[:3, :3] = Rotation.from_rotvec(tree.axis[i] * q[tree.qidx[i]]).as_matrix()
            elif tree.jtype[i] == 2:
                j[:3, 3] = tree.axis[i] * q[tree.qidx[i]]
            t = t @ j
            np.testing.assert_allclose(pose.pos[i], t[:3, 3], atol=1e-9)
            np.testing.assert_allclose(
                quat_to_matrix(pose.quat[i]), t[:3, :3], atol=1e-9)


def test_jacobian_planar_two_link():
    # both links 1 m along +x, revolute about +z, at q=0: tip rows are analytic
    tree = KinematicTree([
        LinkSpec("l0", -1, "revolute", axis=(0, 0, 1), mass=1.0,
                 com=(0.5, 0, 0), inertia=(0.1, 0.1, 0.1)),
        LinkSpec("l1", 0, "revolute", axis=(0, 0, 1), origin_pos=(1, 0, 0),
                 mass=1.0, com=(0.5, 0, 0), inertia=(0.1, 0.1, 0.1)),
    ])
    j = jacobian(tree, np.zeros(2), link=1, point_offset=(1, 0, 0))
    np.testing.assert_allclose(j[1], [2.0, 1.0], atol=1e-12)  # linear-y row
    np.testing.assert_allclose(j[5], [1.0, 1.0], atol=1e-12)  # angular-z row
    np.testing.assert_allclose(j[0], [0.0, 0.0], atol=1e-12)


def test_jacobian_prismatic_column():
    tree = KinematicTree([
        LinkSpec("l0", -1, "prismatic", axis=(0, 0, 1), mass=1.0,
                 inertia=(0.1, 0.1, 0.1)),
    ])
    j = jacobian(tree, np.array([0.3]), link=0)
    np.testing.assert_allclose(j[:3, 0], [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(j[3:, 0], [0, 0, 0], atol=1e-15)


def _fd_jacobian(tree, q, link, offset, eps=1e-6):
    j = np.zeros((6, tree.num_joints))
    for a in range(tree.num_joints):
        dq = np.zeros(tree.num_joints)
        dq[a] = eps
        hi = forward_kinematics(tree, q + dq)
        lo = forward_kinematics(tree, q - dq)
        p_hi = hi.apply(np.asarray(offset))[link]
        p_lo = lo.apply(np.asarray(offset))[link]
        j[:3, a] = (p_hi - p_lo) / (2 * eps)
        r_hi = quat_to_matrix(hi.quat[link])
        r_lo = quat_to_matrix(lo.quat[link])
        drot = Rotation.from_matrix(r_hi @ r_lo.T).as_rotvec()
        j[3:, a] = drot / (2 * eps)
    return j


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        tree = random_chain_tree(rng, n=6)
        q = rng.uniform(-np.pi, np.pi, tree.num_joints)
        link = int(rng.integers(0, tree.num_links))
        offset = rng.uniform(-0.3, 0.3, 3)
        j = jacobian(tree, q, link=link, point_offset=offset)
        j_fd = _fd_jacobian(tree, q, link, offset)
        err = np.linalg.norm(j - j_fd) / (1 + np.linalg.norm(j_fd))
        assert err < 1e-5


def test_jacobian_times_qd_matches_fd_velocity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        tree = random_chain_tree(rng, n=5)
        q = rng.uniform(-np.pi, np.pi, tree.num_joints)
        qd = rng.standard_normal(tree.num_joints)
        link = tree.num_links - 1
        j = jacobian(tree, q, link=link)
        eps = 1e-7
        p_hi = forward_kinematics(tree, q + eps * qd).pos[link]
        p_lo = forward_kinematics(tree, q - eps * qd).pos[link]
        v_fd = (p_hi - p_lo) / (2 * eps)
        v = j[:3] @ qd
        assert np.linalg.norm(v - v_fd) < 1e-5 * (1 + np.linalg.norm(qd))


def test_floating_jacobian_consistent_with_velocities():
    # J @ u must reproduce the world point velocity for a floating base; the
    # body velocities come from the scalar reference, not from J
    import reference_dyn_kernels as ref
    from vecsim.maths import quat_normalize

    rng = np.random.default_rng(4)
    tree = KinematicTree([
        LinkSpec("base", -1, "free", mass=2.0, inertia=(0.1, 0.1, 0.1)),
        LinkSpec("arm", 0, "revolute", axis=(0, 1, 0), origin_pos=(0.2, 0, 0),
                 mass=1.0, com=(0.3, 0, 0), inertia=(0.05, 0.05, 0.05)),
    ])
    state = ArticulationState.zeros(tree, 1)
    state.q[:] = rng.uniform(-1, 1, (1, 1))
    state.qd[:] = rng.standard_normal((1, 1))
    state.root_pos[:] = rng.standard_normal((1, 3))
    state.root_quat[:] = quat_normalize(rng.standard_normal((1, 4)))
    state.root_lin_vel[:] = rng.standard_normal((1, 3))
    state.root_ang_vel[:] = rng.standard_normal((1, 3))

    offset = np.array([0.1, -0.2, 0.3])
    j = jacobian(tree, state.q, link=1, point_offset=offset,
                 root_pose=Transform(state.root_pos, state.root_quat))[0]
    r0 = quat_to_matrix(state.root_quat[0])
    u = np.concatenate([r0.T @ state.root_ang_vel[0], state.root_lin_vel[0],
                        state.qd[0]])

    t = tree
    base_rot = quat_to_matrix(state.root_quat)
    link_rot, link_pos = np.empty((1, 2, 3, 3)), np.empty((1, 2, 3))
    ref.fk_kernel(t.jtype, t.parent, t.axis, t.x_rot, t.x_pos, state.q, t.qidx,
                  base_rot, state.root_pos, link_rot, link_pos)
    tw = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    v_body = np.empty((1, 2, 6))
    ref.vel_kernel(t.jtype, t.parent, t.axis, t.qidx, state.qd, link_rot,
                   link_pos, base_rot, state.root_pos, tw, v_body)
    rl = link_rot[0, 1]
    v_pt = rl @ (v_body[0, 1, 3:] + np.cross(v_body[0, 1, :3], offset))
    w_w = rl @ v_body[0, 1, :3]
    np.testing.assert_allclose(j[:3] @ u, v_pt, atol=1e-10)
    np.testing.assert_allclose(j[3:] @ u, w_w, atol=1e-10)


# --------------------------------------------------------------- mass matrix


def test_mass_matrix_single_revolute_with_armature():
    tree = KinematicTree([
        LinkSpec("l0", -1, "revolute", axis=(0, 0, 1), mass=1.0,
                 inertia=(1.0, 1.5, 2.0)),
    ])
    params = DynParams.from_tree(tree, 1)
    params.armature[:] = 0.1
    m = mass_matrix(tree, np.zeros(1), params=params)
    np.testing.assert_allclose(m, [[2.1]], atol=1e-12)
    m0 = mass_matrix(tree, np.zeros(1))
    np.testing.assert_allclose(m0, [[2.0]], atol=1e-12)


def test_step_solves_with_the_armature_of_mass_matrix():
    # from rest without gravity one step gives qd = dt M^-1 tau
    rng = np.random.default_rng(8)
    tree = random_chain_tree(rng, n=3)
    params = DynParams.from_tree(tree, 2)
    params.armature[:] = rng.uniform(0.05, 0.5, (2, 3))
    state = ArticulationState.zeros(tree, 2)
    state.q[:] = rng.uniform(-np.pi, np.pi, (2, 3))
    tau = rng.standard_normal((2, 3))
    dt = 1e-3
    m = mass_matrix(tree, state.q, params=params)
    expected = dt * np.linalg.solve(m, tau[..., None])[..., 0]
    step(tree, state, tau, dt, gravity=(0, 0, 0), params=params)
    np.testing.assert_allclose(state.qd, expected, rtol=1e-12, atol=1e-15)


def test_negative_armature_rejected():
    tree = random_chain_tree(np.random.default_rng(9), n=3)
    params = DynParams.from_tree(tree, 2)
    state = ArticulationState.zeros(tree, 2)
    for bad in (-0.1, np.nan, np.inf):
        params.armature[1, 2] = bad
        with pytest.raises(ValueError, match="armature"):
            mass_matrix(tree, state.q, params=params)
        with pytest.raises(ValueError, match="armature"):
            step(tree, state, None, 1e-3, params=params)
        np.testing.assert_array_equal(state.qd, 0.0)


def test_mass_matrix_double_pendulum_closed_form():
    tree = double_pendulum_tree()
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        np.testing.assert_allclose(
            mass_matrix(tree, q), dp_mass_oracle(q), atol=1e-10)


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(6)
    for _ in range(30):
        tree = random_chain_tree(rng, n=5)
        q = rng.uniform(-np.pi, np.pi, tree.num_joints)
        m = mass_matrix(tree, q)
        assert np.abs(m - m.T).max() < 1e-10
        assert np.linalg.eigvalsh(m).min() > 0


def test_floating_mass_matrix_exactly_symmetric():
    # the lower triangle is the upper one, bit for bit, at a posed base
    rng = np.random.default_rng(5)
    tree, E = quadruped(), 64
    q = rng.uniform(-np.pi, np.pi, (E, tree.num_joints))
    pose = Transform(rng.standard_normal((E, 3)),
                     quat_normalize(rng.standard_normal((E, 4))))
    m = mass_matrix(tree, q, root_pose=pose)
    np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))


# --------------------------------------------------------------- bias forces


def test_bias_horizontal_pendulum_gravity_torque():
    # com 1 m along +x (horizontal), revolute about +y: |torque| = m*g*l
    tree = KinematicTree(pendulum_links(com_dir=(1, 0, 0), com_dist=1.0))
    b = bias_forces(tree, np.zeros(1), np.zeros(1))
    assert abs(abs(b[0]) - 9.81) < 1e-12


def test_bias_zero_gravity_zero_velocity():
    tree = double_pendulum_tree()
    b = bias_forces(tree, np.array([0.3, -0.7]), np.zeros(2), gravity=(0, 0, 0))
    np.testing.assert_allclose(b, 0.0, atol=1e-14)


def test_bias_matches_lagrangian_oracle():
    tree = double_pendulum_tree()
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.standard_normal(2) * 2
        np.testing.assert_allclose(
            bias_forces(tree, q, qd), dp_bias_oracle(q, qd), atol=1e-8)


@pytest.mark.parametrize("name", ["quadruped", "floating_tree"])
def test_floating_bias_linear_rows_are_momentum_rate(name):
    # The root's world position is a true coordinate, so Lagrange gives
    # d/dt(M[3:6] u) = m g for the world linear momentum M[3:6] u at zero
    # applied force: bias[3:6] == dM[3:6]/dt u - m g, with dM/dt by central
    # differences of mass_matrix along the motion.
    rng = np.random.default_rng(10)
    tree = quadruped() if name == "quadruped" else random_tree(rng, 9, floating=True)
    E, nj = 3, tree.num_joints
    q = rng.uniform(-np.pi, np.pi, (E, nj))
    qd = rng.standard_normal((E, nj)) * 2.0
    quat = quat_normalize(rng.standard_normal((E, 4)))
    pos = rng.standard_normal((E, 3))
    w_b = rng.standard_normal((E, 3)) * 2.0
    v_w = rng.standard_normal((E, 3))
    gravity = np.array([0.3, -0.2, -9.81])
    twist = np.concatenate([v_w, np.einsum("eab,eb->ea", quat_to_matrix(quat), w_b)],
                           axis=1)
    bias = bias_forces(tree, q, qd, gravity=gravity, root_pose=Transform(pos, quat),
                       root_twist=twist)

    def m_at(h):
        pose = Transform(pos + h * v_w, quat_mul(quat, quat_from_rotvec(h * w_b)))
        return mass_matrix(tree, q + h * qd, root_pose=pose)

    h = 1e-6
    m_dot = (m_at(h) - m_at(-h)) / (2 * h)
    u = np.concatenate([w_b, v_w, qd], axis=1)
    expected = np.einsum("eij,ej->ei", m_dot[:, 3:6], u) - tree.mass.sum() * gravity
    np.testing.assert_allclose(bias[:, 3:6], expected, rtol=0.0,
                               atol=1e-9 * (1.0 + np.abs(expected).max()))


def test_bias_forces_runs_no_crba(monkeypatch):
    tree = quadruped()
    rng = np.random.default_rng(11)
    q = rng.uniform(-1, 1, (2, tree.num_joints))
    qd = rng.standard_normal((2, tree.num_joints))
    pose = Transform(rng.standard_normal((2, 3)),
                     quat_normalize(rng.standard_normal((2, 4))))
    twist = rng.standard_normal((2, 6))
    expected = bias_forces(tree, q, qd, root_pose=pose, root_twist=twist)

    def no_mass(*args, **kwargs):
        raise AssertionError("bias_forces built the mass matrix")

    monkeypatch.setattr(_dyn_kernels, "mass_kernel", no_mass)
    got = bias_forces(tree, q, qd, root_pose=pose, root_twist=twist)
    np.testing.assert_array_equal(got, expected)


# ----------------------------------------------------- randomised parameters


def _feet(tree):
    return ContactPointSet(
        link=[tree.link_index(f"calf{h}") for h in (1, 4, 7, 10)],
        offset=[(0.0, 0.0, -0.2)] * 4, radius=0.02, stiffness=2e4,
        damping=50.0, friction=0.8)


def _quadruped_state(tree, E, rng):
    state = ArticulationState.zeros(tree, E)
    state.q[:] = rng.uniform(-0.4, 0.4, (E, tree.num_joints))
    state.qd[:] = rng.standard_normal((E, tree.num_joints))
    state.root_pos[:] = rng.uniform(-0.1, 0.1, (E, 3)) + [0.0, 0.0, 0.38]
    state.root_quat[:] = quat_from_rotvec(rng.uniform(-0.2, 0.2, (E, 3)))
    state.root_lin_vel[:] = rng.standard_normal((E, 3))
    state.root_ang_vel[:] = rng.standard_normal((E, 3))
    return state


@pytest.mark.parametrize("floating", [True, False], ids=["floating", "fixed"])
def test_per_env_inertias_match_one_env_trees(floating):
    # Oracle: each env of a batch whose link masses, COMs and full 3x3
    # inertias are randomised through spatial_inertia gives bitwise the
    # result of the same call on a one-env tree built from its values.
    rng = np.random.default_rng(31)
    links = quadruped_links()
    if not floating:
        links[0] = dataclasses.replace(links[0], joint="fixed")
    E = 3
    env_links = [[dataclasses.replace(
        link, mass=link.mass * rng.uniform(0.7, 1.3),
        com=tuple(np.add(link.com, rng.uniform(-0.03, 0.03, 3))),
        inertia=random_spd(rng, 0.03)) for link in links] for _ in range(E)]
    tree = KinematicTree(links)
    params = DynParams.from_tree(tree, E)
    for e, specs in enumerate(env_links):
        for i, link in enumerate(specs):
            params.spatial_inertia[e, i] = spatial_inertia(link.mass, link.com,
                                                           link.inertia)
    params.armature[:] = rng.uniform(0.0, 0.05, (E, tree.num_joints))
    state = _quadruped_state(tree, E, rng)
    twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    tau = rng.standard_normal((E, tree.num_joints))
    m = mass_matrix(tree, state.q, root_pose=state.root_pose, params=params)
    bias = bias_forces(tree, state.q, state.qd, root_pose=state.root_pose,
                       root_twist=twist, params=params)
    after = state.copy()
    contacts = ContactForces.zeros(E, 4)
    step(tree, after, tau, 5e-3, probes=_feet(tree), terrain=FlatGround(),
         params=params, contacts_out=contacts)
    assert contacts.in_contact.any() and not contacts.in_contact.all()
    assert not np.array_equal(m[0], m[1])
    fields = dataclasses.fields(ArticulationState)
    for e in range(E):
        one = KinematicTree(env_links[e])
        one_params = DynParams.from_tree(one, 1)
        one_params.armature[:] = params.armature[e]
        one_state = ArticulationState(*(getattr(state, f.name)[e:e + 1].copy()
                                        for f in fields))
        np.testing.assert_array_equal(
            mass_matrix(one, one_state.q, root_pose=one_state.root_pose,
                        params=one_params)[0], m[e])
        np.testing.assert_array_equal(
            bias_forces(one, one_state.q, one_state.qd,
                        root_pose=one_state.root_pose, root_twist=twist[e:e + 1],
                        params=one_params)[0], bias[e])
        step(one, one_state, tau[e:e + 1], 5e-3, probes=_feet(one),
             terrain=FlatGround(), params=one_params)
        for f in fields:
            np.testing.assert_array_equal(getattr(one_state, f.name)[0],
                                          getattr(after, f.name)[e])


def test_dynamics_given_params_never_rebuild_spatial_inertia(monkeypatch):
    tree = quadruped()
    rng = np.random.default_rng(12)
    params = DynParams.from_tree(tree, 2)
    state = _quadruped_state(tree, 2, rng)
    twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)

    def run():
        after = state.copy()
        step(tree, after, None, 5e-3, probes=_feet(tree), terrain=FlatGround(),
             params=params)
        return (mass_matrix(tree, state.q, root_pose=state.root_pose,
                            params=params),
                bias_forces(tree, state.q, state.qd, root_pose=state.root_pose,
                            root_twist=twist, params=params),
                after.qd)

    expected = run()

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the spatial inertias were rebuilt")

    monkeypatch.setattr(_dyn_kernels, "spatial_inertia", no_rebuild)
    for got, want in zip(run(), expected):
        np.testing.assert_array_equal(got, want)


def test_default_params_are_the_trees_shared_nominal_inertias(monkeypatch):
    # without params every call reads the tree's one read-only copy of its
    # nominal inertias, builds none, and gives bitwise the results of
    # from_tree's
    tree = quadruped()
    rng = np.random.default_rng(13)
    E = 3
    state = _quadruped_state(tree, E, rng)
    twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    tau = rng.standard_normal((E, tree.num_joints))

    def run(params):
        after = state.copy()
        step(tree, after, tau, 5e-3, probes=_feet(tree), terrain=FlatGround(),
             params=params)
        return (mass_matrix(tree, state.q, root_pose=state.root_pose,
                            params=params),
                bias_forces(tree, state.q, state.qd, root_pose=state.root_pose,
                            root_twist=twist, params=params),
                *(getattr(after, f.name) for f in dataclasses.fields(after)))

    expected = run(DynParams.from_tree(tree, E))

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the spatial inertias were rebuilt")

    monkeypatch.setattr(_dyn_kernels, "spatial_inertia", no_rebuild)
    for got, want in zip(run(None), expected):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        tree.nominal_inertia, spatial_inertia(tree.mass, tree.com, tree.inertia))
    with pytest.raises(ValueError, match="read-only"):
        tree.nominal_inertia[0, 0, 0] = 1.0


def test_non_finite_spatial_inertia_rejected_before_any_state_changes():
    tree = quadruped()
    rng = np.random.default_rng(13)
    state = _quadruped_state(tree, 2, rng)
    before = state.copy()
    for bad in (np.nan, np.inf):
        params = DynParams.from_tree(tree, 2)
        params.spatial_inertia[1, 3, 0, 0] = bad
        with pytest.raises(ValueError, match="spatial_inertia must be finite"):
            step(tree, state, None, 5e-3, probes=_feet(tree),
                 terrain=FlatGround(), params=params)
        for f in dataclasses.fields(ArticulationState):
            np.testing.assert_array_equal(getattr(state, f.name),
                                          getattr(before, f.name))
        with pytest.raises(ValueError, match="spatial_inertia must be finite"):
            mass_matrix(tree, state.q, root_pose=state.root_pose, params=params)
        # the bias reads the same inertias and returned a non-finite row
        with pytest.raises(ValueError, match="spatial_inertia must be finite"):
            bias_forces(tree, state.q, state.qd, root_pose=state.root_pose,
                        params=params)


# ------------------------------------------------------- step's work arrays


def _substep(tree, state, rng):
    """One step of ``state`` with efforts, an applied wrench and, for the
    quadruped, foot contacts; otherwise implicit PD."""
    E, nj = state.env_count, tree.num_joints
    apply_external_wrench(state, rng.standard_normal(3), rng.standard_normal(3),
                          tree.num_links - 1)
    if tree.floating:
        kwargs = dict(probes=_feet(tree), terrain=FlatGround(),
                      contacts_out=ContactForces.zeros(E, 4))
    else:
        kwargs = dict(implicit_pd=ImplicitPD(kp=20.0, kd=0.5,
                                             q_target=rng.uniform(-1, 1, (E, nj))))
    params = DynParams.from_tree(tree, E)
    params.armature[:] = 0.01
    step(tree, state, rng.standard_normal((E, nj)), 5e-3, params=params, **kwargs)
    return kwargs.get("contacts_out")


def _fixed_tree():
    tree = random_tree(np.random.default_rng(5), 9, floating=False)
    assert np.count_nonzero(tree.parent < 0) > 1
    return tree


def _state(tree, E, rng):
    if tree.floating:
        return _quadruped_state(tree, E, rng)
    state = ArticulationState.zeros(tree, E)
    state.q[:] = rng.uniform(-0.4, 0.4, state.q.shape)
    state.qd[:] = rng.standard_normal(state.qd.shape)
    return state


def test_step_keeps_its_work_arrays_on_the_state():
    tree = quadruped()
    rng = np.random.default_rng(21)
    state = _quadruped_state(tree, 3, rng)
    assert state._work is None
    _substep(tree, state, rng)
    work = state._work
    assert [a.shape for a in work] == [(3, 13, 6, 6), (3, 13, 6, 18),
                                       (3, 13, 6, 18), (3, 13, 6, 6), (3, 18, 18)]
    _substep(tree, state, rng)
    assert all(a is b for a, b in zip(state._work, work))

    copy = state.copy()
    assert copy._work is None
    _substep(tree, copy, rng)
    other = _quadruped_state(tree, 5, rng)
    _substep(tree, other, rng)
    assert other._work.J.shape[0] == 5
    for owner in (copy, other):
        assert not any(np.shares_memory(a, b)
                       for a in owner._work for b in work)

    # a state whose arrays change size gets arrays of the new size
    for f in dataclasses.fields(ArticulationState):
        setattr(state, f.name, getattr(state, f.name)[:2].copy())
    _substep(tree, state, rng)
    assert state._work.m.shape == (2, 18, 18)


@pytest.mark.parametrize("make_tree", [quadruped, _fixed_tree],
                         ids=["floating_contacts", "fixed_implicit_pd"])
def test_step_rewrites_its_work_arrays_before_reading_them(make_tree):
    # NaN left in the arrays between two steps must not reach the next one:
    # it is bitwise the same step on a copy, which builds fresh arrays
    tree = make_tree()
    E = 4
    state = _state(tree, E, np.random.default_rng(22))
    _substep(tree, state, np.random.default_rng(0))
    fresh = state.copy()
    for a in state._work:
        a.fill(np.nan)
    contacts = [_substep(tree, s, np.random.default_rng(1))
                for s in (state, fresh)]
    for f in dataclasses.fields(ArticulationState):
        np.testing.assert_array_equal(getattr(state, f.name),
                                      getattr(fresh, f.name))
    if tree.floating:
        assert contacts[0].in_contact.any()
        for name in ("normal", "tangent", "in_contact"):
            np.testing.assert_array_equal(getattr(contacts[0], name),
                                          getattr(contacts[1], name))


def test_query_results_held_across_a_step_do_not_change():
    tree = quadruped()
    rng = np.random.default_rng(23)
    state = _quadruped_state(tree, 3, rng)
    _substep(tree, state, rng)
    twist = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    held = [mass_matrix(tree, state.q, root_pose=state.root_pose),
            bias_forces(tree, state.q, state.qd, root_pose=state.root_pose,
                        root_twist=twist),
            jacobian(tree, state.q, 4, root_pose=state.root_pose)]
    kept = [h.copy() for h in held]
    _substep(tree, state, rng)
    _substep(tree, state, rng)
    for h, k in zip(held, kept):
        np.testing.assert_array_equal(h, k)
        assert not any(np.shares_memory(h, a) for a in state._work)


def test_steady_state_step_allocates_less_than_one_jacobian_block():
    # tracemalloc sees NumPy's own allocations, whatever the allocator does
    tree = quadruped()
    E = 64
    rng = np.random.default_rng(24)
    state = _quadruped_state(tree, E, rng)
    efforts = rng.standard_normal((E, tree.num_joints))
    params = DynParams.from_tree(tree, E)
    kwargs = dict(probes=_feet(tree), terrain=FlatGround(), params=params,
                  contacts_out=ContactForces.zeros(E, 4))
    for _ in range(2):
        step(tree, state, efforts, 5e-3, **kwargs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(tree, state, efforts, 5e-3, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < E * tree.num_links * 6 * tree.nv * 8


# ---------------------------------------------------------------------- step


def test_step_rest_state_unchanged():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 3)
    state.q[:] = [[0.2, -0.4]] * 3
    before = state.copy()
    step(tree, state, None, dt=1e-3, gravity=(0, 0, 0))
    np.testing.assert_array_equal(state.q, before.q)
    np.testing.assert_array_equal(state.qd, before.qd)


def test_step_energy_drift_below_one_percent():
    # undamped single pendulum, dt=1e-3, 10 s horizon
    tree = KinematicTree(pendulum_links(mass=1.0, length=1.0, com_dist=1.0,
                                        inertia=(0.02, 0.02, 0.02)))
    state = ArticulationState.zeros(tree, 1)
    state.q[0, 0] = 1.2

    def energy(q, qd):
        i_tot = 0.02 + 1.0 * 1.0 ** 2
        return 0.5 * i_tot * qd ** 2 - 1.0 * 9.81 * 1.0 * np.cos(q)

    e0 = energy(state.q[0, 0], state.qd[0, 0])
    worst = 0.0
    for _ in range(10_000):
        step(tree, state, None, dt=1e-3)
        e = energy(state.q[0, 0], state.qd[0, 0])
        worst = max(worst, abs(e - e0))
    assert worst / abs(e0) < 0.01


def test_double_pendulum_matches_lagrangian_simulator():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 1)
    state.q[0] = [0.9, -0.4]
    state.qd[0] = [0.5, -0.3]
    q_ref = state.q[0].copy()
    qd_ref = state.qd[0].copy()
    dt = 1e-4
    worst = 0.0
    for _ in range(1000):
        step(tree, state, None, dt=dt)
        q_ref, qd_ref = dp_lagrangian_step(q_ref, qd_ref, dt)
        worst = max(worst,
                    np.abs(state.q[0] - q_ref).max(),
                    np.abs(state.qd[0] - qd_ref).max())
    assert worst < 1e-9


def test_implicit_pd_stable_where_explicit_diverges():
    # unit-inertia joint, kp=1e4, kd=0, dt=0.02 (the low-rate contrast)
    def make():
        tree = KinematicTree([
            LinkSpec("l0", -1, "revolute", axis=(0, 0, 1), mass=1.0,
                     inertia=(1.0, 1.0, 1.0)),
        ])
        state = ArticulationState.zeros(tree, 1)
        state.q[0, 0] = 1.5
        return tree, state

    kp, dt = 1e4, 0.02
    tree, state = make()
    pd = ImplicitPD(kp=np.array([kp]), kd=np.array([0.0]),
                    q_target=np.zeros((1, 1)))
    implicit_max = 0.0
    for _ in range(500):
        step(tree, state, None, dt=dt, gravity=(0, 0, 0), implicit_pd=pd)
        implicit_max = max(implicit_max, abs(state.q[0, 0]))
    assert implicit_max < 10.0

    tree, state = make()
    explicit_max = 0.0
    for _ in range(500):
        tau = kp * (0.0 - state.q)
        step(tree, state, tau, dt=dt, gravity=(0, 0, 0))
        explicit_max = max(explicit_max, abs(state.q[0, 0]))
    assert explicit_max > 1e3


def test_step_determinism_bitwise():
    def run():
        tree = double_pendulum_tree()
        state = ArticulationState.zeros(tree, 4)
        rng = np.random.default_rng(42)
        state.q[:] = rng.uniform(-1, 1, (4, 2))
        state.qd[:] = rng.standard_normal((4, 2))
        for i in range(200):
            tau = np.sin(0.01 * i) * np.ones((4, 2))
            step(tree, state, tau, dt=1e-3)
        return state

    a, b = run(), run()
    np.testing.assert_array_equal(a.q, b.q)
    np.testing.assert_array_equal(a.qd, b.qd)


def test_step_rejects_nonpositive_dt():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 1)
    state.q[:] = [0.3, -0.2]
    before = state.copy()
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            step(tree, state, None, dt=dt)
        for name in ("q", "qd", "root_pos", "root_quat"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))


def test_step_rejects_non_finite_efforts_naming_envs():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 4)
    tau = np.zeros((4, 2))
    tau[1, 0] = np.nan
    tau[3, 1] = np.inf
    with pytest.raises(ValueError, match=r"environment\(s\) \[1, 3\]"):
        step(tree, state, tau, dt=1e-3)
    np.testing.assert_array_equal(state.q, 0.0)


@pytest.mark.parametrize("gains, message", [
    ({"kp": -1.0, "kd": 1.0}, "implicit PD kp must be >= 0 and finite, got -1.0"),
    ({"kp": 1.0, "kd": np.nan}, "implicit PD kd must be >= 0 and finite, got nan"),
    ({"kp": np.array([10.0, np.inf]), "kd": 0.0},
     "implicit PD kp must be >= 0 and finite, got inf"),
    ({"kp": 10.0, "kd": np.array([[1.0, -0.5]])},
     "implicit PD kd must be >= 0 and finite, got -0.5")],
    ids=["negative_kp", "nan_kd", "inf_kp", "negative_kd_row"])
def test_implicit_pd_rejects_negative_or_non_finite_gains(gains, message):
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 1)
    state.q[:] = [[0.3, -0.2]]
    state.qd[:] = [[1.0, 2.0]]
    state.ext_wrench[0, 1, 2] = 5.0
    before = [a.copy() for a in (state.q, state.qd, state.ext_wrench)]
    pd = ImplicitPD(q_target=np.zeros((1, 2)), **gains)
    with pytest.raises(ValueError, match=re.escape(message)):
        step(tree, state, None, dt=1e-3, implicit_pd=pd)
    for a, b in zip((state.q, state.qd, state.ext_wrench), before):
        np.testing.assert_array_equal(a, b)


def test_implicit_pd_gain_assigned_after_construction_is_checked():
    # a gain set on the record later is checked where step reads it, and
    # does not reach the solve as a divergence of every env
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 2)
    pd = ImplicitPD(kp=10.0, kd=1.0, q_target=np.zeros((2, 2)))
    pd.kd = np.nan
    with pytest.raises(ValueError, match="implicit PD kd must be >= 0 and finite, got nan"):
        step(tree, state, None, 1e-3, implicit_pd=pd)
    np.testing.assert_array_equal(state.q, 0.0)
    np.testing.assert_array_equal(state.qd, 0.0)


@pytest.mark.parametrize("target", ["q_target", "qd_target"])
def test_step_rejects_non_finite_pd_targets_naming_envs(target):
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 4)
    pd = ImplicitPD(kp=10.0, kd=1.0, q_target=np.zeros((4, 2)),
                    qd_target=np.zeros((4, 2)))
    bad = getattr(pd, target)
    bad[0, 1] = np.nan
    bad[2, 0] = -np.inf
    with pytest.raises(ValueError, match=target + r" for environment\(s\) \[0, 2\]"):
        step(tree, state, None, dt=1e-3, implicit_pd=pd)
    np.testing.assert_array_equal(state.q, 0.0)


def _moving_quadruped_state(env_count):
    tree = quadruped()
    rng = np.random.default_rng(17)
    state = ArticulationState.zeros(tree, env_count)
    state.q[:] = rng.uniform(-0.3, 0.3, state.q.shape)
    state.qd[:] = rng.uniform(-1.0, 1.0, state.qd.shape)
    state.root_pos[:, 2] = 0.5
    state.root_lin_vel[:] = rng.uniform(-1.0, 1.0, (env_count, 3))
    state.root_ang_vel[:] = rng.uniform(-1.0, 1.0, (env_count, 3))
    return tree, state


def _assert_states_equal(a, b):
    for f in dataclasses.fields(ArticulationState):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                      err_msg=f.name)


@pytest.mark.parametrize("bad, message", [
    ("wrench", r"non-finite external wrench for environment\(s\) \[1\]"),
    ("gravity", r"non-finite gravity for environment\(s\) \[0, 1, 2\]"),
    ("env_gravity", r"non-finite gravity for environment\(s\) \[2\]"),
])
def test_step_rejects_non_finite_gravity_or_wrench_before_any_change(bad, message):
    # unchecked, env 0 advanced before the divergence error named env 1, or
    # every env advanced before it named them all
    tree, state = _moving_quadruped_state(3)
    state.ext_wrench[0, 4] = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]
    gravity = dynamics.GRAVITY
    if bad == "wrench":
        state.ext_wrench[1, 2, 0] = np.nan
    elif bad == "gravity":
        gravity = [0.0, 0.0, np.nan]
    else:
        gravity = np.tile(dynamics.GRAVITY, (3, 1))
        gravity[2, 1] = -np.inf
    before = state.copy()
    with pytest.raises(ValueError, match=message):
        step(tree, state, None, 1e-3, gravity=gravity)
    _assert_states_equal(state, before)


def test_bias_forces_and_external_wrench_reject_non_finite_values():
    tree, state = _moving_quadruped_state(2)
    with pytest.raises(ValueError, match=r"non-finite gravity for environment\(s\) \[0, 1\]"):
        bias_forces(tree, state.q, state.qd, gravity=[np.nan, 0.0, -9.81])
    before = state.copy()
    with pytest.raises(ValueError, match=re.escape("force must be finite, got nan")):
        apply_external_wrench(state, [np.nan, 0, 0], [0, 0, 0], 1, env_ids=[1])
    with pytest.raises(ValueError, match=re.escape("torque must be finite, got inf")):
        apply_external_wrench(state, [0, 0, 0], [0, np.inf, 0], 1)
    _assert_states_equal(state, before)


def test_implicit_pd_velocity_target_closed_form():
    # one revolute joint, kp = 0, no gravity: (I + dt kd) qd+ = I qd + dt kd qd*
    m, length, i_yy = 1.5, 0.8, 0.05
    tree = KinematicTree(pendulum_links(mass=m, length=length,
                                        inertia=(0.02, i_yy, 0.03)))
    inertia = i_yy + m * length ** 2
    kd, dt = np.array([[3.0], [40.0]]), 1e-2
    qd, qd_star = np.array([[0.5], [-1.0]]), np.array([[2.0], [0.25]])
    state = ArticulationState.zeros(tree, 2)
    state.qd[:] = qd
    pd = ImplicitPD(kp=np.zeros((2, 1)), kd=kd, q_target=np.zeros((2, 1)),
                    qd_target=qd_star)
    step(tree, state, None, dt=dt, gravity=(0, 0, 0), implicit_pd=pd)
    expected = (inertia * qd + dt * kd * qd_star) / (inertia + dt * kd)
    np.testing.assert_allclose(state.qd, expected, rtol=1e-13)


@pytest.mark.parametrize("probes, terrain", [
    (True, False), (False, True)], ids=["probes_only", "terrain_only"])
def test_step_rejects_half_given_contacts(probes, terrain):
    tree, pset = _probe_body()
    state = ArticulationState.zeros(tree, 1)
    with pytest.raises(ValueError, match="both probes and terrain"):
        step(tree, state, None, dt=1e-3, probes=pset if probes else None,
             terrain=FlatGround() if terrain else None)
    np.testing.assert_array_equal(state.root_pos, 0.0)


def test_step_divergence_error_names_env():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 3)
    state.q[1, 0] = np.nan
    with pytest.raises(SimulationDivergenceError) as exc:
        step(tree, state, None, dt=1e-3)
    assert 1 in exc.value.env_ids


# ------------------------------------------------------------- free root


@pytest.mark.parametrize("origin", [
    {"origin_pos": (0.0, 0.0, 0.1)},
    {"origin_quat": (0.0, 0.0, 0.0, 1.0)},
], ids=["pos", "quat"])
def test_free_root_origin_must_be_identity(origin):
    with pytest.raises(ValueError, match="free root's origin"):
        KinematicTree([LinkSpec("base", -1, "free", mass=1.0,
                                inertia=(0.1, 0.1, 0.1), **origin)])


def test_free_body_momentum_conserved():
    tree = free_body_tree()
    state = ArticulationState.zeros(tree, 1)
    state.root_lin_vel[0] = [0.3, -0.2, 0.1]
    state.root_ang_vel[0] = [1.0, 2.0, -0.5]
    prev = state.root_lin_vel[0].copy()
    for _ in range(200):
        step(tree, state, None, dt=1e-3, gravity=(0, 0, 0))
        assert np.abs(state.root_lin_vel[0] - prev).max() < 1e-12
        prev = state.root_lin_vel[0].copy()


def test_hover_force_balance():
    tree = free_body_tree(mass=2.0)
    state = ArticulationState.zeros(tree, 1)
    for _ in range(10):
        apply_external_wrench(state, force=(0, 0, 2.0 * 9.81), torque=(0, 0, 0), link=0)
        v_before = state.root_lin_vel[0].copy()
        step(tree, state, None, dt=1e-3)
        assert np.abs(state.root_lin_vel[0] - v_before).max() < 1e-9


def test_zero_wrench_is_noop():
    tree = free_body_tree()
    s1 = ArticulationState.zeros(tree, 1)
    s2 = ArticulationState.zeros(tree, 1)
    s1.root_lin_vel[:] = s2.root_lin_vel[:] = [0.1, 0.2, 0.3]
    apply_external_wrench(s1, force=(0, 0, 0), torque=(0, 0, 0), link=0)
    step(tree, s1, None, dt=1e-3)
    step(tree, s2, None, dt=1e-3)
    np.testing.assert_array_equal(s1.root_pos, s2.root_pos)
    np.testing.assert_array_equal(s1.root_lin_vel, s2.root_lin_vel)


def test_pure_torque_gives_euler_step_omega():
    tree = free_body_tree(mass=1.0, inertia=(0.1, 0.2, 0.3))
    state = ArticulationState.zeros(tree, 1)
    tau, dt = 0.6, 1e-3
    apply_external_wrench(state, force=(0, 0, 0), torque=(0, 0, tau), link=0)
    step(tree, state, None, dt=dt, gravity=(0, 0, 0))
    np.testing.assert_allclose(state.root_ang_vel[0], [0, 0, tau * dt / 0.3],
                               atol=1e-12)


def test_wrench_consumed_after_step():
    tree = free_body_tree()
    state = ArticulationState.zeros(tree, 1)
    apply_external_wrench(state, force=(1.0, 0, 0), torque=(0, 0, 0), link=0)
    step(tree, state, None, dt=1e-3, gravity=(0, 0, 0))
    v1 = state.root_lin_vel[0].copy()
    step(tree, state, None, dt=1e-3, gravity=(0, 0, 0))
    np.testing.assert_array_equal(state.root_lin_vel[0], v1)


def test_invalid_link_index_rejected():
    tree = free_body_tree()
    state = ArticulationState.zeros(tree, 1)
    with pytest.raises(IndexError):
        apply_external_wrench(state, force=(0, 0, 1), torque=(0, 0, 0), link=5)
    with pytest.raises(IndexError):
        jacobian(tree, state.q, link=5)


@pytest.mark.parametrize("name", ["quadruped", "fixed_tree"])
def test_applied_wrench_step_matches_jacobian_transpose(name):
    # From rest without gravity, one step under a world wrench [F, T] on a
    # distal link gives u = dt M^-1 J^T [F; T] in the public (mixed)
    # coordinates, with M from mass_matrix and J from jacobian.
    rng = np.random.default_rng(13)
    if name == "quadruped":
        tree, link = quadruped(), 3  # first calf
    else:
        tree = random_tree(rng, 9, floating=False)
        link = tree.num_links - 1
    E, dt = 2, 1e-3
    state = ArticulationState.zeros(tree, E)
    state.q[:] = rng.uniform(-np.pi, np.pi, (E, tree.num_joints))
    state.root_pos[:] = rng.standard_normal((E, 3))
    state.root_quat[:] = quat_normalize(rng.standard_normal((E, 4)))
    pose = Transform(state.root_pos.copy(), state.root_quat.copy())
    q0 = state.q.copy()
    force, torque = rng.standard_normal((E, 3)), rng.standard_normal((E, 3))
    for e in range(E):
        apply_external_wrench(state, force[e], torque[e], link, env_ids=[e])

    m = mass_matrix(tree, q0, root_pose=pose)
    jac = jacobian(tree, q0, link, root_pose=pose)
    gen = np.einsum("eki,ek->ei", jac, np.concatenate([force, torque], axis=1))
    expected = dt * np.linalg.solve(m, gen[..., None])[..., 0]

    step(tree, state, None, dt=dt, gravity=(0, 0, 0))
    u = state.qd
    if tree.floating:
        w_b = np.einsum("eba,eb->ea", quat_to_matrix(state.root_quat),
                        state.root_ang_vel)
        u = np.concatenate([w_b, state.root_lin_vel, state.qd], axis=1)
    np.testing.assert_allclose(u, expected, rtol=0.0,
                               atol=1e-12 * np.abs(expected).max())


# ------------------------------------------------------------------ contacts


def _probe_body(k=1000.0, c=0.0, mu=0.5, radius=0.1):
    tree = free_body_tree(mass=1.0, inertia=(0.01, 0.01, 0.01))
    probes = ContactPointSet(
        link=[0], offset=[(0, 0, 0)], radius=[radius],
        stiffness=[k], damping=[c], friction=[mu],
    )
    return tree, probes


def test_contact_normal_force_formula():
    tree, probes = _probe_body(k=1000.0)
    state = ArticulationState.zeros(tree, 1)
    state.root_pos[0, 2] = 0.1 - 0.01  # 1 cm penetration of the probe sphere
    out = contact_forces(tree, state, probes, FlatGround())
    assert out.in_contact[0, 0]
    np.testing.assert_allclose(out.normal[0, 0], [0, 0, 10.0], atol=1e-12)
    np.testing.assert_allclose(out.tangent[0, 0], 0.0, atol=1e-12)


def test_contact_probe_above_surface():
    tree, probes = _probe_body()
    state = ArticulationState.zeros(tree, 1)
    state.root_pos[0, 2] = 0.5
    out = contact_forces(tree, state, probes, FlatGround())
    assert not out.in_contact[0, 0]
    np.testing.assert_array_equal(out.normal[0, 0], 0.0)
    np.testing.assert_array_equal(out.tangent[0, 0], 0.0)


def test_contact_coulomb_clamp():
    tree, probes = _probe_body(k=1000.0, c=100.0, mu=0.5)
    state = ArticulationState.zeros(tree, 1)
    state.root_pos[0, 2] = 0.1 - 0.01        # f_n = 10 N (vz = 0)
    state.root_lin_vel[0, 0] = 50.0          # fast slide => clamp
    out = contact_forces(tree, state, probes, FlatGround())
    np.testing.assert_allclose(out.normal[0, 0, 2], 10.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(out.tangent[0, 0]), 5.0, atol=1e-12)
    assert out.tangent[0, 0, 0] < 0  # opposes the motion


def test_contact_damping_reduces_force_on_separation():
    tree, probes = _probe_body(k=1000.0, c=50.0)
    state = ArticulationState.zeros(tree, 1)
    state.root_pos[0, 2] = 0.1 - 0.01
    state.root_lin_vel[0, 2] = 0.1  # separating
    out = contact_forces(tree, state, probes, FlatGround())
    np.testing.assert_allclose(out.normal[0, 0, 2], 10.0 - 50.0 * 0.1, atol=1e-12)


def test_ball_settles_on_ground():
    tree, probes = _probe_body(k=5000.0, c=50.0)
    state = ArticulationState.zeros(tree, 1)
    state.root_pos[0, 2] = 0.3
    for _ in range(4000):
        step(tree, state, None, dt=1e-3, probes=probes, terrain=FlatGround())
    # equilibrium: k * depth = m g => depth = 9.81/5000
    z_expected = 0.1 - 9.81 / 5000.0
    assert abs(state.root_pos[0, 2] - z_expected) < 1e-3
    assert abs(state.root_lin_vel[0, 2]) < 1e-3


def test_probe_link_beyond_tree_rejected():
    tree, _ = _probe_body()
    state = ArticulationState.zeros(tree, 2)
    state.root_pos[:, 2] = 0.05
    before = state.copy()
    for link in (1, 99):
        probes = ContactPointSet(link=[0, link], offset=np.zeros((2, 3)),
                                 radius=0.1, stiffness=1e3, damping=0.0,
                                 friction=0.5)
        with pytest.raises(IndexError, match="probe link index out of range"):
            step(tree, state, None, 1e-3, probes=probes, terrain=FlatGround())
        with pytest.raises(IndexError, match="probe link index out of range"):
            contact_forces(tree, state, probes, FlatGround())
        for name in ("root_pos", "root_quat", "root_lin_vel", "root_ang_vel"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))


def test_heightfield_ground_is_the_terrain_heightfield():
    assert HeightfieldGround is terrain.HeightField


@pytest.mark.parametrize("heights, cell_size", [
    (np.zeros((3, 3)), 0.0),
    (np.zeros((3, 3)), -1.0),
    (np.array([[0.0, np.nan], [0.0, 0.0]]), 0.5),
    (np.zeros((1, 1)), 0.5),
], ids=["zero_cell", "negative_cell", "nan_height", "one_by_one"])
def test_heightfield_ground_rejects_invalid_grid(heights, cell_size):
    with pytest.raises(ValueError):
        terrain.HeightField(heights, cell_size)


def test_nan_root_over_heightfield_raises_divergence():
    tree, probes = _probe_body()
    ground = terrain.HeightField(np.zeros((3, 3)), cell_size=0.5)
    state = ArticulationState.zeros(tree, 2)
    state.root_pos[1] = [np.nan, 0.2, 0.5]
    with pytest.raises(SimulationDivergenceError) as exc:
        step(tree, state, None, dt=1e-3, probes=probes, terrain=ground)
    assert exc.value.env_ids == [1]


def test_contact_on_heightfield_matches_local_height():
    heights = np.array([[0.0, 0.2], [0.4, 0.6]])
    ground = terrain.HeightField(heights, cell_size=1.0)
    tree, probes = _probe_body(k=1000.0)
    state = ArticulationState.zeros(tree, 1)
    # above grid node (1, 0): surface height 0.4
    state.root_pos[0] = [1.0, 0.0, 0.4 + 0.1 - 0.02]
    out = contact_forces(tree, state, probes, ground)
    np.testing.assert_allclose(out.normal[0, 0, 2], 1000.0 * 0.02, rtol=1e-4)


def test_flat_ground_height_at_infinite_coordinates():
    ground = FlatGround(0.25)
    x = np.array([[np.inf, -np.inf, 0.0]])
    y = np.array([[1.0], [-np.inf]])
    h = ground.surface_height(x, y)
    assert h.shape == (2, 3) and h.dtype == np.float64
    np.testing.assert_array_equal(h, 0.25)
    assert FlatGround(0).surface_height(np.inf, 2.0).dtype == np.float64


def test_default_gravity_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        dynamics.GRAVITY[2] = 0.0
    np.testing.assert_array_equal(dynamics.GRAVITY, [0.0, 0.0, -9.81])
