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
    step,
)
from vecsim import _dyn_kernels, terrain
from vecsim.maths import (Transform, quat_from_rotvec, quat_mul, quat_normalize,
                          quat_to_matrix)
from test_dyn_kernels import quadruped, random_tree


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
    # J @ u must reproduce the world point velocity for a floating base
    from vecsim import _dyn_kernels as kk
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

    base_rot = quat_to_matrix(state.root_quat)
    rot, pos = kk.joint_xforms(tree, state.q)
    link_rot, link_pos = kk.fk_kernel(tree, rot, pos, base_rot, state.root_pos)
    tw = np.concatenate([state.root_lin_vel, state.root_ang_vel], axis=1)
    v_body = kk.vel_kernel(tree, kk.motion_xforms(rot, pos), state.qd,
                           base_rot, tw)
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
    params.armature[1, 2] = -0.1
    state = ArticulationState.zeros(tree, 2)
    with pytest.raises(ValueError, match="armature"):
        mass_matrix(tree, state.q, params=params)
    with pytest.raises(ValueError, match="armature"):
        step(tree, state, None, 1e-3, params=params)


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

    def no_crba(*args, **kwargs):
        raise AssertionError("bias_forces ran CRBA")

    monkeypatch.setattr(_dyn_kernels, "crba_kernel", no_crba)
    got = bias_forces(tree, q, qd, root_pose=pose, root_twist=twist)
    np.testing.assert_array_equal(got, expected)


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


def test_step_divergence_error_names_env():
    tree = double_pendulum_tree()
    state = ArticulationState.zeros(tree, 3)
    state.q[1, 0] = np.nan
    with pytest.raises(SimulationDivergenceError) as exc:
        step(tree, state, None, dt=1e-3)
    assert 1 in exc.value.env_ids


# ------------------------------------------------------------- free root


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
        HeightfieldGround(heights, cell_size)


def test_contact_on_heightfield_matches_local_height():
    heights = np.array([[0.0, 0.2], [0.4, 0.6]])
    ground = HeightfieldGround(heights, cell_size=1.0)
    tree, probes = _probe_body(k=1000.0)
    state = ArticulationState.zeros(tree, 1)
    # above grid node (1, 0): surface height 0.4
    state.root_pos[0] = [1.0, 0.0, 0.4 + 0.1 - 0.02]
    out = contact_forces(tree, state, probes, ground)
    np.testing.assert_allclose(out.normal[0, 0, 2], 1000.0 * 0.02, rtol=1e-4)
