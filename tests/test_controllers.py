import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vecsim
from conftest import double_pendulum_tree, dp_bias_oracle, quat_from_axis_angle
from vecsim.articulation import ArticulationState, KinematicTree, LinkSpec
from vecsim.controllers import (
    IkConfig,
    TaskSpaceGains,
    diff_ik_step,
    joint_impedance,
    osc,
    pose_error,
)
from vecsim.dynamics import ImplicitPD, bias_forces, forward_kinematics, jacobian, mass_matrix, step
from vecsim.maths import Transform


def planar_arm(lengths=(0.4, 0.3, 0.3)):
    links = []
    for i, l in enumerate(lengths):
        links.append(LinkSpec(
            f"l{i}", i - 1, "revolute", axis=(0, 0, 1),
            origin_pos=(0, 0, 0) if i == 0 else (lengths[i - 1], 0, 0),
            mass=1.0, com=(l / 2, 0, 0), inertia=(0.01, 0.01, 0.01)))
    return KinematicTree(links), lengths


# ---------------------------------------------------------------- pose error


def test_pose_error_zero_at_target():
    t = Transform(np.array([1.0, 2, 3]),
                  quat_from_axis_angle(np.array([0, 0, 1.0]), 0.3))
    np.testing.assert_allclose(pose_error(t, t), np.zeros(6), atol=1e-12)


def test_pose_error_pure_translation():
    a = Transform.identity()
    b = Transform(np.array([0.1, 0, 0]), np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(pose_error(a, b), [0.1, 0, 0, 0, 0, 0], atol=1e-15)


def test_pose_error_antipodal_flip_about_z():
    a = Transform.identity()
    b = Transform(np.zeros(3), np.array([0.0, 0, 0, 1.0]))  # 180 deg about z
    np.testing.assert_allclose(pose_error(a, b), [0, 0, 0, 0, 0, np.pi],
                               atol=1e-12)


def test_pose_error_position_mode():
    a = Transform.identity()
    b = Transform(np.array([1.0, -2, 0.5]), np.array([1.0, 0, 0, 0]))
    assert pose_error(a, b, mode="position").shape == (3,)


# ------------------------------------------------------------------- diff IK


def test_identity_jacobian_passes_error_through():
    cfg = IkConfig(method="damped", damping=0.0)
    dq = diff_ik_step(np.eye(3), np.array([1.0, 2, 3]), cfg)
    np.testing.assert_allclose(dq, [1, 2, 3], atol=1e-12)


def test_damped_ik_hand_computed():
    cfg = IkConfig(method="damped", damping=0.1)
    j = np.array([[1.0, 0], [0.0, 0]])
    dq = diff_ik_step(j, np.array([1.0, 1.0]), cfg)
    np.testing.assert_allclose(dq, [1 / 1.01, 0.0], atol=1e-12)


def test_pinv_on_singular_jacobian():
    cfg = IkConfig(method="pinv")
    j = np.array([[1.0, 1.0], [0.0, 0.0]])  # rank 1
    dq = diff_ik_step(j, np.array([1.0, 5.0]), cfg)
    assert np.all(np.isfinite(dq))
    # no component along the null direction (1, -1)
    np.testing.assert_allclose(dq @ np.array([1.0, -1.0]), 0.0, atol=1e-10)
    # truncated component: J dq only reproduces the range part
    np.testing.assert_allclose(j @ dq, [1.0, 0.0], atol=1e-10)


def test_pinv_equals_adaptive_when_well_conditioned():
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = rng.standard_normal((3, 5))
        s = np.linalg.svd(j, compute_uv=False)
        cfg_a = IkConfig(method="svd_adaptive", singular_value_cutoff=0.5 * s.min())
        cfg_p = IkConfig(method="pinv")
        dx = rng.standard_normal(3)
        np.testing.assert_allclose(diff_ik_step(j, dx, cfg_a),
                                   diff_ik_step(j, dx, cfg_p), atol=1e-12)


def test_transpose_method():
    cfg = IkConfig(method="transpose", transpose_gain=0.25)
    j = np.array([[0.0, 2.0], [1.0, 0.0]])
    dq = diff_ik_step(j, np.array([1.0, 1.0]), cfg)
    np.testing.assert_allclose(dq, 0.25 * j.T @ [1.0, 1.0], atol=1e-15)


def test_damped_ik_norm_bound():
    # ||dq|| <= ||dx|| * max sigma/(sigma^2+lambda^2) <= ||dx|| / (2 lambda)
    rng = np.random.default_rng(1)
    lam = 0.2
    cfg = IkConfig(method="damped", damping=lam)
    for _ in range(1000):
        k, n = rng.integers(2, 7), rng.integers(2, 9)
        j = rng.standard_normal((k, n)) * rng.uniform(0.1, 5)
        dx = rng.standard_normal(k)
        dq = diff_ik_step(j, dx, cfg)
        assert np.linalg.norm(dq) <= np.linalg.norm(dx) / (2 * lam) + 1e-12


def test_damped_ik_zero_damping_is_min_norm_least_squares():
    # J J^T is singular for these Jacobians; the lambda -> 0 limit of damped
    # least squares is the minimum-norm least-squares step
    cfg = IkConfig(method="damped", damping=0.0)
    dq = diff_ik_step(np.zeros((1, 2, 3)), np.ones((1, 2)), cfg)
    np.testing.assert_array_equal(dq, np.zeros((1, 3)))
    rng = np.random.default_rng(5)
    for _ in range(50):
        j = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 6))  # rank 2
        dx = rng.standard_normal(3)
        expected = np.linalg.lstsq(j, dx, rcond=None)[0]
        np.testing.assert_allclose(diff_ik_step(j, dx, cfg), expected, atol=1e-9)


def test_ik_shape_mismatch():
    with pytest.raises(ValueError):
        diff_ik_step(np.eye(3), np.zeros(4), IkConfig())


def test_reacher_converges_on_reachable_targets():
    tree, lengths = planar_arm()
    cfg = IkConfig(method="damped", damping=0.05, step_scale=1.0)
    rng = np.random.default_rng(2)
    reach = sum(lengths)
    successes = 0
    for trial in range(100):
        radius = rng.uniform(0.15, 0.93 * reach)
        angle = rng.uniform(-np.pi, np.pi)
        target = np.array([radius * np.cos(angle), radius * np.sin(angle), 0.0])
        q = rng.uniform(-0.5, 0.5, 3)
        tip_offset = (lengths[-1], 0, 0)
        for it in range(200):
            pose = forward_kinematics(tree, q)
            tip = pose.apply(np.array(tip_offset))[-1]
            dx = target - tip
            if np.linalg.norm(dx) < 1e-3:
                successes += 1
                break
            j = jacobian(tree, q, link=2, point_offset=tip_offset)[:3]
            q = q + diff_ik_step(j, dx, cfg)
    assert successes >= 99


# ----------------------------------------------------------- joint impedance


def test_impedance_statics_equals_gravity_torque():
    tree = double_pendulum_tree()
    q = np.array([0.4, -0.9])
    tau = joint_impedance(q, np.zeros(2), q, stiffness=np.array([50.0, 20.0]),
                          damping=np.array([5.0, 2.0]),
                          gravity_bias=bias_forces(tree, q, np.zeros(2)))
    np.testing.assert_allclose(tau, dp_bias_oracle(q, np.zeros(2)), atol=1e-12)


def test_impedance_zero_gains_zero_torque():
    tau = joint_impedance(np.ones(3), np.ones(3), np.zeros(3),
                          stiffness=np.zeros(3), damping=np.zeros(3))
    np.testing.assert_allclose(tau, 0.0)


def test_impedance_rejects_negative_gains():
    with pytest.raises(ValueError):
        joint_impedance(np.zeros(1), np.zeros(1), np.zeros(1),
                        stiffness=np.array([-1.0]), damping=np.zeros(1))


def test_impedance_critical_damping_no_overshoot():
    # unit-inertia joint, K=4, D=4 (critically damped, wn=2)
    tree = KinematicTree([
        LinkSpec("l0", -1, "revolute", axis=(0, 0, 1), mass=1.0,
                 inertia=(1.0, 1.0, 1.0)),
    ])
    state = ArticulationState.zeros(tree, 1)
    state.q[0, 0] = 1.0
    overshoot = 0.0
    for _ in range(8000):
        tau = joint_impedance(state.q, state.qd, np.zeros((1, 1)),
                              stiffness=np.array([4.0]), damping=np.array([4.0]))
        step(tree, state, tau, dt=1e-3, gravity=(0, 0, 0))
        overshoot = max(overshoot, -state.q[0, 0])
    assert overshoot < 0.01


def test_impedance_inertia_scaling():
    mass = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
    q = np.array([0.3, -0.2, 0.5])
    qd = np.array([1.0, 0.0, -1.0])
    # spring 10 (0 - q) - 2 qd = [-5, 2, -3], then mass @ spring by hand
    tau = joint_impedance(q, qd, np.zeros(3), np.full(3, 10.0), np.full(3, 2.0),
                          mass=mass)
    np.testing.assert_allclose(tau, [-9.0, -1.1, -8.6], atol=1e-12)
    batch = joint_impedance(np.stack([q, -q]), np.stack([qd, -qd]), np.zeros((2, 3)),
                            10.0, 2.0, mass=np.stack([mass, 2.0 * mass]))
    np.testing.assert_allclose(batch, [[-9.0, -1.1, -8.6], [18.0, 2.2, 17.2]],
                               atol=1e-12)


def test_controllers_do_not_import_dynamics():
    src = Path(vecsim.__file__).resolve().parent.parent
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import vecsim.controllers; "
              "print('vecsim.dynamics' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-c", script, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ----------------------------------------------------------------------- OSC


def test_osc_identity_task():
    gains = TaskSpaceGains(stiffness=np.full(6, 9.0), damping=np.full(6, 1.0))
    dx = np.array([0.1, -0.2, 0.3, 0, 0, 0.05])
    tau = osc(np.eye(6), np.eye(6), dx, np.zeros(6), gains)
    np.testing.assert_allclose(tau, 9.0 * dx, atol=1e-9)


def test_osc_pure_force_mode():
    gains = TaskSpaceGains(stiffness=np.zeros(6), damping=np.zeros(6),
                           selection=np.zeros(6),
                           feedforward=np.array([1.0, 2, 3, 0, 0, 0]))
    rng = np.random.default_rng(3)
    j = rng.standard_normal((6, 4))
    m = np.eye(4) * 2.0
    tau = osc(j, m, np.zeros(6), np.zeros(6), gains)
    np.testing.assert_allclose(tau, j.T @ gains.feedforward, atol=1e-12)


def test_osc_gravity_compensation_passthrough():
    gains = TaskSpaceGains(stiffness=np.zeros(6), damping=np.zeros(6))
    g = np.array([1.0, -2.0, 0.5])
    tau = osc(np.eye(3), np.eye(3), np.zeros(3), np.zeros(3),
              TaskSpaceGains(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3)),
              gravity_bias=g)
    np.testing.assert_allclose(tau, g, atol=1e-15)


def test_osc_nullspace_neutral_on_redundant_arm():
    tree, lengths = planar_arm()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-1.5, 1.5, 3)
        qd = rng.standard_normal(3)
        j = jacobian(tree, q, link=2, point_offset=(lengths[-1], 0, 0))[:2]
        m = mass_matrix(tree, q)
        gains = TaskSpaceGains(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2))
        tau_null = osc(j, m, np.zeros(2), np.zeros(2), gains,
                       null_posture=(np.zeros(3), 25.0, 3.0), q=q, qd=qd)
        leak = np.linalg.norm(j @ np.linalg.solve(m, tau_null))
        worst = max(worst, leak)
    assert worst < 1e-8


def test_osc_rejects_non_pd_mass():
    gains = TaskSpaceGains(np.ones(3), np.ones(3), np.ones(3), np.zeros(3))
    m = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        osc(np.eye(3), m, np.zeros(3), np.zeros(3), gains)


# ------------------------------------------------------ removed settings


@pytest.mark.parametrize("call", [
    lambda: IkConfig(command_mode="position"),
    lambda: IkConfig(command_frame="relative"),
    lambda: osc(np.eye(3), np.eye(3), np.zeros(3), np.zeros(3),
                TaskSpaceGains(np.ones(3), np.ones(3)), reg=1e-3),
    lambda: joint_impedance(np.zeros(1), np.zeros(1), np.zeros(1),
                            np.ones(1), np.ones(1), qd_des=np.ones(1)),
    *(lambda name=name: joint_impedance(np.zeros(1), np.zeros(1), np.zeros(1),
                                        np.ones(1), np.ones(1), **{name: None})
      for name in ("tree", "gravity_comp", "inertia_scaling", "gravity", "root_pose")),
], ids=["command_mode", "command_frame", "reg", "qd_des", "tree", "gravity_comp",
        "inertia_scaling", "gravity", "root_pose"])
def test_removed_settings_are_rejected(call):
    with pytest.raises(TypeError):
        call()


# ---------------------------------------------------------------- validation


_J = np.eye(2, 3)
_M = np.eye(3)
_Z2 = np.zeros(2)
_Z3 = np.zeros(3)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: IkConfig(method="newton"),
                 "unknown IK method 'newton'", id="ik_method"),
    pytest.param(lambda: IkConfig(damping=-1.0),
                 "damping must be >= 0 and finite, got -1.0", id="ik_damping"),
    pytest.param(lambda: IkConfig(damping=np.nan),
                 "damping must be >= 0 and finite, got nan", id="ik_nan_damping"),
    pytest.param(lambda: IkConfig(transpose_gain=np.nan),
                 "transpose_gain must be > 0 and finite, got nan", id="ik_nan_gain"),
    pytest.param(lambda: IkConfig(transpose_gain=np.inf),
                 "transpose_gain must be > 0 and finite, got inf", id="ik_inf_gain"),
    pytest.param(lambda: IkConfig(singular_value_cutoff=-1.0),
                 "singular_value_cutoff must be >= 0", id="ik_cutoff"),
    pytest.param(lambda: IkConfig(singular_value_cutoff=np.nan),
                 "singular_value_cutoff must be >= 0", id="ik_nan_cutoff"),
    pytest.param(lambda: IkConfig(step_scale=np.nan),
                 "step_scale must be > 0 and finite", id="ik_nan_step_scale"),
    pytest.param(lambda: joint_impedance(_Z2, _Z2, _Z2, [np.nan, 1.0], 1.0),
                 "impedance stiffness must be >= 0 and finite, got nan",
                 id="impedance_nan_stiffness"),
    pytest.param(lambda: joint_impedance(_Z2, _Z2, _Z2, 1.0, [1.0, np.inf]),
                 "impedance damping must be >= 0 and finite, got inf",
                 id="impedance_inf_damping"),
    pytest.param(lambda: pose_error(Transform.identity(), Transform.identity(),
                                    mode="twist"),
                 "mode must be 'pose' or 'position'", id="pose_error_mode"),
    pytest.param(lambda: TaskSpaceGains(stiffness=-np.ones(6), damping=np.ones(6)),
                 "task-space stiffness must be >= 0 and finite, got -1.0",
                 id="gains_negative"),
    pytest.param(lambda: TaskSpaceGains(stiffness=[np.nan] * 6, damping=np.ones(6)),
                 "task-space stiffness must be >= 0 and finite, got nan", id="gains_nan"),
    pytest.param(lambda: TaskSpaceGains(stiffness=np.ones(6), damping=np.full(6, np.inf)),
                 "task-space damping must be >= 0 and finite, got inf",
                 id="gains_inf_damping"),
    pytest.param(lambda: TaskSpaceGains(np.ones(6), np.ones(6), selection=np.full(6, 0.5)),
                 "selection matrix entries must be 0 or 1", id="gains_selection"),
    pytest.param(lambda: osc(_J, _M, _Z2, _Z2, TaskSpaceGains(np.ones(6), np.ones(6)),
                             null_posture=(_Z3, 1.0, 1.0)),
                 "null-space posture requires q and qd", id="osc_posture"),
])
def test_controller_settings_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
