import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.actuators import (
    ActuatorConfig,
    ActuatorGroup,
    FrictionConfig,
    JointCommand,
    apply_friction,
    dc_motor_envelope,
    rotor_wrench,
)


def make_group(kind="ideal_pd", env_count=1, joints=1, **kw):
    cfg = ActuatorConfig(joint_ids=list(range(joints)), kind=kind, **kw)
    return ActuatorGroup(cfg, env_count)


def command(q_t, qd_t=0.0, tau=0.0, env_count=1, joints=1):
    cmd = JointCommand.zeros(env_count, joints)
    cmd.q_target[:] = q_t
    cmd.qd_target[:] = qd_t
    cmd.effort[:] = tau
    return cmd


# ------------------------------------------------------------------ ideal PD


def test_ideal_pd_formula():
    grp = make_group(stiffness=10.0, damping=1.0, effort_limit=100.0)
    tau = grp.compute_effort(command(0.5), np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_allclose(tau, [[5.0]])


def test_ideal_pd_clamps_to_effort_limit():
    grp = make_group(stiffness=1000.0, effort_limit=7.0)
    tau = grp.compute_effort(command(1.0), np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_allclose(tau, [[7.0]])


def test_implicit_pd_and_armature_are_not_actuator_settings():
    # implicit PD is dynamics.ImplicitPD and armature is DynParams.armature
    with pytest.raises(ValueError, match="implicit_pd"):
        ActuatorConfig(joint_ids=[0], kind="implicit_pd")
    with pytest.raises(TypeError, match="armature"):
        ActuatorConfig(joint_ids=[0], stiffness=10.0, armature=0.1)


def test_nan_command_names_joint():
    grp = make_group(joints=3, stiffness=1.0)
    cmd = command(0.0, joints=3)
    cmd.q_target[0, 2] = np.nan
    with pytest.raises(ValueError, match="2"):
        grp.compute_effort(cmd, np.zeros((1, 3)), np.zeros((1, 3)))


# ------------------------------------------------------------------ dc motor


def test_dc_motor_zero_torque_at_rated_speed():
    grp = make_group(kind="dc_motor", stiffness=100.0, effort_limit=100.0,
                     saturation_effort=60.0, velocity_limit=10.0)
    q = np.zeros((1, 1))
    qd = np.full((1, 1), 10.0)  # at rated speed
    tau = grp.compute_effort(command(5.0), q, qd)  # PD would give +50...
    np.testing.assert_allclose(tau, [[0.0]], atol=1e-12)


def test_dc_motor_envelope_symmetry_and_monotonicity():
    cfg = ActuatorConfig(joint_ids=[0], kind="dc_motor", saturation_effort=60.0,
                         velocity_limit=10.0, effort_limit=80.0)
    rng = np.random.default_rng(0)
    qd = rng.uniform(-30, 30, 1000)
    lower, upper = dc_motor_envelope(cfg, qd)
    l_neg, u_neg = dc_motor_envelope(cfg, -qd)
    # four-quadrant symmetry u(-qd) = -l(qd)
    np.testing.assert_allclose(u_neg, -lower, atol=1e-12)
    order = np.argsort(qd)
    assert np.all(np.diff(upper[order]) <= 1e-12)
    assert np.all(np.diff(lower[order]) <= 1e-12)


# ------------------------------------------------------------------- delayed


def test_delayed_commands_dequeue_after_d_steps():
    grp = make_group(kind="delayed_pd", stiffness=1.0, delay_steps=2)
    q = np.zeros((1, 1))
    qd = np.zeros((1, 1))
    taus = [grp.compute_effort(command(float(c)), q, qd)[0, 0] for c in range(5)]
    # commands 0,1,2 issued at steps 0,1,2; effort at step 2 uses command 0
    assert taus[:3] == [0.0, 0.0, 0.0]
    assert taus[3:] == [1.0, 2.0]


def test_delayed_prefills_with_first_command():
    grp = make_group(kind="delayed_pd", stiffness=1.0, delay_steps=3)
    q = np.zeros((1, 1))
    qd = np.zeros((1, 1))
    tau = grp.compute_effort(command(0.7), q, qd)
    np.testing.assert_allclose(tau, [[0.7]])


def test_delayed_zero_delay_bitwise_equals_ideal():
    rng = np.random.default_rng(1)
    ideal = make_group(stiffness=37.0, damping=2.5, effort_limit=11.0, env_count=4)
    delayed = make_group(kind="delayed_pd", stiffness=37.0, damping=2.5,
                         effort_limit=11.0, delay_steps=0, env_count=4)
    for _ in range(50):
        cmd = command(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                      rng.standard_normal((4, 1)), env_count=4)
        q = rng.standard_normal((4, 1))
        qd = rng.standard_normal((4, 1))
        np.testing.assert_array_equal(ideal.compute_effort(cmd, q, qd),
                                      delayed.compute_effort(cmd, q, qd))


def test_delayed_reset_refills_buffer():
    grp = make_group(kind="delayed_pd", stiffness=1.0, delay_steps=2)
    q = np.zeros((1, 1))
    qd = np.zeros((1, 1))
    for c in range(3):
        grp.compute_effort(command(float(c)), q, qd)
    grp.reset()
    tau = grp.compute_effort(command(9.0), q, qd)
    np.testing.assert_allclose(tau, [[9.0]])


# ----------------------------------------------------------------- remotized


def test_remotized_interpolates_limit_table():
    grp = make_group(kind="remotized_pd", stiffness=1000.0,
                     effort_limit_table=[(0.0, 50.0), (1.0, 30.0)])
    q = np.full((1, 1), 0.5)
    tau = grp.compute_effort(command(q + 10.0), q, np.zeros((1, 1)))
    np.testing.assert_allclose(tau, [[40.0]])


def test_remotized_clamps_to_table_ends():
    grp = make_group(kind="remotized_pd", stiffness=1000.0,
                     effort_limit_table=[(0.0, 50.0), (1.0, 30.0)])
    for qv, lim in [(-5.0, 50.0), (7.0, 30.0)]:
        q = np.full((1, 1), qv)
        tau = grp.compute_effort(command(q + 10.0), q, np.zeros((1, 1)))
        np.testing.assert_allclose(tau, [[lim]])


# -------------------------------------------------------------------- neural


def test_neural_hook_history_window():
    seen = []

    def hook(err_hist, qd_hist):
        seen.append(err_hist.copy())
        return err_hist[:, -1] * 2.0

    grp = make_group(kind="neural", model_fn=hook, effort_limit=100.0,
                     history_length=3)
    q = np.zeros((1, 1))
    qd = np.zeros((1, 1))
    t1 = grp.compute_effort(command(1.0), q, qd)
    np.testing.assert_allclose(t1, [[2.0]])
    np.testing.assert_allclose(seen[0][0, :, 0], [1.0, 1.0, 1.0])  # pre-filled
    grp.compute_effort(command(2.0), q, qd)
    np.testing.assert_allclose(seen[1][0, :, 0], [1.0, 1.0, 2.0])


def test_neural_output_clamped():
    grp = make_group(kind="neural", model_fn=lambda e, v: e[:, -1] * 1e6,
                     effort_limit=3.0)
    tau = grp.compute_effort(command(1.0), np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_allclose(tau, [[3.0]])


# ------------------------------------------------------------------ friction


def test_coulomb_friction():
    fr = FrictionConfig(mode="coulomb", coulomb=1.0)
    np.testing.assert_allclose(apply_friction(fr, 5.0, 2.0), 4.0)
    # sign(0) = 0 convention: no friction at rest
    np.testing.assert_allclose(apply_friction(fr, 5.0, 0.0), 5.0)


def test_coulomb_viscous_term():
    fr = FrictionConfig(mode="coulomb", coulomb=0.5, viscous=0.1)
    np.testing.assert_allclose(apply_friction(fr, 2.0, 3.0), 2.0 - 0.5 - 0.3)


def test_stiction_holds_small_torques():
    fr = FrictionConfig(mode="stiction", static_limit=0.5, slip_threshold=0.1,
                        coulomb=0.2)
    np.testing.assert_allclose(apply_friction(fr, 0.3, 0.0), 0.0)
    # breakaway: above the static limit the excess passes through
    np.testing.assert_allclose(apply_friction(fr, 0.8, 0.0), 0.3)
    # sliding: coulomb branch
    np.testing.assert_allclose(apply_friction(fr, 0.8, 1.0), 0.6)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_friction_never_injects_power(seed):
    rng = np.random.default_rng(seed)
    mode = rng.choice(["coulomb", "stiction"])
    fr = FrictionConfig(mode=mode, coulomb=rng.uniform(0, 2),
                        static_limit=rng.uniform(0, 2),
                        slip_threshold=rng.uniform(0.01, 0.5),
                        viscous=rng.uniform(0, 1))
    tau = rng.uniform(-10, 10)
    qd = rng.uniform(-5, 5)
    delta = apply_friction(fr, tau, qd) - tau
    # the friction torque extracts power, except the static hold where the
    # injection is bounded by the hold threshold at creep speed
    if mode == "coulomb" or abs(qd) >= fr.slip_threshold:
        assert delta * qd <= 1e-12
    else:
        assert delta * qd <= fr.static_limit * fr.slip_threshold + 1e-12


# ---------------------------------------------------------- limits, thruster


def test_rotor_wrench_formula():
    thrust, moment = rotor_wrench(1e-5, 1e-6, +1, 1000.0)
    np.testing.assert_allclose(thrust, 10.0)
    np.testing.assert_allclose(moment, -1.0)
    thrust, moment = rotor_wrench(1e-5, 1e-6, -1, 0.0)
    assert thrust == 0.0 and moment == 0.0


def test_quad_rotor_yaw_cancellation():
    # four rotors, alternating spin directions, equal speed: zero net yaw
    total = 0.0
    for direction in (+1, -1, +1, -1):
        _, m = rotor_wrench(1e-5, 1e-6, direction, 800.0)
        total += m
    np.testing.assert_allclose(total, 0.0, atol=1e-15)


def test_rotor_rejects_negative_speed():
    with pytest.raises(ValueError):
        rotor_wrench(1e-5, 1e-6, 1, -5.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_effort_always_within_limits(seed):
    rng = np.random.default_rng(seed)
    kind = rng.choice(["ideal_pd", "dc_motor", "delayed_pd", "neural"])
    lim = rng.uniform(0.5, 50)
    kw = dict(stiffness=rng.uniform(0, 100), damping=rng.uniform(0, 10),
              effort_limit=lim)
    if kind == "dc_motor":
        kw.update(saturation_effort=rng.uniform(0, 100),
                  velocity_limit=rng.uniform(0.5, 20))
    if kind == "delayed_pd":
        kw.update(delay_steps=int(rng.integers(0, 4)))
    if kind == "neural":
        kw.update(model_fn=lambda e, v: e[:, -1] * 1e4)
    if rng.random() < 0.5:
        kw.update(friction=FrictionConfig(mode="coulomb",
                                          coulomb=rng.uniform(0, 5)))
    grp = make_group(kind=kind, env_count=3, **kw)
    for _ in range(5):
        cmd = command(rng.standard_normal((3, 1)) * 10,
                      rng.standard_normal((3, 1)) * 10,
                      rng.standard_normal((3, 1)) * 10, env_count=3)
        tau = grp.compute_effort(cmd, rng.standard_normal((3, 1)),
                                 rng.standard_normal((3, 1)))
        assert np.all(np.abs(tau) <= lim + 1e-12)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: FrictionConfig(mode="viscous"),
                 "unknown friction mode 'viscous'", id="friction_mode"),
    pytest.param(lambda: FrictionConfig(mode="coulomb", coulomb=-1.0),
                 "friction coulomb must be >= 0", id="negative_coulomb"),
    pytest.param(lambda: FrictionConfig(mode="stiction", static_limit=1.0),
                 "stiction mode requires slip_threshold > 0", id="stiction_threshold"),
    pytest.param(lambda: ActuatorConfig([0], damping=-1.0),
                 "damping must be >= 0", id="negative_damping"),
    pytest.param(lambda: ActuatorConfig([0], effort_limit=-1.0),
                 "limits must be >= 0", id="negative_limit"),
    pytest.param(lambda: ActuatorConfig([0], kind="delayed_pd", delay_steps=1.5),
                 "delay_steps must be a non-negative integer", id="fractional_delay"),
    pytest.param(lambda: ActuatorConfig([0], kind="delayed_pd", delay_steps=1.0),
                 "delay_steps must be a non-negative integer", id="float_delay"),
    pytest.param(lambda: ActuatorConfig([0], kind="dc_motor", velocity_limit=1.0),
                 "dc_motor requires saturation_effort >= 0", id="dc_saturation"),
    pytest.param(lambda: ActuatorConfig([0], kind="dc_motor", saturation_effort=1.0),
                 "dc_motor requires a finite velocity_limit", id="dc_velocity"),
    pytest.param(lambda: ActuatorConfig([0], kind="remotized_pd",
                                        effort_limit_table=[1.0, 2.0]),
                 "effort_limit_table must be (K, 2)", id="table_shape"),
    pytest.param(lambda: ActuatorConfig([0], kind="remotized_pd",
                                        effort_limit_table=[(1.0, 5.0), (0.0, 4.0)]),
                 "effort_limit_table keys must be strictly increasing", id="table_order"),
    pytest.param(lambda: ActuatorConfig([0], kind="neural"),
                 "neural actuator requires model_fn", id="neural_model"),
    pytest.param(lambda: ActuatorConfig([0], kind="neural", model_fn=np.sum,
                                        history_length=0),
                 "history_length must be a positive integer", id="empty_history"),
    pytest.param(lambda: ActuatorConfig([0], kind="neural", model_fn=np.sum,
                                        history_length=1.0),
                 "history_length must be a positive integer", id="float_history"),
])
def test_actuator_settings_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
