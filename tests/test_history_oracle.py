"""Per-env deque models of the actuator and contact-sensor histories.

Each env keeps its own ``collections.deque``: a fresh env fills its whole
window with the first entry, later entries push out the oldest. The batched
code must match these models bitwise under random commands, resets of random
env subsets and full resets.
"""
from collections import deque

import numpy as np
import pytest

from vecsim.actuators import ActuatorConfig, ActuatorGroup, JointCommand
from vecsim.sensors import ContactSensor

E, M, STEPS = 5, 2, 120


class DequeHistory:
    """One bounded deque per env, refilled by the first entry after a reset."""

    def __init__(self, env_count, length):
        self.rows = [deque(maxlen=length) for _ in range(env_count)]
        self.fresh = [True] * env_count

    def reset(self, ids):
        for e in ids:
            self.fresh[e] = True

    def push(self, e, entry):
        rows = self.rows[e]
        if self.fresh[e]:
            rows.extend([entry] * rows.maxlen)
            self.fresh[e] = False
        else:
            rows.append(entry)
        return list(rows)


def random_reset(rng, batched, model_reset):
    """Now and then reset a random env subset, or every env, of both the
    batched object and the model."""
    r = rng.random()
    if r < 0.15:
        ids = np.nonzero(rng.random(E) < 0.4)[0]
        batched.reset(ids)
        model_reset(ids.tolist())
    elif r < 0.2:
        batched.reset()
        model_reset(range(E))


@pytest.mark.parametrize("delay", [0, 1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_delay_line_matches_deque_model(delay, seed):
    rng = np.random.default_rng([seed, delay])
    kp, kd, lim = 13.0, 0.75, 4.0
    group = ActuatorGroup(ActuatorConfig(
        joint_ids=list(range(M)), kind="delayed_pd", stiffness=kp, damping=kd,
        effort_limit=lim, delay_steps=delay), E)
    model = DequeHistory(E, delay + 1)
    for _ in range(STEPS):
        random_reset(rng, group, model.reset)
        cmd = JointCommand(*rng.standard_normal((3, E, M)))
        q, qd = rng.standard_normal((2, E, M))
        tau = group.compute_effort(cmd, q, qd)
        for e in range(E):
            # the applied command is the oldest of the last delay + 1
            q_t, qd_t, ff = model.push(e, (cmd.q_target[e].copy(),
                                           cmd.qd_target[e].copy(),
                                           cmd.effort[e].copy()))[0]
            want = np.clip(kp * (q_t - q[e]) + kd * (qd_t - qd[e]) + ff, -lim, lim)
            np.testing.assert_array_equal(tau[e], want)


@pytest.mark.parametrize("seed", [0, 1])
def test_actuator_network_window_matches_deque_model(seed):
    rng = np.random.default_rng(seed)
    length = 4
    seen = []

    def net(err_hist, qd_hist):
        seen.append((err_hist.copy(), qd_hist.copy()))
        return err_hist[:, -1] - 0.5 * qd_hist[:, 0]

    group = ActuatorGroup(ActuatorConfig(
        joint_ids=list(range(M)), kind="neural", model_fn=net,
        history_length=length), E)
    model = DequeHistory(E, length)
    for _ in range(STEPS):
        random_reset(rng, group, model.reset)
        cmd = JointCommand(*rng.standard_normal((3, E, M)))
        q, qd = rng.standard_normal((2, E, M))
        tau = group.compute_effort(cmd, q, qd)
        err_hist, qd_hist = seen[-1]
        for e in range(E):
            window = model.push(e, (cmd.q_target[e] - q[e], qd[e].copy()))
            np.testing.assert_array_equal(err_hist[e], [w[0] for w in window])
            np.testing.assert_array_equal(qd_hist[e], [w[1] for w in window])
            np.testing.assert_array_equal(tau[e], window[-1][0] - 0.5 * window[0][1])


class DequeContactModel:
    """Timers and completed-phase rings of one (env, body) pair."""

    def __init__(self, length):
        self.length = length
        self.reset()

    def reset(self):
        self.contact_time = self.air_time = 0.0
        self.contact_ring = deque([0.0] * self.length, maxlen=self.length)
        self.air_ring = deque([0.0] * self.length, maxlen=self.length)

    def update(self, contact, dt):
        if contact:
            if self.air_time > 0:
                self.air_ring.append(self.air_time)
            self.air_time = 0.0
            self.contact_time += dt
        else:
            if self.contact_time > 0:
                self.contact_ring.append(self.contact_time)
            self.contact_time = 0.0
            self.air_time += dt


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contact_duration_rings_match_deque_model(seed):
    rng = np.random.default_rng(seed)
    bodies, length, dt = 3, 3, 0.02
    sensor = ContactSensor(E, bodies, history_length=length)
    models = [[DequeContactModel(length) for _ in range(bodies)] for _ in range(E)]

    def reset_models(ids):
        for e in ids:
            for m in models[e]:
                m.reset()

    for _ in range(3 * STEPS):
        random_reset(rng, sensor, reset_models)
        # forces well above the contact threshold, or none
        touching = rng.random((E, bodies)) < 0.6
        forces = rng.uniform(0.5, 2.0, (E, bodies, 3)) * touching[..., None]
        sensor.update(forces, dt)
        for e in range(E):
            for b, m in enumerate(models[e]):
                m.update(touching[e, b], dt)
                assert sensor.contact_time[e, b] == m.contact_time
                assert sensor.air_time[e, b] == m.air_time
                assert sensor.in_contact[e, b] == (m.contact_time > 0)
                np.testing.assert_array_equal(sensor.contact_history[e, b],
                                              list(m.contact_ring))
                np.testing.assert_array_equal(sensor.air_history[e, b],
                                              list(m.air_ring))
                assert sensor.last_contact_duration[e, b] == m.contact_ring[-1]
                assert sensor.last_air_duration[e, b] == m.air_ring[-1]
