"""Joint actuator models: PD variants, friction, limits, and thrusters.

The five kinds (ideal PD, DC motor, delayed PD, remotized PD and neural) are
explicit: they turn desired joint commands into applied efforts each physics
substep. The pipeline is PD feedback -> joint friction -> kind specific
effort clamping. Implicit PD is not an actuator kind; its gains are folded
into the integrator's solve through :class:`vecsim.dynamics.ImplicitPD`, and
armature is :attr:`vecsim.dynamics.DynParams.armature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTUATOR_KINDS = ("ideal_pd", "dc_motor", "delayed_pd", "remotized_pd", "neural")


@dataclass
class FrictionConfig:
    """Joint friction: simple Coulomb or stiction with viscous drag."""

    mode: str = "none"              # none | coulomb | stiction
    coulomb: float = 0.0            # dynamic friction torque
    static_limit: float = 0.0       # stiction breakaway torque
    slip_threshold: float = 0.0     # |qd| below which stiction holds
    viscous: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "coulomb", "stiction"):
            raise ValueError(f"unknown friction mode {self.mode!r}")
        for name in ("coulomb", "static_limit", "slip_threshold", "viscous"):
            if getattr(self, name) < 0:
                raise ValueError(f"friction {name} must be >= 0")
        if self.mode == "stiction" and self.slip_threshold <= 0:
            raise ValueError("stiction mode requires slip_threshold > 0")


@dataclass
class ActuatorConfig:
    """Configuration for one actuator group over a joint subset."""

    joint_ids: list[int]
    kind: str = "ideal_pd"
    stiffness: float = 0.0
    damping: float = 0.0
    effort_limit: float = np.inf
    velocity_limit: float = np.inf
    friction: FrictionConfig = field(default_factory=FrictionConfig)
    # dc_motor
    saturation_effort: float = np.nan
    # delayed_pd
    delay_steps: int = 0
    # remotized_pd: rows of (joint position, effort limit), positions increasing
    effort_limit_table: object = None
    # neural: fn(pos_err_hist, qd_hist) -> effort, histories (E, H, m)
    model_fn: object = None
    history_length: int = 3

    def __post_init__(self):
        if self.kind not in ACTUATOR_KINDS:
            raise ValueError(f"unknown actuator kind {self.kind!r}")
        for name in ("stiffness", "damping"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")
        if self.effort_limit < 0 or self.velocity_limit < 0:
            raise ValueError("limits must be >= 0")
        if not _is_count(self.delay_steps, 0):
            raise ValueError("delay_steps must be a non-negative integer")
        if self.kind == "dc_motor":
            if not np.isfinite(self.saturation_effort) or self.saturation_effort < 0:
                raise ValueError("dc_motor requires saturation_effort >= 0")
            if not np.isfinite(self.velocity_limit):
                raise ValueError("dc_motor requires a finite velocity_limit")
        if self.kind == "remotized_pd":
            table = np.asarray(self.effort_limit_table, dtype=np.float64)
            if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 1:
                raise ValueError("effort_limit_table must be (K, 2)")
            if np.any(np.diff(table[:, 0]) <= 0):
                raise ValueError("effort_limit_table keys must be strictly increasing")
            self.effort_limit_table = table
        if self.kind == "neural" and self.model_fn is None:
            raise ValueError("neural actuator requires model_fn")
        if self.kind == "neural" and not _is_count(self.history_length, 1):
            raise ValueError("history_length must be a positive integer")


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer by type, Python or NumPy, and at
    least ``least``; ``1.0`` is not."""
    return isinstance(value, (int, np.integer)) and value >= least


@dataclass
class JointCommand:
    """Desired joint motion: position, velocity, and feedforward effort."""

    q_target: np.ndarray
    qd_target: np.ndarray
    effort: np.ndarray

    @staticmethod
    def zeros(env_count: int, width: int) -> "JointCommand":
        return JointCommand(np.zeros((env_count, width)),
                            np.zeros((env_count, width)),
                            np.zeros((env_count, width)))

    def stack(self) -> np.ndarray:
        return np.stack([self.q_target, self.qd_target, self.effort], axis=1)


def apply_friction(friction: FrictionConfig, tau: np.ndarray,
                   qd: np.ndarray) -> np.ndarray:
    """Subtract the joint friction torque from an applied effort.

    Coulomb: ``tau - mu_c*sign(qd) - b*qd`` with ``sign(0) = 0``. Stiction:
    below the slip threshold the effort is bled off toward zero by up to the
    static limit; above it the Coulomb branch applies.
    """
    if friction.mode == "none":
        return tau
    tau = np.asarray(tau, dtype=np.float64)
    qd = np.asarray(qd, dtype=np.float64)
    coulomb = tau - friction.coulomb * np.sign(qd) - friction.viscous * qd
    if friction.mode == "coulomb":
        return coulomb
    held = tau - np.clip(tau, -friction.static_limit, friction.static_limit)
    return np.where(np.abs(qd) < friction.slip_threshold, held, coulomb)


def rotor_wrench(k_f: float, k_m: float, direction, omega):
    """Thrust and yaw moment of a rotor spinning at ``omega`` (rad/s).

    ``direction`` is +1/-1 for the spin sense; the reaction moment opposes
    it. Returns ``(thrust, moment)`` along the rotor axis.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if np.any(omega < 0):
        raise ValueError("rotor speed must be >= 0")
    w2 = omega * omega
    return k_f * w2, -np.asarray(direction, dtype=np.float64) * k_m * w2


class ActuatorGroup:
    """One actuator config bound to per-environment mutable state.

    Gain/limit arrays are per-env copies of the config values so events can
    randomize them. Delayed PD and the neural kind keep a history, oldest
    entry first: ``(E, delay_steps + 1, 3, m)`` commands and
    ``(E, history_length, 2, m)`` (position error, velocity) observations.
    """

    def __init__(self, config: ActuatorConfig, env_count: int):
        self.config = config
        m = len(config.joint_ids)
        self.joint_ids = np.asarray(config.joint_ids, dtype=np.int64)

        def expand(value):
            return np.broadcast_to(np.asarray(value, dtype=np.float64),
                                   (env_count, m)).copy()

        self.kp = expand(config.stiffness)
        self.kd = expand(config.damping)
        self.effort_limit = expand(config.effort_limit)

        self._fresh = np.ones(env_count, dtype=bool)
        self._hist = None
        if config.kind == "delayed_pd":
            self._hist = np.zeros((env_count, config.delay_steps + 1, 3, m))
        if config.kind == "neural":
            self._hist = np.zeros((env_count, config.history_length, 2, m))

    def reset(self, env_ids=None) -> None:
        """Mark envs fresh: their next entry fills their whole history."""
        self._fresh[slice(None) if env_ids is None else env_ids] = True

    def _push(self, row: np.ndarray) -> np.ndarray:
        """Shift the history one slot toward the oldest, append ``row``
        ``(E, ...)`` and fill fresh envs with it; returns the history."""
        hist = self._hist
        hist[:, :-1] = hist[:, 1:]
        hist[:, -1] = row
        # a fresh env starts without a zero-entry transient
        hist[self._fresh] = row[self._fresh, None]
        self._fresh[:] = False
        return hist

    def compute_effort(self, command: JointCommand, q: np.ndarray,
                       qd: np.ndarray) -> np.ndarray:
        """Applied effort for this group's joint subset.

        ``q``/``qd`` are the group's joint slice, shape ``(E, m)``.
        """
        cfg = self.config
        stacked = command.stack()
        if not np.isfinite(stacked).all():
            bad = np.nonzero(~np.isfinite(stacked).all(axis=(0, 1)))[0]
            names = [int(self.joint_ids[b]) for b in bad]
            raise ValueError(f"non-finite command for joint(s) {names}")

        if cfg.kind == "neural":
            hist = self._push(np.stack([command.q_target - q, qd], axis=1))
            tau = np.asarray(cfg.model_fn(hist[:, :, 0], hist[:, :, 1]),
                             dtype=np.float64)
            return np.clip(tau, -self.effort_limit, self.effort_limit)
        if cfg.kind == "delayed_pd":
            stacked = self._push(stacked)[:, 0]
        q_t, qd_t, tau_ff = stacked[:, 0], stacked[:, 1], stacked[:, 2]

        tau = self.kp * (q_t - q) + self.kd * (qd_t - qd) + tau_ff
        tau = apply_friction(cfg.friction, tau, qd)

        if cfg.kind == "dc_motor":
            return np.clip(tau, *dc_motor_envelope(cfg, qd, self.effort_limit))
        if cfg.kind == "remotized_pd":
            table = cfg.effort_limit_table
            limit = np.interp(q, table[:, 0], table[:, 1])
            return np.clip(tau, -limit, limit)
        return np.clip(tau, -self.effort_limit, self.effort_limit)


def dc_motor_envelope(config: ActuatorConfig, qd: np.ndarray, effort_limit=None):
    """The four-quadrant torque-speed envelope ``(lower(qd), upper(qd))``.

    ``effort_limit`` overrides ``config.effort_limit``, e.g. with a group's
    per-env limits.
    """
    if effort_limit is None:
        effort_limit = config.effort_limit
    ts, vm = config.saturation_effort, config.velocity_limit
    qd = np.asarray(qd, dtype=np.float64)
    upper = np.clip(ts * (1.0 - qd / vm), 0.0, effort_limit)
    lower = np.clip(-ts * (1.0 + qd / vm), -effort_limit, 0.0)
    return lower, upper
