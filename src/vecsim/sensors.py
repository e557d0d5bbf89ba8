"""Batched sensor suite: ray patterns, depth camera, tiled image packing,
contact bookkeeping and a finite-difference IMU.

Camera frames are stored internally in the *world* convention (x-forward,
z-up); ROS (z-forward, -y-up) and OpenGL (-z-forward, y-up) conversion
matrices are provided. Every sensor can run at its own update period via
:class:`SensorClock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .maths import (GRAVITY, Transform, check_count, check_setting, cross, grid_count,
                    quat_mul, quat_rotate, quat_rotate_inverse, quat_to_matrix)

# rotation taking camera-frame vectors of each convention into the internal
# world convention (x-forward, y-left, z-up)
CAMERA_CONVENTIONS = {
    "world": np.eye(3),
    "ros": np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    "opengl": np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
}


@dataclass
class RayPattern:
    """Local-frame ray origins and unit directions for one sensor."""

    kind: str
    origins: np.ndarray   # (R, 3)
    dirs: np.ndarray      # (R, 3)
    width: int = 0        # pinhole image width in px
    height: int = 0

    @property
    def num_rays(self) -> int:
        return len(self.dirs)


def pattern_grid(size_x: float, size_y: float, resolution: float) -> RayPattern:
    """Regular grid of downward rays centered on the sensor frame.

    Produces ``(floor(size_x/res)+1) * (floor(size_y/res)+1)`` rays.
    """
    check_setting("size_x", size_x, ">= 0")
    check_setting("size_y", size_y, ">= 0")
    check_setting("resolution", resolution, "> 0")
    nx = grid_count(size_x, resolution)
    ny = grid_count(size_y, resolution)
    xs = (np.arange(nx) - (nx - 1) / 2.0) * resolution
    ys = (np.arange(ny) - (ny - 1) / 2.0) * resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    origins = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(nx * ny)])
    dirs = np.tile([0.0, 0.0, -1.0], (nx * ny, 1))
    return RayPattern("grid", origins, dirs, width=ny, height=nx)


def pattern_pinhole(width: int, height: int, focal_px: float,
                    principal: tuple[float, float] | None = None) -> RayPattern:
    """Pinhole camera rays in the world camera convention, row-major."""
    width = check_count("width", width)
    height = check_count("height", height)
    check_setting("focal_px", focal_px, "> 0")
    if principal is None:
        cx, cy = width / 2.0, height / 2.0
    else:
        cx, cy = check_setting("principal", principal)
    u = np.arange(width) + 0.5
    v = np.arange(height) + 0.5
    uu, vv = np.meshgrid(u, v, indexing="xy")
    x_opt = (uu - cx) / focal_px
    y_opt = (vv - cy) / focal_px
    d_opt = np.stack([x_opt, y_opt, np.ones_like(x_opt)], axis=-1)
    d_opt /= np.linalg.norm(d_opt, axis=-1, keepdims=True)
    # optical (x-right, y-down, z-forward) -> world convention
    dirs = np.stack([d_opt[..., 2], -d_opt[..., 0], -d_opt[..., 1]], axis=-1)
    dirs = dirs.reshape(-1, 3)
    return RayPattern("pinhole", np.zeros_like(dirs), dirs,
                      width=width, height=height)


def pattern_lidar(horizontal_fov: float, horizontal_count: int,
                  vertical_angles) -> RayPattern:
    """Multi-channel lidar rays fanned around the sensor x-axis.

    A fan of ``2 pi`` or more spaces its rays ``horizontal_fov / n`` apart
    and leaves out the end angle, which would repeat the start.
    """
    horizontal_count = check_count("horizontal_count", horizontal_count)
    check_setting("horizontal_fov", horizontal_fov, ">= 0")
    va = check_setting("vertical_angles", vertical_angles)
    ha = np.linspace(-horizontal_fov / 2, horizontal_fov / 2, horizontal_count,
                     endpoint=horizontal_fov < 2 * np.pi)
    vv, hh = np.meshgrid(va, ha, indexing="ij")
    dirs = np.stack([np.cos(vv) * np.cos(hh), np.cos(vv) * np.sin(hh),
                     np.sin(vv)], axis=-1).reshape(-1, 3)
    return RayPattern("lidar", np.zeros_like(dirs), dirs,
                      width=horizontal_count, height=len(va))


def place_pattern(pattern: RayPattern, sensor_pose: Transform):
    """World-frame ray origins/directions for batched sensor poses.

    Each of the ``E`` poses turns the pattern by one rotation matrix
    (``quat_to_matrix``), giving ``(E, R, 3)`` origins and directions. A
    pose that only yaws keeps a vertical direction exactly vertical.
    """
    pos = np.atleast_2d(sensor_pose.pos)
    # the pattern's rows times R^T are R times its vectors
    rot_t = np.swapaxes(quat_to_matrix(np.atleast_2d(sensor_pose.quat)), -1, -2)
    return pos[:, None, :] + pattern.origins @ rot_t, pattern.dirs @ rot_t


def depth_image(hits, pattern: RayPattern, mode: str = "distance") -> np.ndarray:
    """Depth image from pinhole-pattern hits.

    ``distance`` is the ray-travel distance; ``planar_z`` projects it onto
    the optical axis. Misses stay ``+inf``.
    """
    if pattern.kind != "pinhole":
        raise ValueError("depth images require a pinhole pattern")
    if mode not in ("distance", "planar_z"):
        raise ValueError(f"unknown depth mode {mode!r}")
    t = np.asarray(hits.t, dtype=np.float64)
    if mode == "planar_z":
        t = t * pattern.dirs[:, 0]  # forward component of each unit ray
    batch = t.shape[:-1]
    return t.reshape(batch + (pattern.height, pattern.width))


# ----------------------------------------------------------------- tiling


@dataclass
class TiledLayout:
    """Deterministic mapping of per-env images into one atlas."""

    tile_width: int
    tile_height: int
    tiles_per_row: int
    env_count: int
    channels: int = 0

    @property
    def rows(self) -> int:
        return -(-self.env_count // self.tiles_per_row)

    @property
    def atlas_shape(self) -> tuple[int, ...]:
        shape = (self.rows * self.tile_height, self.tiles_per_row * self.tile_width)
        return shape + ((self.channels,) if self.channels else ())

    def tile_of(self, env: int) -> tuple[int, int]:
        return env % self.tiles_per_row, env // self.tiles_per_row


def tile_pack(images: np.ndarray, tiles_per_row: int | None = None):
    """Pack env-indexed images ``(E, H, W[, C])`` into a single atlas.

    Environment ``e`` occupies tile column ``e % tiles_per_row`` and row
    ``e // tiles_per_row``. Returns ``(atlas, layout)``.
    """
    images = np.asarray(images)
    if images.ndim not in (3, 4):
        raise ValueError("images must be (E, H, W) or (E, H, W, C)")
    e, h, w = images.shape[:3]
    if e == 0:
        raise ValueError("images must hold at least one image")
    c = images.shape[3] if images.ndim == 4 else 0
    if tiles_per_row is None:
        tiles_per_row = int(np.ceil(np.sqrt(e)))
    else:
        tiles_per_row = check_count("tiles_per_row", tiles_per_row)
    layout = TiledLayout(w, h, tiles_per_row, e, c)
    # pad to whole rows of tiles, then (row, col, h, w) -> (row, h, col, w)
    tiles = np.zeros((layout.rows * tiles_per_row,) + images.shape[1:],
                     dtype=images.dtype)
    tiles[:e] = images
    tiles = tiles.reshape((layout.rows, tiles_per_row) + images.shape[1:])
    return tiles.swapaxes(1, 2).reshape(layout.atlas_shape), layout


# ------------------------------------------------------------ sensor clock


@dataclass
class SensorClock:
    """Per-sensor update scheduling: recompute iff a period has elapsed.

    Marking advances the schedule by whole periods (drift-free), so over a
    horizon ``T`` the number of recomputes is ``floor(T / period) +- 1``
    even when the simulation step does not divide the period. A period of
    ``+inf`` updates once, on the first call after a reset.
    """

    period: float
    last_update: float = -np.inf

    def __post_init__(self):
        check_setting("period", self.period, "> 0", inf=True)

    def due(self, sim_time: float) -> bool:
        return sim_time - self.last_update >= self.period - 1e-12

    def mark(self, sim_time: float) -> None:
        if np.isinf(self.last_update):
            self.last_update = sim_time
        else:
            self.last_update += self.period
            # never fall more than one period behind (no catch-up bursts)
            if sim_time - self.last_update >= self.period - 1e-12:
                self.last_update = sim_time

    def reset(self) -> None:
        self.last_update = -np.inf


# ---------------------------------------------------------- contact sensor


def aggregate_body_forces(probe_forces: np.ndarray, probe_link: np.ndarray,
                          body_ids, probe_mask=None) -> np.ndarray:
    """Sum per-probe forces onto bodies; ``probe_mask`` filters sources."""
    probe_forces = np.asarray(probe_forces)
    e = probe_forces.shape[0]
    body_ids = np.asarray(body_ids)
    out = np.zeros((e, len(body_ids), 3))
    for b, body in enumerate(body_ids):
        sel = probe_link == body
        if probe_mask is not None:
            sel = sel & probe_mask
        out[:, b] = probe_forces[:, sel].sum(axis=1)
    return out


class ContactSensor:
    """Net contact forces plus contact/air time bookkeeping per body.

    Keeps the current contact and air timers (never simultaneously
    positive) and the durations of the last few completed contact and air
    phases per body, oldest first.
    ``in_contact`` and the last completed durations are read from them.

    Raises:
        ValueError: if ``history_length`` is not an integer >= 1 or
            ``force_threshold`` is not finite and >= 0.
    """

    def __init__(self, env_count: int, body_count: int, history_length: int = 3,
                 force_threshold: float = 1e-6):
        history_length = check_count("history_length", history_length)
        check_setting("force_threshold", force_threshold, ">= 0")
        self.force_threshold = force_threshold
        shape = (env_count, body_count)
        self.net_force = np.zeros(shape + (3,))
        self.contact_time = np.zeros(shape)
        self.air_time = np.zeros(shape)
        self.contact_history = np.zeros(shape + (history_length,))
        self.air_history = np.zeros(shape + (history_length,))

    @property
    def in_contact(self) -> np.ndarray:
        return self.contact_time > 0

    @property
    def last_contact_duration(self) -> np.ndarray:
        return self.contact_history[..., -1].copy()

    @property
    def last_air_duration(self) -> np.ndarray:
        return self.air_history[..., -1].copy()

    def reset(self, env_ids=None) -> None:
        ids = slice(None) if env_ids is None else env_ids
        for arr in (self.net_force, self.contact_time, self.air_time,
                    self.contact_history, self.air_history):
            arr[ids] = 0.0

    def update(self, net_forces: np.ndarray, dt: float) -> None:
        check_setting("dt", dt, "> 0")
        self.net_force[:] = net_forces
        contact = np.linalg.norm(net_forces, axis=-1) > self.force_threshold
        touchdown = contact & (self.air_time > 0)
        liftoff = ~contact & (self.contact_time > 0)
        # the ring of each phase that just ended shifts one slot, newest last
        self.air_history[touchdown, :-1] = self.air_history[touchdown, 1:]
        self.air_history[touchdown, -1] = self.air_time[touchdown]
        self.contact_history[liftoff, :-1] = self.contact_history[liftoff, 1:]
        self.contact_history[liftoff, -1] = self.contact_time[liftoff]
        self.air_time[contact] = 0.0
        self.contact_time[~contact] = 0.0
        self.contact_time[contact] += dt
        self.air_time[~contact] += dt


# -------------------------------------------------------------------- IMU


@dataclass
class ImuModifiers:
    """Observation noise and bias random walk, enabled per-axis."""

    accel_noise_std: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias_walk_std: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_noise_std: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias_walk_std: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for f in fields(self):
            check_setting(f"imu {f.name}", getattr(self, f.name), ">= 0")


@dataclass
class ImuSample:
    """One batched IMU reading in the sensor frame."""

    orientation: np.ndarray          # (E, 4) sensor-in-world quaternion
    angular_velocity: np.ndarray     # (E, 3)
    linear_acceleration: np.ndarray  # (E, 3) proper acceleration
    gravity_projection: np.ndarray   # (E, 3) unit vector


class ImuSensor:
    """Finite-difference IMU attached to a body with a rigid offset.

    Reports proper acceleration: at rest the reading is ``-gravity``
    expressed in the sensor frame (magnitude ``g``), and zero in free fall.
    The first update after a reset outputs zero world acceleration.
    """

    def __init__(self, env_count: int, offset: Transform | None = None,
                 gravity=GRAVITY, modifiers: ImuModifiers | None = None,
                 rng: np.random.Generator | None = None):
        self.offset = offset if offset is not None else Transform.identity()
        self.gravity = check_setting("gravity", gravity)
        self.modifiers = modifiers
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._prev_vel = np.zeros((env_count, 3))
        self._has_prev = np.zeros(env_count, dtype=bool)
        self._accel_bias = np.zeros((env_count, 3))
        self._gyro_bias = np.zeros((env_count, 3))

    def reset(self, env_ids=None) -> None:
        ids = slice(None) if env_ids is None else env_ids
        self._has_prev[ids] = False
        self._accel_bias[ids] = 0.0
        self._gyro_bias[ids] = 0.0

    def update(self, body_pose: Transform, body_lin_vel: np.ndarray,
               body_ang_vel: np.ndarray, dt: float) -> ImuSample:
        check_setting("dt", dt, "> 0")
        quat = np.atleast_2d(body_pose.quat)
        pos_offset_w = quat_rotate(quat, self.offset.pos)
        v_pt = body_lin_vel + cross(body_ang_vel, pos_offset_w)
        accel_w = np.where(self._has_prev[:, None],
                           (v_pt - self._prev_vel) / dt, 0.0)
        self._prev_vel[:] = v_pt
        self._has_prev[:] = True

        sensor_quat = quat_mul(quat, self.offset.quat)
        lin_acc = quat_rotate_inverse(sensor_quat, accel_w - self.gravity)
        ang_vel = quat_rotate_inverse(sensor_quat, body_ang_vel)
        g_norm = np.linalg.norm(self.gravity)
        g_unit = self.gravity / g_norm if g_norm > 0 else np.zeros(3)
        grav_proj = quat_rotate_inverse(sensor_quat, g_unit)
        if self.modifiers is not None:
            m = self.modifiers
            lin_acc = lin_acc + self.rng.normal(0.0, 1.0, lin_acc.shape) * m.accel_noise_std
            ang_vel = ang_vel + self.rng.normal(0.0, 1.0, ang_vel.shape) * m.gyro_noise_std
            self._accel_bias += self.rng.normal(0.0, 1.0, lin_acc.shape) * m.accel_bias_walk_std
            self._gyro_bias += self.rng.normal(0.0, 1.0, ang_vel.shape) * m.gyro_bias_walk_std
            lin_acc = lin_acc + self._accel_bias
            ang_vel = ang_vel + self._gyro_bias
        return ImuSample(sensor_quat, ang_vel, lin_acc, grav_proj)
