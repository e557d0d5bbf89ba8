"""The three benchmark environments, built only from public vecsim calls.

Each environment steps a batch of E envs in a closed loop. One control
step is: actions -> ``decimation`` dynamics substeps -> sensors ->
observations -> resets. Every library call is wrapped in a tracer span
named ``<module>.<call>``; the tracer records nothing unless enabled.

``control_step`` returns a record of what the correctness checks need, and
``check`` runs them afterwards, outside the timed step.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import checks
from models import (
    ARM_DEFAULT_Q, ARM_EE_OFFSET, QUAD_DEFAULT_Q, QUAD_FRICTION,
    QUAD_SPAWN_HEIGHT, arm_tree, camera_scene, ee_target_generator,
    joint_target_generator, quadruped_probes, quadruped_tree,
    velocity_command_generator,
)
from vecsim import dynamics
from vecsim.actuators import ActuatorConfig, ActuatorGroup, JointCommand
from vecsim.articulation import ArticulationState
from vecsim.controllers import TaskSpaceGains, osc, pose_error
from vecsim.maths import Transform, compose, quat_rotate, quat_rotate_inverse
from vecsim.raycast import build_bvh, raycast
from vecsim.sensors import (
    ContactSensor, ImuSensor, SensorClock, aggregate_body_forces, depth_image,
    pattern_grid, pattern_pinhole, place_pattern, tile_pack,
)
from vecsim.terrain import (
    CurriculumState, compose_grid, curriculum_update, pyramid_stairs_spec,
    random_rough_spec,
)

DT = 0.005                 # s, one dynamics substep
ARMATURE = 0.01            # kg m^2 reflected rotor inertia on every joint
KP, KD = 40.0, 1.0         # quadruped joint PD gains
EPISODE_STEPS = 25         # control steps before a timeout reset
FALL_HEIGHT = 0.18         # m, base height above the surface counted as a fall
FALL_TILT = -0.7           # gravity z in the base frame above this is a fall
SPAWN_SPREAD = 1.0         # m, spawn xy jitter around the terrain origin
SCAN_LIFT = 1.0            # m, height-scan origin above the base
HIP_XY = np.array([[0.18, 0.13], [0.18, -0.13], [-0.18, 0.13], [-0.18, -0.13]])
TERRAIN_ROWS = 4
TOOL_DOWN = np.array([0.0, 0.0, 1.0, 0.0])   # pi about y: tool +z -> world -z
CAMERA_OFFSET = Transform(np.zeros(3),       # camera x-forward along tool +z
                          np.array([np.cos(np.pi / 4), 0.0, -np.sin(np.pi / 4), 0.0]))


def _yaw_quat(yaw: np.ndarray) -> np.ndarray:
    z = np.zeros_like(yaw)
    return np.stack([np.cos(yaw / 2), z, z, np.sin(yaw / 2)], axis=-1)


class Loco:
    """Quadruped locomotion: flat ground with explicit DC motors, or rough
    terrain with implicit PD, a 187-ray height scan and a curriculum."""

    decimation = 4

    def __init__(self, seed: int, env_count: int, tracer, rough: bool):
        self.tracer = tracer
        self.env_count = E = env_count
        self.rough = rough
        self.control_dt = self.decimation * DT
        self.rng = np.random.default_rng([seed, 1])
        self.setup_parts = {}
        self.tree = quadruped_tree()
        self.probes = quadruped_probes(self.tree)
        self.feet = np.unique(self.probes.link)
        if rough:
            specs = [random_rough_spec(size=(8.0, 8.0), cell=0.1, max_height=0.1),
                     pyramid_stairs_spec(size=(8.0, 8.0), cell=0.1,
                                         max_step_height=0.16, step_width=0.5,
                                         levels=6)]
            t0 = time.perf_counter()
            self.grid = compose_grid(specs, TERRAIN_ROWS,
                                     rng=np.random.default_rng([seed, 2]),
                                     difficulty_map=lambda r, n: (r + 1) / n)
            t1 = time.perf_counter()
            self.bvh = build_bvh(self.grid.mesh)
            t2 = time.perf_counter()
            self.setup_parts = {"terrain.compose_grid_s": t1 - t0,
                                "raycast.build_bvh_s": t2 - t1}
            self.ground = self.grid.ground
            # spread envs evenly over every (row, column) sub-terrain
            ids = np.arange(E)
            self.curriculum = CurriculumState(
                levels=ids % TERRAIN_ROWS,
                columns=(ids // TERRAIN_ROWS) % self.grid.cols)
            self.scan = pattern_grid(1.6, 1.0, 0.1)
            self.pd = dynamics.ImplicitPD(kp=KP, kd=KD,
                                          q_target=np.tile(QUAD_DEFAULT_Q, (E, 1)))
        else:
            self.ground = dynamics.FlatGround()
            self.actuators = ActuatorGroup(ActuatorConfig(
                list(range(12)), kind="dc_motor", stiffness=KP, damping=KD,
                effort_limit=33.5, saturation_effort=33.5,
                velocity_limit=21.0), E)
            self.no_command = np.zeros((E, 12))
        self.state = ArticulationState.zeros(self.tree, E)
        self.params = dynamics.DynParams.from_tree(self.tree, E)
        self.params.armature[:] = ARMATURE
        self.contacts = dynamics.ContactForces.zeros(E, self.probes.count)
        self.contact_sensor = ContactSensor(E, len(self.feet))
        self.imu = ImuSensor(E)
        self.joint_targets = joint_target_generator(seed, E)
        self.commands = velocity_command_generator(seed, E)
        self.sim_time = 0.0
        self.episode_step = np.zeros(E, dtype=np.int64)
        self._spawn(np.arange(E))
        # stagger episodes so timeouts spread over the run
        self.episode_step[:] = self.rng.integers(0, EPISODE_STEPS, E)

    def _spawn(self, ids: np.ndarray) -> None:
        """Place envs at a jittered terrain origin, standing, at rest."""
        n = ids.size
        if self.rough:
            center = self.grid.origins[self.curriculum.levels[ids],
                                       self.curriculum.columns[ids], :2]
        else:
            center = np.zeros((n, 2))
        xy = center + self.rng.uniform(-SPAWN_SPREAD, SPAWN_SPREAD, (n, 2))
        yaw = self.rng.uniform(-np.pi, np.pi, n)
        c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
        hips = xy[:, None, :] + np.stack(
            [c * HIP_XY[:, 0] - s * HIP_XY[:, 1],
             s * HIP_XY[:, 0] + c * HIP_XY[:, 1]], axis=-1)
        pts = np.concatenate([xy[:, None, :], hips], axis=1)
        with self.tracer.span("terrain.surface_height"):
            h = self.ground.surface_height(pts[..., 0].ravel(), pts[..., 1].ravel())
        st = self.state
        st.root_pos[ids, :2] = xy
        st.root_pos[ids, 2] = h.reshape(n, 5).max(axis=1) + QUAD_SPAWN_HEIGHT
        st.root_quat[ids] = _yaw_quat(yaw)
        for arr in (st.root_lin_vel, st.root_ang_vel, st.qd, st.ext_wrench):
            arr[ids] = 0.0
        st.q[ids] = QUAD_DEFAULT_Q
        self.contact_sensor.reset(ids)
        self.imu.reset(ids)
        if not self.rough:
            self.actuators.reset(ids)
        self.episode_step[ids] = 0

    def control_step(self) -> dict:
        tr, st, E = self.tracer, self.state, self.env_count
        with tr.span("env.control_step"):
            with tr.span("env.actions"):
                targets = self.joint_targets.value(self.sim_time)
                commands = self.commands.value(self.sim_time)
                if self.rough:
                    self.pd.q_target = targets
                else:
                    command = JointCommand(targets, self.no_command, self.no_command)
            diverged = np.zeros(E, dtype=bool)
            forces = []
            for _ in range(self.decimation):
                efforts = None
                if not self.rough:
                    with tr.span("actuators.compute_effort"):
                        efforts = self.actuators.compute_effort(command, st.q, st.qd)
                    tr.count("actuators.calls")
                try:
                    with tr.span("dynamics.step"):
                        dynamics.step(self.tree, st, efforts, DT,
                                      implicit_pd=self.pd if self.rough else None,
                                      probes=self.probes, terrain=self.ground,
                                      params=self.params,
                                      contacts_out=self.contacts)
                except dynamics.SimulationDivergenceError as err:
                    ids = np.asarray(err.env_ids, dtype=np.int64)
                    diverged[ids] = True
                    tr.count("dynamics.diverged_envs", ids.size)
                    with tr.span("env.reset"):
                        self._spawn(ids)
                tr.count("dynamics.step_calls")
                tr.count("dynamics.active_contacts", self.contacts.in_contact.sum())
                forces.append((self.contacts.normal.copy(), self.contacts.tangent.copy()))

            with tr.span("sensors.contact_update"):
                net = aggregate_body_forces(self.contacts.normal + self.contacts.tangent,
                                            self.probes.link, self.feet)
                self.contact_sensor.update(net, self.control_dt)
            with tr.span("sensors.imu_update"):
                imu = self.imu.update(st.root_pose, st.root_lin_vel,
                                      st.root_ang_vel, self.control_dt)
            record = {"diverged": diverged, "forces": forces}
            scan_z = None
            if self.rough:
                with tr.span("sensors.place_pattern"):
                    origins, dirs = place_pattern(self.scan, Transform(
                        st.root_pos + [0.0, 0.0, SCAN_LIFT],
                        _yaw_quat(self._yaw())))
                with tr.span("raycast.raycast"):
                    hits = raycast([self.grid.mesh], [self.bvh], origins, dirs)
                tr.count("raycast.rays", hits.t.size)
                tr.count("raycast.hits", hits.hit.sum())
                record["scan_points"] = hits.point.reshape(E, -1, 3)
                record["scan_hit"] = hits.hit.reshape(E, -1)
                scan_z = record["scan_points"][..., 2]

            with tr.span("env.obs"):
                self.obs = self._observations(imu, commands, targets, scan_z)

            with tr.span("env.reset"):
                self.episode_step += 1
                with tr.span("terrain.surface_height"):
                    ground_h = self.ground.surface_height(st.root_pos[:, 0],
                                                          st.root_pos[:, 1])
                fell = ((st.root_pos[:, 2] - ground_h < FALL_HEIGHT)
                        | (imu.gravity_projection[:, 2] > FALL_TILT))
                timeout = self.episode_step >= EPISODE_STEPS
                ids = np.nonzero(fell | timeout)[0]
                if ids.size:
                    if self.rough:
                        # surviving to the timeout promotes, a fall demotes
                        with tr.span("terrain.curriculum_update"):
                            curriculum_update(self.curriculum, (~fell).astype(float),
                                              1.0, 0.0, TERRAIN_ROWS, self.grid.cols,
                                              ids, self.rng)
                    self._spawn(ids)
                    tr.count("terrain.resets", ids.size)
            self.sim_time += self.control_dt
        return record

    def _yaw(self) -> np.ndarray:
        w, x, y, z = self.state.root_quat.T
        return np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))

    def _observations(self, imu, commands, targets, scan_z) -> np.ndarray:
        st = self.state
        parts = [quat_rotate_inverse(st.root_quat, st.root_lin_vel),
                 imu.angular_velocity, imu.gravity_projection, commands,
                 st.q - QUAD_DEFAULT_Q, st.qd, targets - QUAD_DEFAULT_Q]
        if scan_z is not None:
            parts.append(np.clip(st.root_pos[:, 2:3] - 0.5 - scan_z, -1.0, 1.0))
        return np.concatenate(parts, axis=1)

    def probe(self) -> None:
        """Traced-only dynamics calls on the current state.

        They split ``dynamics.step`` into its parts: FK, FK+CRBA,
        FK+vel+CRBA+RNEA, FK+vel+contacts, and a foot Jacobian.
        """
        tr, st, tree = self.tracer, self.state, self.tree
        pose = st.root_pose
        with tr.span("dynamics.forward_kinematics"):
            dynamics.forward_kinematics(tree, st.q, pose)
        with tr.span("dynamics.mass_matrix"):
            dynamics.mass_matrix(tree, st.q, root_pose=pose, params=self.params)
        with tr.span("dynamics.bias_forces"):
            dynamics.bias_forces(tree, st.q, st.qd, root_pose=pose,
                                 root_twist=np.concatenate(
                                     [st.root_lin_vel, st.root_ang_vel], axis=1),
                                 params=self.params)
        with tr.span("dynamics.contact_forces"):
            dynamics.contact_forces(tree, st, self.probes, self.ground)
        with tr.span("dynamics.jacobian"):
            dynamics.jacobian(tree, st.q, int(self.feet[0]),
                              self.probes.offset[0], root_pose=pose)

    def check(self, record: dict) -> np.ndarray:
        st = self.state
        bad = record["diverged"].copy()
        for normal, tangent in record["forces"]:
            bad |= checks.contact_violations(normal, tangent, QUAD_FRICTION)
        if self.rough:
            bad |= checks.height_scan_violations(record["scan_points"],
                                                 record["scan_hit"], self.ground)
        bad |= checks.nonfinite_envs(st.q, st.qd, st.root_pos, st.root_quat,
                                     st.root_lin_vel, st.root_ang_vel, self.obs)
        return bad


class LocoFlat(Loco):
    default_envs = 64

    def __init__(self, seed: int, env_count: int, tracer):
        super().__init__(seed, env_count, tracer, rough=False)


class LocoRoughScan(Loco):
    default_envs = 16

    def __init__(self, seed: int, env_count: int, tracer):
        super().__init__(seed, env_count, tracer, rough=True)


class ArmOscCam:
    """Fixed-base arm under operational-space control with a wrist depth
    camera cast against a table-top scene every second control step.

    Cameras are split into two halves on staggered clocks, so each control
    step renders half of the batch.
    """

    default_envs = 16
    decimation = 2

    def __init__(self, seed: int, env_count: int, tracer):
        self.tracer = tracer
        self.env_count = E = env_count
        self.control_dt = self.decimation * DT
        self.tree = arm_tree()
        self.ee_link = self.tree.num_links - 1
        self.scene = camera_scene()
        t0 = time.perf_counter()
        self.bvhs = [build_bvh(m) for m in self.scene.meshes]
        self.setup_parts = {"raycast.build_bvh_s": time.perf_counter() - t0}
        self.pattern = pattern_pinhole(16, 12, focal_px=12.0)
        # two half-batches on clocks one control step apart
        period = 2 * self.control_dt
        self.clocks = [SensorClock(period), SensorClock(period, last_update=0.0)]
        self.camera_envs = [np.arange(0, E, 2), np.arange(1, E, 2)]
        self.depth = np.zeros((E, self.pattern.num_rays))
        self.gains = TaskSpaceGains(stiffness=[300.0] * 3 + [30.0] * 3,
                                    damping=[35.0] * 3 + [8.0] * 3)
        self.targets = ee_target_generator(seed, E)
        self.state = ArticulationState.zeros(self.tree, E)
        self.state.q[:] = ARM_DEFAULT_Q
        self.sim_time = 0.0
        self.ee = self._ee_pose()

    def _ee_pose(self) -> Transform:
        with self.tracer.span("dynamics.forward_kinematics"):
            fk = dynamics.forward_kinematics(self.tree, self.state.q)
        pos, quat = fk.pos[:, self.ee_link], fk.quat[:, self.ee_link]
        return Transform(pos + quat_rotate(quat, np.asarray(ARM_EE_OFFSET)), quat)

    def control_step(self) -> dict:
        tr, st, tree, E = self.tracer, self.state, self.tree, self.env_count
        with tr.span("env.control_step"):
            with tr.span("env.actions"):
                target = Transform(self.targets.value(self.sim_time),
                                   np.broadcast_to(TOOL_DOWN, (E, 4)))
            with tr.span("dynamics.jacobian"):
                jac = dynamics.jacobian(tree, st.q, self.ee_link, ARM_EE_OFFSET)
            with tr.span("dynamics.mass_matrix"):
                mass = dynamics.mass_matrix(tree, st.q)
            with tr.span("dynamics.bias_forces"):
                bias = dynamics.bias_forces(tree, st.q, st.qd)
            with tr.span("controllers.osc"):
                dx = pose_error(self.ee, target)
                xd = np.einsum("ekn,en->ek", jac, st.qd)
                efforts = osc(jac, mass, dx, xd, self.gains, gravity_bias=bias,
                              null_posture=(ARM_DEFAULT_Q, 10.0, 2.0),
                              q=st.q, qd=st.qd)
            diverged = np.zeros(E, dtype=bool)
            for _ in range(self.decimation):
                try:
                    with tr.span("dynamics.step"):
                        dynamics.step(tree, st, efforts, DT)
                except dynamics.SimulationDivergenceError as err:
                    ids = np.asarray(err.env_ids, dtype=np.int64)
                    diverged[ids] = True
                    tr.count("dynamics.diverged_envs", ids.size)
                    with tr.span("env.reset"):
                        st.q[ids] = ARM_DEFAULT_Q
                        st.qd[ids] = 0.0
                tr.count("dynamics.step_calls")
            self.sim_time += self.control_dt
            self.ee = self._ee_pose()

            record = {"diverged": diverged, "camera": []}
            for clock, ids in zip(self.clocks, self.camera_envs):
                if not clock.due(self.sim_time):
                    continue
                clock.mark(self.sim_time)
                with tr.span("sensors.place_pattern"):
                    cam = compose(Transform(self.ee.pos[ids], self.ee.quat[ids]),
                                  CAMERA_OFFSET)
                    origins, dirs = place_pattern(self.pattern, cam)
                with tr.span("raycast.raycast"):
                    hits = raycast(self.scene.meshes, self.bvhs, origins, dirs)
                tr.count("raycast.rays", hits.t.size)
                tr.count("raycast.hits", hits.hit.sum())
                tr.count("sensors.camera_updates", ids.size)
                with tr.span("sensors.depth_tile"):
                    per_env = dataclasses.replace(hits, t=hits.t.reshape(ids.size, -1))
                    images = depth_image(per_env, self.pattern)
                    tile_pack(images)
                self.depth[ids] = images.reshape(ids.size, -1)
                shape = (ids.size, -1)
                record["camera"].append((ids, origins, dirs, per_env.t,
                                         hits.mesh_id.reshape(shape),
                                         hits.tri_id.reshape(shape)))

            with tr.span("env.obs"):
                self.obs = np.concatenate(
                    [st.q, st.qd, self.ee.pos, self.ee.quat, target.pos,
                     np.clip(self.depth, 0.0, 2.0)], axis=1)
        return record

    def probe(self) -> None:
        """Every dynamics call is already real on this workload."""

    def check(self, record: dict) -> np.ndarray:
        st = self.state
        bad = record["diverged"].copy()
        for ids, origins, dirs, t, mesh_id, tri_id in record["camera"]:
            bad[ids] |= checks.camera_violations(origins, dirs, t, mesh_id,
                                                 tri_id, self.scene)
        bad |= checks.nonfinite_envs(st.q, st.qd, self.obs)
        return bad


WORKLOADS = {
    "loco_flat": LocoFlat,
    "loco_rough_scan": LocoRoughScan,
    "arm_osc_cam": ArmOscCam,
}
