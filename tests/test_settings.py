"""Every public real-valued setting passes one rule, ``maths.check_setting``,
and every count setting another, ``maths.check_count``.

Each row of ``SETTINGS`` names a setting as its error message does, its
lower bound (``None``, ``">= 0"`` or ``"> 0"``), whether ``+inf`` is allowed,
and a call that feeds the setting one value. Each setting is fed NaN,
``-inf``, ``+inf`` where it is not allowed, a negative value where it has a
bound and zero where it must be positive, and must raise one
``ValueError`` naming it.

Each row of ``COUNTS`` names a count setting, its least value and a call
that feeds it one value. Each count is fed NaN, ``2.5``, ``True`` and one
below its least value, and must raise one ``ValueError`` naming it.
"""

import re

import numpy as np
import pytest

from vecsim import dynamics
from vecsim.actuators import ActuatorConfig, FrictionConfig, rotor_wrench
from vecsim.articulation import (ArticulationState, ContactPointSet,
                                 KinematicTree, LinkSpec)
from vecsim.controllers import IkConfig, TaskSpaceGains, joint_impedance, osc
from vecsim.maths import Transform, check_count, check_setting
from vecsim.raycast import GridCells, TriMesh, build_bvh, raycast
from vecsim.registry import EntityRegistry
from vecsim.sensors import (ContactSensor, ImuModifiers, ImuSensor, SensorClock,
                            pattern_grid, pattern_lidar, pattern_pinhole,
                            tile_pack)
from vecsim.terrain import (CurriculumState, HeightField, compose_grid,
                            curriculum_update, flat_spec, hf_pyramid_stairs,
                            hf_random_uniform, hf_to_mesh)

_Z2, _Z3 = np.zeros(2), np.zeros(3)
_ONES6 = np.ones(6)


def _link(name="a", parent=-1, joint="revolute", **kw):
    kw.setdefault("mass", 1.0)
    kw.setdefault("inertia", (0.1, 0.1, 0.1))
    return LinkSpec(name, parent, joint, **kw)


def _probes(**kw):
    fields = dict(link=[0], offset=np.zeros((1, 3)), radius=0.02,
                  stiffness=1e4, damping=10.0, friction=0.8)
    return ContactPointSet(**{**fields, **kw})


def _step(x=1e-3, **kw):
    tree = KinematicTree([_link()])
    dynamics.step(tree, ArticulationState.zeros(tree, 1), None, x, **kw)


def _implicit_pd(kp, kd):
    _step(implicit_pd=dynamics.ImplicitPD(kp, kd, np.zeros((1, 1))))


def _mass_matrix(armature=0.0, inertia_entry=0.1):
    tree = KinematicTree([_link()])
    params = dynamics.DynParams.from_tree(tree, 1)
    params.armature[:] = armature
    params.spatial_inertia[0, 0, 1, 1] = inertia_entry
    dynamics.mass_matrix(tree, _Z2[:1], params=params)


def _wrench(force, torque):
    tree = KinematicTree([_link()])
    dynamics.apply_external_wrench(ArticulationState.zeros(tree, 1), force,
                                   torque, 0)


def _osc_posture(k_n, d_n):
    osc(np.eye(2, 3), np.eye(3), _Z2, _Z2, TaskSpaceGains(_ONES6, _ONES6),
        null_posture=(_Z3, k_n, d_n), q=_Z3, qd=_Z3)


def _raycast(max_range):
    mesh = hf_to_mesh(HeightField(np.zeros((2, 2)), 1.0))
    raycast([mesh], [build_bvh(mesh)], [[0.5, 0.5, 1.0]], [[0.0, 0.0, -1.0]],
            max_range)


def _grid_mesh(origin_xy, cell_size):
    mesh = hf_to_mesh(HeightField(np.zeros((2, 2)), 1.0))
    TriMesh(mesh.vertices, mesh.triangles,
            grid=GridCells(origin_xy, cell_size, mesh.grid.tris))


def _curriculum(promote, demote):
    state = CurriculumState.start(2, 3, 2, np.random.default_rng(0))
    curriculum_update(state, np.zeros(2), promote, demote, 3, 2, [0, 1],
                      np.random.default_rng(0))


def _rng():
    return np.random.default_rng(0)


# (test id, name in the message, bound, +inf allowed, call with the value)
SETTINGS = [
    # actuators
    ("coulomb", "friction coulomb", ">= 0", False,
     lambda x: FrictionConfig(mode="coulomb", coulomb=x)),
    ("viscous", "friction viscous", ">= 0", False,
     lambda x: FrictionConfig(mode="coulomb", viscous=x)),
    ("static_limit", "friction static_limit", ">= 0", True,
     lambda x: FrictionConfig(mode="stiction", static_limit=x, slip_threshold=0.1)),
    ("slip_threshold", "friction slip_threshold", ">= 0", True,
     lambda x: FrictionConfig(slip_threshold=x)),
    ("stiction_slip_threshold", "friction slip_threshold", "> 0", True,
     lambda x: FrictionConfig(mode="stiction", slip_threshold=x)),
    ("actuator_stiffness", "stiffness", ">= 0", False,
     lambda x: ActuatorConfig([0], stiffness=x)),
    ("actuator_damping", "damping", ">= 0", False,
     lambda x: ActuatorConfig([0, 1], damping=[1.0, x])),
    ("effort_limit", "effort_limit", ">= 0", True,
     lambda x: ActuatorConfig([0], effort_limit=x)),
    ("velocity_limit", "velocity_limit", ">= 0", True,
     lambda x: ActuatorConfig([0], velocity_limit=x)),
    ("dc_velocity_limit", "velocity_limit", "> 0", False,
     lambda x: ActuatorConfig([0], kind="dc_motor", saturation_effort=1.0,
                              velocity_limit=x)),
    ("saturation_effort", "saturation_effort", ">= 0", False,
     lambda x: ActuatorConfig([0], kind="dc_motor", saturation_effort=x,
                              velocity_limit=1.0)),
    ("table_keys", "effort_limit_table key steps", "> 0", False,
     lambda x: ActuatorConfig([0], kind="remotized_pd",
                              effort_limit_table=[(0.0, 1.0), (x, 1.0)])),
    ("table_limits", "effort_limit_table limits", ">= 0", False,
     lambda x: ActuatorConfig([0], kind="remotized_pd",
                              effort_limit_table=[(0.0, 1.0), (1.0, x)])),
    ("k_f", "k_f", ">= 0", False, lambda x: rotor_wrench(x, 1.0, 1, 10.0)),
    ("k_m", "k_m", ">= 0", False, lambda x: rotor_wrench(1.0, x, 1, 10.0)),
    ("omega", "omega", ">= 0", False,
     lambda x: rotor_wrench(1.0, 1.0, 1, [10.0, x])),
    # articulation
    ("axis", "link 0 ('a') axis", None, False,
     lambda x: KinematicTree([_link(axis=(0.0, x, 1.0))])),
    ("origin_pos", "link 0 ('a') origin_pos", None, False,
     lambda x: KinematicTree([_link(origin_pos=(x, 0.0, 0.0))])),
    ("origin_quat", "link 0 ('a') origin_quat", None, False,
     lambda x: KinematicTree([_link(origin_quat=(1.0, 0.0, x, 0.0))])),
    ("com", "link 0 ('a') com", None, False,
     lambda x: KinematicTree([_link(com=(0.0, 0.0, x))])),
    ("inertia", "link 0 ('a') inertia", None, False,
     lambda x: KinematicTree([_link(inertia=(0.1, x, 0.1))])),
    ("mass", "link 0 ('a') mass", "> 0", False,
     lambda x: KinematicTree([_link(mass=x)])),
    ("fixed_mass", "link 1 ('b') mass", ">= 0", False,
     lambda x: KinematicTree([_link(), _link("b", 0, "fixed", mass=x)])),
    ("probe_offset", "probe offset", None, False,
     lambda x: _probes(offset=[(0.0, x, 0.0)])),
    ("probe_radius", "probe radius", "> 0", False, lambda x: _probes(radius=x)),
    ("contact_stiffness", "contact stiffness", ">= 0", False,
     lambda x: _probes(stiffness=x)),
    ("contact_damping", "contact damping", ">= 0", False,
     lambda x: _probes(damping=x)),
    ("contact_friction", "contact friction", ">= 0", False,
     lambda x: _probes(friction=x)),
    # controllers
    ("ik_damping", "damping", ">= 0", False, lambda x: IkConfig(damping=x)),
    ("singular_value_cutoff", "singular_value_cutoff", ">= 0", True,
     lambda x: IkConfig(singular_value_cutoff=x)),
    ("transpose_gain", "transpose_gain", "> 0", False,
     lambda x: IkConfig(transpose_gain=x)),
    ("step_scale", "step_scale", "> 0", False, lambda x: IkConfig(step_scale=x)),
    ("impedance_stiffness", "impedance stiffness", ">= 0", False,
     lambda x: joint_impedance(_Z2, _Z2, _Z2, [1.0, x], 1.0)),
    ("impedance_damping", "impedance damping", ">= 0", False,
     lambda x: joint_impedance(_Z2, _Z2, _Z2, 1.0, [x, 1.0])),
    ("task_stiffness", "task-space stiffness", ">= 0", False,
     lambda x: TaskSpaceGains(np.r_[np.ones(5), x], _ONES6)),
    ("task_damping", "task-space damping", ">= 0", False,
     lambda x: TaskSpaceGains(_ONES6, np.r_[x, np.ones(5)])),
    ("feedforward", "task-space feedforward", None, False,
     lambda x: TaskSpaceGains(_ONES6, _ONES6, feedforward=np.r_[0.0, 0.0, x, _Z3])),
    ("null_stiffness", "null-space stiffness", ">= 0", False,
     lambda x: _osc_posture(x, 1.0)),
    ("null_damping", "null-space damping", ">= 0", False,
     lambda x: _osc_posture(1.0, x)),
    # dynamics
    ("ground_height", "ground height", None, False, dynamics.FlatGround),
    ("dt", "dt", "> 0", False, _step),
    ("implicit_kp", "implicit PD kp", ">= 0", False, lambda x: _implicit_pd(x, 1.0)),
    ("implicit_kd", "implicit PD kd", ">= 0", False, lambda x: _implicit_pd(1.0, x)),
    ("armature", "armature", ">= 0", False, lambda x: _mass_matrix(armature=x)),
    ("spatial_inertia", "spatial_inertia", None, False,
     lambda x: _mass_matrix(inertia_entry=x)),
    ("force", "force", None, False, lambda x: _wrench([0.0, x, 0.0], _Z3)),
    ("torque", "torque", None, False, lambda x: _wrench(_Z3, [x, 0.0, 0.0])),
    # raycast
    ("max_range", "max_range", ">= 0", True, _raycast),
    ("grid_cell_size", "grid cell_size", "> 0", False,
     lambda x: _grid_mesh((0.0, 0.0), x)),
    ("grid_origin_xy", "grid origin_xy", None, False,
     lambda x: _grid_mesh((0.0, x), 1.0)),
    # sensors
    ("size_x", "size_x", ">= 0", False, lambda x: pattern_grid(x, 1.0, 0.1)),
    ("size_y", "size_y", ">= 0", False, lambda x: pattern_grid(1.0, x, 0.1)),
    ("resolution", "resolution", "> 0", False, lambda x: pattern_grid(1.0, 1.0, x)),
    ("focal_px", "focal_px", "> 0", False, lambda x: pattern_pinhole(4, 3, x)),
    ("principal", "principal", None, False,
     lambda x: pattern_pinhole(4, 3, 2.0, principal=(x, 1.5))),
    ("horizontal_fov", "horizontal_fov", ">= 0", False,
     lambda x: pattern_lidar(x, 4, [0.0])),
    ("vertical_angles", "vertical_angles", None, False,
     lambda x: pattern_lidar(1.0, 4, [0.0, x])),
    ("period", "period", "> 0", True, SensorClock),
    ("force_threshold", "force_threshold", ">= 0", False,
     lambda x: ContactSensor(1, 1, force_threshold=x)),
    ("contact_dt", "dt", "> 0", False,
     lambda x: ContactSensor(1, 1).update(np.zeros((1, 1, 3)), x)),
    ("imu_gravity", "gravity", None, False,
     lambda x: ImuSensor(1, gravity=[0.0, 0.0, x])),
    ("imu_dt", "dt", "> 0", False,
     lambda x: ImuSensor(1).update(Transform.identity((1,)), np.zeros((1, 3)),
                                   np.zeros((1, 3)), x)),
    ("accel_noise_std", "imu accel_noise_std", ">= 0", False,
     lambda x: ImuModifiers(accel_noise_std=[0.0, x, 0.0])),
    ("accel_bias_walk_std", "imu accel_bias_walk_std", ">= 0", False,
     lambda x: ImuModifiers(accel_bias_walk_std=[x, 0.0, 0.0])),
    ("gyro_noise_std", "imu gyro_noise_std", ">= 0", False,
     lambda x: ImuModifiers(gyro_noise_std=[0.0, 0.0, x])),
    ("gyro_bias_walk_std", "imu gyro_bias_walk_std", ">= 0", False,
     lambda x: ImuModifiers(gyro_bias_walk_std=x)),
    # terrain
    ("heights", "heightfield heights", None, False,
     lambda x: HeightField([[0.0, 0.0], [0.0, x]], 0.1)),
    ("cell_size", "cell_size", "> 0", False,
     lambda x: HeightField(np.zeros((2, 2)), x)),
    ("origin_xy", "origin_xy", None, False,
     lambda x: HeightField(np.zeros((2, 2)), 0.1, (x, 0.0))),
    ("rough_size", "size", ">= 0", False,
     lambda x: hf_random_uniform((1.0, x), 0.5, 0.1, 0.05, _rng())),
    ("rough_cell", "cell", "> 0", False,
     lambda x: hf_random_uniform((1.0, 1.0), x, 0.1, 0.05, _rng())),
    ("rough_height", "height", ">= 0", False,
     lambda x: hf_random_uniform((1.0, 1.0), 0.5, x, 0.05, _rng())),
    ("quantum", "quantum", "> 0", False,
     lambda x: hf_random_uniform((1.0, 1.0), 0.5, 0.1, x, _rng())),
    ("stairs_size", "size", ">= 0", False,
     lambda x: hf_pyramid_stairs((x, 2.0), 0.1, 0.1, 0.2, 1)),
    ("stairs_cell", "cell", "> 0", False,
     lambda x: hf_pyramid_stairs((2.0, 2.0), x, 0.1, 0.2, 1)),
    ("step_height", "step_height", "> 0", False,
     lambda x: hf_pyramid_stairs((2.0, 2.0), 0.1, x, 0.2, 1)),
    ("flat_step_height", "step_height", ">= 0", False,
     lambda x: hf_pyramid_stairs((2.0, 2.0), 0.1, x, 0.2, 0)),
    ("step_width", "step_width", "> 0", False,
     lambda x: hf_pyramid_stairs((2.0, 2.0), 0.1, 0.1, x, 1)),
    ("flat_size", "size", ">= 0", False,
     lambda x: flat_spec((x, 1.0)).make(0.0, _rng())),
    ("border", "border", ">= 0", False,
     lambda x: compose_grid([flat_spec((1.0, 1.0), 0.5)], 1, border=x)),
    ("promote_threshold", "promote_threshold", None, False,
     lambda x: _curriculum(x, 0.0)),
    ("demote_threshold", "demote_threshold", None, False,
     lambda x: _curriculum(1.0, x)),
]


def _cases():
    for label, name, bound, inf, call in SETTINGS:
        rule = "finite" if bound is None else bound if inf else bound + " and finite"
        values = [np.nan, -np.inf] + [np.inf] * (not inf)
        values += [-1.0] * (bound is not None) + [0.0] * (bound == "> 0")
        for x in values:
            yield pytest.param(call, x, f"{name} must be {rule}, got {x}",
                               id=f"{label}-{x}")


@pytest.mark.parametrize("call, value, message", _cases())
def test_setting_outside_its_rule_is_rejected(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


def test_check_setting_returns_the_floats_it_checked():
    got = check_setting("gains", [0, 1.5, np.inf], ">= 0", inf=True)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, [0.0, 1.5, np.inf])
    assert check_setting("empty", np.zeros((0, 3)), "> 0").shape == (0, 3)
    # -0.0 is >= 0 but not > 0, as the comparisons say
    check_setting("zero", -0.0, ">= 0")
    check_setting("tiny", 5e-324, "> 0")
    with pytest.raises(ValueError, match=re.escape("zero must be > 0 and finite, "
                                                   "got -0.0")):
        check_setting("zero", -0.0, "> 0")


# (test id, name in the message, least value, call with the value)
COUNTS = [
    ("delay_steps", "delay_steps", 0,
     lambda n: ActuatorConfig([0], kind="delayed_pd", delay_steps=n)),
    ("neural_history_length", "history_length", 1,
     lambda n: ActuatorConfig([0], kind="neural", model_fn=np.sum,
                              history_length=n)),
    ("env_count", "env_count", 1, EntityRegistry),
    ("width", "width", 1, lambda n: pattern_pinhole(n, 2, 1.0)),
    ("height", "height", 1, lambda n: pattern_pinhole(2, n, 1.0)),
    ("horizontal_count", "horizontal_count", 1,
     lambda n: pattern_lidar(1.0, n, [0.0])),
    ("tiles_per_row", "tiles_per_row", 1,
     lambda n: tile_pack(np.zeros((2, 3, 3)), tiles_per_row=n)),
    ("contact_history_length", "history_length", 1,
     lambda n: ContactSensor(1, 1, history_length=n)),
    ("rows", "rows", 1, lambda n: compose_grid([flat_spec((1.0, 1.0), 0.5)], n)),
    ("levels", "levels", 0,
     lambda n: hf_pyramid_stairs((2.0, 2.0), 0.1, 0.1, 0.2, n)),
]


def _count_cases():
    for label, name, least, call in COUNTS:
        for x in (np.nan, 2.5, True, least - 1):
            yield pytest.param(call, x, f"{name} must be an integer >= {least}, "
                               f"got {x!r}", id=f"{label}-{x!r}")


@pytest.mark.parametrize("call, value, message", _count_cases())
def test_count_outside_its_rule_is_rejected(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("call", [pytest.param(call, id=label)
                                  for label, _, _, call in COUNTS])
def test_count_takes_a_numpy_integer(call):
    call(np.int64(1))


def test_check_count_returns_a_python_int():
    got = check_count("n", np.int64(3))
    assert got == 3 and type(got) is int
    assert check_count("n", 0, 0) == 0
