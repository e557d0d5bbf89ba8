"""vecsim: batched robot-learning building blocks on NumPy.

Every call works on a batch of E environments at once. The modules are:

* ``maths``: quaternions and rigid transforms;
* ``articulation``: kinematic trees, batched state, contact probes;
* ``dynamics``: forward kinematics, each link's body Jacobian ``J_i`` and
  the products of it (point Jacobians, the mass matrix
  ``sum J_i^T I_i J_i`` and RNEA bias forces projected by ``J^T``), penalty
  contacts on flat or heightfield ground, and a semi-implicit Euler step
  with optional implicit PD;
* ``actuators``: explicit joint actuator models;
* ``controllers``: differential IK, joint impedance and operational-space
  control; the last two take the mass matrix and the gravity bias as
  arrays, so they need no kinematic tree;
* ``raycast``: triangle meshes, BVHs and closest-hit ray casting;
* ``sensors``: ray patterns, depth images, contact and IMU sensors;
* ``terrain``: the heightfield type, its generators, meshing, terrain grids
  and the difficulty curriculum;
* ``registry``: the entity registry and its path-pattern views.

There is no environment class; the benchmark in ``bench/`` shows how the
parts compose into a control step.
"""

from .articulation import ArticulationState, ContactPointSet, KinematicTree, LinkSpec
from .maths import Transform, compose, inverse, relative_pose
from .registry import EmptyViewError, EntityRegistry, EntityView

__all__ = [
    "ArticulationState",
    "ContactPointSet",
    "KinematicTree",
    "LinkSpec",
    "Transform",
    "compose",
    "inverse",
    "relative_pose",
    "EmptyViewError",
    "EntityRegistry",
    "EntityView",
]

__version__ = "0.1.0"
