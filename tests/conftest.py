import numpy as np
import pytest

from vecsim import raycast as rc
from vecsim.articulation import KinematicTree, LinkSpec


def quat_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` about unit ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    half = 0.5 * angle
    return np.concatenate(
        [np.cos(half)[..., None], axis * np.sin(half)[..., None]], axis=-1
    )


def pendulum_links(mass=1.0, length=1.0, com_dir=(0.0, 0.0, -1.0),
                   com_dist=None, inertia=(0.05, 0.05, 0.05)):
    """Single revolute link about +y; defaults to hanging along -z."""
    com_dist = length if com_dist is None else com_dist
    com = tuple(np.asarray(com_dir) * com_dist)
    return [
        LinkSpec("link1", -1, "revolute", axis=(0, 1, 0),
                 mass=mass, com=com, inertia=inertia)
    ]


@pytest.fixture
def pendulum_tree():
    return KinematicTree(pendulum_links())


def double_pendulum_tree(m1=1.2, m2=0.8, l1=1.0, l2=0.7, lc1=0.5, lc2=0.35,
                         i1=0.1, i2=0.05):
    """Two revolute links about +y, hanging along -z at q=0."""
    links = [
        LinkSpec("upper", -1, "revolute", axis=(0, 1, 0),
                 mass=m1, com=(0, 0, -lc1), inertia=(0.03, i1, 0.04)),
        LinkSpec("lower", 0, "revolute", axis=(0, 1, 0),
                 origin_pos=(0, 0, -l1),
                 mass=m2, com=(0, 0, -lc2), inertia=(0.02, i2, 0.03)),
    ]
    return KinematicTree(links)


DP_PARAMS = dict(m1=1.2, m2=0.8, l1=1.0, l2=0.7, lc1=0.5, lc2=0.35,
                 i1=0.1, i2=0.05)


def dp_mass_oracle(q, p=DP_PARAMS):
    """Textbook closed-form double-pendulum mass matrix (relative angles)."""
    c2 = np.cos(q[1])
    m11 = (p["i1"] + p["i2"] + p["m1"] * p["lc1"] ** 2
           + p["m2"] * (p["l1"] ** 2 + p["lc2"] ** 2
                        + 2 * p["l1"] * p["lc2"] * c2))
    m12 = p["i2"] + p["m2"] * (p["lc2"] ** 2 + p["l1"] * p["lc2"] * c2)
    m22 = p["i2"] + p["m2"] * p["lc2"] ** 2
    return np.array([[m11, m12], [m12, m22]])


def dp_bias_oracle(q, qd, p=DP_PARAMS, g=9.81):
    """Coriolis/centrifugal plus gravity, from the Lagrangian by hand."""
    h = -p["m2"] * p["l1"] * p["lc2"] * np.sin(q[1])
    c_mat = np.array([
        [h * qd[1], h * (qd[0] + qd[1])],
        [-h * qd[0], 0.0],
    ])
    grav = np.array([
        (p["m1"] * p["lc1"] + p["m2"] * p["l1"]) * g * np.sin(q[0])
        + p["m2"] * p["lc2"] * g * np.sin(q[0] + q[1]),
        p["m2"] * p["lc2"] * g * np.sin(q[0] + q[1]),
    ])
    return c_mat @ qd + grav


def dp_energy_oracle(q, qd, p=DP_PARAMS, g=9.81):
    kin = 0.5 * qd @ dp_mass_oracle(q, p) @ qd
    pot = (-(p["m1"] * p["lc1"] + p["m2"] * p["l1"]) * g * np.cos(q[0])
           - p["m2"] * p["lc2"] * g * np.cos(q[0] + q[1]))
    return kin + pot


def dp_lagrangian_step(q, qd, dt, p=DP_PARAMS, g=9.81, tau=None):
    """Independent semi-implicit Euler step for the double pendulum."""
    rhs = -dp_bias_oracle(q, qd, p, g)
    if tau is not None:
        rhs = rhs + tau
    qd_new = qd + dt * np.linalg.solve(dp_mass_oracle(q, p), rhs)
    return q + dt * qd_new, qd_new


def random_spd(rng, scale=0.1):
    a = rng.standard_normal((3, 3)) * scale
    return a @ a.T + np.eye(3) * 0.02


def random_chain_tree(rng, n=6, revolute_only=False):
    links = []
    for i in range(n):
        joint = "revolute" if revolute_only or rng.random() < 0.7 else "prismatic"
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        quat = rng.standard_normal(4)
        quat /= np.linalg.norm(quat)
        links.append(LinkSpec(
            f"l{i}", i - 1, joint, axis=tuple(axis),
            origin_pos=tuple(rng.uniform(-0.3, 0.3, 3)),
            origin_quat=tuple(quat),
            mass=rng.uniform(0.5, 2.0),
            com=tuple(rng.uniform(-0.2, 0.2, 3)),
            inertia=random_spd(rng),
        ))
    return KinematicTree(links)


def free_body_tree(mass=2.0, inertia=(0.1, 0.2, 0.3), com=(0.0, 0.0, 0.0)):
    return KinematicTree([
        LinkSpec("body", -1, "free", mass=mass, com=com, inertia=inertia)
    ])


@pytest.fixture
def bvh_rays(monkeypatch):
    """The ids of the rays each ``raycast`` hands to BVH traversal, one
    array per traversed mesh."""
    seen = []
    cast_bvh = rc._cast_bvh

    def record(mesh, vt, bvh, o, d, ray, *args):
        seen.append(ray.copy())
        return cast_bvh(mesh, vt, bvh, o, d, ray, *args)

    monkeypatch.setattr(rc, "_cast_bvh", record)
    return seen
