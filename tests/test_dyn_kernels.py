"""The batched dynamics kernels against the scalar per-env reference.

``reference_dyn_kernels`` holds the earlier kernels, which loop over envs
and then links with scalar 3x3 arithmetic. Each batched kernel must match
it within ``1e-12 * (1 + max|ref|)`` on random trees with every joint kind,
on a floating quadruped-like tree, for several batch sizes.
"""

import numpy as np
import pytest

import reference_dyn_kernels as ref
from conftest import random_chain_tree, random_spd
from vecsim import _dyn_kernels as k
from vecsim.articulation import ContactPointSet, KinematicTree, LinkSpec
from vecsim.dynamics import FlatGround
from vecsim.maths import quat_normalize, quat_to_matrix
from vecsim.terrain import HeightField

ENV_COUNTS = (1, 3, 64)


def assert_matches(new, expected):
    tol = 1e-12 * (1.0 + np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(new, expected, rtol=0.0, atol=tol)


def random_tree(rng, n, floating):
    """Branching tree with fixed, revolute and prismatic joints."""
    links = []
    if floating:
        links.append(LinkSpec("base", -1, "free", mass=rng.uniform(1, 5),
                              com=tuple(rng.uniform(-0.1, 0.1, 3)),
                              inertia=random_spd(rng)))
    for i in range(len(links), n):
        joint = rng.choice(["fixed", "revolute", "revolute", "prismatic"])
        parent = int(rng.integers(-1 if not floating else 0, i)) if i else -1
        axis = rng.standard_normal(3)
        quat = rng.standard_normal(4)
        massless = joint == "fixed" and rng.random() < 0.5
        links.append(LinkSpec(
            f"l{i}", parent, str(joint), axis=tuple(axis / np.linalg.norm(axis)),
            origin_pos=tuple(rng.uniform(-0.3, 0.3, 3)),
            origin_quat=tuple(quat / np.linalg.norm(quat)),
            mass=0.0 if massless else rng.uniform(0.2, 2.0),
            com=tuple(rng.uniform(-0.2, 0.2, 3)),
            inertia=(0.0, 0.0, 0.0) if massless else random_spd(rng),
        ))
    return KinematicTree(links)


def quadruped():
    """Floating trunk with four 3-joint legs (13 links, 12 joints)."""
    links = [LinkSpec("trunk", -1, "free", mass=6.0, inertia=(0.05, 0.2, 0.22))]
    for x in (0.2, -0.2):
        for y in (0.1, -0.1):
            hip = len(links)
            links += [
                LinkSpec(f"hip{hip}", 0, "revolute", axis=(1, 0, 0),
                         origin_pos=(x, y, 0), mass=0.7, com=(0, 0.05 * np.sign(y), 0),
                         inertia=(5e-4, 8e-4, 6e-4)),
                LinkSpec(f"thigh{hip}", hip, "revolute", axis=(0, 1, 0),
                         origin_pos=(0, 0.08 * np.sign(y), 0), mass=1.0,
                         com=(0, 0, -0.03), inertia=(6e-3, 6e-3, 1e-3)),
                LinkSpec(f"calf{hip}", hip + 1, "revolute", axis=(0, 1, 0),
                         origin_pos=(0, 0, -0.2), mass=0.2, com=(0, 0, -0.1),
                         inertia=(1.5e-3, 1.5e-3, 5e-5)),
            ]
    return KinematicTree(links)


def trees():
    rng = np.random.default_rng(11)
    return [
        ("chain", random_chain_tree(rng, n=6)),
        ("fixed_tree", random_tree(rng, 9, floating=False)),
        ("floating_tree", random_tree(rng, 9, floating=True)),
        ("quadruped", quadruped()),
    ]


TREES = trees()


class Case:
    """Random batched inputs and both pipelines' FK and velocities."""

    def __init__(self, tree, env_count, seed):
        rng = np.random.default_rng(seed)
        E, L, nj = env_count, tree.num_links, tree.num_joints
        self.tree, self.rng = tree, rng
        self.q = rng.uniform(-np.pi, np.pi, (E, nj))
        self.qd = rng.standard_normal((E, nj)) * 2.0
        self.base_pos = rng.standard_normal((E, 3))
        self.base_rot = quat_to_matrix(quat_normalize(rng.standard_normal((E, 4))))
        self.twist = rng.standard_normal((E, 6))
        self.mass = tree.mass * rng.uniform(0.8, 1.2, (E, L))
        self.com = tree.com + rng.uniform(-0.02, 0.02, (E, L, 3))
        self.inertia = tree.inertia * rng.uniform(0.8, 1.2, (E, L, 1, 1))
        self.gravity = np.array([0.0, 0.0, -9.81]) + rng.uniform(-1, 1, (E, 3))
        self.wrench = rng.standard_normal((E, L, 6))

        t = tree
        self.ref_rot = np.empty((E, L, 3, 3))
        self.ref_pos = np.empty((E, L, 3))
        ref.fk_kernel(t.jtype, t.parent, t.axis, t.x_rot, t.x_pos, self.q,
                      t.qidx, self.base_rot, self.base_pos, self.ref_rot,
                      self.ref_pos)
        self.ref_v = np.empty((E, L, 6))
        ref.vel_kernel(t.jtype, t.parent, t.axis, t.qidx, self.qd,
                       self.ref_rot, self.ref_pos, self.base_rot,
                       self.base_pos, self.twist, self.ref_v)

        self.frames = k.joint_xforms(tree, self.q)
        self.X = k.motion_xforms(*self.frames)
        self.rot, self.pos = k.fk_kernel(tree, *self.frames, self.base_rot,
                                         self.base_pos)
        self.v = k.vel_kernel(tree, self.X, self.qd, self.base_rot, self.twist)
        self.spatial = k.spatial_inertia(self.mass, self.com, self.inertia)

    def ref_args(self):
        t = self.tree
        return (t.jtype, t.parent, t.axis, t.qidx)


CASES = [(name, E) for name, _ in TREES for E in ENV_COUNTS]


@pytest.fixture(params=CASES, ids=[f"{n}-E{e}" for n, e in CASES])
def case(request):
    name, E = request.param
    tree = dict(TREES)[name]
    return Case(tree, E, seed=CASES.index(request.param))


def test_fk_and_velocities_match_reference(case):
    assert_matches(case.rot, case.ref_rot)
    assert_matches(case.pos, case.ref_pos)
    assert_matches(case.v, case.ref_v)


def test_rnea_matches_reference(case):
    t = case.tree
    expected = np.zeros((case.q.shape[0], t.nv))
    ref.rnea_kernel(*case.ref_args(), case.qd, case.ref_rot, case.ref_pos,
                    case.base_rot, case.base_pos, case.ref_v, case.mass,
                    case.com, case.inertia, case.gravity, t.floating, expected)
    base_acc = -np.einsum("eba,eb->ea", case.base_rot, case.gravity)
    bias = k.rnea_kernel(t, case.X, case.v, case.qd, case.spatial, base_acc)
    assert_matches(bias, expected)


def test_crba_matches_reference(case):
    t = case.tree
    expected = np.zeros((case.q.shape[0], t.nv, t.nv))
    ref.crba_kernel(*case.ref_args(), case.q, case.ref_rot, case.ref_pos,
                    case.base_rot, case.base_pos, case.mass, case.com,
                    case.inertia, t.floating, expected)
    m = k.crba_kernel(t, case.X, case.spatial)
    assert_matches(m, expected)
    np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))


def test_wrench_mapping_matches_reference(case):
    t = case.tree
    expected = np.zeros((case.q.shape[0], t.nv))
    ref.wrench_kernel(*case.ref_args(), case.ref_rot, case.ref_pos,
                      case.base_rot, case.base_pos, case.wrench, t.floating,
                      expected)
    assert_matches(k.wrench_kernel(t, case.X, case.rot, case.wrench), expected)


def test_jacobian_matches_reference(case):
    t = case.tree
    offset = case.rng.uniform(-0.3, 0.3, 3)
    for link in range(t.num_links):
        expected = np.zeros((case.q.shape[0], 6, t.nv))
        ref.jacobian_kernel(*case.ref_args(), case.ref_rot, case.ref_pos,
                            case.base_rot, case.base_pos, link, offset,
                            t.floating, expected)
        assert_matches(k.jacobian_kernel(t, case.rot, case.pos, link, offset),
                       expected)


@pytest.mark.parametrize("terrain", ["flat", "heightfield"])
def test_contacts_match_reference(case, terrain):
    t, rng = case.tree, case.rng
    E, P = case.q.shape[0], 2 * t.num_links
    # random per-probe parameters reach every branch: probes inside the
    # friction cone, clamped probes, and penetrating probes whose damping
    # leaves f_n <= 0
    probes = ContactPointSet(
        link=rng.integers(0, t.num_links, P), offset=rng.uniform(-0.2, 0.2, (P, 3)),
        radius=rng.uniform(0.02, 0.1, P), stiffness=rng.uniform(100.0, 5000.0, P),
        damping=rng.uniform(0.0, 200.0, P), friction=rng.uniform(0.1, 1.0, P))
    probe_z = (case.ref_pos[:, probes.link]
               + np.einsum("epab,pb->epa", case.ref_rot[:, probes.link], probes.offset))[..., 2]
    level = float(np.median(probe_z))
    if terrain == "flat":
        ground = FlatGround(level)
        encoded = (0, level, np.zeros((2, 2)), 1.0, 0.0, 0.0)
    else:
        # grid over part of the probes' xy range so some queries clamp
        ground = HeightField(level + rng.uniform(-0.3, 0.3, (9, 7)),
                             cell_size=0.25, origin_xy=(-1.0, -0.8))
        encoded = (1, 0.0, ground.heights, ground.cell_size, *ground.origin_xy)
    kk, cc, mu = (np.broadcast_to(a, (E, P)) for a in
                  (probes.stiffness, probes.damping, probes.friction))

    exp = [np.zeros((E, P, 3)), np.zeros((E, P, 3)), np.zeros((E, P), bool),
           case.wrench.copy()]
    ref.contact_kernel(probes.link, probes.offset, probes.radius, kk, cc, mu,
                       case.ref_rot, case.ref_pos, case.ref_v, *encoded, *exp)
    got = list(k.contact_kernel(probes, case.rot, case.pos, case.v, ground))
    got[3] = got[3] + case.wrench
    assert 0 < exp[2].sum() < exp[2].size
    np.testing.assert_array_equal(got[2], exp[2])
    for new, expected in zip(got[:2] + got[3:], exp[:2] + exp[3:]):
        assert_matches(new, expected)


def test_heightfield_sample_bitwise_matches_scalar():
    rng = np.random.default_rng(12)
    heights = rng.uniform(-1.0, 1.0, (7, 5))
    # power-of-two cell and origin: grid lines and diagonals are exact
    cell, ox, oy = 0.25, -0.5, 0.25
    n, m = heights.shape
    random_pts = rng.uniform([ox - 1, oy - 1], [ox + n * cell + 1, oy + m * cell + 1],
                             (300, 2))
    i = rng.integers(0, n, 100)
    j = rng.integers(0, m, 100)
    t = rng.integers(0, 8, 100) / 8.0
    on_x_edges = np.stack([ox + i * cell, oy + (j + t) * cell], axis=-1)
    on_y_edges = np.stack([ox + (i + t) * cell, oy + j * cell], axis=-1)
    on_diagonals = np.stack([ox + (i + t) * cell, oy + (j + t) * cell], axis=-1)
    outside = np.array([[ox - 3, oy - 3], [ox + 9, oy + 9], [ox - 3, oy + 0.3],
                        [ox + 0.3, oy + 9], [ox + n * cell, oy + m * cell]])
    pts = np.concatenate([random_pts, on_x_edges, on_y_edges, on_diagonals, outside])
    expected = np.array([ref.heightfield_sample(heights, cell, ox, oy, x, y)
                         for x, y in pts])
    ground = HeightField(heights, cell, (ox, oy))
    got = ground.surface_height(pts[:, 0], pts[:, 1])
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(
        ground.surface_height(pts[:, 0].reshape(5, -1), pts[:, 1].reshape(5, -1)),
        expected.reshape(5, -1))
