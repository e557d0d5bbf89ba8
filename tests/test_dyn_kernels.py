"""The batched dynamics kernels against the scalar per-env reference.

``reference_dyn_kernels`` holds the earlier kernels, which loop over envs
and then links with scalar 3x3 arithmetic. Each batched kernel must match
it within ``1e-12 * (1 + max|ref|)`` on random trees with every joint kind,
on a floating quadruped-like tree, for several batch sizes.

The reference mass matrix and generalized forces keep a floating root's
rows and columns in body coordinates; the batched kernels work in the mixed
coordinates of the body Jacobians (root linear velocity in the world frame),
so the reference values are first mapped by the closed form
``diag(1, R, 1)`` (:func:`mixed`).
"""

import dataclasses

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


def mixed(tree, base_rot, x):
    """Reference generalized forces ``(E, nv)`` or mass matrices
    ``(E, nv, nv)`` with a floating root's linear rows (and columns) rotated
    into the world frame: ``diag(1, R, 1) x (diag(1, R^T, 1))``."""
    x = x.copy()
    if tree.floating:
        if x.ndim == 2:
            x[:, 3:6] = np.einsum("eab,eb->ea", base_rot, x[:, 3:6])
        else:
            x[:, 3:6] = base_rot @ x[:, 3:6]
            x[:, :, 3:6] = x[:, :, 3:6] @ np.swapaxes(base_rot, 1, 2)
    return x


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


def quadruped_links():
    """Link specs of :func:`quadruped`."""
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
    return links


def quadruped():
    """Floating trunk with four 3-joint legs (13 links, 12 joints)."""
    return KinematicTree(quadruped_links())


def breadth_first_quadruped():
    """:func:`quadruped` numbered depth by depth: trunk, the four hips, the
    four thighs, the four calves."""
    links = quadruped_links()
    order = [0] + [1 + 3 * leg + d for d in range(3) for leg in range(4)]
    new = {old: i for i, old in enumerate(order)}
    return KinematicTree([
        dataclasses.replace(links[old], parent=-1 if links[old].parent < 0
                            else new[links[old].parent])
        for old in order])


def crossed_tree():
    """Five revolute links whose deepest level lists its parents in falling
    order (links 3 and 4 hang from links 2 and 1): no slice steps from the
    first parent to the second, so each link is its own run."""
    rng = np.random.default_rng(6)
    links = []
    for i, parent in enumerate([-1, 0, 0, 2, 1]):
        axis = rng.standard_normal(3)
        links.append(LinkSpec(
            f"c{i}", parent, "revolute", axis=tuple(axis / np.linalg.norm(axis)),
            origin_pos=tuple(rng.uniform(-0.3, 0.3, 3)), mass=rng.uniform(0.2, 2.0),
            com=tuple(rng.uniform(-0.2, 0.2, 3)), inertia=random_spd(rng)))
    return KinematicTree(links)


def trees():
    rng = np.random.default_rng(11)
    return [
        ("chain", random_chain_tree(rng, n=6)),
        ("fixed_tree", random_tree(rng, 9, floating=False)),
        ("floating_tree", random_tree(rng, 9, floating=True)),
        ("quadruped", quadruped()),
        ("quadruped_bfs", breadth_first_quadruped()),
        ("branchy_tree", random_tree(np.random.default_rng(3), 14, floating=False)),
        ("crossed_tree", crossed_tree()),
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
        self.J = k.body_jacobians(tree, self.X, self.base_rot)
        # public velocity: a free root's angular part in the base frame
        self.u = self.qd
        if tree.floating:
            w_b = np.einsum("eba,eb->ea", self.base_rot, self.twist[:, 3:])
            self.u = np.concatenate([w_b, self.twist[:, :3], self.qd], axis=1)
        self.v = np.einsum("elrn,en->elr", self.J, self.u)
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


def schedule_depths(tree):
    """Each link's depth below the root, counting from 0."""
    depth = []
    for p in tree.parent:
        depth.append(0 if p < 0 else depth[p] + 1)
    return np.array(depth)


@pytest.mark.parametrize("name", [n for n, _ in TREES])
def test_level_schedule_covers_every_link_once_after_its_parent(name):
    tree = dict(TREES)[name]
    ids = np.arange(tree.num_links)
    depth = schedule_depths(tree)
    seen, last_depth = [], 0
    for links, parents, joint, cols, rows in tree.levels:
        run = ids[links]
        assert run.size and (depth[run] == depth[run[0]]).all()
        # depths never go back, and parents come at an earlier depth
        assert depth[run[0]] >= last_depth
        last_depth = depth[run[0]]
        if parents is None:
            assert (tree.parent[run] < 0).all()
        else:
            np.testing.assert_array_equal(
                np.broadcast_to(ids[parents], run.shape), tree.parent[run])
            assert (depth[ids[parents]] < depth[run[0]]).all()
            assert set(ids[parents]) <= set(seen)
        np.testing.assert_array_equal(joint, run[tree.qidx[run] >= 0])
        np.testing.assert_array_equal(cols, tree.nv - tree.num_joints + tree.qidx[joint])
        np.testing.assert_array_equal(rows[:, 0], tree.subspace[joint])
        seen += run.tolist()
    assert sorted(seen) == ids.tolist()


@pytest.mark.parametrize("name, runs", [
    ("chain", 6), ("quadruped", 4), ("quadruped_bfs", 4), ("crossed_tree", 4)])
def test_level_schedule_run_counts(name, runs):
    tree = dict(TREES)[name]
    assert len(tree.levels) == runs
    if name == "quadruped_bfs":
        # each level is one contiguous slice
        assert all(links.step == 1 for links, *_ in tree.levels)


def test_random_tree_levels_break_into_several_runs():
    # more runs than depth levels: some level splits
    tree = dict(TREES)["branchy_tree"]
    assert len(tree.levels) > schedule_depths(tree).max() + 1


def test_level_schedule_is_read_only():
    tree = quadruped()
    assert isinstance(tree.levels, tuple)
    for _, _, joint, cols, rows in tree.levels:
        for arr in (joint, cols, rows):
            with pytest.raises(ValueError):
                arr[...] = 0


def per_link_fk(tree, rot, pos, base_rot, base_pos):
    """The link-by-link FK pass the level runs replaced."""
    E, L = rot.shape[:2]
    link_rot = np.empty((E, L, 3, 3))
    link_pos = np.empty((E, L, 3))
    for i in range(L):
        p = tree.parent[i]
        rp, pp = (base_rot, base_pos) if p < 0 else (link_rot[:, p], link_pos[:, p])
        link_rot[:, i] = rp @ rot[:, i]
        link_pos[:, i] = pp + k._mv(rp, pos[:, i])
    return link_rot, link_pos


def per_link_jacobians(tree, X, base_rot):
    """The link-by-link Jacobian pass the level runs replaced."""
    E, L = X.shape[:2]
    off = tree.nv - tree.num_joints
    J = np.empty((E, L, 6, tree.nv))
    J[:, tree.parent < 0] = 0.0
    if tree.floating:
        J[:, 0, :3, :3] = np.eye(3)
        J[:, 0, 3:, 3:6] = np.swapaxes(base_rot, -1, -2)
    for i in range(L):
        p = tree.parent[i]
        if p >= 0:
            np.matmul(X[:, i], J[:, p], out=J[:, i])
        if tree.qidx[i] >= 0:
            J[:, i, :, off + tree.qidx[i]] = tree.subspace[i]
    return J


def per_link_rnea(tree, X, J, v, qd, inertia, base_acc, f_ext):
    """RNEA with the link-by-link forward pass the level runs replaced."""
    E, L = v.shape[:2]
    crm = k._crm(v)
    padded = np.concatenate([qd, np.zeros((E, 1))], axis=1)
    c = k._mv(crm, tree.subspace * padded[:, tree.qidx, None])
    a_base = np.zeros((E, 6))
    a_base[:, 3:] = base_acc
    a = np.empty((E, L, 6))
    for i in range(L):
        p = tree.parent[i]
        a[:, i] = k._mv(X[:, i], a_base if p < 0 else a[:, p]) + c[:, i]
    h = k._mv(inertia, v)
    f = k._mv(inertia, a) - (h[..., None, :] @ crm)[..., 0, :] - f_ext
    return (f.reshape(E, 1, 6 * L) @ J.reshape(E, 6 * L, -1))[:, 0]


def test_level_passes_equal_the_per_link_loop_bitwise(case):
    t = case.tree
    rot, pos = per_link_fk(t, *case.frames, case.base_rot, case.base_pos)
    J = per_link_jacobians(t, case.X, case.base_rot)
    base_acc = -np.einsum("eba,eb->ea", case.base_rot, case.gravity)
    bias = per_link_rnea(t, case.X, J, case.v, case.qd, case.spatial, base_acc,
                         case.wrench)
    for got, want in ((case.rot, rot), (case.pos, pos), (case.J, J),
                      (k.rnea_kernel(t, case.X, case.J, case.v, case.qd,
                                     case.spatial, base_acc, case.wrench), bias)):
        assert got.tobytes() == want.tobytes()


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
    bias = k.rnea_kernel(t, case.X, case.J, case.v, case.qd, case.spatial,
                         base_acc, 0.0)
    assert_matches(bias, mixed(t, case.base_rot, expected))


def test_crba_matches_reference(case):
    t = case.tree
    expected = np.zeros((case.q.shape[0], t.nv, t.nv))
    ref.crba_kernel(*case.ref_args(), case.q, case.ref_rot, case.ref_pos,
                    case.base_rot, case.base_pos, case.mass, case.com,
                    case.inertia, t.floating, expected)
    m = k.mass_kernel(case.J, case.spatial)
    assert_matches(m, mixed(t, case.base_rot, expected))
    np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))


def test_kernels_rewrite_every_element_of_given_arrays(case):
    # arrays filled with NaN come back bitwise the freshly allocated results
    t = case.tree
    E, L, nv = case.q.shape[0], t.num_links, t.nv
    X, J, ij, crm, m = (np.full(shape, np.nan) for shape in (
        (E, L, 6, 6), (E, L, 6, nv), (E, L, 6, nv), (E, L, 6, 6), (E, nv, nv)))
    assert k.motion_xforms(*case.frames, out=X) is X
    assert k.body_jacobians(t, X, case.base_rot, out=J) is J
    assert k.mass_kernel(J, case.spatial, out=m, ij=ij) is m
    base_acc = -np.einsum("eba,eb->ea", case.base_rot, case.gravity)
    bias = k.rnea_kernel(t, X, J, case.v, case.qd, case.spatial, base_acc,
                         case.wrench, crm=crm)
    np.testing.assert_array_equal(X, case.X)
    np.testing.assert_array_equal(J, case.J)
    np.testing.assert_array_equal(ij, case.spatial @ case.J)
    np.testing.assert_array_equal(m, k.mass_kernel(case.J, case.spatial))
    np.testing.assert_array_equal(crm, k._crm(case.v))
    np.testing.assert_array_equal(bias, k.rnea_kernel(
        t, case.X, case.J, case.v, case.qd, case.spatial, base_acc, case.wrench))


def test_wrench_mapping_matches_reference(case):
    t = case.tree
    expected = np.zeros((case.q.shape[0], t.nv))
    ref.wrench_kernel(*case.ref_args(), case.ref_rot, case.ref_pos,
                      case.base_rot, case.base_pos, case.wrench, t.floating,
                      expected)
    # at rest and without gravity RNEA returns minus the applied forces'
    # generalized projection; it takes them body-frame, [torque, force]
    rt = np.swapaxes(case.rot, -1, -2)
    f_body = np.concatenate([np.einsum("elab,elb->ela", rt, case.wrench[..., 3:]),
                             np.einsum("elab,elb->ela", rt, case.wrench[..., :3])],
                            axis=-1)
    E, L = case.wrench.shape[:2]
    got = -k.rnea_kernel(t, case.X, case.J, np.zeros((E, L, 6)),
                         np.zeros_like(case.qd), case.spatial, np.zeros((E, 3)),
                         f_body)
    assert_matches(got, mixed(t, case.base_rot, expected))


def test_jacobian_matches_reference(case):
    t = case.tree
    offset = case.rng.uniform(-0.3, 0.3, 3)
    for link in range(t.num_links):
        expected = np.zeros((case.q.shape[0], 6, t.nv))
        ref.jacobian_kernel(*case.ref_args(), case.ref_rot, case.ref_pos,
                            case.base_rot, case.base_pos, link, offset,
                            t.floating, expected)
        assert_matches(k.point_jacobian(case.J[:, link], case.rot[:, link], offset),
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


def test_surface_height_special_points_bitwise_match_scalar():
    # 0-d coordinates, -0.0 on a grid at the origin over -0.0 heights, the
    # far edge and points past every side all give the scalar oracle's bits
    rng = np.random.default_rng(13)
    heights = rng.uniform(-1.0, 1.0, (6, 4))
    heights[0, :2] = -0.0
    heights[1, 0] = -0.0
    cell = 0.5
    ground = HeightField(heights, cell)
    n, m = heights.shape
    fx, fy = (n - 1) * cell, (m - 1) * cell
    pts = np.array([
        [-0.0, 0.3], [0.0, -0.0], [-0.0, -0.0], [0.2, 0.0],
        [fx, fy], [fx, 0.7], [0.3, fy], [np.nextafter(fx, np.inf), 0.25],
        [-5.0, 0.2], [9.0, 0.2], [0.2, -7.0], [0.2, 40.0],
        [-1e300, 1e300], [np.inf, -np.inf]])
    want = np.array([ref.heightfield_sample(heights, cell, 0.0, 0.0, x, y)
                     for x, y in pts])
    for (x, y), h in zip(pts, want):
        got = ground.surface_height(np.float64(x), np.float64(y))
        assert got.shape == (1,)
        assert got.tobytes() == h.tobytes()
    assert ground.surface_height(pts[:, 0], pts[:, 1]).tobytes() == want.tobytes()
    assert np.signbit(want).any()


def test_surface_height_of_a_nan_coordinate_is_nan():
    ground = HeightField(np.arange(12.0).reshape(4, 3), 0.5, (-1.0, 2.0))
    got = ground.surface_height([np.nan, 0.2, np.nan, -0.5], [2.5, np.nan, np.nan, 2.5])
    np.testing.assert_array_equal(np.isnan(got), [True, True, True, False])
    assert ground.surface_height(np.nan, 2.5).shape == (1,)


@pytest.mark.parametrize("terrain", ["flat", "heightfield"])
def test_contacts_on_shared_and_inner_links_match_a_per_probe_loop(terrain):
    # three probes on one calf, two on its thigh and one on the trunk: the
    # batched kernel gives each probe its own rows and sums the wrenches of
    # a link in probe order
    case = Case(quadruped(), 5, seed=101)
    rng = case.rng
    link = np.array([3, 3, 3, 2, 2, 0])
    P = link.size
    params = dict(radius=rng.uniform(0.02, 0.1, P),
                  stiffness=rng.uniform(100.0, 5000.0, P),
                  damping=rng.uniform(0.0, 200.0, P),
                  friction=rng.uniform(0.1, 1.0, P))
    probes = ContactPointSet(link=link, offset=rng.uniform(-0.2, 0.2, (P, 3)),
                             **params)
    probe_z = (case.pos[:, link]
               + np.einsum("epab,pb->epa", case.rot[:, link], probes.offset))[..., 2]
    level = float(np.median(probe_z))
    if terrain == "flat":
        ground = FlatGround(level)
    else:
        ground = HeightField(level + rng.uniform(-0.3, 0.3, (9, 7)),
                             cell_size=0.25, origin_xy=(-1.0, -0.8))
    normal, tangent, active, wrench = k.contact_kernel(probes, case.rot, case.pos,
                                                       case.v, ground)
    assert 0 < active.sum() < active.size
    loop_wrench = np.zeros_like(wrench)
    for p in range(P):
        one = ContactPointSet(link=link[p:p + 1], offset=probes.offset[p:p + 1],
                              **{name: v[p:p + 1] for name, v in params.items()})
        n1, t1, a1, w1 = k.contact_kernel(one, case.rot, case.pos, case.v, ground)
        assert normal[:, p:p + 1].tobytes() == n1.tobytes()
        assert tangent[:, p:p + 1].tobytes() == t1.tobytes()
        np.testing.assert_array_equal(active[:, p:p + 1], a1)
        loop_wrench[:, link[p]] += w1[:, link[p]]
    assert wrench.tobytes() == loop_wrench.tobytes()
    # and the scalar oracle, to its tolerance
    E = case.q.shape[0]
    encoded = ((0, level, np.zeros((2, 2)), 1.0, 0.0, 0.0) if terrain == "flat"
               else (1, 0.0, ground.heights, ground.cell_size, *ground.origin_xy))
    exp = [np.zeros((E, P, 3)), np.zeros((E, P, 3)), np.zeros((E, P), bool),
           np.zeros_like(wrench)]
    ref.contact_kernel(link, probes.offset, probes.radius,
                       *(np.broadcast_to(params[n], (E, P))
                         for n in ("stiffness", "damping", "friction")),
                       case.ref_rot, case.ref_pos, case.ref_v, *encoded, *exp)
    np.testing.assert_array_equal(active, exp[2])
    for new, expected in zip((normal, tangent, wrench), exp[:2] + exp[3:]):
        assert_matches(new, expected)
