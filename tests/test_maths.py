import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsim.maths import (
    Transform,
    compose,
    inverse,
    matrix_to_quat,
    quat_from_axis_angle,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
    relative_pose,
    rotvec_from_quat,
)


def random_quat(rng, shape=()):
    return quat_normalize(rng.standard_normal(shape + (4,)))


def assert_transform_close(a, b, atol=1e-9):
    np.testing.assert_allclose(a.pos, b.pos, atol=atol)
    # q and -q are the same rotation
    dot = np.abs(np.sum(a.quat * b.quat, axis=-1))
    np.testing.assert_allclose(dot, 1.0, atol=atol)


def test_identity_and_normalize():
    q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(q, [1, 0, 0, 0], atol=1e-15)
    rng = np.random.default_rng(0)
    q = random_quat(rng, (32,))
    np.testing.assert_allclose(np.linalg.norm(q, axis=-1), 1.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quat_rotation_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    q = random_quat(rng)
    v = rng.standard_normal(3) * 10
    np.testing.assert_allclose(
        np.linalg.norm(quat_rotate(q, v)), np.linalg.norm(v), rtol=1e-12
    )


def test_quat_rotate_matches_matrix():
    rng = np.random.default_rng(1)
    q = random_quat(rng, (8,))
    v = rng.standard_normal((8, 3))
    expected = np.einsum("bij,bj->bi", quat_to_matrix(q), v)
    np.testing.assert_allclose(quat_rotate(q, v), expected, atol=1e-12)


def test_matrix_quat_roundtrip():
    rng = np.random.default_rng(2)
    q = random_quat(rng, (16,))
    q2 = matrix_to_quat(quat_to_matrix(q))
    np.testing.assert_allclose(np.abs(np.sum(q * q2, axis=-1)), 1.0, atol=1e-12)


def _matrix_to_quat_loop(m):
    """Per-matrix Shepperd loop: the reference for the vectorized version."""
    m = np.asarray(m, dtype=np.float64)
    batch = m.shape[:-2]
    out = np.empty(batch + (4,))
    for idx in np.ndindex(batch or (1,)):
        r = m[idx] if batch else m
        t = np.trace(r)
        if t > 0:
            s = np.sqrt(t + 1.0) * 2.0
            qv = np.array(
                [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
            )
        else:
            i = int(np.argmax(np.diag(r)))
            j, k = (i + 1) % 3, (i + 2) % 3
            s = np.sqrt(r[i, i] - r[j, j] - r[k, k] + 1.0) * 2.0
            qv = np.empty(4)
            qv[0] = (r[k, j] - r[j, k]) / s
            qv[1 + i] = 0.25 * s
            qv[1 + j] = (r[j, i] + r[i, j]) / s
            qv[1 + k] = (r[k, i] + r[i, k]) / s
        if batch:
            out[idx] = qv
        else:
            out = qv
    return quat_normalize(out)


def test_matrix_to_quat_matches_loop_reference():
    rng = np.random.default_rng(5)
    half_turns = quat_from_axis_angle(np.eye(3), np.full(3, np.pi))
    # 180 degrees about x, y and z plus small tilts: trace <= 0 with each
    # diagonal element the largest in turn
    tilted = quat_mul(half_turns[:, None], quat_from_rotvec(
        rng.uniform(-0.1, 0.1, (3, 5, 3)))).reshape(-1, 4)
    quats = np.concatenate([random_quat(rng, (200,)), half_turns, tilted,
                            [[1.0, 0.0, 0.0, 0.0]]])
    # cyclic axis permutations: 120-degree turns with a trace of exactly 0
    cyclic = np.stack([np.roll(np.eye(3), 1, axis=0), np.roll(np.eye(3), -1, axis=0)])
    mats = np.concatenate([quat_to_matrix(quats), cyclic])
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    low_trace = diag.sum(-1) <= 0
    assert set(np.argmax(diag[low_trace], axis=-1)) == {0, 1, 2}
    for shaped in (mats, mats[:64].reshape(4, 16, 3, 3), mats[0], mats[:0]):
        np.testing.assert_array_equal(matrix_to_quat(shaped),
                                      _matrix_to_quat_loop(shaped))


def test_rotvec_roundtrip_and_antipodal():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((16, 3))
    back = rotvec_from_quat(quat_from_rotvec(v))
    # rotation vectors with angle > pi wrap; compare quaternions instead
    dot = np.abs(np.sum(quat_from_rotvec(v) * quat_from_rotvec(back), axis=-1))
    np.testing.assert_allclose(dot, 1.0, atol=1e-12)
    # 180 degrees about z, both quaternion signs, resolves to +z axis
    for sign in (1.0, -1.0):
        rv = rotvec_from_quat(sign * np.array([0.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(rv, [0, 0, np.pi], atol=1e-12)


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(4)
    t = Transform(rng.standard_normal(3), random_quat(rng))
    assert_transform_close(compose(t, Transform.identity()), t)
    assert_transform_close(compose(Transform.identity(), t), t)
    assert_transform_close(compose(t, inverse(t)), Transform.identity())


def test_compose_rotation_then_translation():
    # rotate 90 deg about z at the origin, then translate (1,0,0):
    # the unit x offset lands on (0,1,0)
    rot = Transform(np.zeros(3), quat_from_axis_angle(np.array([0, 0, 1.0]), np.pi / 2))
    trans = Transform(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    out = compose(rot, trans)
    np.testing.assert_allclose(out.pos, [0, 1, 0], atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(5)
    a, b, c = (Transform(rng.standard_normal(3), random_quat(rng)) for _ in range(3))
    assert_transform_close(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_relative_pose():
    rng = np.random.default_rng(6)
    t = Transform(rng.standard_normal(3), random_quat(rng))
    assert_transform_close(relative_pose(Transform.identity(), t), t)
    assert_transform_close(relative_pose(t, t), Transform.identity())
    a = Transform(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    b = Transform(np.array([2.0, 0, 0]), np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(relative_pose(a, b).pos, [1, 0, 0], atol=1e-15)


def test_relative_pose_composes_back():
    rng = np.random.default_rng(7)
    src = Transform(rng.standard_normal((5, 3)), random_quat(rng, (5,)))
    tgt = Transform(rng.standard_normal((5, 3)), random_quat(rng, (5,)))
    rel = relative_pose(src, tgt)
    assert_transform_close(compose(src, rel), tgt)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(8)
    a, b = random_quat(rng), random_quat(rng)
    np.testing.assert_allclose(
        quat_to_matrix(quat_mul(a, b)),
        quat_to_matrix(a) @ quat_to_matrix(b),
        atol=1e-12,
    )
