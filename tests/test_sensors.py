import re

import numpy as np
import pytest

from conftest import quat_from_axis_angle
from vecsim.maths import QUAT_IDENTITY, Transform, quat_from_rotvec, quat_rotate
from vecsim.raycast import TriMesh, build_bvh, raycast
from vecsim.sensors import (
    CAMERA_CONVENTIONS,
    ContactSensor,
    ImuModifiers,
    ImuSensor,
    SensorClock,
    aggregate_body_forces,
    depth_image,
    pattern_grid,
    pattern_lidar,
    pattern_pinhole,
    place_pattern,
    tile_pack,
)


# ------------------------------------------------------------------ patterns


def test_grid_pattern_counts():
    assert pattern_grid(1.6, 1.2, 0.1).num_rays == 17 * 13  # 221
    assert pattern_grid(0.0, 0.0, 0.1).num_rays == 1
    assert pattern_grid(1.0, 1.0, 0.5).num_rays == 9


def test_grid_pattern_centered_and_downward():
    p = pattern_grid(1.0, 1.0, 0.5)
    np.testing.assert_allclose(p.origins.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(p.dirs, np.tile([0, 0, -1.0], (9, 1)))
    assert p.origins[:, 0].min() == -0.5 and p.origins[:, 0].max() == 0.5


def test_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        pattern_grid(1.0, 1.0, 0.0)


def test_pinhole_principal_ray_is_optical_axis():
    p = pattern_pinhole(9, 9, focal_px=10.0)
    center = p.dirs.reshape(9, 9, 3)[4, 4]
    np.testing.assert_allclose(center, [1, 0, 0], atol=1e-12)


def test_pinhole_single_pixel():
    p = pattern_pinhole(1, 1, focal_px=5.0)
    assert p.num_rays == 1
    np.testing.assert_allclose(p.dirs[0], [1, 0, 0], atol=1e-12)


def test_pinhole_corner_angle():
    p = pattern_pinhole(64, 64, focal_px=32.0)
    corner = p.dirs.reshape(64, 64, 3)[63, 63]
    angle = np.arccos(np.clip(corner @ np.array([1.0, 0, 0]), -1, 1))
    expected = np.arctan(np.sqrt(2) * 31.5 / 32.0)
    np.testing.assert_allclose(angle, expected, atol=1e-12)


def test_pinhole_validation():
    with pytest.raises(ValueError):
        pattern_pinhole(0, 4, 10.0)
    with pytest.raises(ValueError):
        pattern_pinhole(4, 4, 0.0)


def test_lidar_pattern():
    p = pattern_lidar(np.pi, 8, [-0.2, 0.0, 0.2])
    assert p.num_rays == 24
    np.testing.assert_allclose(np.linalg.norm(p.dirs, axis=1), 1.0, atol=1e-12)


def test_full_circle_lidar_has_no_repeated_seam_ray():
    n = 12
    p = pattern_lidar(2 * np.pi, n, [0.0])
    yaw = np.arctan2(p.dirs[:, 1], p.dirs[:, 0])
    # consecutive rays, and the last back round to the first, 2 pi / n apart
    gaps = np.diff(np.unwrap(np.append(yaw, yaw[0])))
    np.testing.assert_allclose(gaps, 2 * np.pi / n, atol=1e-12)
    assert len(np.unique(np.round(p.dirs, 9), axis=0)) == n


def test_camera_convention_matrices_are_rotations():
    for name, rot in CAMERA_CONVENTIONS.items():
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-12)
    # ROS optical z-forward maps to internal x-forward
    np.testing.assert_allclose(CAMERA_CONVENTIONS["ros"] @ [0, 0, 1], [1, 0, 0])
    np.testing.assert_allclose(CAMERA_CONVENTIONS["opengl"] @ [0, 0, -1], [1, 0, 0])


# ----------------------------------------------------------- placed patterns


def rotated_by_quaternion(pattern, pose):
    """``place_pattern`` as two broadcast ``quat_rotate`` calls, one for the
    origins and one for the directions."""
    pos, quat = np.atleast_2d(pose.pos), np.atleast_2d(pose.quat)[:, None, :]
    origins = pos[:, None, :] + quat_rotate(quat, pattern.origins)
    dirs = quat_rotate(quat, np.broadcast_to(pattern.dirs, origins.shape))
    return origins, dirs


@pytest.mark.parametrize("pattern", [
    pattern_grid(1.6, 1.0, 0.1), pattern_pinhole(16, 12, 12.0),
    pattern_lidar(6.0, 32, [-0.2, 0.0, 0.2])], ids=["grid", "pinhole", "lidar"])
def test_placed_pattern_matches_quaternion_rotation(pattern):
    # one rotation matrix per pose rounds differently from quat_rotate, by
    # at most 1e-15 of each ray's scale
    rng = np.random.default_rng(60)
    for _ in range(10):
        pose = Transform(rng.uniform(-10.0, 10.0, (32, 3)),
                         quat_from_rotvec(rng.normal(0.0, 2.0, (32, 3))))
        origins, dirs = place_pattern(pattern, pose)
        want_o, want_d = rotated_by_quaternion(pattern, pose)
        assert origins.shape == dirs.shape == (32, pattern.num_rays, 3)
        scale = (np.linalg.norm(pose.pos, axis=-1)[:, None]
                 + np.linalg.norm(pattern.origins, axis=-1))
        assert np.all(np.linalg.norm(origins - want_o, axis=-1) <= 1e-15 * scale)
        assert np.all(np.linalg.norm(dirs - want_d, axis=-1)
                      <= 1e-15 * np.linalg.norm(want_d, axis=-1))


def test_yawed_grid_directions_stay_exactly_vertical():
    # the cell table takes only rays whose mesh-local x and y are exactly 0
    rng = np.random.default_rng(61)
    yaw = np.concatenate([rng.uniform(-40.0, 40.0, 60), [0.0, np.pi, -np.pi / 2]])
    quat = np.zeros((yaw.size, 4))
    quat[:, 0], quat[:, 3] = np.cos(yaw / 2), np.sin(yaw / 2)
    pose = Transform(rng.uniform(-5.0, 5.0, (yaw.size, 3)), quat)
    _, dirs = place_pattern(pattern_grid(1.6, 1.0, 0.1), pose)
    assert np.all(dirs[..., :2] == 0.0) and np.all(dirs[..., 2] == -1.0)
    # one unbatched pose gives a batch of one
    origins, dirs = place_pattern(pattern_grid(1.0, 1.0, 0.5),
                                  Transform(np.ones(3), quat[0]))
    assert origins.shape == dirs.shape == (1, 9, 3)
    np.testing.assert_array_equal(dirs[0], np.tile([0.0, 0.0, -1.0], (9, 1)))


# --------------------------------------------------------------- depth image


def ground_plane(half=50.0):
    verts = np.array([[-half, -half, 0.0], [half, -half, 0], [half, half, 0],
                      [-half, half, 0]])
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def downward_camera_pose(height=1.0):
    # optical axis (+x in the sensor frame) pointing at -z
    quat = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2)
    return Transform(np.array([[0.0, 0.0, height]]), quat[None, :])


def test_depth_planar_z_flat_floor():
    mesh = ground_plane()
    pattern = pattern_pinhole(8, 8, focal_px=8.0)
    origins, dirs = place_pattern(pattern, downward_camera_pose())
    hits = raycast([mesh], [build_bvh(mesh)], origins[0], dirs[0])
    img = depth_image(hits, pattern, mode="planar_z")
    np.testing.assert_allclose(img, 1.0, atol=1e-12)
    dist = depth_image(hits, pattern, mode="distance")
    assert np.all(dist > 1.0)  # every off-axis ray travels farther
    assert dist[0, 0] == dist.max()  # corners are most oblique


def test_depth_matches_brute_force_pixels():
    from test_raycast import brute_force_raycast, uv_sphere

    mesh = uv_sphere(9, 12)
    mesh.pose = Transform(np.array([3.0, 0, 0]), QUAT_IDENTITY.copy())
    pattern = pattern_pinhole(8, 8, focal_px=6.0)
    pose = Transform(np.zeros((1, 3)), np.tile(QUAT_IDENTITY, (1, 1)))
    origins, dirs = place_pattern(pattern, pose)
    got = raycast([mesh], [build_bvh(mesh)], origins[0], dirs[0])
    want = brute_force_raycast([mesh], origins[0], dirs[0])
    np.testing.assert_allclose(depth_image(got, pattern),
                               want.t.reshape(8, 8), atol=1e-9)


def test_depth_requires_pinhole():
    with pytest.raises(ValueError):
        depth_image(None, pattern_grid(1, 1, 0.5))


# ------------------------------------------------------------------- tiling


def test_tile_atlas_shape():
    images = np.arange(4 * 64 * 64, dtype=np.float32).reshape(4, 64, 64)
    atlas, layout = tile_pack(images, tiles_per_row=2)
    assert atlas.shape == (128, 128)
    np.testing.assert_array_equal(atlas[:64, :64], images[0])
    np.testing.assert_array_equal(atlas[64:, 64:], images[3])


def test_tile_single_env_identity():
    img = np.random.default_rng(0).standard_normal((1, 5, 7))
    atlas, _ = tile_pack(img)
    np.testing.assert_array_equal(atlas, img[0])


def loop_tile_pack(images, layout):
    """Per-env reference: copy each image into its tile."""
    h, w = layout.tile_height, layout.tile_width
    atlas = np.zeros(layout.atlas_shape, dtype=images.dtype)
    for env in range(layout.env_count):
        col, row = layout.tile_of(env)
        atlas[row * h:(row + 1) * h, col * w:(col + 1) * w] = images[env]
    return atlas


def test_tile_roundtrip_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(40):
        e = int(rng.integers(1, 17))
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        per_row = int(rng.integers(1, e + 2)) if rng.random() < 0.5 else None
        if rng.random() < 0.5:
            images = rng.standard_normal((e, h, w))
        else:
            images = rng.standard_normal((e, h, w, int(rng.integers(1, 5))))
        atlas, layout = tile_pack(images, tiles_per_row=per_row)
        assert atlas.dtype == images.dtype
        np.testing.assert_array_equal(atlas, loop_tile_pack(images, layout))


def test_tile_partial_last_row_is_zero_padded():
    images = np.arange(1, 5 * 2 * 3 * 2 + 1, dtype=np.int32).reshape(5, 2, 3, 2)
    atlas, layout = tile_pack(images, tiles_per_row=3)
    assert atlas.shape == (4, 9, 2)
    np.testing.assert_array_equal(atlas, loop_tile_pack(images, layout))
    np.testing.assert_array_equal(atlas[2:, 6:], 0)


def test_tile_mapping_deterministic_bijection():
    _, layout = tile_pack(np.zeros((7, 3, 3)), tiles_per_row=3)
    tiles = [layout.tile_of(e) for e in range(7)]
    assert len(set(tiles)) == 7
    assert tiles[0] == (0, 0) and tiles[3] == (0, 1) and tiles[5] == (2, 1)


# ------------------------------------------------------------------- clock


def test_sensor_clock_counts_updates():
    for period, dt, horizon in [(0.1, 0.01, 5.0), (0.02, 0.005, 2.0),
                                (0.05, 0.02, 3.0)]:
        clock = SensorClock(period)
        count = 0
        t = 0.0
        while t < horizon:
            if clock.due(t):
                clock.mark(t)
                count += 1
            t += dt
        assert abs(count - int(horizon / period)) <= 1


def test_sensor_clock_period_tolerance():
    clock = SensorClock(0.1)
    clock.mark(0.0)
    # accumulated float time that lands a hair below the period still fires
    assert clock.due(0.1 - 1e-13)
    assert not clock.due(0.05)


def test_sensor_clock_late_mark_does_not_burst():
    clock = SensorClock(0.1)
    clock.mark(0.0)
    clock.mark(0.35)  # three periods late: restart from now, no catch-up
    assert clock.last_update == 0.35
    assert not clock.due(0.4)
    assert clock.due(0.45)


def test_sensor_clock_reset_makes_next_step_due():
    clock = SensorClock(0.1)
    clock.mark(1.0)
    assert not clock.due(1.05)
    clock.reset()
    assert clock.due(1.05)
    clock.mark(1.05)
    assert clock.last_update == 1.05


# ----------------------------------------------------------- contact sensor


def test_contact_bookkeeping_touchdown():
    sensor = ContactSensor(1, 1)
    dt = 0.01
    force_off = np.zeros((1, 1, 3))
    force_on = np.array([[[0.0, 0, 12.0]]])
    for _ in range(30):  # 0.3 s airborne
        sensor.update(force_off, dt)
    assert sensor.air_time[0, 0] == pytest.approx(0.3)
    sensor.update(force_on, dt)
    assert sensor.last_air_duration[0, 0] == pytest.approx(0.3, abs=dt)
    assert sensor.air_time[0, 0] == 0.0
    assert sensor.contact_time[0, 0] == pytest.approx(dt)
    assert sensor.air_history[0, 0, -1] == pytest.approx(0.3, abs=dt)


def test_contact_resting_body_accumulates_contact_time():
    sensor = ContactSensor(2, 1)
    force = np.array([[[0.0, 0, 5.0]]] * 2)
    for i in range(10):
        sensor.update(force, 0.02)
    np.testing.assert_allclose(sensor.contact_time, 0.2)
    np.testing.assert_allclose(sensor.air_time, 0.0)


def test_contact_zero_forces_grow_air_time():
    sensor = ContactSensor(1, 2)
    for _ in range(5):
        sensor.update(np.zeros((1, 2, 3)), 0.1)
    np.testing.assert_allclose(sensor.air_time, 0.5)
    np.testing.assert_allclose(sensor.contact_time, 0.0)
    np.testing.assert_allclose(sensor.net_force, 0.0)


def test_contact_timers_never_both_positive():
    rng = np.random.default_rng(2)
    sensor = ContactSensor(4, 3)
    for _ in range(2000):
        forces = np.where(rng.random((4, 3, 1)) < 0.5,
                          rng.uniform(0.1, 5.0, (4, 3, 3)), 0.0)
        sensor.update(forces, 0.005)
        assert np.all(sensor.contact_time * sensor.air_time == 0.0)


def test_contact_history_ring():
    sensor = ContactSensor(1, 1, history_length=3)
    dt = 0.1
    on = np.array([[[0, 0, 1.0]]])
    off = np.zeros((1, 1, 3))
    # three contact episodes of lengths 1, 2, 3 updates
    for n in (1, 2, 3):
        for _ in range(n):
            sensor.update(on, dt)
        sensor.update(off, dt)
    np.testing.assert_allclose(sensor.contact_history[0, 0], [0.1, 0.2, 0.3])


def test_contact_sensor_rejects_empty_history():
    with pytest.raises(ValueError, match="history_length"):
        ContactSensor(1, 1, history_length=0)


@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
def test_contact_sensor_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        ContactSensor(1, 1).update(np.zeros((1, 1, 3)), dt)


def test_contact_flag_follows_touchdown_liftoff_and_reset():
    sensor = ContactSensor(2, 1)
    on = np.array([[[0, 0, 1.0]], [[0, 0, 0.0]]])
    sensor.update(on, 0.1)
    np.testing.assert_array_equal(sensor.in_contact, [[True], [False]])
    sensor.update(on[::-1], 0.1)
    np.testing.assert_array_equal(sensor.in_contact, [[False], [True]])
    sensor.reset([1])
    np.testing.assert_array_equal(sensor.in_contact, [[False], [False]])


def test_aggregate_body_forces_with_filter():
    forces = np.zeros((1, 3, 3))
    forces[0, :, 2] = [1.0, 2.0, 4.0]
    link = np.array([0, 0, 1])
    out = aggregate_body_forces(forces, link, body_ids=[0, 1])
    np.testing.assert_allclose(out[0, :, 2], [3.0, 4.0])
    out = aggregate_body_forces(forces, link, body_ids=[0, 1],
                                probe_mask=np.array([True, False, True]))
    np.testing.assert_allclose(out[0, :, 2], [1.0, 4.0])


# ---------------------------------------------------------------------- IMU


def identity_pose(e=1):
    return Transform(np.zeros((e, 3)), np.tile(QUAT_IDENTITY, (e, 1)))


def test_imu_stationary_reads_plus_g():
    imu = ImuSensor(1)
    zero = np.zeros((1, 3))
    for _ in range(3):
        sample = imu.update(identity_pose(), zero, zero, dt=1e-3)
    np.testing.assert_allclose(sample.linear_acceleration, [[0, 0, 9.81]],
                               atol=1e-9)
    np.testing.assert_allclose(sample.gravity_projection, [[0, 0, -1.0]],
                               atol=1e-12)
    assert abs(np.linalg.norm(sample.linear_acceleration) - 9.81) < 1e-9


def test_imu_free_fall_reads_zero():
    imu = ImuSensor(1)
    dt = 1e-3
    zero = np.zeros((1, 3))
    for k in range(5):
        vel = np.array([[0.0, 0, -9.81 * k * dt]])
        sample = imu.update(identity_pose(), vel, zero, dt=dt)
    assert np.linalg.norm(sample.linear_acceleration) < 1e-9


def test_imu_centripetal_from_rotating_offset():
    omega = 2.0
    r = 0.5
    dt = 1e-3
    imu = ImuSensor(1, offset=Transform(np.array([r, 0, 0]), QUAT_IDENTITY.copy()),
                    gravity=(0, 0, 0))
    sample = None
    for k in range(50):
        ang = omega * k * dt
        quat = quat_from_axis_angle(np.array([0.0, 0, 1.0]), ang)[None, :]
        pose = Transform(np.zeros((1, 3)), quat)
        sample = imu.update(pose, np.zeros((1, 3)),
                            np.array([[0.0, 0, omega]]), dt=dt)
    mag = np.linalg.norm(sample.linear_acceleration)
    assert abs(mag - omega ** 2 * r) / (omega ** 2 * r) < 0.02


def test_imu_modifiers_seeded_reproducible():
    def run():
        mods = ImuModifiers(accel_noise_std=np.full(3, 0.05),
                            accel_bias_walk_std=np.full(3, 0.01))
        imu = ImuSensor(2, modifiers=mods, rng=np.random.default_rng(7))
        zero = np.zeros((2, 3))
        outs = [imu.update(identity_pose(2), zero, zero, dt=1e-2)
                for _ in range(10)]
        return np.stack([o.linear_acceleration for o in outs])

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)
    assert np.std(a) > 0  # noise actually applied


def test_imu_deterministic_without_modifiers():
    imu = ImuSensor(1)
    zero = np.zeros((1, 3))
    s1 = imu.update(identity_pose(), zero, zero, dt=1e-2)
    imu.reset()
    s2 = imu.update(identity_pose(), zero, zero, dt=1e-2)
    np.testing.assert_array_equal(s1.linear_acceleration, s2.linear_acceleration)


def test_imu_rejects_bad_dt():
    imu = ImuSensor(1)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            imu.update(identity_pose(), np.zeros((1, 3)), np.zeros((1, 3)), dt=dt)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: pattern_lidar(1.0, 0, [0.0]),
                 "horizontal_count must be an integer >= 1, got 0", id="lidar_count"),
    pytest.param(lambda: depth_image(None, pattern_pinhole(2, 2, 1.0), mode="range"),
                 "unknown depth mode 'range'", id="depth_mode"),
    pytest.param(lambda: tile_pack(np.zeros((2, 3))),
                 "images must be (E, H, W) or (E, H, W, C)", id="tile_rank"),
    pytest.param(lambda: tile_pack(np.zeros((0, 3, 3))),
                 "images must hold at least one image", id="tile_empty"),
    pytest.param(lambda: tile_pack(np.zeros((2, 3, 3)), tiles_per_row=0),
                 "tiles_per_row must be an integer >= 1, got 0", id="tile_zero_per_row"),
    pytest.param(lambda: tile_pack(np.zeros((2, 3, 3)), tiles_per_row=-2),
                 "tiles_per_row must be an integer >= 1, got -2", id="tile_negative_per_row"),
    pytest.param(lambda: SensorClock(np.nan), "period must be > 0, got nan",
                 id="clock_nan_period"),
    pytest.param(lambda: SensorClock(0.0), "period must be > 0, got 0.0",
                 id="clock_zero_period"),
    pytest.param(lambda: SensorClock(-0.1), "period must be > 0, got -0.1",
                 id="clock_negative_period"),
])
def test_sensor_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
