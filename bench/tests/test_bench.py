"""Tests of the benchmark itself: output shape, checks, determinism.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from models import camera_scene  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from vecsim.dynamics import HeightfieldGround  # noqa: E402
from vecsim.maths import Transform  # noqa: E402
from vecsim.raycast import build_bvh, raycast  # noqa: E402
from vecsim.sensors import pattern_pinhole, place_pattern  # noqa: E402
from vecsim.terrain import HeightField, hf_to_mesh  # noqa: E402

WORKLOADS = ("loco_flat", "loco_rough_scan", "arm_osc_cam")


def _main(capsys, tmp_path, monkeypatch, *args):
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload, capsys, tmp_path,
                                                  monkeypatch):
    lines, result = _main(capsys, tmp_path, monkeypatch, "--workload", workload,
                          "--seed", "3", "--seconds", "0", "--steps", "3",
                          "--envs", "2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 4      # warm-up step plus three timed
    names = dict(run.END_TO_END_UNITS, env_step_fail_frac="ratio")
    for name, unit in names.items():
        row = [l for l in lines if l.split()[:1] == [name]]
        assert len(row) == 1 and row[0].split()[2] == unit, (name, row)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert (tmp_path / f"{workload}-seed3-trace0.json").is_file()


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload,zero,nonzero", [
    ("loco_flat", ["raycast.rays", "controllers.osc_ms", "sensors.camera_updates"],
     ["actuators.calls", "dynamics.step_ms", "dynamics.mass_matrix_ms"]),
    ("arm_osc_cam", ["actuators.calls", "terrain.resets", "dynamics.contact_forces_ms"],
     ["controllers.osc_ms", "raycast.rays", "sensors.camera_updates"]),
])
def test_traced_run_reports_absent_layers_as_zero(workload, zero, nonzero):
    result = run.run_workload(workload, 5, 0.0, trace=True, steps=4, envs=2)
    layers = result["per_layer"]
    assert set(layers) == set(run.layer_units())
    for name in zero:
        assert layers[name] == 0.0, name
    for name in nonzero:
        assert layers[name] > 0.0, name
    assert layers["trace.coverage_frac"] > 0.9


def test_same_seed_gives_identical_counters():
    a, b = (run.run_workload("loco_rough_scan", 7, 0.0, trace=False, steps=8,
                             envs=8)["counts"] for _ in range(2))
    assert a["terrain.resets"] > 0
    for name in ("terrain.resets", "raycast.rays", "raycast.hits"):
        assert a[name] == b[name], name
    c, d = (run.run_workload("arm_osc_cam", 7, 0.0, trace=False, steps=4,
                             envs=4)["counts"] for _ in range(2))
    for name in ("sensors.camera_updates", "raycast.rays", "raycast.hits"):
        assert c[name] == d[name] > 0, name


def test_contact_check_flags_forces_outside_the_cone():
    normal = np.zeros((3, 4, 3))
    tangent = np.zeros((3, 4, 3))
    normal[:, :, 2] = 10.0
    tangent[:, :, 0] = 7.9
    assert not checks.contact_violations(normal, tangent, 0.8).any()
    tangent[1, 2, 0] = 8.1            # |f_t| > mu f_n
    normal[2, 0, 2] = -1.0            # pulling normal force
    assert checks.contact_violations(normal, tangent, 0.8).tolist() == [False, True, True]


def test_height_scan_check_flags_a_wrong_hit():
    rng = np.random.default_rng(0)
    hf = HeightField(rng.uniform(-0.2, 0.2, (12, 9)), 0.25)
    mesh = hf_to_mesh(hf)
    ground = HeightfieldGround(hf.heights, hf.cell_size)
    xy = rng.uniform(0.1, 1.9, (2, 30, 2))
    origins = np.concatenate([xy, np.full((2, 30, 1), 2.0)], axis=-1)
    dirs = np.broadcast_to([0.0, 0.0, -1.0], origins.shape)
    hits = raycast([mesh], [build_bvh(mesh)], origins, dirs)
    points = hits.point.reshape(2, 30, 3)
    hit = hits.hit.reshape(2, 30)
    assert hit.all()
    assert not checks.height_scan_violations(points, hit, ground).any()
    points[1, 4, 2] += 1e-6
    assert checks.height_scan_violations(points, hit, ground).tolist() == [False, True]


def test_camera_check_flags_a_wrong_distance():
    scene = camera_scene()
    down = np.array([np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0])  # x-forward -> -z
    pose = Transform(np.array([[0.5, -0.2, 0.4], [0.8, 0.3, 0.4]]), np.tile(down, (2, 1)))
    pattern = pattern_pinhole(8, 6, focal_px=4.0)
    origins, dirs = place_pattern(pattern, pose)
    hits = raycast(scene.meshes, [build_bvh(m) for m in scene.meshes], origins, dirs)
    shape = (2, -1)
    t, mesh_id, tri_id = (a.reshape(shape) for a in (hits.t, hits.mesh_id, hits.tri_id))
    assert (mesh_id == scene.floor_id).any() and (mesh_id == scene.table_id).any()
    args = (origins, dirs, t, mesh_id, tri_id, scene)
    assert not checks.camera_violations(*args).any()
    e, r = np.argwhere(mesh_id == scene.floor_id)[0]
    t[e, r] += 1e-6
    expected = [False, False]
    expected[e] = True
    assert checks.camera_violations(*args).tolist() == expected


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    spans = [["root", 0.0, 10.0, -1], ["child", 1.0, 5.0, 0],
             ["grandchild", 2.0, 3.0, 1], ["child", 6.0, 8.0, 0]]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
