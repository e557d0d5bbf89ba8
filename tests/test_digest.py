"""``tools/digest.py``: substep digests repeat, and a recording of a
workload's casts replays to the hits it recorded.

The tool runs as a script, as a user runs it, on small batches and a few
control steps; recordings go to pytest's temporary directory.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


def run(*args):
    out = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                         capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


def steps(*args):
    code, out, err = run("steps", *args)
    assert code == 0, err
    return out.splitlines()


@pytest.mark.parametrize("workload, substeps", [
    ("loco_rough_scan", 8), ("loco_flat", 8), ("arm_osc_cam", 4)])
def test_step_digest_prints_digest_calls_and_time(workload, substeps):
    lines = steps(workload, "--steps", 2, "--envs", 2)
    assert len(lines) == 4
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", lines[0])
    calls = re.fullmatch(rf"{substeps} substeps, Python-level calls per substep: "
                         r"median (\d+) \(min (\d+), max (\d+)\)", lines[1])
    assert calls and 0 < int(calls[2]) <= int(calls[1]) <= int(calls[3])
    assert re.fullmatch(r"median \d+\.\d us per substep", lines[2])
    assert re.fullmatch(r"minor page faults per control step: \d+ in the "
                        r"first, mean \d+\.\d\d over the last 1", lines[3])


def test_step_digest_counts_faults_of_a_single_control_step():
    lines = steps("arm_osc_cam", "--steps", 1, "--envs", 2)
    assert re.fullmatch(r"minor page faults per control step: \d+ in the first",
                        lines[3])


def test_step_digest_repeats_and_follows_the_seed():
    first = steps("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 3)[0]
    again = steps("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 3)[0]
    other = steps("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 4)[0]
    assert first == again != other


@pytest.mark.parametrize("workload", ["loco_rough_scan", "arm_osc_cam"])
def test_replay_digest_equals_the_recorded_casts(tmp_path, workload):
    path = tmp_path / "casts.npz"
    code, recorded, err = run("record", workload, path, "--steps", 3)
    assert code == 0, err
    code, replayed, err = run("replay", path, "--repeats", 1)
    assert code == 0, err
    digest = recorded.splitlines()[0]
    assert digest.startswith("sha256 ") and len(digest) == 7 + 64
    assert replayed.splitlines()[0] == digest
    assert "ms per cast" in replayed


def test_record_refuses_a_path_inside_the_repository():
    inside = TOOL.parent / "casts.npz"
    code, _, err = run("record", "arm_osc_cam", inside, "--steps", 1)
    assert code == 2 and "inside the repository" in err
    assert not inside.exists()


def test_run_restores_the_patched_function_after_an_error():
    script = f"""
import sys
sys.path.insert(0, {str(TOOL.parent)!r})
import digest

def fail(cast, *args, **kwargs):
    raise KeyError("stop")

try:
    digest.run("arm_osc_cam", 11, 1, 2, digest.bench_envs, "raycast", fail)
except KeyError:
    assert digest.bench_envs.raycast is digest.raycast
else:
    raise AssertionError("the workload cast no rays")
"""
    # -B: importing the tool must not write its bytecode into the repository
    out = subprocess.run([sys.executable, "-B", "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
