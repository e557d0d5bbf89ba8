"""``tools/step_digest.py``: the digest of a workload's substeps repeats.

The tool runs as a script, as a user runs it, on small batches and a few
control steps.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_digest.py"


def run(*args):
    out = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload, substeps", [
    ("loco_rough_scan", 8), ("loco_flat", 8), ("arm_osc_cam", 4)])
def test_step_digest_prints_digest_calls_and_time(workload, substeps):
    lines = run(workload, "--steps", 2, "--envs", 2)
    assert len(lines) == 3
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", lines[0])
    calls = re.fullmatch(rf"{substeps} substeps, Python-level calls per substep: "
                         r"median (\d+) \(min (\d+), max (\d+)\)", lines[1])
    assert calls and 0 < int(calls[2]) <= int(calls[1]) <= int(calls[3])
    assert re.fullmatch(r"median \d+\.\d us per substep", lines[2])


def test_step_digest_repeats_and_follows_the_seed():
    first = run("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 3)[0]
    again = run("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 3)[0]
    other = run("loco_rough_scan", "--steps", 2, "--envs", 2, "--seed", 4)[0]
    assert first == again != other
