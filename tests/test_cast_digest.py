"""``tools/cast_digest.py``: a recording replays to the hits it recorded.

The tool runs as a script, as a user runs it; recordings go to pytest's
temporary directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cast_digest.py"


def run(*args):
    out = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                         capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


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
