"""The alternating-pairs tool (``tools/ab_pairs.py``) on tiny runs."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "ab_pairs.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )


def test_repo_against_itself_prints_every_field():
    done = _run(REPO, REPO, "--workload", "tvc_wide", "--seed", "0",
                "--runs", "4", "--smoke")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    for side in ("parent", "change"):
        for unit in ("cpu", "wall"):
            line = next(
                (ln for ln in out.splitlines()
                 if ln.startswith(f"{side} {unit}")),
                None,
            )
            assert line is not None, out
            for field in ("median", "q1", "q3", "n=4"):
                assert field in line
    assert out.count("ratio change/parent median") == 2
    assert out.count("change lower in") == 2
    assert "/4 runs" in out


def test_tree_without_sources_exits_2(tmp_path):
    done = _run(tmp_path, REPO, "--workload", "tvc_wide", "--runs", "1")
    assert done.returncode == 2
    assert str(tmp_path) in done.stderr
