"""Smoke tests: the demos that drive the engine directly still run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("certified_signatures.py", "every intermediate labeled polynomial passed"),
        ("worked_example.py", "Buchberger oracle agrees: True"),
    ],
)
def test_demo_runs(demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
