"""Every narrative demo runs to the end (the CLI demo is left out: the
command line has its own tests, and that demo writes next to itself)."""

import os
import pathlib
import subprocess
import sys

import pytest

import fluctsel

SRC = pathlib.Path(fluctsel.__file__).resolve().parents[1]
DEMOS = sorted(p for p in (SRC.parent / "demos").glob("*.py")
               if p.name != "run_cli_experiment.py")


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
