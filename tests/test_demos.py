"""Every demo runs to completion against the package's public names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo, ROOT)
    assert proc.returncode == 0, proc.stderr


def test_demo_finds_the_problems_from_any_directory(tmp_path):
    """The demos read ``problems/`` relative to their own file."""
    proc = _run(ROOT / "demos" / "04_graphs_of_groups.py", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_demo_02_audits_coset_actions_that_pass_and_one_that_fails():
    """Demo 02 runs ``audit``'s coset domain on problem-file embeddings:
    the finite-index 2Z in Z fails, the infinite-index ones pass."""
    proc = _run(ROOT / "demos" / "02_subgroup_audits.py", ROOT)
    assert proc.returncode == 0, proc.stderr
    verdicts = re.findall(r"coset-action=(\w+)\(", proc.stdout)
    assert verdicts.count("fail") == 1 and verdicts.count("pass") >= 1, proc.stdout
