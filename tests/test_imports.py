"""Each path loads only the code it runs.

Every snippet runs in a fresh interpreter with ``PYTHONPATH=src``, because
pytest itself has already loaded ``inspect`` and ``logging`` here.  What a
snippet loads is compared with what an empty program (``python -c pass``)
loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "problems").glob("*.json"))

# the modules that parsing a problem file and resolving its acting group run
LOADER = {"hightrans", "hightrans.groups", "hightrans.embeddings", "hightrans.normal_forms",
          "hightrans.graphs", "hightrans.problem"}
# standard-library modules that no path of the package needs
UNNEEDED = {"dataclasses", "inspect", "logging"}
# what only a problem's digest needs: build and verify load it, the loader does not
DIGEST = {"hashlib", "_hashlib"}


def _modules(code):
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def loaded():
    """What a snippet loads beyond an empty program."""
    baseline = _modules("pass")
    return lambda code: _modules(code) - baseline


def test_package_root_loads_no_submodule(loaded):
    assert {name for name in loaded("import hightrans") if name.startswith("hightrans.")} == set()


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_loading_a_problem_loads_only_the_loader(loaded, path):
    names = loaded("from hightrans.problem import parse_problem\n"
                   f"parse_problem({str(path)!r}).build_group()")
    assert {name for name in names if name.split(".")[0] == "hightrans"} == LOADER
    assert not names & (UNNEEDED | DIGEST)


def test_cli_loads_no_dataclasses_inspect_or_logging(loaded):
    assert not loaded("import hightrans.cli") & UNNEEDED
