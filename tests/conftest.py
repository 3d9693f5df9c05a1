import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from hightrans.problem import parse_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def zoo(name):
    """The bundled problem ``problems/<name>.json``, parsed afresh: each
    call returns new handles, so callers may fill caches freely."""
    return parse_problem(PROBLEMS / f"{name}.json")


@pytest.fixture(scope="session")
def free2():
    return oracles.free2()


@pytest.fixture(scope="session")
def bs12():
    return zoo("bs12").build_group()[0]


@pytest.fixture(scope="session")
def modular():
    return zoo("z2-z3").build_group()[0]


@pytest.fixture(scope="session")
def surface():
    return zoo("pi1-sigma2").build_group()[0]


@pytest.fixture(scope="session")
def gauss_aff():
    return zoo("gaussian-hnn").groups["H"]


@pytest.fixture(scope="session")
def commutator_emb():
    return oracles.commutator_subgroup_embedding()


def random_element(group, rng, length=6):
    """A product of random letters; deterministic given the rng."""
    letters = [el for _, el in group.letters()]
    x = group.identity()
    for _ in range(rng.randrange(length + 1)):
        x = x * rng.choice(letters)
    return x


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def problem_path(name):
    return str(PROBLEMS / name)


def run_cli(*args, timeout=20):
    """``hightrans`` with the given arguments in a fresh interpreter,
    killed after ``timeout`` seconds: a hang fails the calling test with
    ``subprocess.TimeoutExpired`` instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "hightrans.cli", *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
