import os
import subprocess
import sys
from pathlib import Path

import pytest

from tstructkit.quiver import QuiverSpec, build_backend

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python_process(*argv, text=True, timeout=None):
    """Run ``python *argv`` as a subprocess from the repo root, so relative
    demo paths resolve, importing ``tstructkit`` from this checkout's
    ``src/`` ahead of any inherited ``PYTHONPATH``.  Past ``timeout``
    seconds the process is killed and ``subprocess.TimeoutExpired`` raised."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(REPO_ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=text, cwd=REPO_ROOT, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def run_cli_process(*argv, text=True, timeout=None):
    """Run ``python -m tstructkit.cli`` with ``run_python_process``."""
    return run_python_process("-m", "tstructkit.cli", *argv, text=text, timeout=timeout)


@pytest.fixture(scope="session")
def a1():
    return build_backend(QuiverSpec(1, (), 2))


@pytest.fixture(scope="session")
def a2():
    return build_backend(QuiverSpec(2, ((0, 1),), 2))


@pytest.fixture(scope="session")
def a3():
    return build_backend(QuiverSpec(3, ((0, 1), (1, 2)), 2))


@pytest.fixture(scope="session")
def kronecker():
    return build_backend(QuiverSpec(2, ((0, 1), (0, 1)), 2, (1, 1)))


def id_by_dims(backend, dims):
    """The table id of the unique indecomposable with the given dimension
    vector, for fixtures where that is unambiguous."""
    hits = [i for i, ind in enumerate(backend.indecs) if tuple(ind.dims) == tuple(dims)]
    assert len(hits) == 1, f"expected one indecomposable with dims {dims}, found {hits}"
    return hits[0]


@pytest.fixture(scope="session")
def a2_ids(a2):
    return {"S2": id_by_dims(a2, (0, 1)), "S1": id_by_dims(a2, (1, 0)),
            "P1": id_by_dims(a2, (1, 1))}
